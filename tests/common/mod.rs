//! Helpers shared by the tests that drive the `locert` binary as a
//! subprocess: the exit contract, artifact formats and determinism
//! across thread counts, exactly as CI scripts see them.

#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A `locert` command with `LOCERT_THREADS` cleared, so the ambient
/// environment (CI sets it per matrix leg) never changes a test.
pub fn locert() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_locert"));
    cmd.env_remove("LOCERT_THREADS");
    cmd
}

/// A scratch directory unique to this test process and `tag`.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("locert-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Asserts the run passed (exit 0), showing stderr otherwise.
pub fn assert_pass(out: &Output, what: &str) {
    assert!(
        out.status.success(),
        "{what} failed ({:?}): {}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
}

pub fn stdout_of(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

pub fn stderr_of(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf-8 stderr")
}

pub fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The determinism gate's launcher: runs `locert ARGS --threads N` at
/// N = 1 and N = 4, each writing its artifacts under `dir/tN` (the
/// directory `args` receives). The pool is a process-global that cannot
/// be resized after first use, so each width is its own process. Both
/// runs must pass; returns each run's artifact directory and stdout.
pub fn at_one_and_four_threads(
    dir: &Path,
    args: impl Fn(&Path) -> Vec<String>,
) -> [(PathBuf, String); 2] {
    [1, 4].map(|threads| {
        let out_dir = dir.join(format!("t{threads}"));
        std::fs::create_dir_all(&out_dir).expect("create run dir");
        let out = locert()
            .args(args(&out_dir))
            .args(["--threads", &threads.to_string()])
            .output()
            .expect("spawn locert");
        assert_pass(&out, &format!("run at {threads} threads"));
        (out_dir, stdout_of(&out))
    })
}

/// The deterministic section of a `locert-trace/v2` document, as
/// `locert trace-check --compare` projects it.
pub fn deterministic_section(metrics: &str) -> String {
    let doc = locert_trace::json::parse(metrics).expect("metrics parses as JSON");
    locert_trace::export::deterministic_section(&doc).expect("v2 document")
}
