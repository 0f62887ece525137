//! Black-box tests of `locert tracescope`: exit-code contract
//! (0 success / 1 finding / 2 usage-io), `diff` divergence reporting,
//! `why` causal resolution, and the `serve` wire surface — the same
//! invocations the CI scope-gate runs.

mod common;

use common::{locert, stderr_of, stdout_of};
use locert_core::faults::{run_campaign, FaultModel};
use locert_core::framework::{Instance, Prover};
use locert_core::schemes::spanning_tree::VertexCountScheme;
use locert_graph::{generators, IdAssignment};
use locert_trace::journal;
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn tracescope() -> Command {
    let mut cmd = locert();
    cmd.arg("tracescope");
    cmd
}

fn run(args: &[&str]) -> Output {
    tracescope()
        .args(args)
        .output()
        .expect("spawn locert tracescope")
}

/// A scratch path unique to this test process.
fn scratch(name: &str) -> PathBuf {
    common::scratch_dir("tracescope-cli").join(name)
}

/// A small real campaign journal, written to disk via the streaming
/// writer (the same path `locert experiments --journal` takes). The journal is
/// process-global state and the harness runs tests in parallel, so
/// generation is serialized.
fn write_campaign_journal(name: &str) -> PathBuf {
    static JOURNAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let _guard = JOURNAL.lock().expect("journal generation lock");
    journal::reset();
    journal::enable();
    let n = 8usize;
    let g = generators::path(n);
    let ids = IdAssignment::contiguous(n);
    let inst = Instance::new(&g, &ids);
    let scheme = VertexCountScheme::new(6, n as u64);
    let honest = scheme.assign(&inst).expect("yes-instance");
    run_campaign(&scheme, &inst, &honest, FaultModel::BitFlip, 8, 0x5c09e);
    journal::disable();
    let snap = journal::snapshot();
    journal::reset();
    let path = scratch(name);
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path).expect("create"));
    journal::write_jsonl(&snap, &mut file).expect("write journal");
    file.flush().expect("flush");
    path
}

#[test]
fn exit_code_contract() {
    let journal_path = write_campaign_journal("contract.jsonl");
    let journal_str = journal_path.to_str().expect("utf8 path");

    // Usage errors are exit 2.
    assert_eq!(run(&[]).status.code(), Some(2));
    assert_eq!(run(&["frobnicate"]).status.code(), Some(2));
    assert_eq!(run(&["query"]).status.code(), Some(2), "missing journal");
    assert_eq!(
        run(&["query", journal_str, "--bogus"]).status.code(),
        Some(2),
        "unknown option"
    );
    assert_eq!(
        run(&["why", "/nonexistent/journal.jsonl"]).status.code(),
        Some(2),
        "I/O error"
    );

    // query --count prints the number of detections and exits 0.
    let out = run(&["query", journal_str, "--kind", "detection", "--count"]);
    assert_eq!(out.status.code(), Some(0));
    let count: usize = stdout_of(&out).trim().parse().expect("a count");
    assert!(count > 0, "campaign journal has detections");

    // why resolves every detection: exit 0, one chain line each.
    let out = run(&["why", journal_str]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr_of(&out));
    let stdout = stdout_of(&out);
    assert_eq!(stdout.matches("fault injected at site").count(), count);
    assert!(stdout.contains("-> detection seq"));

    // tail honors -n and emits JSONL.
    let out = run(&["tail", journal_str, "-n", "3"]);
    assert_eq!(out.status.code(), Some(0));
    let tail = stdout_of(&out);
    assert_eq!(tail.lines().count(), 3);
    assert!(tail.lines().all(|l| l.starts_with('{')));

    // windows over the campaign scope: every line names a window.
    let out = run(&[
        "windows",
        journal_str,
        "--scope",
        "core.faults.campaign",
        "--interval",
        "4",
    ]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout_of(&out).lines().all(|l| l.starts_with("window ")));
}

#[test]
fn why_flags_orphan_detections() {
    // A detection with no matching injection: the flush contract is
    // broken (as after ring-buffer truncation), so `why` must exit 1.
    let path = scratch("orphan.jsonl");
    std::fs::write(
        &path,
        concat!(
            r#"{"schema":"locert-journal/v1","dropped":3}"#,
            "\n",
            r#"{"detector":2,"distance":1,"model":"bit-flip","reason":"parent-distance-clash","seq":7,"site":3,"type":"detection"}"#,
            "\n",
        ),
    )
    .expect("write orphan journal");
    let out = run(&["why", path.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("UNRESOLVED"), "stderr: {stderr}");
    assert!(
        stderr.contains("dropped 3 events"),
        "points at the truncated ring: {stderr}"
    );
}

#[test]
fn diff_reports_first_divergence() {
    let left = write_campaign_journal("diff-left.jsonl");
    let left_str = left.to_str().expect("utf8 path");

    // Identical files: exit 0.
    let out = run(&["diff", left_str, left_str]);
    assert_eq!(out.status.code(), Some(0));
    assert!(stdout_of(&out).starts_with("identical:"));

    // Perturb one field on one line: exit 1, divergence names the line.
    let text = std::fs::read_to_string(&left).expect("read");
    let perturbed: Vec<String> = text
        .lines()
        .map(|l| {
            if l.contains("\"type\":\"detection\"") {
                l.replacen("\"detector\":", "\"detector\":9", 1)
            } else {
                l.to_string()
            }
        })
        .collect();
    assert_ne!(perturbed.join("\n"), text.trim_end(), "perturbation took");
    let right = scratch("diff-right.jsonl");
    std::fs::write(&right, perturbed.join("\n") + "\n").expect("write");
    let out = run(&["diff", left_str, right.to_str().expect("utf8 path")]);
    assert_eq!(out.status.code(), Some(1));
    let report = stdout_of(&out);
    assert!(report.contains("line "), "report names a line: {report}");
}

#[test]
fn serve_answers_scrapes_then_exits_on_budget() {
    let journal_path = write_campaign_journal("serve.jsonl");
    let mut child = tracescope()
        .args([
            "serve",
            journal_path.to_str().expect("utf8 path"),
            "--addr",
            "127.0.0.1:0",
            "--max-requests",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn locert tracescope serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let banner = lines
        .next()
        .expect("banner line")
        .expect("read banner line");
    let addr = banner
        .strip_prefix("listening on http://")
        .unwrap_or_else(|| panic!("unexpected banner: {banner}"));

    let get = |target: &str| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {target} HTTP/1.1\r\nHost: locert\r\n\r\n").expect("request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("response");
        response
    };

    // The replayed journal shows up in /metrics as per-kind counters…
    let metrics = get("/metrics");
    assert!(metrics.starts_with("HTTP/1.1 200 OK"));
    assert!(
        metrics.contains("locert_scope_journal_events_detection_total"),
        "metrics: {metrics}"
    );
    // …and in the tail as real entries.
    let tail = get("/journal/tail?n=1");
    assert!(tail.starts_with("HTTP/1.1 200 OK"));
    assert!(tail.trim_end().ends_with('}'), "tail: {tail}");

    // Budget of 2 exhausted: the process exits 0 by itself.
    let status = child.wait().expect("wait for serve");
    assert_eq!(status.code(), Some(0));
}
