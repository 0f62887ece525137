//! End-to-end determinism gate for the `locert-par` runtime:
//! `locert experiments` must produce byte-identical deterministic
//! artifacts (verification journal, deterministic metrics section,
//! report tables) no matter how many workers the pool runs.
//!
//! This is the contract that makes parallel verification trustworthy:
//! scheduling may vary, results may not. The quick E3/S1/S2 grid covers
//! the three parallelised paths — per-vertex verdicts
//! (`run_verification`), exhaustive certificate enumeration
//! (`exhaustive_soundness`), and fault-campaign rounds (`run_campaign`).

mod common;

use common::{
    assert_pass, at_one_and_four_threads, deterministic_section, locert, read, scratch_dir,
};
use std::path::Path;

/// Arguments of the quick E3/S1/S2 grid, writing into `dir`.
fn grid_args(dir: &Path) -> Vec<String> {
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    vec![
        "experiments".into(),
        "e3".into(),
        "s1".into(),
        "s2".into(),
        "--quick".into(),
        "--metrics".into(),
        path("metrics.json"),
        "--journal".into(),
        path("journal.jsonl"),
        "--out".into(),
        path("report.md"),
    ]
}

/// Strips the run-varying parts of the report: the telemetry appendix
/// (wall histograms, `par.*` scheduling counters), the line naming the
/// per-run metrics path, and every wall-time table column (headers with
/// a time unit — `wall time [s]`, `prover [ms]`, `verify [µs/vertex]`).
/// Everything else — every deterministic table cell — must be
/// byte-identical across thread counts.
fn deterministic_report(report: &str) -> String {
    let body = report
        .split("## Telemetry appendix")
        .next()
        .unwrap_or(report);
    let timing_col = |h: &str| h.contains("[ms]") || h.contains("[µs") || h.contains("[s]");
    let mut out = String::new();
    let mut drop_cols: Vec<usize> = Vec::new();
    let mut in_table = false;
    for line in body.lines() {
        if line.contains("machine-readable") {
            continue; // names the per-run metrics path
        }
        if line.starts_with('|') {
            let cells: Vec<&str> = line.split('|').collect();
            if !in_table {
                in_table = true;
                drop_cols = cells
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| timing_col(c))
                    .map(|(i, _)| i)
                    .collect();
            }
            let kept: Vec<&str> = cells
                .iter()
                .enumerate()
                .filter(|(i, _)| !drop_cols.contains(i))
                .map(|(_, c)| *c)
                .collect();
            out.push_str(&kept.join("|"));
        } else {
            in_table = false;
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[test]
fn artifacts_are_byte_identical_at_one_and_four_threads() {
    let dir = scratch_dir("par-det");
    let [(one, _), (four, _)] = at_one_and_four_threads(&dir, grid_args);

    let journal = read(&one.join("journal.jsonl"));
    assert!(
        !journal.is_empty(),
        "journal must record events for the comparison to mean anything"
    );
    assert_eq!(
        journal,
        read(&four.join("journal.jsonl")),
        "verification journal diverged between 1 and 4 threads"
    );

    let det_one = deterministic_section(&read(&one.join("metrics.json")));
    let det_four = deterministic_section(&read(&four.join("metrics.json")));
    assert!(det_one.contains("counters"), "deterministic section empty");
    assert_eq!(
        det_one, det_four,
        "deterministic metrics section diverged between 1 and 4 threads"
    );

    let report_one = deterministic_report(&read(&one.join("report.md")));
    let report_four = deterministic_report(&read(&four.join("report.md")));
    assert!(
        report_one.contains("| "),
        "report must contain experiment tables"
    );
    assert_eq!(
        report_one, report_four,
        "report tables diverged between 1 and 4 threads"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The `--threads` flag must behave exactly like the environment
/// variable: a `--threads 3` run and a `LOCERT_THREADS=3` run produce
/// the same deterministic journal (they are the same pool, configured
/// through two doors).
#[test]
fn threads_flag_matches_environment_variable() {
    let dir = scratch_dir("par-flag");
    let env_dir = dir.join("env");
    std::fs::create_dir_all(&env_dir).expect("create env dir");
    let out = locert()
        .args(grid_args(&env_dir))
        .env("LOCERT_THREADS", "3")
        .output()
        .expect("spawn locert");
    assert_pass(&out, "LOCERT_THREADS=3 run");

    let journal = dir.join("journal_flag.jsonl");
    let report = dir.join("report_flag.md");
    let out = locert()
        .args([
            "experiments",
            "e3",
            "--quick",
            "--threads",
            "3",
            "--journal",
        ])
        .arg(&journal)
        .arg("--out")
        .arg(&report)
        .output()
        .expect("spawn locert");
    assert_pass(&out, "experiments --threads 3");

    // The env run covered e3+s1+s2; restrict both journals to e3 events
    // (everything from the e3 marker up to the next experiment marker).
    let e3_slice = |jsonl: &str| -> String {
        let mut out = String::new();
        let mut active = false;
        for line in jsonl.lines() {
            if line.contains("\"marker\"") {
                active = line.contains("\"e3\"");
            }
            if active {
                out.push_str(line);
                out.push('\n');
            }
        }
        out
    };
    let env_e3 = e3_slice(&read(&env_dir.join("journal.jsonl")));
    let flag_e3 = e3_slice(&read(&journal));
    assert!(!flag_e3.is_empty(), "e3 journal slice is empty");
    // Sequence numbers restart identically because e3 runs first in both
    // invocations, so the slices compare byte-for-byte.
    assert_eq!(
        env_e3, flag_e3,
        "--threads 3 and LOCERT_THREADS=3 journals diverged"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
