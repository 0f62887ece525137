//! CLI-level tests of the `locert` command: the shared exit and
//! thread-count contract of every subcommand, the `bench_diff`
//! regression gate, and the `experiments` journal/metrics flags. These
//! drive the real executable, so they cover argument parsing, exit
//! codes, and on-disk artifact formats — the contract CI scripts rely on.

mod common;

use common::{locert, stderr_of};
use locert_trace::journal;
use std::path::PathBuf;
use std::process::Command;

fn bench_diff() -> Command {
    let mut cmd = locert();
    cmd.arg("bench_diff");
    cmd
}

fn experiments() -> Command {
    let mut cmd = locert();
    cmd.arg("experiments");
    cmd
}

/// A scratch path unique to this test process (tests share a target
/// dir across runs; stale files from a previous run are overwritten).
fn scratch(name: &str) -> PathBuf {
    common::scratch_dir("cli-gate").join(name)
}

/// Every subcommand, with arguments that would otherwise be valid
/// enough to reach the thread-count check.
const SUBCOMMANDS: [&[&str]; 11] = [
    &["certify", "acyclicity", "/nonexistent.el"],
    &[
        "verify",
        "acyclicity",
        "/nonexistent.el",
        "--certs",
        "/nonexistent",
    ],
    &["schemes"],
    &["experiments", "--quick", "f4", "--out", "/nonexistent/x.md"],
    &["boundcheck", "--list"],
    &["bench_diff", "/nonexistent/a.json", "/nonexistent/b.json"],
    &["diffhunt", "--list"],
    &["netstorm", "--list"],
    &["loadgen", "--addr", "127.0.0.1:9"],
    &["tracescope", "tail", "/nonexistent.jsonl"],
    &["trace-check", "/nonexistent.json"],
];

/// The subcommands that take `--threads`.
const THREADED: [&str; 4] = ["experiments", "boundcheck", "diffhunt", "netstorm"];

/// `--threads 0`, `--threads x`, `LOCERT_THREADS=0` and
/// `LOCERT_THREADS=abc` are one usage error (exit 2) everywhere.
#[test]
fn bad_thread_counts_are_usage_errors_in_every_subcommand() {
    for args in SUBCOMMANDS {
        for bad in ["0", "abc"] {
            let out = locert()
                .args(args)
                .env("LOCERT_THREADS", bad)
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(2), "LOCERT_THREADS={bad} {args:?}");
            assert!(
                stderr_of(&out).contains(&format!("LOCERT_THREADS={bad}: thread count must")),
                "stderr names the source: {}",
                stderr_of(&out)
            );
        }
        if THREADED.contains(&args[0]) {
            for bad in ["0", "x"] {
                let out = locert()
                    .args(args)
                    .args(["--threads", bad])
                    .output()
                    .unwrap();
                assert_eq!(out.status.code(), Some(2), "--threads {bad} {args:?}");
                assert!(
                    stderr_of(&out).contains(&format!("--threads {bad}: thread count must")),
                    "stderr names the source: {}",
                    stderr_of(&out)
                );
            }
        }
    }
}

#[test]
fn usage_errors_exit_two_and_help_exits_zero() {
    for args in [&[][..], &["frobnicate"], &["tracescope"]] {
        let out = locert().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr_of(&out).contains("usage"), "{args:?} prints usage");
    }
    for args in [
        &["--help"][..],
        &["netstorm", "--help"],
        &["boundcheck", "-h"],
    ] {
        let out = locert().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("usage"));
    }
}

const CRITERION_FIXTURE: &str = r#"{
  "schema": "locert-criterion/v1",
  "benchmarks": [
    {"name": "alpha/64", "iters": 10, "min_ns": 900.0, "median_ns": 1000.0, "mean_ns": 1010.0},
    {"name": "beta/512", "iters": 10, "min_ns": 4000.0, "median_ns": 5000.0, "mean_ns": 5100.0}
  ]
}"#;

#[test]
fn identical_artifacts_pass_the_gate() {
    let path = scratch("identical.json");
    std::fs::write(&path, CRITERION_FIXTURE).unwrap();
    let out = bench_diff().arg(&path).arg(&path).output().unwrap();
    assert!(
        out.status.success(),
        "identical inputs must exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("No regressions"), "report: {stdout}");
    assert!(stdout.contains("| alpha/64 |"), "report: {stdout}");
}

#[test]
fn injected_2x_regression_fails_the_gate() {
    let base = scratch("reg_base.json");
    let slow = scratch("reg_slow.json");
    std::fs::write(&base, CRITERION_FIXTURE).unwrap();
    let scaled = bench_diff()
        .args(["scale", "2.0"])
        .arg(&base)
        .arg(&slow)
        .output()
        .unwrap();
    assert!(
        scaled.status.success(),
        "scale must succeed: {}",
        String::from_utf8_lossy(&scaled.stderr)
    );

    let out = bench_diff().arg(&base).arg(&slow).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "2x regression must exit 1: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("REGRESSION"), "report: {stdout}");

    // The same 2x gap passes once the threshold is raised above it.
    let lenient = bench_diff()
        .arg(&base)
        .arg(&slow)
        .args(["--threshold", "2.5"])
        .output()
        .unwrap();
    assert!(lenient.status.success(), "2x within a 2.5x threshold");
}

#[test]
fn regression_exactly_at_threshold_fails_the_gate() {
    let base = scratch("exact_base.json");
    let edge = scratch("exact_edge.json");
    std::fs::write(&base, CRITERION_FIXTURE).unwrap();
    // 1000.0 * 1.5 and 5000.0 * 1.5 are exact in f64, so the ratio lands
    // precisely on the default threshold.
    let scaled = bench_diff()
        .args(["scale", "1.5"])
        .arg(&base)
        .arg(&edge)
        .output()
        .unwrap();
    assert!(
        scaled.status.success(),
        "scale must succeed: {}",
        String::from_utf8_lossy(&scaled.stderr)
    );

    let out = bench_diff().arg(&base).arg(&edge).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        // Regression: `ratio > threshold` let delta == threshold slip by.
        "regression equal to the threshold must exit 1: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("REGRESSION"));

    // Identical inputs still pass even at the tightest legal threshold:
    // a ratio of exactly 1.0 is "unchanged", not a regression.
    let out = bench_diff()
        .arg(&base)
        .arg(&base)
        .args(["--threshold", "1.0"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "identical inputs at threshold 1.0 must pass: {}",
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn improvements_and_renames_do_not_fail_the_gate() {
    let base = scratch("ren_base.json");
    let cur = scratch("ren_cur.json");
    std::fs::write(&base, CRITERION_FIXTURE).unwrap();
    // beta/512 got faster; alpha/64 was renamed (one removed, one added).
    std::fs::write(
        &cur,
        r#"{
  "schema": "locert-criterion/v1",
  "benchmarks": [
    {"name": "alpha_v2/64", "iters": 10, "min_ns": 900.0, "median_ns": 1000.0, "mean_ns": 1010.0},
    {"name": "beta/512", "iters": 10, "min_ns": 2000.0, "median_ns": 2500.0, "mean_ns": 2600.0}
  ]
}"#,
    )
    .unwrap();
    let out = bench_diff().arg(&base).arg(&cur).output().unwrap();
    assert!(out.status.success(), "improvement + rename must pass");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("improved"), "report: {stdout}");
    assert!(stdout.contains("removed"), "report: {stdout}");
    assert!(stdout.contains("added"), "report: {stdout}");
}

#[test]
fn usage_and_io_errors_exit_two() {
    // No arguments.
    let out = bench_diff().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Missing file.
    let out = bench_diff()
        .args(["/nonexistent/a.json", "/nonexistent/b.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Malformed threshold.
    let path = scratch("usage.json");
    std::fs::write(&path, CRITERION_FIXTURE).unwrap();
    let out = bench_diff()
        .arg(&path)
        .arg(&path)
        .args(["--threshold", "0.5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "threshold < 1 is a usage error");
    // Mixed schemas.
    let metrics = scratch("usage_metrics.json");
    std::fs::write(&metrics, METRICS_FIXTURE).unwrap();
    let out = bench_diff().arg(&path).arg(&metrics).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "schema mismatch is an error");
}

/// A `locert-trace/v2` document: wall-clock lives in `timings`.
const METRICS_FIXTURE: &str = r#"{"schema": "locert-trace/v2", "quick": true, "experiments": [{"id": "e1", "telemetry": {}}, {"id": "s2", "telemetry": {}}], "timings": [{"id": "e1", "wall_s": 1.0, "telemetry": {}}, {"id": "s2", "wall_s": 2.0, "telemetry": {}}]}"#;

#[test]
fn metrics_schema_compares_wall_seconds() {
    let base = scratch("wall_base.json");
    let slow = scratch("wall_slow.json");
    std::fs::write(&base, METRICS_FIXTURE).unwrap();
    let out = bench_diff()
        .args(["scale", "2.0"])
        .arg(&base)
        .arg(&slow)
        .output()
        .unwrap();
    assert!(out.status.success());
    let out = bench_diff().arg(&base).arg(&slow).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "2x wall-clock must trip the gate"
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("wall s"));
}

#[test]
fn serve_schema_compares_latency_quantiles() {
    let base = scratch("serve_base.json");
    let slow = scratch("serve_slow.json");
    std::fs::write(
        &base,
        r#"{"schema": "locert-serve/v1", "latency": [{"name": "request", "p50_ns": 100000.0, "p99_ns": 900000.0}, {"name": "request.repeated", "p50_ns": 20000.0, "p99_ns": 80000.0}]}"#,
    )
    .unwrap();
    // Identity passes and the flattened quantile rows appear.
    let out = bench_diff().arg(&base).arg(&base).output().unwrap();
    assert!(
        out.status.success(),
        "identical serve artifacts must exit 0: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("| request/p50 |"), "report: {stdout}");
    assert!(
        stdout.contains("| request.repeated/p99 |"),
        "report: {stdout}"
    );
    assert!(stdout.contains("latency ns"), "report: {stdout}");
    // A synthetic 2x slowdown trips the gate.
    let scaled = bench_diff()
        .args(["scale", "2.0"])
        .arg(&base)
        .arg(&slow)
        .output()
        .unwrap();
    assert!(scaled.status.success());
    let out = bench_diff().arg(&base).arg(&slow).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(1),
        "2x latency must trip the gate: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    // Serve artifacts never compare against another schema.
    let criterion = scratch("serve_vs_criterion.json");
    std::fs::write(&criterion, CRITERION_FIXTURE).unwrap();
    let out = bench_diff().arg(&base).arg(&criterion).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "schema mismatch is an error");
}

#[test]
fn experiments_rejects_unwritable_metrics_path_without_panicking() {
    let out_md = scratch("unwritable_report.md");
    let out = experiments()
        .args(["--quick", "--metrics", "/proc/nonexistent/metrics.json"])
        .arg("--out")
        .arg(&out_md)
        .arg("f4")
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "unwritable metrics path must be an IO error, not a panic"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("/proc/nonexistent/metrics.json"),
        "error names the path: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "no panic: {stderr}");
}

#[test]
fn experiments_rejects_unknown_flags_with_usage() {
    let out = experiments().arg("--no-such-flag").output().unwrap();
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

/// `locert experiments --journal` writes a
/// seed-deterministic JSONL journal whose verdict trail round-trips
/// through the parser.
#[test]
fn journal_is_deterministic_and_replays_verdicts() {
    let md1 = scratch("journal_run1.md");
    let md2 = scratch("journal_run2.md");
    let j1 = scratch("journal_run1.jsonl");
    let j2 = scratch("journal_run2.jsonl");
    for (md, j) in [(&md1, &j1), (&md2, &j2)] {
        let out = experiments()
            .args(["--quick", "--journal"])
            .arg(j)
            .arg("--out")
            .arg(md)
            .args(["e1", "s2"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "experiments run failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let text1 = std::fs::read_to_string(&j1).unwrap();
    let text2 = std::fs::read_to_string(&j2).unwrap();
    assert_eq!(text1, text2, "journal must be byte-identical across runs");

    // Round-trip: parse the JSONL back into a snapshot and re-serialize.
    let snap = journal::from_jsonl(&text1).expect("journal parses");
    assert_eq!(journal::to_jsonl(&snap), text1, "JSONL round-trips exactly");

    // The replay reconstructs per-vertex verdicts: e1 verifies honest
    // instances (accepting verdicts with bits read), and every rejecting
    // verdict carries a machine-readable reason code.
    let verdicts: Vec<_> = snap.verdicts().collect();
    assert!(!verdicts.is_empty(), "e1 must journal verdicts");
    let mut accepted = 0usize;
    for v in &verdicts {
        let journal::Event::Verdict {
            accepted: ok,
            reason,
            bits_read,
            ..
        } = v
        else {
            unreachable!("verdicts() filters");
        };
        if *ok {
            accepted += 1;
            assert!(reason.is_none(), "accepting verdicts carry no reason");
            assert!(*bits_read > 0, "radius-1 views read certificate bits");
        } else {
            assert!(reason.is_some(), "rejections carry a reason code");
        }
    }
    assert!(accepted > 0, "honest e1 runs must accept somewhere");

    // s2's fault campaign journals provenance: detections link a reason
    // to a fault site at bounded distance.
    let mut detections = 0usize;
    for e in snap.entries.iter().map(|e| &e.event) {
        if let journal::Event::Detection {
            reason, distance, ..
        } = e
        {
            detections += 1;
            assert!(!reason.is_empty());
            if let Some(d) = distance {
                assert!(*d <= 12, "detector distance bounded by instance size");
            }
        }
    }
    assert!(detections > 0, "s2 must journal fault detections");
}
