//! Black-box tests of `locert trace-check`: the v2 `journal`-section
//! validation (consistent ring accounting passes and is surfaced in the
//! OK line, impossible accounting fails), and the metrics file of every
//! command that writes one passing both `trace-check` and
//! `trace-check --compare` against itself.

mod common;

use common::{assert_pass, locert, scratch_dir, stdout_of};
use std::path::Path;
use std::process::Output;

fn trace_check(args: &[&Path]) -> Output {
    locert()
        .arg("trace-check")
        .args(args)
        .output()
        .expect("spawn locert trace-check")
}

fn check(doc: &str, name: &str) -> Output {
    let path = scratch_dir("trace-check-cli").join(name);
    std::fs::write(&path, doc).expect("write metrics doc");
    trace_check(&[&path])
}

/// `trace-check FILE` and `trace-check --compare FILE FILE` both pass.
fn assert_checks_and_self_compares(path: &Path) {
    let out = trace_check(&[path]);
    assert_pass(&out, &format!("trace-check {}", path.display()));
    assert!(stdout_of(&out).contains(": OK (locert-trace/v2"));
    let out = trace_check(&[Path::new("--compare"), path, path]);
    assert_pass(
        &out,
        &format!("trace-check --compare on {}", path.display()),
    );
    assert!(stdout_of(&out).contains("deterministic sections identical"));
}

/// A minimal valid `locert-trace/v2` document with the given optional
/// `journal` section spliced in.
fn v2_doc(journal: Option<&str>) -> String {
    let journal = journal.map_or_else(String::new, |j| format!(r#","journal":{j}"#));
    format!(
        concat!(
            r#"{{"schema":"locert-trace/v2","quick":true,"#,
            r#""experiments":[{{"id":"s2","telemetry":{{"counters":{{"x":1}}}}}}],"#,
            r#""timings":[{{"id":"s2","wall_s":0.5,"telemetry":{{"spans":[{{}}]}}}}]"#,
            r#"{}}}"#
        ),
        journal
    )
}

#[test]
fn journal_section_is_optional() {
    let out = check(&v2_doc(None), "plain.json");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        !stdout.contains("journal"),
        "no journal note without one: {stdout}"
    );
}

#[test]
fn consistent_journal_accounting_passes_and_is_reported() {
    let out = check(
        &v2_doc(Some(r#"{"capacity":8,"dropped":0,"entries":3}"#)),
        "journal-ok.json",
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(
        stdout.contains("journal 3/8 events, 0 dropped"),
        "OK line surfaces the ring state: {stdout}"
    );

    // A full ring that dropped events is consistent too.
    let out = check(
        &v2_doc(Some(r#"{"capacity":4,"dropped":6,"entries":4}"#)),
        "journal-full.json",
    );
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("journal 4/4 events, 6 dropped"));
}

#[test]
fn impossible_journal_accounting_fails() {
    // More entries than the ring holds.
    let out = check(
        &v2_doc(Some(r#"{"capacity":4,"dropped":0,"entries":9}"#)),
        "journal-overfull.json",
    );
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("9 entries in a ring of 4"));

    // Drops without a full ring: drop-oldest only evicts when full.
    let out = check(
        &v2_doc(Some(r#"{"capacity":8,"dropped":2,"entries":3}"#)),
        "journal-phantom-drop.json",
    );
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("ring is not full"));

    // Zero capacity and missing fields are malformed.
    let out = check(
        &v2_doc(Some(r#"{"capacity":0,"dropped":0,"entries":0}"#)),
        "journal-zero-cap.json",
    );
    assert!(!out.status.success());
    let out = check(&v2_doc(Some(r#"{"dropped":0}"#)), "journal-missing.json");
    assert!(!out.status.success());
}

#[test]
fn v1_documents_are_rejected() {
    let out = check(
        r#"{"schema":"locert-trace/v1","quick":true,"experiments":[{"id":"e1","wall_s":1.0,"telemetry":{"counters":{"x":1},"spans":[{}]}}]}"#,
        "v1.json",
    );
    assert_eq!(out.status.code(), Some(1), "v1 is an unknown schema");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown schema"));
}

#[test]
fn usage_and_io_errors_exit_two() {
    let missing = Path::new("/nonexistent/metrics.json");
    assert_eq!(trace_check(&[]).status.code(), Some(2), "no arguments");
    assert_eq!(
        trace_check(&[missing]).status.code(),
        Some(2),
        "missing file"
    );
    let compare = Path::new("--compare");
    assert_eq!(
        trace_check(&[compare, missing]).status.code(),
        Some(2),
        "--compare needs two files"
    );
}

/// Every command that writes a metrics document writes one that both
/// gates accept — including `loadgen`, whose file once lacked the
/// `quick` key that `--compare` projects.
#[test]
fn every_metrics_file_passes_check_and_self_compare() {
    let dir = scratch_dir("metrics-files");

    let metrics = dir.join("experiments.json");
    let out = locert()
        .args(["experiments", "--quick", "f4", "--metrics"])
        .arg(&metrics)
        .arg("--out")
        .arg(dir.join("report.md"))
        .output()
        .expect("spawn locert experiments");
    assert_pass(&out, "experiments --metrics");
    assert_checks_and_self_compares(&metrics);

    let net = dir.join("net");
    let out = locert()
        .args(["netstorm", "--quick", "--runs", "1", "--out"])
        .arg(&net)
        .output()
        .expect("spawn locert netstorm");
    assert_pass(&out, "netstorm --out");
    assert_checks_and_self_compares(&net.join("net-metrics.json"));

    let mut server = locert_serve::Server::start(&locert_serve::ServeConfig::default())
        .expect("start an in-process daemon");
    let lg = dir.join("loadgen");
    let out = locert()
        .args(["loadgen", "--addr", &server.addr().to_string()])
        .args([
            "--unique",
            "4",
            "--distinct",
            "2",
            "--repeats",
            "8",
            "--min-hit-rate",
            "0",
            "--shutdown",
            "--out",
        ])
        .arg(&lg)
        .output()
        .expect("spawn locert loadgen");
    assert_pass(&out, "loadgen --out");
    server.join();
    assert_checks_and_self_compares(&lg.join("loadgen-metrics.json"));

    let _ = std::fs::remove_dir_all(&dir);
}
