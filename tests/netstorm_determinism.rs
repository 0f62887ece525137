//! End-to-end determinism gate for `locert netstorm`: a same-seed
//! campaign must produce a byte-identical journal, a byte-identical
//! deterministic metrics section, and byte-identical stdout rows at any
//! worker count. This is the same contract `locert experiments` honours
//! (see `par_determinism.rs`), extended to the network simulator: event
//! timing, fault dice, retransmissions, and verdicts may not depend on
//! scheduling.

mod common;

use common::{at_one_and_four_threads, deterministic_section, read, scratch_dir};

#[test]
fn same_seed_campaigns_are_byte_identical_at_one_and_four_threads() {
    let dir = scratch_dir("netstorm");
    let runs = at_one_and_four_threads(&dir, |out| {
        vec![
            "netstorm".into(),
            "--quick".into(),
            "--seed".into(),
            "7".into(),
            "--out".into(),
            out.to_string_lossy().into_owned(),
        ]
    });
    // Drop the one line naming the (per-thread-count) output directory;
    // every other stdout line is campaign data and must be identical.
    let [one, four] = runs.map(|(out, stdout)| {
        let rows: String = stdout
            .lines()
            .filter(|l| !l.starts_with("artifacts written to"))
            .map(|l| format!("{l}\n"))
            .collect();
        (
            read(&out.join("net-journal.jsonl")),
            read(&out.join("net-metrics.json")),
            rows,
        )
    });

    assert!(!one.0.is_empty(), "journal is empty");
    assert_eq!(
        one.0, four.0,
        "netstorm journal diverged between 1 and 4 threads"
    );
    assert_eq!(
        deterministic_section(&one.1),
        deterministic_section(&four.1),
        "deterministic metrics section diverged between 1 and 4 threads"
    );
    assert_eq!(
        one.2, four.2,
        "campaign rows diverged between 1 and 4 threads"
    );
    // The journal carries the network event types end to end.
    for kind in ["net-send", "net-verdict"] {
        assert!(one.0.contains(kind), "journal is missing {kind} events");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
