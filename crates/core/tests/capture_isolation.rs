//! Capture frames are thread-scoped: opening one on a thread changes
//! nothing about what instrumentation on other threads does, and the
//! frame sees none of their records — neither from threads recording
//! nowhere nor from threads recording into the process-wide sinks.
//!
//! Three threads step through fixed phases on barriers, so the
//! interleaving is the same on every run:
//!
//! 1. A writes certificate bits with no frame and no component mark;
//! 2. B opens a capture; C has switched the global sinks on;
//! 3. A finishes its certificate and records metrics, an event and a
//!    ledger entry; B and C record their own;
//! 4. B closes its capture.
//!
//! A process-wide "some capture is open" gate would make A's
//! `finish_for` in phase 3 demand a component mark at bit 0, which A
//! never had reason to write.
//!
//! This is its own test binary because C flips the global switches.

use locert_core::bits::BitWriter;
use locert_trace::journal::{self, Event};
use std::sync::Barrier;
use std::thread;

fn marker(label: &str) -> Event {
    Event::Marker {
        label: label.to_string(),
    }
}

#[test]
fn a_capture_neither_changes_nor_sees_other_threads() {
    let written = Barrier::new(2);
    let opened = Barrier::new(3);
    let recorded = Barrier::new(3);
    let (finished, captured) = thread::scope(|s| {
        let a = s.spawn(|| {
            let mut w = BitWriter::new();
            w.write(0b101, 3);
            written.wait();
            opened.wait();
            let finished = std::panic::catch_unwind(move || w.finish_for(0).len_bits());
            locert_trace::add("isolation.a.counter", 1);
            let _span = locert_trace::span!("isolation.a.span");
            journal::record_with(|| marker("a"));
            locert_trace::ledger::record_cert(1, 4, &[("a", 0)]);
            recorded.wait();
            finished
        });
        let c = s.spawn(|| {
            locert_trace::enable();
            journal::enable();
            opened.wait();
            locert_trace::add("isolation.c.counter", 1);
            locert_trace::record("isolation.c.histogram", 7);
            let _span = locert_trace::span!("isolation.c.span");
            journal::record_with(|| marker("c"));
            recorded.wait();
        });
        let b = s.spawn(|| {
            written.wait();
            let ((), captured) = locert_trace::capture(|| {
                opened.wait();
                locert_trace::add("isolation.b.counter", 1);
                journal::record_with(|| marker("b"));
                let mut w = BitWriter::new();
                w.component("b").write(1, 2);
                let _ = w.finish_for(2);
                recorded.wait();
            });
            captured
        });
        c.join().expect("thread C");
        (a.join().expect("thread A"), b.join().expect("thread B"))
    });
    locert_trace::disable();
    journal::disable();
    let global = locert_trace::snapshot();
    let ring = journal::snapshot();

    assert_eq!(
        finished.ok(),
        Some(3),
        "A's unmarked certificate finishes cleanly while B captures"
    );

    let metrics = captured.metrics.snapshot();
    assert_eq!(
        metrics.counters.keys().collect::<Vec<_>>(),
        vec!["isolation.b.counter"]
    );
    assert!(metrics.histograms.is_empty());
    assert!(metrics.spans.is_empty());
    assert_eq!(captured.journal, vec![marker("b")]);
    assert_eq!(captured.ledger.certs.len(), 1);
    assert_eq!(captured.ledger.certs[0].vertex, 2);
    assert!(captured.ledger.fully_attributed());

    // C's records did reach the process-wide sinks — the switches were
    // on — and B's did not.
    assert_eq!(global.counters.get("isolation.c.counter"), Some(&1));
    assert!(!global.counters.contains_key("isolation.b.counter"));
    let labels: Vec<_> = ring.entries.iter().map(|e| &e.event).collect();
    assert!(labels.contains(&&marker("c")));
    assert!(!labels.contains(&&marker("b")));
}
