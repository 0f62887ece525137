//! Capture frames through the public API: what a frame records, how
//! frames nest, unwind and flush, and how `absorb` feeds the
//! process-wide sinks. Only the last test touches the global switches;
//! the others use metric names it never records.

use locert_trace::{
    absorb, add, capture, disable, enable, journal, ledger, record, recording, reset, snapshot,
    span, Counter,
};

#[test]
fn frames_record_whatever_the_switches_say_and_nest_privately() {
    let ((), outer) = capture(|| {
        assert!(recording());
        add("test.frame.counter", 1);
        Counter::named("test.frame.counter").add(2);
        let ((), inner) = capture(|| {
            add("test.frame.counter", 40);
            journal::record_with(|| journal::Event::Marker {
                label: "inner".into(),
            });
            ledger::record_cert(5, 7, &[("inner", 0)]);
        });
        assert_eq!(inner.metrics.snapshot().counters["test.frame.counter"], 40);
        assert_eq!(inner.journal.len(), 1);
        assert_eq!(inner.ledger.certs[0].vertex, 5);
        journal::record_with(|| journal::Event::Marker {
            label: "outer".into(),
        });
    });
    let snap = outer.metrics.snapshot();
    assert_eq!(
        snap.counters["test.frame.counter"], 3,
        "inner frame stayed private"
    );
    assert_eq!(
        outer.journal,
        vec![journal::Event::Marker {
            label: "outer".into()
        }]
    );
    assert!(outer.ledger.certs.is_empty());
    // Handles never write the process-wide cell from inside a frame.
    assert_eq!(Counter::named("test.frame.counter").get(), 0);
}

#[test]
fn absorb_replays_into_the_enclosing_frame_under_the_open_span() {
    let ((), outer) = capture(|| {
        let _open = span!("test.absorb.open");
        add("test.absorb.counter", 1);
        record("test.absorb.histogram", 4);
        let ((), inner) = capture(|| {
            let _s = span!("test.absorb.task");
            add("test.absorb.counter", 2);
            record("test.absorb.histogram", 1000);
            journal::record_with(|| journal::Event::CertMutated { vertex: 9 });
            ledger::record_cert(3, 2, &[("x", 0)]);
        });
        absorb(inner);
    });
    let snap = outer.metrics.snapshot();
    assert_eq!(snap.counters["test.absorb.counter"], 3);
    let h = &snap.histograms["test.absorb.histogram"];
    assert_eq!(
        (h.count, h.sum, h.min, h.max),
        (2, 1004, Some(4), Some(1000))
    );
    assert_eq!(h.buckets, vec![(7, 1), (1023, 1)]);
    assert_eq!(snap.spans.len(), 1, "the task span grafted, not a new root");
    assert_eq!(snap.spans[0].name, "test.absorb.open");
    assert_eq!(snap.spans[0].children[0].name, "test.absorb.task");
    assert_eq!(
        outer.journal,
        vec![journal::Event::CertMutated { vertex: 9 }]
    );
    assert_eq!(outer.ledger.certs.len(), 1);
}

#[test]
fn a_panicking_capture_reinstalls_the_outer_frame() {
    let ((), outer) = capture(|| {
        let _open = span!("test.unwind.outer");
        let caught = std::panic::catch_unwind(|| {
            capture(|| {
                add("test.unwind.doomed", 1);
                let _s = span!("test.unwind.doomed");
                panic!("boom");
            })
        });
        assert!(caught.is_err());
        add("test.unwind.after", 1);
    });
    let snap = outer.metrics.snapshot();
    assert_eq!(snap.counters.get("test.unwind.after"), Some(&1));
    assert!(!snap.counters.contains_key("test.unwind.doomed"));
    assert_eq!(snap.spans.len(), 1);
    assert_eq!(snap.spans[0].name, "test.unwind.outer");
    assert!(snap.spans[0].children.is_empty());
    assert!(!ledger::active(), "no frame left behind");
}

#[test]
fn absorb_without_a_frame_feeds_the_global_registry_only_while_enabled() {
    disable();
    reset();
    let task = || {
        capture(|| {
            add("test.global.absorbed", 5);
            record("test.global.absorbed.h", 2);
        })
        .1
    };
    absorb(task());
    assert!(!snapshot().counters.contains_key("test.global.absorbed"));
    enable();
    {
        let _open = span!("test.global.open");
        absorb(task());
    }
    disable();
    let snap = snapshot();
    reset();
    assert_eq!(snap.counters["test.global.absorbed"], 5);
    assert_eq!(snap.histograms["test.global.absorbed.h"].count, 1);
    let open = snap
        .spans
        .iter()
        .find(|s| s.name == "test.global.open")
        .expect("open span recorded");
    assert!(open.children.is_empty(), "the task recorded no span");
}
