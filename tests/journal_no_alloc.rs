//! Asserts the journal's disabled fast path is allocation-free.
//!
//! Journal instrumentation sits on hot paths (`run_verification`,
//! `Assignment::cert_mut`, the fault campaigns), so when no `--journal`
//! flag enabled it, recording must cost one relaxed atomic load and
//! nothing else — in particular, the event-constructing closure passed
//! to `record_with` must never run. A counting global allocator makes
//! that claim checkable: with the journal disabled, a burst of
//! `record_with` calls and instrumented `cert_mut` calls performs zero
//! allocations — even with the live-tailing stream sink compiled in and
//! a subscriber registered, since publication sits behind the same
//! enabled gate.
//!
//! This lives in its own integration-test binary because the
//! `#[global_allocator]` is process-wide; keeping a single `#[test]`
//! here means no concurrent test can allocate and pollute the count.
//! The allocator still counts only the test thread: libtest's main
//! thread finishes its own bookkeeping (four allocations) concurrently
//! with the test's start, and under CPU contention that used to land in
//! the measured window. The code under test runs only on the calling
//! thread, so a per-thread count still checks the whole claim.

use locert_core::framework::{Instance, Prover};
use locert_core::schemes::spanning_tree::VertexCountScheme;
use locert_graph::{generators, IdAssignment};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Set on the test thread only; const-initialized, so reading it
    /// from inside the allocator never allocates.
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTED.with(Cell::get) {
            ALLOCATIONS.fetch_add(1, Ordering::SeqCst);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn disabled_journal_fast_path_does_not_allocate() {
    COUNTED.with(|c| c.set(true));
    // Build everything that legitimately allocates up front.
    let graph = generators::path(16);
    let ids = IdAssignment::contiguous(graph.num_nodes());
    let instance = Instance::new(&graph, &ids);
    let scheme = VertexCountScheme::new(8, 16);
    let mut assignment = scheme.assign(&instance).expect("honest prover");
    let vertices: Vec<_> = instance.graph().nodes().collect();

    locert_trace::journal::disable();
    assert!(!locert_trace::journal::enabled());

    // A live streaming subscriber must not change the disabled cost:
    // the subscription check sits behind the same enabled gate, so a
    // registered tailer costs nothing until recording is on. (Creating
    // the subscription allocates; do it before the measured window.)
    let subscription = locert_trace::journal::stream::subscribe();

    let before = ALLOCATIONS.load(Ordering::SeqCst);

    // Direct record_with calls: the closure builds a String, so if it
    // ever ran the counter would move.
    for i in 0..10_000u64 {
        locert_trace::journal::record_with(|| locert_trace::journal::Event::Marker {
            label: format!("marker-{i}"),
        });
        locert_trace::journal::record_with(|| locert_trace::journal::Event::Verdict {
            vertex: i,
            accepted: true,
            reason: None,
            bits_read: i,
        });
    }

    // The cert_mut instrumentation point, as fault campaigns hit it.
    for _ in 0..1_000 {
        for &v in &vertices {
            let cert = assignment.cert_mut(v);
            let _ = cert.len_bits();
        }
    }

    let after = ALLOCATIONS.load(Ordering::SeqCst);
    assert_eq!(
        after - before,
        0,
        "disabled journal path allocated {} times (with a live subscriber registered)",
        after - before
    );
    assert!(
        subscription.is_empty(),
        "a disabled journal must not publish to subscribers"
    );

    // Sanity: the same closure allocates once recording is on, proving
    // the counter actually observes this code path — and the subscriber
    // now sees the entry, proving the stream seam was live all along.
    locert_trace::journal::enable();
    locert_trace::journal::reset();
    locert_trace::journal::record_with(|| locert_trace::journal::Event::Marker {
        label: format!("enabled-{}", vertices.len()),
    });
    let enabled_allocs = ALLOCATIONS.load(Ordering::SeqCst) - after;
    assert!(
        enabled_allocs > 0,
        "counting allocator must observe the enabled path"
    );
    assert_eq!(
        subscription.drain().len(),
        1,
        "the enabled path publishes to the live subscriber"
    );
    drop(subscription);
    locert_trace::journal::disable();
    locert_trace::journal::reset();
}
