//! `locert-trace` — workspace-wide tracing and metrics for the locert
//! reproduction.
//!
//! The paper's upper bounds are claims about *resources* (certificate bits
//! as functions of `n`, `t`, `k`); this crate gives every layer of the
//! workspace a way to report where those resources — and the wall time
//! spent computing them — actually go. Three pieces:
//!
//! - **hierarchical spans** ([`span!`]/[`event!`]): RAII guards that
//!   aggregate wall time per call-tree path. Spans on the same path are
//!   merged (name → calls + total ns), so per-vertex instrumentation stays
//!   bounded in memory;
//! - **a metrics registry**: named atomic [`Counter`]s and fixed-bucket
//!   [`Histogram`]s (power-of-two buckets), safe to update from any
//!   thread;
//! - **structured export** ([`snapshot`] → [`export`]): JSON for machines
//!   and a markdown summary for humans, with a hand-rolled JSON
//!   reader/writer ([`json`]) since the workspace is offline and
//!   serde-free.
//!
//! Instrumentation on a thread with a capture frame installed
//! ([`capture`]) records into that private frame, whatever the global
//! switches say; this is also how bit ledgers are captured, and
//! [`absorb`] flushes a frame onward. Otherwise metrics go to the
//! process-wide registry while the global subscriber is on ([`enable`]).
//! With no frame and the subscriber off — the default — every
//! instrumentation point is one thread-local read plus one relaxed
//! atomic load and **nothing is recorded**, so instrumented hot paths
//! cost nothing measurable in ordinary builds and benches.
//!
//! Metric names follow the workspace convention `layer.component.metric`
//! (e.g. `core.framework.verifier.invocations`,
//! `treedepth.exact.branches`); see DESIGN.md §6 for the taxonomy.
//!
//! # Example
//!
//! ```
//! let ((), captured) = locert_trace::capture(|| {
//!     let _outer = locert_trace::span!("example.outer");
//!     for _ in 0..3 {
//!         let _inner = locert_trace::span!("example.inner");
//!         locert_trace::add("example.work.items", 2);
//!         locert_trace::record("example.work.size", 17);
//!     }
//! });
//! let snap = captured.metrics.snapshot();
//! assert_eq!(snap.counters["example.work.items"], 6);
//! // Nothing reached the (disabled) process-wide registry.
//! assert!(!locert_trace::snapshot().counters.contains_key("example.work.items"));
//! ```

pub mod export;
pub mod journal;
pub mod json;
pub mod ledger;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Global subscriber flag
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns the global subscriber on: spans, counters and histograms start
/// recording.
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns the global subscriber off (the default). Instrumentation points
/// reduce to one relaxed atomic load; nothing is recorded.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether the global subscriber is on.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Whether metrics recorded on this thread are kept: a capture frame is
/// installed, or the global subscriber is on.
#[inline]
pub fn recording() -> bool {
    capturing() || enabled()
}

// ---------------------------------------------------------------------------
// Registry: counters + histograms + span forest
// ---------------------------------------------------------------------------

/// Named counters and histograms plus the aggregated span forest: the
/// process-wide sink ([`snapshot`]) and every capture frame's metrics.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Cells<AtomicU64>,
    histograms: Cells<HistogramCells>,
    /// Aggregated span forest, merged in as outermost spans close.
    roots: BTreeMap<&'static str, AggNode>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    counters: BTreeMap::new(),
    histograms: BTreeMap::new(),
    roots: BTreeMap::new(),
});

fn global() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().expect("metrics registry")
}

type Cells<T> = BTreeMap<Arc<str>, Arc<T>>;

/// Looks up `name` in `cells`, registering a fresh cell on first use.
fn cell<'a, T>(cells: &'a mut Cells<T>, name: &str, fresh: impl FnOnce() -> T) -> &'a Arc<T> {
    if !cells.contains_key(name) {
        cells.insert(Arc::from(name), Arc::new(fresh()));
    }
    &cells[name]
}

impl Registry {
    fn add(&mut self, name: &str, v: u64) {
        cell(&mut self.counters, name, || AtomicU64::new(0)).fetch_add(v, Ordering::Relaxed);
    }

    fn record(&mut self, name: &str, v: u64) {
        cell(&mut self.histograms, name, HistogramCells::new).record(v);
    }

    /// Adds `other` into this registry; its root spans go under `open`
    /// (the absorbing thread's innermost open span) if there is one.
    fn merge(&mut self, other: Registry, open: Option<&mut ActiveSpan>) {
        for (name, c) in other.counters {
            self.add(&name, c.load(Ordering::SeqCst));
        }
        for (name, h) in other.histograms {
            cell(&mut self.histograms, &name, HistogramCells::new).merge(&h);
        }
        let roots = open.map_or(&mut self.roots, |p| &mut p.children);
        merge_forest(roots, other.roots);
    }

    /// Copies the registry's state out (see [`Snapshot`]).
    pub fn snapshot(&self) -> Snapshot {
        let counters = self.counters.iter();
        let histograms = self.histograms.iter();
        Snapshot {
            counters: counters
                .map(|(name, c)| (name.to_string(), c.load(Ordering::SeqCst)))
                .filter(|&(_, v)| v > 0)
                .collect(),
            histograms: histograms
                .filter_map(|(name, h)| Some((name.to_string(), h.snapshot()?)))
                .collect(),
            spans: to_span_nodes(&self.roots),
        }
    }
}

/// Zeroes every registered counter and histogram and clears the recorded
/// span forest. Registered names (and any cached [`Counter`]/[`Histogram`]
/// handles) stay valid. Call between measurement units (e.g. between
/// experiments) with no spans open.
pub fn reset() {
    let mut reg = global();
    for c in reg.counters.values() {
        c.store(0, Ordering::SeqCst);
    }
    for h in reg.histograms.values() {
        h.reset();
    }
    reg.roots.clear();
}

// ---------------------------------------------------------------------------
// Capture frames
// ---------------------------------------------------------------------------

/// Everything one [`capture`] recorded on its thread.
#[derive(Debug, Default)]
pub struct Captured {
    /// Counters, histograms and spans.
    pub metrics: Registry,
    /// Journal events in record order (numbered when they reach the ring).
    pub journal: Vec<journal::Event>,
    /// The attribution of every certificate finalized, in finish order.
    pub ledger: ledger::BitLedger,
}

/// This thread's telemetry state: the installed capture frame, if any,
/// and the stack of open spans (each frame starts its own).
#[derive(Default)]
struct Local {
    frame: Option<Captured>,
    stack: Vec<ActiveSpan>,
}

impl Local {
    /// Merges a closed span (or a mark) under the innermost open span,
    /// else at the roots of the frame or of the process-wide registry.
    fn close(&mut self, name: &'static str, node: AggNode) {
        match (self.stack.last_mut(), &mut self.frame) {
            (Some(parent), _) => merge_node(&mut parent.children, name, node),
            (None, Some(frame)) => merge_node(&mut frame.metrics.roots, name, node),
            (None, None) => merge_node(&mut global().roots, name, node),
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local {
            frame: None,
            stack: Vec::new(),
        })
    };
}

#[inline]
fn capturing() -> bool {
    LOCAL.with(|l| l.borrow().frame.is_some())
}

/// Runs `f` on this thread's capture frame; `false` if there is none.
#[inline]
fn with_frame(f: impl FnOnce(&mut Captured)) -> bool {
    LOCAL.with(|l| l.borrow_mut().frame.as_mut().map(f).is_some())
}

/// Runs `f` with a fresh capture frame installed on this thread and
/// returns its result with everything recorded meanwhile. Frames nest:
/// the outer frame and span stack are set aside and reinstalled when
/// `f` returns or unwinds. Other threads, pool workers included, do not
/// see the frame. Hand what the caller does not consume to [`absorb`].
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Captured) {
    struct Restore(Local);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL.with(|l| l.replace(std::mem::take(&mut self.0)));
        }
    }
    let restore = Restore(LOCAL.with(RefCell::take));
    LOCAL.with(|l| l.borrow_mut().frame = Some(Captured::default()));
    let result = f();
    let captured = LOCAL.with(|l| l.borrow_mut().frame.take());
    drop(restore);
    (result, captured.expect("capture frame stays installed"))
}

/// [`capture`] when `on`, else `f` with an empty [`Captured`]. Parallel
/// seams decide `on` on the submitting thread: workers inherit no frame.
pub fn capture_if<R>(on: bool, f: impl FnOnce() -> R) -> (R, Captured) {
    if on {
        capture(f)
    } else {
        (f(), Captured::default())
    }
}

/// The flush half of [`capture`]: replays `captured` into this thread's
/// frame, or with none into the process-wide registry (if [`enabled`])
/// and journal ring (if `journal::enabled`), under the innermost open
/// span. Absorbing task captures in task order hides the schedule.
pub fn absorb(captured: Captured) {
    let to_ring = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let Local { frame, stack } = &mut *l;
        let Some(frame) = frame else {
            if enabled() {
                global().merge(captured.metrics, stack.last_mut());
            }
            return captured.journal;
        };
        frame.metrics.merge(captured.metrics, stack.last_mut());
        frame.journal.extend(captured.journal);
        frame.ledger.certs.extend(captured.ledger.certs);
        Vec::new()
    });
    // Outside the thread-local borrow: appending may bump a counter.
    if journal::enabled() {
        to_ring.into_iter().for_each(journal::append);
    }
}

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// A handle to a named monotone counter in the process-wide registry.
/// Cloning is cheap; increments are atomic and may come from any thread,
/// go to that thread's capture frame if any, and are otherwise dropped
/// while the subscriber is [`disable`]d.
#[derive(Clone)]
pub struct Counter {
    name: Arc<str>,
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Registers (or looks up) the counter `name`.
    pub fn named(name: &str) -> Counter {
        let cell = cell(&mut global().counters, name, || AtomicU64::new(0)).clone();
        let name = name.into();
        Counter { name, cell }
    }

    /// Adds `v`.
    #[inline]
    pub fn add(&self, v: u64) {
        if !with_frame(|f| f.metrics.add(&self.name, v)) && enabled() {
            self.cell.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// The current process-wide value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::SeqCst)
    }
}

/// Convenience: `Counter::named(name).add(v)`, gated before touching the
/// registry lock.
#[inline]
pub fn add(name: &str, v: u64) {
    if !with_frame(|f| f.metrics.add(name, v)) && enabled() {
        global().add(name, v);
    }
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Number of buckets: bucket 0 holds the value 0; bucket `i ≥ 1` holds
/// values `v` with `⌊log₂ v⌋ = i − 1` (i.e. `2^{i−1} ≤ v < 2^i`); the last
/// bucket absorbs everything from `2^{NUM_BUCKETS−2}` up.
pub const NUM_BUCKETS: usize = 40;

/// The bucket a value lands in — stable across versions and platforms
/// (this mapping is part of the export format).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(NUM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the overflow
/// bucket).
pub fn bucket_le(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= NUM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

#[derive(Debug)]
struct HistogramCells {
    buckets: [AtomicU64; NUM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistogramCells {
    fn new() -> Self {
        HistogramCells {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::SeqCst);
        }
        self.count.store(0, Ordering::SeqCst);
        self.sum.store(0, Ordering::SeqCst);
        self.min.store(u64::MAX, Ordering::SeqCst);
        self.max.store(0, Ordering::SeqCst);
    }

    fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    fn merge(&self, other: &HistogramCells) {
        let load = |a: &AtomicU64| a.load(Ordering::SeqCst);
        for (b, o) in self.buckets.iter().zip(&other.buckets) {
            b.fetch_add(load(o), Ordering::Relaxed);
        }
        self.count.fetch_add(load(&other.count), Ordering::Relaxed);
        self.sum.fetch_add(load(&other.sum), Ordering::Relaxed);
        self.min.fetch_min(load(&other.min), Ordering::Relaxed);
        self.max.fetch_max(load(&other.max), Ordering::Relaxed);
    }

    /// The histogram's state; `None` when it holds no observation.
    fn snapshot(&self) -> Option<HistogramSnapshot> {
        let count = self.count.load(Ordering::SeqCst);
        if count == 0 {
            return None;
        }
        let buckets = (0..NUM_BUCKETS)
            .filter_map(|i| {
                let c = self.buckets[i].load(Ordering::SeqCst);
                (c > 0).then(|| (bucket_le(i), c))
            })
            .collect();
        Some(HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::SeqCst),
            min: Some(self.min.load(Ordering::SeqCst)),
            max: Some(self.max.load(Ordering::SeqCst)),
            buckets,
        })
    }
}

/// A handle to a named fixed-bucket histogram (power-of-two buckets, see
/// [`bucket_index`]) in the process-wide registry. Cloning is cheap;
/// recording is atomic and lock-free, and goes where a [`Counter`]'s
/// increments go.
#[derive(Clone)]
pub struct Histogram {
    name: Arc<str>,
    cells: Arc<HistogramCells>,
}

impl Histogram {
    /// Registers (or looks up) the histogram `name`.
    pub fn named(name: &str) -> Histogram {
        let cells = cell(&mut global().histograms, name, HistogramCells::new).clone();
        let name = name.into();
        Histogram { name, cells }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if !with_frame(|f| f.metrics.record(&self.name, v)) && enabled() {
            self.cells.record(v);
        }
    }
}

/// Convenience: `Histogram::named(name).record(v)`, gated before
/// touching the registry lock.
#[inline]
pub fn record(name: &str, v: u64) {
    if !with_frame(|f| f.metrics.record(name, v)) && enabled() {
        global().record(name, v);
    }
}

/// A read-only copy of one histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Smallest observation (`None` when empty).
    pub min: Option<u64>,
    /// Largest observation (`None` when empty).
    pub max: Option<u64>,
    /// Non-empty buckets as `(inclusive upper bound, count)`, ascending;
    /// the overflow bucket's bound is `u64::MAX`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation, when any.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One aggregated node of the span tree: every entry through the same
/// call-tree path merges here.
#[derive(Debug, Clone, Default)]
struct AggNode {
    calls: u64,
    total_ns: u64,
    children: BTreeMap<&'static str, AggNode>,
}

impl AggNode {
    fn merge(&mut self, other: AggNode) {
        self.calls += other.calls;
        self.total_ns += other.total_ns;
        merge_forest(&mut self.children, other.children);
    }
}

fn merge_node(into: &mut BTreeMap<&'static str, AggNode>, name: &'static str, node: AggNode) {
    into.entry(name).or_default().merge(node);
}

fn merge_forest(into: &mut BTreeMap<&'static str, AggNode>, from: BTreeMap<&'static str, AggNode>) {
    for (name, node) in from {
        merge_node(into, name, node);
    }
}

/// An exported span-tree node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// Span name (static, from the [`span!`] site).
    pub name: String,
    /// Number of times this path was entered.
    pub calls: u64,
    /// Total wall time across all entries, in nanoseconds (0 for
    /// [`event!`] marks).
    pub total_ns: u64,
    /// Child spans, sorted by name.
    pub children: Vec<SpanNode>,
}

fn to_span_nodes(map: &BTreeMap<&'static str, AggNode>) -> Vec<SpanNode> {
    map.iter()
        .map(|(&name, agg)| SpanNode {
            name: name.to_string(),
            calls: agg.calls,
            total_ns: agg.total_ns,
            children: to_span_nodes(&agg.children),
        })
        .collect()
}

struct ActiveSpan {
    name: &'static str,
    start: Instant,
    children: BTreeMap<&'static str, AggNode>,
}

/// RAII guard for one span entry; created by [`span`]/[`span!`]. Guards
/// must be dropped in LIFO order on the thread that created them (plain
/// lexical scoping guarantees this). While nothing is [`recording`] the
/// guard is disarmed and records nothing.
#[must_use = "a span records on drop; binding it to `_` closes it immediately"]
pub struct Span {
    armed: bool,
}

/// Enters a span named `name`. Prefer the [`span!`] macro.
pub fn span(name: &'static str) -> Span {
    let armed = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let armed = l.frame.is_some() || enabled();
        if armed {
            l.stack.push(ActiveSpan {
                name,
                start: Instant::now(),
                children: BTreeMap::new(),
            });
        }
        armed
    });
    Span { armed }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let Some(active) = l.stack.pop() else { return };
            let node = AggNode {
                calls: 1,
                total_ns: active.start.elapsed().as_nanos() as u64,
                children: active.children,
            };
            l.close(active.name, node);
        });
    }
}

/// Records a zero-duration mark under the current span (or at the root
/// when no span is open). Prefer the [`event!`] macro.
pub fn event(name: &'static str) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if l.frame.is_some() || enabled() {
            let mark = AggNode {
                calls: 1,
                ..AggNode::default()
            };
            l.close(name, mark);
        }
    });
}

/// Enters a hierarchical span: `let _guard = span!("layer.component.op");`.
/// Compiles to one thread-local read and one relaxed atomic load when
/// nothing is recording.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

/// Records a zero-duration mark under the current span:
/// `event!("layer.component.happened");`.
#[macro_export]
macro_rules! event {
    ($name:expr) => {
        $crate::event($name)
    };
}

// ---------------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------------

/// A point-in-time copy of a registry: counters, histograms, and the
/// aggregated span forest. Take one with [`snapshot`] (or
/// [`Registry::snapshot`] on a capture) after the spans of interest have
/// closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter name → value. Zero-valued counters are omitted.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name → state. Empty histograms are omitted.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Root spans, sorted by name.
    pub spans: Vec<SpanNode>,
}

/// Copies the process-wide registry's state out (see [`Snapshot`]).
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tests of the process-wide sinks themselves (the registry, the
    /// journal ring, their switches) must not interleave. Tests that only
    /// need a private view use [`capture`] instead.
    pub(crate) fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn fresh() -> std::sync::MutexGuard<'static, ()> {
        let guard = serial();
        disable();
        reset();
        guard
    }

    #[test]
    fn bucket_boundaries_pinned() {
        // The bucket mapping is part of the export format: pin the
        // documented contract (bucket 0 = value 0; bucket i ≥ 1 holds
        // ⌊log₂ v⌋ = i − 1; the last bucket absorbs everything above).
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        // Exact powers of two open a new bucket: 2^k lands in bucket k+1.
        for k in 0..38u32 {
            let v = 1u64 << k;
            assert_eq!(bucket_index(v), k as usize + 1, "v = 2^{k}");
            if v > 1 {
                assert_eq!(bucket_index(v - 1), k as usize, "v = 2^{k} - 1");
            }
        }
        // Everything from 2^38 up saturates into the overflow bucket.
        assert_eq!(bucket_index(1u64 << 38), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(1u64 << 63), NUM_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_le_matches_bucket_index() {
        // bucket_le(i) is the largest value mapped to bucket i, and its
        // successor starts bucket i + 1.
        assert_eq!(bucket_le(0), 0);
        assert_eq!(bucket_le(NUM_BUCKETS - 1), u64::MAX);
        for i in 0..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_le(i)), i, "upper bound of {i}");
            if i < NUM_BUCKETS - 1 {
                assert_eq!(bucket_index(bucket_le(i) + 1), i + 1, "successor of {i}");
            }
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = fresh();
        {
            let _s = span!("test.disabled.span");
            add("test.disabled.counter", 3);
            record("test.disabled.histogram", 9);
            event!("test.disabled.event");
        }
        let snap = snapshot();
        assert!(snap.spans.iter().all(|s| s.name != "test.disabled.span"));
        assert!(!snap.counters.contains_key("test.disabled.counter"));
        assert!(!snap.histograms.contains_key("test.disabled.histogram"));
    }

    #[test]
    fn spans_nest_and_aggregate() {
        let ((), captured) = capture(|| {
            let _outer = span!("test.outer");
            for _ in 0..3 {
                let _inner = span!("test.inner");
                event!("test.tick");
            }
        });
        let snap = captured.metrics.snapshot();
        let outer = snap
            .spans
            .iter()
            .find(|s| s.name == "test.outer")
            .expect("outer span recorded");
        assert_eq!(outer.calls, 1);
        let inner = outer
            .children
            .iter()
            .find(|s| s.name == "test.inner")
            .expect("inner nested under outer");
        assert_eq!(inner.calls, 3);
        let tick = inner
            .children
            .iter()
            .find(|s| s.name == "test.tick")
            .expect("event nested under inner");
        assert_eq!(tick.calls, 3);
        assert_eq!(tick.total_ns, 0);
    }

    #[test]
    fn concurrent_counter_increments_sum() {
        let _g = fresh();
        enable();
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                std::thread::spawn(move || {
                    let c = Counter::named("test.concurrent.counter");
                    let h = Histogram::named("test.concurrent.histogram");
                    for i in 0..per_thread {
                        c.add(1);
                        h.record(i % 37);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker thread");
        }
        disable();
        let snap = snapshot();
        assert_eq!(
            snap.counters["test.concurrent.counter"],
            threads * per_thread
        );
        assert_eq!(
            snap.histograms["test.concurrent.histogram"].count,
            threads * per_thread
        );
        reset();
    }

    #[test]
    fn bucket_boundaries_are_stable() {
        // The mapping is part of the export format: value → bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        // Inclusive upper bounds.
        assert_eq!(bucket_le(0), 0);
        assert_eq!(bucket_le(1), 1);
        assert_eq!(bucket_le(2), 3);
        assert_eq!(bucket_le(3), 7);
        assert_eq!(bucket_le(NUM_BUCKETS - 1), u64::MAX);
        // Every value lands in the bucket whose bound covers it.
        for v in [0u64, 1, 2, 3, 4, 5, 100, 1023, 1024, 1 << 45] {
            let i = bucket_index(v);
            assert!(v <= bucket_le(i), "{v} above its bucket bound");
            if i > 0 {
                assert!(v > bucket_le(i - 1), "{v} below its bucket");
            }
        }
    }

    #[test]
    fn histogram_stats_track_min_max_sum() {
        let ((), captured) = capture(|| {
            let h = Histogram::named("test.stats.histogram");
            for v in [5u64, 0, 17, 3] {
                h.record(v);
            }
        });
        let snap = captured.metrics.snapshot();
        let s = &snap.histograms["test.stats.histogram"];
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 25);
        assert_eq!(s.min, Some(0));
        assert_eq!(s.max, Some(17));
        assert_eq!(s.mean(), Some(6.25));
    }

    #[test]
    fn reset_zeroes_but_keeps_handles_valid() {
        let _g = fresh();
        enable();
        let c = Counter::named("test.reset.counter");
        c.add(5);
        reset();
        assert_eq!(c.get(), 0);
        c.add(2);
        let snap = snapshot();
        assert_eq!(snap.counters["test.reset.counter"], 2);
        disable();
        reset();
    }
}
