//! `locert-par` — a deterministic chunked thread pool.
//!
//! The certification workloads (per-vertex verification, exhaustive
//! certificate sweeps, fault campaigns, lower-bound labeling
//! enumerations) are embarrassingly parallel *and* must stay
//! reproducible: the experiment artifacts (journal JSONL, metrics
//! counters, report tables) are committed baselines compared byte for
//! byte. Every parallel loop in them is flat over an index range — a map
//! or a least-index search — so the pool runs exactly those two shapes,
//! with results that are byte-identical at any worker count:
//!
//! - [`Pool::par_map_collect`] computes each chunk's results into that
//!   chunk's own slot and concatenates the slots in chunk order, so the
//!   collected `Vec` never depends on the schedule;
//! - [`Pool::par_find_first`] returns the *least*-index match via an
//!   atomic best-index bound, so early exit drains deterministically;
//! - [`split_seed`] derives independent per-chunk RNG seeds from a base
//!   seed and a chunk index (vendored `rand`'s xoshiro/SplitMix stack),
//!   so randomized work is reproducible under any partitioning.
//!
//! Architecture: each combinator call is one *job* — `0..n` cut into
//! fixed chunks, an atomic counter that hands out the next chunk, a
//! completion count, and a first-panic slot. Jobs wait in one
//! mutex-guarded FIFO that persistent workers sleep on; workers and the
//! submitter claim chunks in ascending order, and the submitter helps
//! only its own job. The first panic is re-raised on the submitting
//! thread after the job has fully drained (no deadlock, no lost chunks).
//! Built from `std::thread` and atomics only (the build environment has
//! no crates.io access, so rayon is not an option).
//!
//! Observability: workers maintain `par.worker.tasks` (chunks run) and
//! `par.worker.parks` counters through `locert-trace`, flushed when they
//! park or shut down; a disabled subscriber costs one relaxed atomic
//! load at the flush point. These counters describe *scheduling*, which
//! legitimately varies with the worker count — the metrics exporter
//! files them in the non-deterministic section of the dump.
//!
//! [`run`] holds the command-line context the `locert` tools share:
//! argument helpers, the `--threads`/`LOCERT_THREADS` resolution that
//! sizes this pool, artifact writers, and the 0/1/2 exit contract.
//!
//! Nested parallelism runs inline: a combinator invoked from inside a
//! job's chunk executes sequentially on the calling thread, which keeps
//! determinism local and makes deadlock impossible by construction.

pub mod run;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Chunks per thread a [`Pool::par_map_collect`] job is cut into: enough
/// to balance uneven per-index costs, few enough to amortize the
/// per-chunk result vector.
const MAP_CHUNKS_PER_THREAD: usize = 4;

/// Chunks per thread a [`Pool::par_find_first`] job aims for, and the
/// largest chunk it uses: small chunks keep the least-index pruning
/// responsive, since a match found early cancels every later chunk.
const FIND_CHUNKS_PER_THREAD: usize = 16;
const FIND_MAX_CHUNK: usize = 64;

thread_local! {
    /// Whether this thread is running a job's chunks (worker threads for
    /// their whole life, a submitter while it helps its own job).
    /// Combinators check it and run inline, so nesting never re-enters
    /// the scheduler.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

/// One combinator call: chunks `0..chunks` of a body that runs one chunk.
struct Job {
    /// The chunk body with its lifetime erased. Only dereferenced for a
    /// claimed chunk `< chunks`, and the submitter keeps the body alive
    /// until every claimed chunk has finished (see [`Pool::run_job`]).
    body: *const (dyn Fn(usize) + Sync),
    chunks: usize,
    /// The next chunk to hand out; values `>= chunks` mean exhausted.
    next: AtomicUsize,
    /// Chunks not yet finished; `finished` is signalled when it hits
    /// zero. The lock also publishes each chunk's writes to the
    /// submitter.
    unfinished: Mutex<usize>,
    finished: Condvar,
    /// Set with the first panic, so later chunks are skipped.
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: `body` points at a `Sync` closure, so sharing it across threads
// is sound; its lifetime is upheld by `Pool::run_job` (see `Job::body`).
unsafe impl Send for Job {}
// SAFETY: as above; every other field is `Sync`.
unsafe impl Sync for Job {}

impl Job {
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.chunks
    }

    /// Claims and runs chunks in ascending order until none are left;
    /// returns how many this thread ran. After the first panic the
    /// remaining chunks are claimed but skipped.
    fn work(&self) -> u64 {
        let mut ran = 0;
        loop {
            let chunk = self.next.fetch_add(1, Ordering::Relaxed);
            if chunk >= self.chunks {
                return ran;
            }
            if !self.poisoned.load(Ordering::Relaxed) {
                // SAFETY: `chunk < chunks` was claimed and has not
                // finished, so the submitter is still blocked in
                // `run_job` and the body is alive.
                let body = unsafe { &*self.body };
                if let Err(payload) = catch_unwind(AssertUnwindSafe(|| body(chunk))) {
                    self.panic
                        .lock()
                        .expect("panic slot")
                        .get_or_insert(payload);
                    self.poisoned.store(true, Ordering::Relaxed);
                }
            }
            ran += 1;
            let mut unfinished = self.unfinished.lock().expect("job count");
            *unfinished -= 1;
            if *unfinished == 0 {
                self.finished.notify_all();
            }
        }
    }

    /// Blocks until every chunk has finished.
    fn wait(&self) {
        let mut unfinished = self.unfinished.lock().expect("job count");
        while *unfinished > 0 {
            unfinished = self.finished.wait(unfinished).expect("job count");
        }
    }
}

struct Shared {
    /// Jobs with chunks left to claim, oldest first. Workers drop a job
    /// from the front once it is exhausted.
    queue: Mutex<VecDeque<Arc<Job>>>,
    /// Signalled when a job is queued or the pool shuts down.
    wake: Condvar,
    shutdown: AtomicBool,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, VecDeque<Arc<Job>>> {
        self.queue.lock().expect("job queue")
    }
}

/// A chunked thread pool. See the crate docs for the architecture and
/// the determinism contract.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Pool {
    /// A pool with `threads` workers. `threads <= 1` spawns no workers:
    /// every combinator then runs inline on the caller, which is also the
    /// reference schedule the parallel paths must reproduce.
    pub fn new(threads: usize) -> Pool {
        let worker_count = if threads <= 1 { 0 } else { threads };
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..worker_count)
            .map(|index| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("locert-par-{index}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, workers }
    }

    /// The degree of parallelism: worker count, or 1 for an inline pool.
    pub fn threads(&self) -> usize {
        self.workers.len().max(1)
    }

    /// Whether a call over `n` items should skip the scheduler entirely.
    fn inline(&self, n: usize) -> bool {
        self.workers.is_empty() || n <= 1 || IN_TASK.with(Cell::get)
    }

    /// Runs `body(c)` for every chunk `c < chunks` on the workers and the
    /// calling thread, and returns once all have finished.
    ///
    /// # Panics
    ///
    /// Re-raises the first chunk panic after the whole job has drained;
    /// chunks claimed after it are skipped.
    fn run_job(&self, chunks: usize, body: &(dyn Fn(usize) + Sync)) {
        // SAFETY: only the lifetime changes. `Job::work` dereferences the
        // body for claimed, unfinished chunks only, and this function
        // returns (ending the borrow) only after `wait` saw every chunk
        // finish; later holders of the job find it exhausted.
        let body: *const (dyn Fn(usize) + Sync + 'static) = unsafe { std::mem::transmute(body) };
        let job = Arc::new(Job {
            body,
            chunks,
            next: AtomicUsize::new(0),
            unfinished: Mutex::new(chunks),
            finished: Condvar::new(),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
        });
        self.shared.lock().push_back(Arc::clone(&job));
        self.shared.wake.notify_all();
        IN_TASK.with(|f| f.set(true));
        job.work();
        IN_TASK.with(|f| f.set(false));
        job.wait();
        let payload = job.panic.lock().expect("panic slot").take();
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }

    /// Maps `0..n` through `f` into a `Vec`: the result is identical to
    /// `(0..n).map(f).collect()` at any worker count.
    pub fn par_map_collect<T: Send>(&self, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        if self.inline(n) {
            return (0..n).map(f).collect();
        }
        let size = (n / (self.threads() * MAP_CHUNKS_PER_THREAD)).max(1);
        let slots: Vec<Mutex<Vec<T>>> = (0..n.div_ceil(size))
            .map(|_| Mutex::new(Vec::new()))
            .collect();
        self.run_job(slots.len(), &|c| {
            let out: Vec<T> = chunk_range(c, size, n).map(&f).collect();
            *slots[c].lock().expect("result slot") = out;
        });
        let mut out = Vec::with_capacity(n);
        for slot in slots {
            out.append(&mut slot.into_inner().expect("result slot"));
        }
        out
    }

    /// Finds the match with the **least index**: semantically identical
    /// to `(0..n).find_map(...)` at any worker count. Chunks are claimed
    /// in ascending order and skip indices above the best match found so
    /// far (shared atomic bound), so the early exit stays deterministic
    /// *and* cheap.
    pub fn par_find_first<T: Send>(
        &self,
        n: usize,
        f: impl Fn(usize) -> Option<T> + Sync,
    ) -> Option<(usize, T)> {
        if self.inline(n) {
            return (0..n).find_map(|i| f(i).map(|t| (i, t)));
        }
        let size = (n / (self.threads() * FIND_CHUNKS_PER_THREAD)).clamp(1, FIND_MAX_CHUNK);
        let best = AtomicUsize::new(usize::MAX);
        let found: Mutex<Option<(usize, T)>> = Mutex::new(None);
        self.run_job(n.div_ceil(size), &|c| {
            for i in chunk_range(c, size, n) {
                if i > best.load(Ordering::Relaxed) {
                    return;
                }
                if let Some(t) = f(i) {
                    let mut slot = found.lock().expect("find-first slot");
                    if i < best.load(Ordering::Relaxed) {
                        best.store(i, Ordering::Relaxed);
                        *slot = Some((i, t));
                    }
                    return;
                }
            }
        });
        found.into_inner().expect("find-first slot")
    }
}

/// Chunk `c` of `0..n` cut into pieces of `size`.
fn chunk_range(c: usize, size: usize, n: usize) -> Range<usize> {
    c * size..((c + 1) * size).min(n)
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            // Set under the lock so no worker misses it between its
            // check and its wait.
            let _queue = self.shared.lock();
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.wake.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    IN_TASK.with(|f| f.set(true));
    let mut chunks_run = 0u64;
    let flush = |chunks_run: &mut u64| {
        if *chunks_run > 0 && locert_trace::enabled() {
            locert_trace::add("par.worker.tasks", *chunks_run);
        }
        *chunks_run = 0;
    };
    let mut queue = shared.lock();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match queue.front() {
            Some(job) if job.exhausted() => {
                queue.pop_front();
            }
            Some(job) => {
                let job = Arc::clone(job);
                drop(queue);
                chunks_run += job.work();
                queue = shared.lock();
            }
            None => {
                flush(&mut chunks_run);
                if locert_trace::enabled() {
                    locert_trace::add("par.worker.parks", 1);
                }
                queue = shared.wake.wait(queue).expect("job queue");
            }
        }
    }
    drop(queue);
    flush(&mut chunks_run);
}

/// Derives an independent RNG seed for chunk `index` of a computation
/// seeded by `seed`: feeds both through the vendored `rand` SplitMix64 →
/// xoshiro256++ pipeline so sibling chunks get decorrelated streams. Pure
/// function — reproducible under any partitioning of the work.
pub fn split_seed(seed: u64, index: u64) -> u64 {
    let mixed = seed
        ^ index
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0x243F_6A88_85A3_08D3);
    StdRng::seed_from_u64(mixed).next_u64()
}

static GLOBAL: OnceLock<Pool> = OnceLock::new();
/// Thread count requested by [`configure_threads`] before first use.
static REQUESTED: AtomicUsize = AtomicUsize::new(0);

/// Sets the global pool's worker count. Must run before the first
/// [`global`] call (e.g. while parsing CLI flags); returns `false` if the
/// pool already exists, in which case the request is ignored.
pub fn configure_threads(threads: usize) -> bool {
    if GLOBAL.get().is_some() {
        return false;
    }
    REQUESTED.store(threads.max(1), Ordering::SeqCst);
    true
}

/// The process-wide pool. Thread count resolution order:
/// [`configure_threads`] (the `--threads` flag), the `LOCERT_THREADS`
/// environment variable, then `std::thread::available_parallelism`.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| {
        let requested = REQUESTED.load(Ordering::SeqCst);
        let threads = if requested > 0 {
            requested
        } else if let Some(n) = env_threads() {
            n
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        };
        Pool::new(threads)
    })
}

/// `LOCERT_THREADS` as a positive integer, if set and well-formed. The
/// command-line tools reject a malformed value before the pool exists
/// (`run::Run`); library callers fall back to the default width.
fn env_threads() -> Option<usize> {
    let raw = std::env::var(run::THREADS_ENV).ok()?;
    run::resolve_threads(None, Some(&raw)).ok().flatten()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_collect_matches_sequential_at_any_width() {
        let expect: Vec<u64> = (0..1000).map(|i| (i as u64) * 3 + 1).collect();
        for threads in [1, 2, 4, 7] {
            let pool = Pool::new(threads);
            let got = pool.par_map_collect(1000, |i| (i as u64) * 3 + 1);
            assert_eq!(got, expect, "threads = {threads}");
        }
    }

    #[test]
    fn chunks_cover_every_index_exactly_once() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicU64> = (0..5000).map(|_| AtomicU64::new(0)).collect();
        pool.par_map_collect(5000, |i| hits[i].fetch_add(1, Ordering::Relaxed));
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        // A search with no match visits every index exactly once too.
        let hits: Vec<AtomicU64> = (0..5000).map(|_| AtomicU64::new(0)).collect();
        let found = pool.par_find_first(5000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            None::<()>
        });
        assert_eq!(found, None);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn find_first_returns_least_index() {
        // Matches at many indices; the least (97) must win always.
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            for _ in 0..20 {
                let got = pool.par_find_first(4096, |i| (i % 97 == 0 && i > 0).then_some(i));
                assert_eq!(got, Some((97, 97)), "threads = {threads}");
            }
        }
    }

    #[test]
    fn split_seed_is_pure_and_decorrelated() {
        assert_eq!(split_seed(42, 7), split_seed(42, 7));
        let streams: std::collections::BTreeSet<u64> =
            (0..100).map(|i| split_seed(42, i)).collect();
        assert_eq!(streams.len(), 100, "seed collision across chunks");
        assert_ne!(split_seed(42, 0), split_seed(43, 0));
    }

    #[test]
    fn nested_combinators_run_inline() {
        let pool = Pool::new(4);
        let out = pool.par_map_collect(64, |i| {
            // Nested call from inside a task: must not deadlock.
            let inner = global().par_map_collect(8, |j| j * i);
            inner.iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..64).map(|i| (0..8).map(|j| j * i).sum()).collect();
        assert_eq!(out, expect);
    }
}
