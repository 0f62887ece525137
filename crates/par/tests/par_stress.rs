//! Scheduler stress: many more workers than cores, tiny chunks, and an
//! atomic bitmap proving no index is lost or run twice. This is the
//! loom-less stand-in for a model checker: heavy preemption across 64
//! oversubscribed workers exercises the races on a job's chunk counter,
//! its completion count and the job queue's park/wake path. A second
//! group of tests shares one pool between several submitting threads,
//! the traffic shape of the `locert-serve` daemon.
//!
//! CI runs this in a dedicated job (see `par-stress` in ci.yml); locally
//! it is just a normal (slow-ish) test.

use locert_par::Pool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;

const WORKERS: usize = 64;
const TASKS: usize = 10_000;

/// One bit per task; `fetch_or` returns the previous word so a double-run
/// (bit already set) is detected exactly.
struct Bitmap {
    words: Vec<AtomicU64>,
    double_runs: AtomicUsize,
}

impl Bitmap {
    fn new(bits: usize) -> Bitmap {
        Bitmap {
            words: (0..bits.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            double_runs: AtomicUsize::new(0),
        }
    }

    fn mark(&self, i: usize) {
        let prev = self.words[i / 64].fetch_or(1 << (i % 64), Ordering::SeqCst);
        if prev & (1 << (i % 64)) != 0 {
            self.double_runs.fetch_add(1, Ordering::SeqCst);
        }
    }

    fn assert_all_exactly_once(&self, bits: usize) {
        assert_eq!(
            self.double_runs.load(Ordering::SeqCst),
            0,
            "double-run tasks"
        );
        for i in 0..bits {
            assert!(
                self.words[i / 64].load(Ordering::SeqCst) & (1 << (i % 64)) != 0,
                "task {i} lost"
            );
        }
    }
}

#[test]
fn oversubscribed_chunks_run_every_task_exactly_once() {
    let pool = Pool::new(WORKERS);
    let bitmap = Bitmap::new(TASKS);
    // 64 workers over 10k indices: 257 chunks of 39.
    let out = pool.par_map_collect(TASKS, |i| {
        bitmap.mark(i);
        i
    });
    bitmap.assert_all_exactly_once(TASKS);
    assert!(out.into_iter().eq(0..TASKS), "results in index order");
}

#[test]
fn oversubscribed_find_first_runs_every_task_exactly_once() {
    let pool = Pool::new(WORKERS);
    let bitmap = Bitmap::new(TASKS);
    // No index matches, so the search visits every one: 1112 chunks of
    // 9, the smaller search chunks maximizing counter traffic.
    let found = pool.par_find_first(TASKS, |i| {
        bitmap.mark(i);
        None::<()>
    });
    assert_eq!(found, None);
    bitmap.assert_all_exactly_once(TASKS);
}

#[test]
fn repeated_small_batches_survive_churn() {
    let pool = Pool::new(WORKERS);
    for round in 0..200 {
        let n = 1 + (round * 7) % 97;
        let bitmap = Bitmap::new(n);
        if round % 2 == 0 {
            pool.par_map_collect(n, |i| bitmap.mark(i));
        } else {
            pool.par_find_first(n, |i| {
                bitmap.mark(i);
                None::<()>
            });
        }
        bitmap.assert_all_exactly_once(n);
    }
}

/// Several threads share one pool, each submitting many small jobs of
/// both kinds, while one of them also submits jobs that panic: every
/// result must equal the sequential one, and every panic must reach its
/// own submitter and no other.
#[test]
fn concurrent_submitters_share_one_pool() {
    const SUBMITTERS: usize = 6;
    const ROUNDS: usize = 150;
    let pool = Pool::new(4);
    let start = Barrier::new(SUBMITTERS);
    std::thread::scope(|s| {
        for t in 0..SUBMITTERS {
            let (pool, start) = (&pool, &start);
            s.spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    let n = 1 + (round * 13 + t * 5) % 300;
                    let mapped = pool.par_map_collect(n, |i| i * (t + 1) + round);
                    let expect: Vec<usize> = (0..n).map(|i| i * (t + 1) + round).collect();
                    assert_eq!(mapped, expect, "submitter {t} round {round}");

                    let target = (round * 7 + t) % (n + 1);
                    let found = pool.par_find_first(n, |i| (i >= target).then_some(i * 2));
                    let expect = (target < n).then_some((target, target * 2));
                    assert_eq!(found, expect, "submitter {t} round {round}");

                    if t == 0 && round % 10 == 0 {
                        let err = catch_unwind(AssertUnwindSafe(|| {
                            pool.par_map_collect(64, |i| {
                                if i == 40 {
                                    panic!("submitter 0 round {round}");
                                }
                                i
                            })
                        }))
                        .expect_err("the panicking job fails its own submitter");
                        let msg = err.downcast_ref::<String>().expect("formatted payload");
                        assert_eq!(msg, &format!("submitter 0 round {round}"));
                    }
                }
            });
        }
    });
}
