//! Panic propagation: a panicking chunk must abort its job with the
//! *original* payload, without deadlocking the submitter, and leave the
//! pool usable for the next job.

use locert_par::Pool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;

fn payload_str(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("<non-string payload>")
}

#[test]
fn chunk_panic_reaches_the_submitter() {
    let pool = Pool::new(4);
    let err = catch_unwind(AssertUnwindSafe(|| {
        pool.par_find_first(1024, |i| {
            if i == 500 {
                panic!("leaf exploded at 500");
            }
            None::<()>
        })
    }))
    .expect_err("job should propagate the chunk panic");
    assert_eq!(payload_str(&*err), "leaf exploded at 500");

    // The pool survives: the next job runs to completion.
    let done = AtomicUsize::new(0);
    pool.par_map_collect(256, |_| done.fetch_add(1, Ordering::Relaxed));
    assert_eq!(done.load(Ordering::Relaxed), 256);
}

#[test]
fn find_first_panic_reaches_the_submitter() {
    for threads in [1, 4] {
        let pool = Pool::new(threads);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.par_find_first(64, |i| {
                if i == 13 {
                    panic!("task 13 failed");
                }
                None::<()>
            })
        }))
        .expect_err("find-first should propagate the panic");
        assert_eq!(payload_str(&*err), "task 13 failed", "threads = {threads}");
    }
}

#[test]
fn map_collect_panic_does_not_deadlock_inline_or_parallel() {
    for threads in [1, 4] {
        let pool = Pool::new(threads);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map_collect(512, |i| {
                if i == 300 {
                    panic!("mapper failed");
                }
                i * 2
            })
        }))
        .expect_err("map panic should propagate");
        assert_eq!(payload_str(&*err), "mapper failed", "threads = {threads}");
    }
}

#[test]
fn panic_is_raised_only_after_the_job_drains() {
    let pool = Pool::new(4);
    // Indices 0 and 31 fall in different chunks; the barrier holds both
    // until they run at once, so index 31 is still in flight when index
    // 0 panics.
    let both_running = Barrier::new(2);
    let finished = AtomicBool::new(false);
    let err = catch_unwind(AssertUnwindSafe(|| {
        pool.par_map_collect(32, |i| match i {
            0 => {
                both_running.wait();
                panic!("first chunk failed");
            }
            31 => {
                both_running.wait();
                std::thread::sleep(std::time::Duration::from_millis(20));
                finished.store(true, Ordering::SeqCst);
            }
            _ => {}
        })
    }))
    .expect_err("the chunk panic should propagate");
    assert_eq!(payload_str(&*err), "first chunk failed");
    // The unwind left `par_map_collect` only after index 31 finished:
    // nothing may still be running against the caller's freed stack.
    assert!(finished.load(Ordering::SeqCst));
}
