//! Worker-pool telemetry invariants.
//!
//! The pool records counts-only telemetry into pool-local per-slot
//! counters (slot 0 = the participating `run` caller, slots 1.. = the
//! parked workers). Two contracts are pinned here:
//!
//! * **Exactness**: the per-slot executed-task counts always sum to the
//!   pool's total executed-task counter — under any job shape, any pool
//!   width, and under concurrent 8-thread submitter stress.
//! * **Isolation of failure**: a panicking task body re-raises on its
//!   own submitter while other concurrent submitters keep making
//!   progress on the same pool, and the counters keep counting.

use ant_runtime::WorkerPool;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per-slot counters sum exactly to the pool total for sampled job
    /// shapes (the same width range the microkernel partition suite
    /// drives: 1..9 threads).
    #[test]
    fn slot_counts_sum_exactly_to_total(
        threads in 1usize..9,
        jobs in proptest::collection::vec(1usize..40, 1..16),
    ) {
        let pool = WorkerPool::new(threads);
        let hits = AtomicUsize::new(0);
        for &tasks in &jobs {
            pool.run(tasks, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        let expected: usize = jobs.iter().sum();
        prop_assert_eq!(hits.load(Ordering::Relaxed), expected);
        prop_assert_eq!(pool.executed_tasks(), expected as u64);
        let slots = pool.slot_task_counts();
        prop_assert_eq!(slots.len(), threads.max(1));
        prop_assert_eq!(slots.iter().sum::<u64>(), expected as u64);
    }
}

/// 8 submitter threads hammer one pool concurrently; afterwards the
/// per-slot counters still sum exactly to the total (no lost or
/// double-counted task), and every task body ran exactly once.
#[test]
fn slot_counts_stay_exact_under_8_thread_stress() {
    let pool = Arc::new(WorkerPool::new(8));
    let executed = Arc::new(AtomicUsize::new(0));
    let mut expected = 0usize;
    for s in 0..8usize {
        for i in 0..40usize {
            expected += 1 + (s * 7 + i * 3) % 23;
        }
    }
    let submitters: Vec<_> = (0..8usize)
        .map(|s| {
            let pool = Arc::clone(&pool);
            let executed = Arc::clone(&executed);
            std::thread::spawn(move || {
                for i in 0..40usize {
                    let tasks = 1 + (s * 7 + i * 3) % 23;
                    pool.run(tasks, &|_| {
                        executed.fetch_add(1, Ordering::Relaxed);
                    });
                }
            })
        })
        .collect();
    for t in submitters {
        t.join().unwrap();
    }
    assert_eq!(executed.load(Ordering::Relaxed), expected);
    assert_eq!(pool.executed_tasks(), expected as u64);
    let slots = pool.slot_task_counts();
    assert_eq!(slots.len(), 8);
    assert_eq!(
        slots.iter().sum::<u64>(),
        expected as u64,
        "per-slot counts {slots:?} must sum to the pool total"
    );
    // NOTE: no assertion that worker slots (1..) are nonzero here — a
    // fast caller may legally claim every task before a parked worker
    // wakes. Worker participation is forced deterministically below.
}

/// Worker slots really do record: a two-task job whose bodies
/// rendezvous on a barrier cannot complete on the caller alone, so a
/// parked worker must claim the second task and its slot counter must
/// show it.
#[test]
fn worker_slots_record_when_participation_is_forced() {
    use std::sync::Barrier;
    let pool = WorkerPool::new(4);
    let barrier = Barrier::new(2);
    for _ in 0..8 {
        pool.run(2, &|_| {
            barrier.wait();
        });
    }
    let slots = pool.slot_task_counts();
    assert_eq!(slots.iter().sum::<u64>(), 16);
    assert!(
        slots[1..].iter().any(|&c| c > 0),
        "rendezvous jobs completed yet no worker slot counted: {slots:?}"
    );
}

/// A panicking job re-raises on its submitter; a concurrent well-behaved
/// submitter on the same pool keeps progressing to completion, and the
/// telemetry total keeps matching the slot sum afterwards.
#[test]
fn panicking_job_propagates_while_other_submitters_progress() {
    let pool = Arc::new(WorkerPool::new(4));
    let good_done = Arc::new(AtomicUsize::new(0));

    let good = {
        let pool = Arc::clone(&pool);
        let good_done = Arc::clone(&good_done);
        std::thread::spawn(move || {
            for _ in 0..100 {
                pool.run(8, &|_| {
                    good_done.fetch_add(1, Ordering::Relaxed);
                });
            }
        })
    };
    let bad = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || {
            for _ in 0..25 {
                let caught = catch_unwind(AssertUnwindSafe(|| {
                    pool.run(8, &|t| {
                        if t == 3 {
                            panic!("poisoned task");
                        }
                    });
                }));
                assert!(caught.is_err(), "the panic must re-raise on the submitter");
            }
        })
    };
    good.join().unwrap();
    bad.join().unwrap();

    // The well-behaved submitter finished every task despite the
    // interleaved poisoned jobs.
    assert_eq!(good_done.load(Ordering::Relaxed), 100 * 8);
    // Panicked tasks still count as executed (they were claimed and
    // run), so the exactness invariant holds across failures too.
    assert_eq!(pool.executed_tasks(), (100 + 25) * 8);
    assert_eq!(
        pool.slot_task_counts().iter().sum::<u64>(),
        pool.executed_tasks()
    );
    // And the pool is still serviceable.
    let after = AtomicUsize::new(0);
    pool.run(16, &|_| {
        after.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(after.load(Ordering::Relaxed), 16);
}

/// Park counts only ever belong to worker slots: the caller (slot 0)
/// never parks on the work condvar.
#[test]
fn caller_slot_never_parks() {
    let pool = WorkerPool::new(4);
    for _ in 0..50 {
        pool.run(16, &|_| {});
    }
    let parks = pool.slot_park_counts();
    assert_eq!(parks.len(), 4);
    assert_eq!(
        parks[0], 0,
        "slot 0 is the caller; it never parks: {parks:?}"
    );
}
