//! A persistent worker pool for the packed execution hot path.
//!
//! The first runtime versions spawned fresh `std::thread::scope` workers
//! for every threaded GEMM — per layer, per batch. Spawning costs tens of
//! microseconds, which is the *entire* budget of a small serving-shaped
//! GEMM, so threading only ever paid off for huge layers. A
//! [`WorkerPool`] keeps its threads parked on a condvar instead: a
//! dispatch is one lock + one notify (~hundreds of nanoseconds), so the
//! same pool is profitably shared across every layer of a plan and every
//! batch of a serving session.
//!
//! The design is a minimal work-claiming pool, not a general executor:
//!
//! * [`WorkerPool::run`] publishes one *job* — a task count plus a
//!   `Fn(usize)` body — and returns when every task index has been
//!   executed. The caller participates (it claims and runs tasks like any
//!   worker), so a pool of width `w` applies `w` threads to the job while
//!   only `w − 1` are parked between calls, and a width-1 pool degrades to
//!   a plain inline loop with zero synchronization.
//! * Task claiming is a single `next` counter behind the pool mutex;
//!   bodies run outside the lock. Jobs from concurrent callers (several
//!   [`crate::Engine`]s sharing [`WorkerPool::global`]) queue FIFO.
//! * Completion is a per-job countdown; the job's control block lives on
//!   the caller's stack, which is sound because `run` does not return
//!   until the countdown hits zero — no worker can touch the block after
//!   that, and no allocation happens per dispatch (the steady-state
//!   zero-allocation property of the serving path extends through here).
//! * A panicking task is caught, the job is still driven to completion,
//!   and the panic is re-raised on the calling thread — a poisoned batch
//!   cannot wedge the pool or deadlock unrelated callers.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Per-job control block. Lives on the stack of the [`WorkerPool::run`]
/// caller; workers only dereference it between claiming a task (under the
/// pool lock, while the job is still queued or pending) and decrementing
/// `remaining` — and `run` cannot return before `remaining` is zero.
struct JobCtl {
    /// Tasks not yet *finished* (claimed-and-executed).
    remaining: AtomicUsize,
    /// Set when any task body panicked; re-raised by `run`.
    panicked: AtomicBool,
}

/// A queued job: the erased task body plus claim/complete state.
struct Job {
    /// The task body, `Fn(usize)`, lifetime-erased. Valid until
    /// `ctl.remaining` reaches zero (see [`JobCtl`]).
    body: *const (dyn Fn(usize) + Sync),
    ctl: *const JobCtl,
    tasks: usize,
    /// Next unclaimed task index (guarded by the pool mutex).
    next: usize,
}

// SAFETY: the raw pointers target the stack frame of a `run` call that
// blocks until `remaining == 0`; the body is `Sync` so shared calls from
// several workers are fine, and `JobCtl` is all atomics.
unsafe impl Send for Job {}

struct PoolState {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here waiting for jobs.
    work_cv: Condvar,
    /// `run` callers park here waiting for their job's completion.
    done_cv: Condvar,
    /// Preallocated telemetry (per-slot task/park counters + global
    /// mirrors); every hook is a relaxed counter add, no clock reads.
    obs: crate::obs::PoolObs,
}

/// A fixed-width pool of persistent worker threads executing
/// [`WorkerPool::run`] jobs (see the module docs for the design).
///
/// # Example
///
/// ```
/// use ant_runtime::WorkerPool;
/// use std::sync::atomic::{AtomicUsize, Ordering};
///
/// let pool = WorkerPool::new(4);
/// let hits = AtomicUsize::new(0);
/// pool.run(100, &|_task| {
///     hits.fetch_add(1, Ordering::Relaxed);
/// });
/// assert_eq!(hits.load(Ordering::Relaxed), 100);
/// ```
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("width", &self.width())
            .finish()
    }
}

impl WorkerPool {
    /// Builds a pool of total width `threads` (the caller counts as one,
    /// so `threads − 1` worker threads are spawned; width-1 pools spawn
    /// none and execute jobs inline).
    pub fn new(threads: usize) -> WorkerPool {
        let width = threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            obs: crate::obs::PoolObs::new(width),
        });
        let workers = (0..width - 1)
            .map(|i| {
                let shared = Arc::clone(&shared);
                // Telemetry slot 0 is the participating caller; workers
                // take slots 1..width.
                std::thread::spawn(move || worker_loop(&shared, i + 1))
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// The process-wide default pool, sized to the machine's available
    /// parallelism. Compiled plans use it unless
    /// [`crate::CompiledPlan::with_pool`] injects a dedicated one; sharing
    /// one pool keeps the total thread count bounded no matter how many
    /// plans and engines a process serves.
    pub fn global() -> &'static Arc<WorkerPool> {
        static GLOBAL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            Arc::new(WorkerPool::new(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1),
            ))
        })
    }

    /// Total parallel width (worker threads + the participating caller).
    pub fn width(&self) -> usize {
        self.workers.len() + 1
    }

    /// Pool-local executed-task count per telemetry slot (index 0 =
    /// `run` callers, 1.. = worker threads). Exact for this pool, unlike
    /// the global `ant_pool_*` families shared by every pool.
    pub fn slot_task_counts(&self) -> Vec<u64> {
        self.shared.obs.slot_task_counts()
    }

    /// Pool-local park-transition (idle) count per worker slot.
    pub fn slot_park_counts(&self) -> Vec<u64> {
        self.shared.obs.slot_park_counts()
    }

    /// Total tasks this pool has executed (always equals the sum of
    /// [`Self::slot_task_counts`]).
    pub fn executed_tasks(&self) -> u64 {
        self.shared.obs.total_tasks()
    }

    /// Executes `body(0..tasks)` across the pool and the calling thread,
    /// returning once every task has run. Tasks may execute in any order
    /// and concurrently; bodies must make disjoint writes.
    ///
    /// # Panics
    ///
    /// Re-raises (as a fresh panic) if any task body panicked; the pool
    /// itself stays usable.
    pub fn run(&self, tasks: usize, body: &(dyn Fn(usize) + Sync)) {
        if tasks == 0 {
            return;
        }
        if tasks == 1 || self.workers.is_empty() {
            self.shared.obs.record_inline(tasks as u64);
            for t in 0..tasks {
                body(t);
            }
            return;
        }
        self.shared.obs.record_job(tasks);
        let ctl = JobCtl {
            remaining: AtomicUsize::new(tasks),
            panicked: AtomicBool::new(false),
        };
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            // SAFETY (lifetime erasure): see `Job` — this frame outlives
            // the job because we block on `ctl.remaining` below.
            let body: *const (dyn Fn(usize) + Sync) = unsafe {
                std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                    body as *const _,
                )
            };
            state.jobs.push_back(Job {
                body,
                ctl: &ctl,
                tasks,
                next: 0,
            });
        }
        self.shared.work_cv.notify_all();
        // Participate: claim tasks of *this* job until none are left.
        loop {
            let mut state = self.shared.state.lock().expect("pool lock");
            let Some(job) = state
                .jobs
                .iter_mut()
                .find(|j| std::ptr::eq(j.ctl, &ctl) && j.next < j.tasks)
            else {
                break;
            };
            let task = job.next;
            job.next += 1;
            let done_claiming = job.next >= job.tasks;
            if done_claiming {
                state.jobs.retain(|j| !std::ptr::eq(j.ctl, &ctl));
            }
            drop(state);
            execute(body, &ctl, task, &self.shared, 0);
        }
        // Wait for tasks claimed by workers to finish.
        let mut state = self.shared.state.lock().expect("pool lock");
        while ctl.remaining.load(Ordering::Acquire) > 0 {
            state = self.shared.done_cv.wait(state).expect("pool lock");
        }
        drop(state);
        if ctl.panicked.load(Ordering::Acquire) {
            panic!("a WorkerPool task panicked");
        }
    }
}

/// Runs one claimed task and performs the completion countdown. `slot`
/// is the telemetry slot of the executing thread (0 = the `run` caller).
fn execute(
    body: &(dyn Fn(usize) + Sync),
    ctl: &JobCtl,
    task: usize,
    shared: &PoolShared,
    slot: usize,
) {
    shared.obs.record_task(slot);
    let run_task = || {
        // Chaos site: a GEMM shard dying mid-layer. The panic rides the
        // pool's normal forwarding — `ctl.panicked` → `run` re-raises on
        // the caller — into the engine supervisor.
        crate::chaos::maybe_panic(crate::chaos::FaultSite::PoolTask);
        body(task)
    };
    if catch_unwind(AssertUnwindSafe(run_task)).is_err() {
        ctl.panicked.store(true, Ordering::Release);
    }
    // Completion must be published under the lock so a `run` caller
    // between its `remaining` check and `done_cv.wait` cannot miss it.
    let _state = shared.state.lock().expect("pool lock");
    if ctl.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        shared.done_cv.notify_all();
    }
}

fn worker_loop(shared: &PoolShared, slot: usize) {
    loop {
        let (body, ctl, task) = {
            let mut state = shared.state.lock().expect("pool lock");
            loop {
                if state.shutdown {
                    return;
                }
                if let Some(job) = state.jobs.front_mut() {
                    let task = job.next;
                    job.next += 1;
                    let body = job.body;
                    let ctl = job.ctl;
                    if job.next >= job.tasks {
                        state.jobs.pop_front();
                    }
                    break (body, ctl, task);
                }
                shared.obs.record_park(slot);
                state = shared.work_cv.wait(state).expect("pool lock");
            }
        };
        // SAFETY: the job's `run` frame is still blocked on `remaining`,
        // which we have not yet decremented.
        let (body, ctl) = unsafe { (&*body, &*ctl) };
        execute(body, ctl, task, shared, slot);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.state.lock().expect("pool lock");
            state.shutdown = true;
        }
        self.shared.work_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_task_runs_exactly_once() {
        let pool = WorkerPool::new(4);
        for tasks in [1usize, 2, 3, 7, 64, 1000] {
            let hits: Vec<AtomicUsize> = (0..tasks).map(|_| AtomicUsize::new(0)).collect();
            pool.run(tasks, &|t| {
                hits[t].fetch_add(1, Ordering::Relaxed);
            });
            for (t, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "tasks={tasks} t={t}");
            }
        }
    }

    #[test]
    fn width_one_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.width(), 1);
        let sum = AtomicUsize::new(0);
        pool.run(10, &|t| {
            sum.fetch_add(t, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn pool_is_reusable_across_many_jobs() {
        let pool = WorkerPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..100 {
            pool.run(8, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 800);
    }

    #[test]
    fn concurrent_callers_share_one_pool() {
        let pool = Arc::new(WorkerPool::new(4));
        let total = Arc::new(AtomicUsize::new(0));
        let callers: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        pool.run(5, &|_| {
                            total.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                })
            })
            .collect();
        for c in callers {
            c.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 4 * 50 * 5);
    }

    #[test]
    fn panicking_task_propagates_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, &|t| {
                if t == 7 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err());
        // Pool still works after the poisoned job.
        let ok = AtomicUsize::new(0);
        pool.run(16, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let pool = WorkerPool::new(2);
        pool.run(0, &|_| panic!("must not run"));
    }

    #[test]
    fn global_pool_is_shared() {
        let a = WorkerPool::global();
        let b = WorkerPool::global();
        assert!(Arc::ptr_eq(a, b));
        let n = AtomicUsize::new(0);
        a.run(4, &|_| {
            n.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(n.load(Ordering::Relaxed), 4);
    }
}
