//! A counting global allocator for allocation-budget measurements,
//! scoped to the thread (or threads) under test.
//!
//! The runtime's serving contract is *zero steady-state heap allocations
//! per request* ([`ant_runtime::CompiledPlan::forward_rows`] +
//! [`ant_runtime::Scratch`]). Counters in this module make that claim
//! measurable from outside: install [`CountingAlloc`] as the binary's
//! `#[global_allocator]` (the `antc` binary and the `alloc_steady`
//! integration test do), snapshot [`alloc_count`] around a request burst,
//! and divide.
//!
//! # Scoping
//!
//! Every thread tallies its own allocations, so a measurement cannot be
//! polluted by whatever else the process is doing — libtest running
//! sibling tests concurrently, an engine worker warming up, a daemon's
//! connection threads. [`alloc_count`]/[`alloc_bytes`] read the *calling
//! thread's* tally. A call that fans out over a [`WorkerPool`] allocates
//! on the pool's threads too; [`AllocScope::with_pool`] enrolls them, and
//! the scope then reports the caller plus those workers and nobody else.
//! Give the plan under test a dedicated pool, as `antc bench` does:
//! workers of a pool shared with other callers also run — and are charged
//! for — the other callers' tasks, and enrolment waits for them.
//!
//! When the counting allocator is *not* installed (library consumers,
//! other binaries), the counters simply stay at zero; [`is_counting`]
//! distinguishes "zero allocations" from "nobody is counting" by probing
//! with a real heap allocation.

use ant_runtime::WorkerPool;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Threads with a tally of their own; any beyond share the last slot
/// (their counts are then merely lumped together, never lost).
const MAX_SLOTS: usize = 1024;

/// One thread's tallies, on its own cache line so counting never
/// contends between threads.
#[repr(align(64))]
struct Slot {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

static SLOTS: [Slot; MAX_SLOTS] = [const {
    Slot {
        allocs: AtomicU64::new(0),
        bytes: AtomicU64::new(0),
    }
}; MAX_SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    // Const-initialised and `Drop`-free: reading it from inside the
    // allocator neither allocates nor registers a destructor.
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's slot index, claimed on first use.
fn slot_index() -> usize {
    SLOT.try_with(|s| {
        if s.get() == usize::MAX {
            // Relaxed: the index publishes no other data.
            s.set(NEXT_SLOT.fetch_add(1, Ordering::Relaxed).min(MAX_SLOTS - 1));
        }
        s.get()
    })
    .unwrap_or(MAX_SLOTS - 1)
}

fn record(size: usize) {
    let slot = &SLOTS[slot_index()];
    // Relaxed: statistics, read only after the work they describe is
    // otherwise synchronised (same thread, or a finished pool job).
    slot.allocs.fetch_add(1, Ordering::Relaxed);
    slot.bytes.fetch_add(size as u64, Ordering::Relaxed);
}

/// A [`System`]-backed allocator that counts every allocation
/// (`alloc`, `alloc_zeroed`, and growth via `realloc`) against the
/// allocating thread.
///
/// # Example
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: ant_bench::alloc::CountingAlloc = ant_bench::alloc::CountingAlloc;
/// ```
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counters are side effects
// that never allocate themselves.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations the *calling thread* has made so far (0 forever when
/// [`CountingAlloc`] is not the global allocator).
pub fn alloc_count() -> u64 {
    SLOTS[slot_index()].allocs.load(Ordering::Relaxed)
}

/// Bytes the calling thread has requested from the allocator so far
/// (`alloc` + `alloc_zeroed` sizes plus `realloc` targets; frees are not
/// subtracted). Together with [`alloc_count`] this separates "many tiny
/// allocations" from "few huge ones" when chasing a budget regression.
pub fn alloc_bytes() -> u64 {
    SLOTS[slot_index()].bytes.load(Ordering::Relaxed)
}

/// Whether allocation counting is live in this process, determined by
/// performing a heap allocation and watching the counter.
pub fn is_counting() -> bool {
    let before = alloc_count();
    let probe = vec![0u8; 64];
    std::hint::black_box(&probe);
    alloc_count() > before
}

/// A measurement window over a fixed set of threads: the thread that
/// opened it, plus — via [`AllocScope::with_pool`] — the workers of the
/// pool its calls fan out over. Reports what those threads allocated
/// since the scope was opened, and nothing any other thread did.
///
/// # Example
///
/// ```
/// use ant_bench::alloc::AllocScope;
///
/// let scope = AllocScope::thread();
/// let v = vec![1u8; 32];
/// std::hint::black_box(&v);
/// // 1 when `CountingAlloc` is installed, 0 when nobody is counting.
/// assert!(scope.allocs() <= 1);
/// ```
#[derive(Debug)]
pub struct AllocScope {
    slots: Vec<usize>,
    base_allocs: u64,
    base_bytes: u64,
}

impl AllocScope {
    /// A scope over the calling thread alone.
    pub fn thread() -> AllocScope {
        AllocScope::over(vec![slot_index()])
    }

    /// A scope over the calling thread and every worker of `pool`, for
    /// measuring calls that dispatch onto it.
    ///
    /// Enrolment runs one job of `pool.width()` tasks in which every task
    /// waits for all the others to have started, so each of the pool's
    /// threads (the caller included) holds exactly one and reports its
    /// own slot. It therefore blocks until every worker is free.
    pub fn with_pool(pool: &WorkerPool) -> AllocScope {
        let width = pool.width();
        let arrived = AtomicUsize::new(0);
        let slots = Mutex::new(vec![slot_index()]);
        pool.run(width, &|_| {
            slots
                .lock()
                .expect("no enrolment task panics holding the lock")
                .push(slot_index());
            // SeqCst: the rendezvous every participant spins on.
            arrived.fetch_add(1, Ordering::SeqCst);
            while arrived.load(Ordering::SeqCst) < width {
                std::thread::yield_now();
            }
        });
        let mut slots = slots
            .into_inner()
            .expect("no enrolment task panics holding the lock");
        slots.sort_unstable();
        slots.dedup();
        AllocScope::over(slots)
    }

    fn over(slots: Vec<usize>) -> AllocScope {
        let mut scope = AllocScope {
            slots,
            base_allocs: 0,
            base_bytes: 0,
        };
        // Taken last, so the scope's own set-up is not charged to it.
        (scope.base_allocs, scope.base_bytes) = scope.totals();
        scope
    }

    fn totals(&self) -> (u64, u64) {
        self.slots.iter().fold((0, 0), |(a, b), &s| {
            (
                a + SLOTS[s].allocs.load(Ordering::Relaxed),
                b + SLOTS[s].bytes.load(Ordering::Relaxed),
            )
        })
    }

    /// Allocations made by the scope's threads since it was opened.
    pub fn allocs(&self) -> u64 {
        self.totals().0 - self.base_allocs
    }

    /// Bytes requested by the scope's threads since it was opened.
    pub fn bytes(&self) -> u64 {
        self.totals().1 - self.base_bytes
    }
}
