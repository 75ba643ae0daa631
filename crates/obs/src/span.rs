//! Fixed-capacity per-thread span ring buffers.
//!
//! A span is `(name, thread, start, duration)` on the process timeline
//! ([`crate::now_ns`]). Recording one is a thread-local slot lookup
//! plus three relaxed atomic stores and one relaxed `fetch_add` into
//! **static** preallocated rings — no locks, no allocation, ever. The
//! rings overwrite their oldest records, so memory is bounded by
//! construction: [`SPAN_THREAD_SLOTS`] threads × [`SPAN_RING_CAP`]
//! records.
//!
//! Names are interned once through [`register_span`] (a mutex, meant
//! for startup) into small integer ids; the hot path only ever touches
//! the id. Reading the rings back ([`snapshot_spans`]) is lossy by
//! design: a record being overwritten concurrently can tear between
//! its fields. That trades perfect fidelity for a hot path with zero
//! synchronization, which is the right trade for trace telemetry —
//! the chrome-trace exporter drops records whose id slot reads empty.

use std::cell::Cell;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::Mutex;

/// Maximum number of distinct recording threads; later threads drop
/// their spans (counted by [`dropped_spans`]).
pub const SPAN_THREAD_SLOTS: usize = 32;

/// Span records retained per thread before the ring wraps.
pub const SPAN_RING_CAP: usize = 1024;

/// An interned span name (see [`register_span`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

struct Ring {
    head: AtomicUsize,
    // id is the interned name + 1; 0 marks a never-written slot.
    id: [AtomicU32; SPAN_RING_CAP],
    start: [AtomicU64; SPAN_RING_CAP],
    dur: [AtomicU64; SPAN_RING_CAP],
}

#[allow(clippy::declare_interior_mutable_const)] // used only as an array initializer
const EMPTY_RING: Ring = Ring {
    head: AtomicUsize::new(0),
    id: [const { AtomicU32::new(0) }; SPAN_RING_CAP],
    start: [const { AtomicU64::new(0) }; SPAN_RING_CAP],
    dur: [const { AtomicU64::new(0) }; SPAN_RING_CAP],
};

static RINGS: [Ring; SPAN_THREAD_SLOTS] = [EMPTY_RING; SPAN_THREAD_SLOTS];
static NEXT_SLOT: AtomicUsize = AtomicUsize::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);
static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

thread_local! {
    static SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Interns a span name, returning the id the hot path records with.
/// Takes a mutex and may allocate — call it at startup and keep the id.
/// Registering the same name again returns the same id.
pub fn register_span(name: &'static str) -> SpanId {
    let mut names = NAMES.lock().unwrap();
    if let Some(pos) = names.iter().position(|&n| n == name) {
        return SpanId(pos as u32);
    }
    names.push(name);
    SpanId((names.len() - 1) as u32)
}

/// Records one span. Allocation-free and lock-free; spans from threads
/// beyond [`SPAN_THREAD_SLOTS`] are dropped (and counted) rather than
/// contended over.
#[inline]
pub fn record_span(id: SpanId, start_ns: u64, dur_ns: u64) {
    let slot = SLOT.with(|s| {
        let mut v = s.get();
        if v == usize::MAX {
            v = NEXT_SLOT.fetch_add(1, Relaxed);
            s.set(v);
        }
        v
    });
    if slot >= SPAN_THREAD_SLOTS {
        DROPPED.fetch_add(1, Relaxed);
        return;
    }
    let ring = &RINGS[slot];
    // The slot — and so the ring — belongs to this thread alone: a plain
    // load + store advances the head without a locked read-modify-write.
    let head = ring.head.load(Relaxed);
    ring.head.store(head.wrapping_add(1), Relaxed);
    let i = head % SPAN_RING_CAP;
    ring.start[i].store(start_ns, Relaxed);
    ring.dur[i].store(dur_ns, Relaxed);
    ring.id[i].store(id.0 + 1, Relaxed);
}

/// Spans dropped because more than [`SPAN_THREAD_SLOTS`] threads
/// recorded.
pub fn dropped_spans() -> u64 {
    DROPPED.load(Relaxed)
}

/// One span read back from the rings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// The interned name the span was recorded under.
    pub name: &'static str,
    /// Ring slot of the recording thread (stable per thread).
    pub tid: u32,
    /// Start, nanoseconds on the [`crate::now_ns`] timeline.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Reads every retained span out of the rings, sorted by start time.
/// This is the cold export path: it locks the name table and allocates
/// the result vector.
pub fn snapshot_spans() -> Vec<SpanEvent> {
    let names = NAMES.lock().unwrap().clone();
    let mut out = Vec::new();
    for (tid, ring) in RINGS.iter().enumerate() {
        let filled = ring.head.load(Relaxed).min(SPAN_RING_CAP);
        for i in 0..filled {
            let id = ring.id[i].load(Relaxed);
            if id == 0 {
                continue; // never written (or torn mid-write)
            }
            let Some(&name) = names.get((id - 1) as usize) else {
                continue;
            };
            out.push(SpanEvent {
                name,
                tid: tid as u32,
                start_ns: ring.start[i].load(Relaxed),
                dur_ns: ring.dur[i].load(Relaxed),
            });
        }
    }
    out.sort_by_key(|e| e.start_ns);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_is_idempotent_and_spans_round_trip() {
        let a = register_span("test.alpha");
        let b = register_span("test.alpha");
        assert_eq!(a, b);
        let c = register_span("test.beta");
        assert_ne!(a, c);

        record_span(a, 100, 10);
        record_span(c, 50, 5);
        let spans = snapshot_spans();
        let alpha: Vec<_> = spans.iter().filter(|s| s.name == "test.alpha").collect();
        let beta: Vec<_> = spans.iter().filter(|s| s.name == "test.beta").collect();
        assert!(!alpha.is_empty() && !beta.is_empty());
        assert!(alpha.iter().any(|s| s.start_ns == 100 && s.dur_ns == 10));
        assert!(beta.iter().any(|s| s.start_ns == 50 && s.dur_ns == 5));
        // Sorted by start.
        for w in spans.windows(2) {
            assert!(w[0].start_ns <= w[1].start_ns);
        }
    }

    #[test]
    fn ring_wraps_at_capacity_without_growing() {
        let id = register_span("test.wrap");
        for i in 0..3 * SPAN_RING_CAP as u64 {
            record_span(id, i, 1);
        }
        let mine: Vec<_> = snapshot_spans()
            .into_iter()
            .filter(|s| s.name == "test.wrap")
            .collect();
        assert!(mine.len() <= SPAN_RING_CAP);
        assert!(!mine.is_empty());
    }
}
