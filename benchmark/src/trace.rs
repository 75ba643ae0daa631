//! The benchmark's own span recorder. Spans wrap the calls the
//! benchmark makes into the program's public functions — the layers are
//! timed from outside. They stay in memory during a run and are written
//! as chrome-trace JSON when it ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// "No parent": the span is a root.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. `parent` indexes the same span list.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    /// Request (row batch, wave, session, HTTP exchange) the span
    /// belongs to; spans of one request share it.
    pub req: u64,
    /// Recording thread (0 = main, 1.. = client threads).
    pub tid: u32,
}

/// A per-thread span buffer. Disabled recorders never read the clock,
/// so end-to-end runs pay one predictable branch per call site.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
    dropped: u64,
}

/// Spans one thread keeps; later ones are counted as dropped.
const SPAN_CAP: usize = 1 << 20;

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            tid: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
        }
    }

    /// A recording tracer for thread `tid`; all threads of a run share
    /// `epoch` so their spans land on one timeline.
    pub fn on(epoch: Instant, tid: u32) -> Tracer {
        Tracer {
            on: true,
            epoch,
            tid,
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::with_capacity(8),
            dropped: 0,
        }
    }

    /// Opens a span under the innermost open one.
    #[inline]
    pub fn begin(&mut self, name: &'static str, req: u64) {
        if !self.on {
            return;
        }
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            // Keep begin/end balanced: the matching `end` pops this.
            self.stack.push(ROOT);
            return;
        }
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        self.stack.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            req,
            tid: self.tid,
        });
    }

    /// Closes the innermost open span.
    #[inline]
    pub fn end(&mut self) {
        if !self.on {
            return;
        }
        if let Some(ix) = self.stack.pop() {
            if ix != ROOT {
                self.spans[ix as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
            }
        }
    }

    /// Times `f` as one span.
    #[inline]
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, req);
        let out = f();
        self.end();
        out
    }
}

/// The spans of every thread of a run on one list (parents re-indexed).
#[derive(Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub dropped: u64,
}

impl Trace {
    /// Appends one thread's spans.
    pub fn absorb(&mut self, t: Tracer) {
        let base = self.spans.len() as u32;
        self.dropped += t.dropped;
        self.spans.extend(t.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }

    /// Per span name: count, total time, and self time (duration minus
    /// the time its direct children cover).
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStat> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, SpanStat> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(kids);
        }
        out
    }

    /// Share of the traced time the root spans account for: their
    /// summed duration over each thread's window from its first span's
    /// start to its last span's end.
    pub fn coverage(&self) -> f64 {
        let mut windows: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        let mut root_ns = 0u64;
        for s in &self.spans {
            let w = windows.entry(s.tid).or_insert((u64::MAX, 0));
            *w = (w.0.min(s.start_ns), w.1.max(s.end_ns));
            if s.parent == ROOT {
                root_ns += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let window_ns: u64 = windows.values().map(|(a, b)| b.saturating_sub(*a)).sum();
        if window_ns == 0 {
            0.0
        } else {
            root_ns as f64 / window_ns as f64
        }
    }

    /// Chrome-trace ("trace event") JSON: one complete event per span
    /// carrying name, start, end, parent and request id. Capped at
    /// `max_events` so a ten-second run stays loadable.
    pub fn chrome_json(&self, max_events: usize) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().take(max_events).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}}}",
                s.name,
                s.tid,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                i,
                parent,
                s.req,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Aggregate of the spans sharing one name.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SpanStat {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanStat {
    /// Mean duration in microseconds.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 7,
            tid: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let trace = Trace {
            spans: vec![
                span("request", 0, 100, ROOT),
                span("submit", 10, 30, 0),
                span("wait", 30, 90, 0),
                span("copy", 40, 50, 2),
            ],
            dropped: 0,
        };
        let s = trace.summary();
        assert_eq!(s["request"].self_ns, 20);
        assert_eq!(s["wait"].self_ns, 50);
        assert_eq!(s["copy"].self_ns, 10);
        assert_eq!(s["submit"].mean_us(), 0.02);
        assert_eq!(trace.coverage(), 1.0);
    }

    #[test]
    fn tracer_nests_and_threads_merge() {
        let epoch = Instant::now();
        let mut a = Tracer::on(epoch, 0);
        a.begin("outer", 1);
        a.span("inner", 1, || ());
        a.end();
        let mut b = Tracer::on(epoch, 1);
        b.span("other", 2, || ());
        let mut trace = Trace::default();
        trace.absorb(b);
        trace.absorb(a);
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.spans[0].parent, ROOT);
        assert_eq!(trace.spans[1].name, "outer");
        assert_eq!(trace.spans[2].parent, 1, "parent re-indexed after merge");
        let json = trace.chrome_json(2);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"req\":2"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.begin("x", 0);
        t.end();
        assert_eq!(t.span("y", 0, || 5), 5);
        let mut trace = Trace::default();
        trace.absorb(t);
        assert!(trace.spans.is_empty());
        assert_eq!(trace.coverage(), 0.0);
    }
}
