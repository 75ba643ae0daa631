//! Open-loop load generator: requests are sent on a seeded Poisson
//! schedule whether or not earlier ones have been answered, over a
//! fixed number of connections. Each request is timed **from its due
//! time**, so the wait a stall imposes on later arrivals is counted,
//! and how late the generator itself ran is reported beside it.
//! (`antc loadgen` is the closed-loop generator and is left as it is.)

use crate::inputs::SplitMix64;
use crate::stats::{percentile, Timeline};
use crate::trace::Tracer;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The rate ladder, requests per second.
pub const RATES: [u32; 6] = [250, 500, 1000, 2000, 4000, 8000];
/// A rung passes when its p99 latency from due time stays within this…
pub const LIMIT_P99_NS: u64 = 10_000_000;
/// …and at least this share of the requests sent was answered 200 with
/// the right body…
pub const MIN_OK_SHARE: f64 = 0.999;
/// …and no arrival was still unsent this long after the rung ended (a
/// backlog that outlives the rung is a growing backlog).
const DRAIN_GRACE: Duration = Duration::from_millis(10);

/// Due times (ns since rung start, ascending, all `< duration_ns`) of a
/// Poisson process of `rate_per_s`: exponential gaps from `rng`.
pub fn poisson_schedule(rate_per_s: f64, duration_ns: u64, rng: &mut SplitMix64) -> Vec<u64> {
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut due = Vec::with_capacity((rate_per_s * duration_ns as f64 / 1e9 * 1.1) as usize + 8);
    let mut t = 0.0f64;
    loop {
        t += -rng.next_unit().ln() * mean_gap_ns;
        if t >= duration_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

/// Latencies kept per slice of a rung (the ladder tops out near
/// 2 k req/s on two connections; 8 k leaves room for a faster server).
const RUNG_SLICE_CAP: usize = 8192;

/// What one connection saw during a rung.
#[derive(Debug, Clone)]
pub struct RungLog {
    /// Completion time and latency **from due time** of every request
    /// answered OK.
    pub answered: Timeline,
    /// Send time minus due time of every request sent.
    pub late_ns: Vec<u64>,
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
}

impl RungLog {
    pub fn new(duration_ns: u64) -> RungLog {
        RungLog {
            answered: Timeline::new(duration_ns, 1, RUNG_SLICE_CAP),
            late_ns: Vec::new(),
            sent: 0,
            ok: 0,
            failed: 0,
        }
    }

    /// Books one exchange; all times are ns since the rung started.
    pub fn record(&mut self, due: u64, sent: u64, done: u64, ok: bool) {
        self.sent += 1;
        self.late_ns.push(sent.saturating_sub(due));
        if ok {
            self.ok += 1;
            self.answered.push(done, done.saturating_sub(due));
        } else {
            self.failed += 1;
        }
    }

    fn merge(&mut self, other: RungLog) {
        self.answered.merge(other.answered);
        self.late_ns.extend(other.late_ns);
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
    }
}

/// One rung of the ladder, all connections merged.
#[derive(Debug, Clone)]
pub struct Rung {
    pub rate: u32,
    /// Arrivals never sent: the rung was over before their turn came.
    pub dropped: u64,
    pub log: RungLog,
}

impl Rung {
    pub fn new(rate: u32, dropped: u64, mut log: RungLog) -> Rung {
        log.late_ns.sort_unstable();
        Rung { rate, dropped, log }
    }

    /// p99 of how late the generator sent, in microseconds.
    pub fn late_p99_us(&self) -> f64 {
        percentile(&self.log.late_ns, 0.99) as f64 / 1e3
    }

    /// OK answers over requests sent; a failed request misses every
    /// limit.
    pub fn ok_share(&self) -> f64 {
        if self.log.sent == 0 {
            0.0
        } else {
            self.log.ok as f64 / self.log.sent as f64
        }
    }

    /// Whether the system kept up with this rate.
    pub fn passes(&self) -> bool {
        self.log.sent > 0
            && self.dropped == 0
            && self.ok_share() >= MIN_OK_SHARE
            && self.log.answered.pooled_us(0.99) * 1e3 <= LIMIT_P99_NS as f64
    }
}

/// The highest rate the system kept up with: the ladder is climbed
/// from the bottom and stops at the first rung that fails. 0 when the
/// lowest rung fails.
pub fn max_rate_ok(rungs: &[Rung]) -> u32 {
    rungs
        .iter()
        .take_while(|r| r.passes())
        .last()
        .map_or(0, |r| r.rate)
}

/// Sleeps most of the way to `t`, then spins: `thread::sleep` alone
/// overshoots by tens of microseconds, which would read as lateness.
fn wait_until(t: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        let left = t - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Drives one rung: each connection runs on its own thread, claims the
/// next arrival of `schedule`, waits for its due time, and calls
/// `exchange(conn, arrival index, tracer)`, which returns whether the
/// answer was right. Returns once every arrival is sent or dropped.
pub fn run_rung<C: Send>(
    rate: u32,
    schedule: &[u64],
    duration: Duration,
    conns: &mut [C],
    tracers: &mut [Tracer],
    exchange: impl Fn(&mut C, usize, &mut Tracer) -> bool + Sync,
) -> Rung {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let cutoff = start + duration + DRAIN_GRACE;
    let since = |t: Instant| t.duration_since(start).as_nanos() as u64;
    let duration_ns = duration.as_nanos() as u64;
    let mut merged = RungLog::new(duration_ns);
    let mut dropped = 0u64;
    std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .iter_mut()
            .zip(tracers.iter_mut())
            .map(|(conn, tracer)| {
                let (next, exchange) = (&next, &exchange);
                s.spawn(move || {
                    let mut log = RungLog::new(duration_ns);
                    let mut dropped = 0u64;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&due) = schedule.get(i) else {
                            return (log, dropped);
                        };
                        if Instant::now() > cutoff {
                            dropped += 1;
                            continue;
                        }
                        tracer.span("loadgen.wait_due", i as u64, || {
                            wait_until(start + Duration::from_nanos(due));
                        });
                        let sent = Instant::now();
                        let ok = exchange(conn, i, tracer);
                        log.record(due, since(sent), since(Instant::now()), ok);
                    }
                })
            })
            .collect();
        for w in workers {
            let (log, d) = w.join().expect("load-generator thread panicked");
            merged.merge(log);
            dropped += d;
        }
    });
    Rung::new(rate, dropped, merged)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed_and_hits_the_rate() {
        let sched = |seed| poisson_schedule(1000.0, 2_000_000_000, &mut SplitMix64::new(seed));
        let a = sched(17);
        assert_eq!(a, sched(17));
        assert_ne!(a, sched(18));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.iter().all(|&t| t < 2_000_000_000));
        // 2000 expected arrivals; Poisson σ ≈ 45.
        assert!((1800..2200).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn latency_counts_from_due_time_and_lateness_is_booked_apart() {
        let mut log = RungLog::new(10_000_000);
        // Due at 1 ms, sent 0.4 ms late, answered 1 ms after sending.
        log.record(1_000_000, 1_400_000, 2_400_000, true);
        // Sent on time but answered wrong.
        log.record(3_000_000, 3_000_000, 3_500_000, false);
        assert_eq!(
            log.answered.latencies().collect::<Vec<_>>(),
            [1_400_000],
            "latency is service time plus the wait"
        );
        assert_eq!(log.late_ns, [400_000, 0]);
        assert_eq!((log.sent, log.ok, log.failed), (2, 1, 1));
    }

    fn rung(rate: u32, lat_ns: Vec<u64>, failed: u64, dropped: u64) -> Rung {
        let ok = lat_ns.len() as u64;
        let mut log = RungLog {
            late_ns: vec![0; (ok + failed) as usize],
            sent: ok + failed,
            ok,
            failed,
            ..RungLog::new(1_000_000_000)
        };
        lat_ns.into_iter().for_each(|l| log.answered.push(0, l));
        Rung::new(rate, dropped, log)
    }

    #[test]
    fn ladder_stops_at_the_first_failing_rung() {
        let fast = || vec![1_000_000; 2000];
        let mut slow = fast();
        slow[..30].fill(11_000_000); // 1.5 % over the limit → p99 fails
        assert!(rung(250, fast(), 0, 0).passes());
        assert!(!rung(250, slow.clone(), 0, 0).passes());
        assert!(rung(250, fast(), 2, 0).passes(), "0.1 % may fail");
        assert!(!rung(250, fast(), 3, 0).passes());
        assert!(
            !rung(250, fast(), 0, 1).passes(),
            "backlog outlived the rung"
        );
        assert!(!rung(250, Vec::new(), 0, 0).passes());

        let ladder = [
            rung(250, fast(), 0, 0),
            rung(500, fast(), 0, 0),
            rung(1000, slow, 0, 0),
            rung(2000, fast(), 0, 0), // a pass above a fail does not count
        ];
        assert_eq!(max_rate_ok(&ladder), 500);
        assert_eq!(max_rate_ok(&ladder[2..]), 0);
    }

    #[test]
    fn run_rung_sends_every_arrival_once() {
        let schedule: Vec<u64> = (0..40).map(|i| i * 100_000).collect();
        let mut conns = [Vec::new(), Vec::new()];
        let mut tracers = [Tracer::off(), Tracer::off()];
        let r = run_rung(
            10_000,
            &schedule,
            Duration::from_millis(4),
            &mut conns,
            &mut tracers,
            |seen: &mut Vec<usize>, i, _| {
                seen.push(i);
                i != 7
            },
        );
        let mut seen: Vec<usize> = conns.concat();
        seen.sort_unstable();
        assert_eq!(seen, (0..40).collect::<Vec<_>>());
        assert_eq!(r.dropped, 0);
        assert_eq!((r.log.sent, r.log.ok, r.log.failed), (40, 39, 1));
        assert!(!r.passes(), "one failure in forty is over 0.1 %");
    }
}
