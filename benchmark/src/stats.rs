//! Percentiles, slices and quartile spread — the arithmetic
//! every reported number goes through, identical on every commit.

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1): the
/// smallest sample with at least `q·n` samples at or below it. Empty
/// input reads 0.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of the values (mean of the middle pair for even counts); 0
/// when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Number of equal wall-clock slices a timed phase is cut into.
pub const SLICES: usize = 5;

/// What one slice of a phase saw.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SliceStat {
    /// Units completed per second.
    pub rate: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Calls completed in the slice.
    pub samples: u64,
}

/// The samples of one timed phase, kept per slice: how many calls
/// completed in it and how long each took.
///
/// Latencies are stored in fixed, pre-faulted buffers (`u32` ns, at
/// most `cap` per slice; later calls of a full slice are counted but
/// their latency is not kept), so the memory the benchmark itself holds
/// does not grow with the speed of the program — `peak_rss_mb` would
/// otherwise move with throughput.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    pub phase_ns: u64,
    /// Units (rows, tokens, requests) each call completes.
    pub units: u64,
    cap: usize,
    lat_ns: [Vec<u32>; SLICES],
    calls: [u64; SLICES],
}

impl Timeline {
    /// An empty timeline for a phase of `phase_ns` keeping up to `cap`
    /// latencies per slice.
    pub fn new(phase_ns: u64, units: u64, cap: usize) -> Timeline {
        Timeline {
            phase_ns,
            units,
            cap,
            lat_ns: std::array::from_fn(|_| {
                // Touch every page now, then forget the contents.
                let mut v = vec![1u32; cap];
                v.clear();
                v
            }),
            calls: [0; SLICES],
        }
    }

    /// Books a call that completed `done_ns` after the phase started.
    /// A call belongs to the slice it completed in; completions at or
    /// past the phase end belong to none, so a call that straddles the
    /// end is left out.
    pub fn push(&mut self, done_ns: u64, lat_ns: u64) {
        let slice = (done_ns / (self.phase_ns / SLICES as u64).max(1)) as usize;
        if slice < SLICES {
            self.calls[slice] += 1;
            if self.lat_ns[slice].len() < self.cap {
                self.lat_ns[slice].push(u32::try_from(lat_ns).unwrap_or(u32::MAX));
            }
        }
    }

    /// Adds another thread's samples of the same phase.
    pub fn merge(&mut self, other: Timeline) {
        for (slice, lat) in other.lat_ns.into_iter().enumerate() {
            self.lat_ns[slice].extend(lat);
            self.calls[slice] += other.calls[slice];
        }
    }

    /// Calls completed inside the phase.
    pub fn samples(&self) -> u64 {
        self.calls.iter().sum()
    }

    /// Every kept latency, in nanoseconds.
    pub fn latencies(&self) -> impl Iterator<Item = u64> + '_ {
        self.lat_ns.iter().flatten().map(|&l| u64::from(l))
    }

    /// Per-slice throughput and latency percentiles.
    pub fn slices(&self) -> [SliceStat; SLICES] {
        let slice_s = (self.phase_ns / SLICES as u64).max(1) as f64 / 1e9;
        std::array::from_fn(|i| {
            let mut lat: Vec<u64> = self.lat_ns[i].iter().map(|&l| u64::from(l)).collect();
            lat.sort_unstable();
            SliceStat {
                rate: (self.calls[i] * self.units) as f64 / slice_s,
                p50_us: percentile(&lat, 0.50) as f64 / 1e3,
                p99_us: percentile(&lat, 0.99) as f64 / 1e3,
                samples: self.calls[i],
            }
        })
    }

    /// The phase's reading: each statistic from its **best slice** —
    /// the highest rate, the lowest p50, the lowest p99. Interference
    /// from outside the process (a neighbour on the host, a vCPU that
    /// is slow to wake) only ever makes a slice slower, so the best
    /// slice is the least contaminated one; on a shared two-core VM it
    /// repeats several times better across runs than the median slice.
    /// Every slice is kept in the result file.
    pub fn best(&self) -> SliceStat {
        let slices = self.slices();
        let seen = || slices.iter().filter(|s| s.samples > 0);
        let lowest = |f: fn(&SliceStat) -> f64| seen().map(f).fold(f64::INFINITY, f64::min);
        if seen().next().is_none() {
            return SliceStat::default();
        }
        SliceStat {
            rate: seen().map(|s| s.rate).fold(0.0, f64::max),
            p50_us: lowest(|s| s.p50_us),
            p99_us: lowest(|s| s.p99_us),
            samples: self.samples(),
        }
    }

    /// Percentile `q` over every kept latency of the phase pooled, in
    /// microseconds.
    pub fn pooled_us(&self, q: f64) -> f64 {
        let mut lat: Vec<u64> = self.latencies().collect();
        lat.sort_unstable();
        percentile(&lat, q) as f64 / 1e3
    }

    /// Mean kept latency in microseconds; 0 when empty.
    pub fn mean_us(&self) -> f64 {
        let n = self.latencies().count();
        if n == 0 {
            return 0.0;
        }
        self.latencies().sum::<u64>() as f64 / n as f64 / 1e3
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method the driver uses). Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; 0 for fewer than
/// two values or a zero median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1).abs() / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[], 0.5), 0);
        // Ten samples beyond p99 need a thousand samples.
        let big: Vec<u64> = (1..=1000).collect();
        assert_eq!(big.len() - percentile(&big, 0.99) as usize, 10);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn best_slice_ignores_stalled_slices() {
        // 5 slices of 1 s; 100 calls of 2 units each everywhere but a
        // stalled slice 2, whose calls also take ten times as long.
        let mut t = Timeline::new(5_000_000_000, 2, 1000);
        for s in 0..5u64 {
            let (n, slow) = if s == 2 { (10, 10) } else { (100, 1) };
            for i in 0..n {
                t.push(s * 1_000_000_000 + i * 1_000_000, 1_000 * (i + 1) * slow);
            }
        }
        // A completion past the phase end is not counted.
        t.push(5_000_000_001, 1);
        let slices = t.slices();
        assert_eq!(slices.map(|s| s.rate), [200.0, 200.0, 20.0, 200.0, 200.0]);
        assert_eq!(slices[0].samples, 100);
        assert_eq!((slices[0].p50_us, slices[0].p99_us), (50.0, 99.0));
        assert_eq!(slices[2].p50_us, 50.0);
        assert_eq!(slices[2].p99_us, 100.0);
        let best = t.best();
        assert_eq!((best.rate, best.p50_us, best.p99_us), (200.0, 50.0, 99.0));
        assert_eq!(best.samples, 410);
        assert_eq!(Timeline::new(5, 1, 4).best(), SliceStat::default());
    }

    #[test]
    fn full_slices_count_calls_but_keep_no_more_latencies() {
        let mut t = Timeline::new(5_000, 1, 2);
        for i in 0..10 {
            t.push(i, 1_000);
        }
        assert_eq!(t.samples(), 10);
        assert_eq!(t.latencies().count(), 2);
        assert_eq!(t.slices()[0].rate, 10.0 / 1e-6);
        // An oversized latency saturates instead of wrapping.
        t.push(4_999, u64::MAX);
        assert_eq!(t.latencies().max(), Some(u64::from(u32::MAX)));
    }

    #[test]
    fn merge_pools_threads_per_slice() {
        let mut a = Timeline::new(5_000, 1, 8);
        a.push(10, 9_000);
        a.push(4_500, 1_000);
        let mut b = Timeline::new(5_000, 1, 8);
        b.push(15, 5_000);
        a.merge(b);
        assert_eq!(a.samples(), 3);
        assert_eq!(a.slices()[0].samples, 2);
        assert_eq!(a.slices()[0].p99_us, 9.0);
        assert_eq!((a.pooled_us(0.5), a.pooled_us(0.99)), (5.0, 9.0));
        assert_eq!(a.mean_us(), 5.0);
        assert_eq!(Timeline::default().mean_us(), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }
}
