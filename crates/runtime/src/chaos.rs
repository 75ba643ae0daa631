//! Deterministic fault injection for the serving stack.
//!
//! Robustness claims ("the engine recovers from a panicking batch",
//! "antd reopens traffic after a rebuild") are only worth anything if
//! they hold under *injected* faults, reproducibly. This module is the
//! seam: a [`FaultPlan`] parsed from a spec string like
//!
//! ```text
//! seed=42,worker_panic=0.05,slow_batch=0.1,slow_ms=5,poison=1e6
//! ```
//!
//! is [`install`]ed process-wide, and instrumented sites across the
//! runtime and daemon (`engine/supervisor.rs` batch dispatch, `pool.rs`
//! task execution, `artifact.rs` mmap open, `antd` reload/streaming)
//! consult it through [`active`]. Every draw is a pure function of
//! `(seed, site, draw index)` via SplitMix64 — re-running the same
//! traffic against the same spec reproduces the same faults, and every
//! triggered fault prints a `[chaos]` line naming the seed, site, and
//! draw index so a failure seen once can be replayed exactly.
//!
//! Sites can fire by **rate** (`worker_panic=0.05` — each draw fires
//! with probability 0.05) or **exactly once at the Nth draw**
//! (`worker_panic=@3`) for tests that need one specific batch to die.
//!
//! The consult sites are always compiled in (the workspace has no
//! cargo features; the `obs` hooks are unconditional too): an
//! uninstalled plan costs one atomic load per site visit.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Where a fault can be injected. Each site draws from its own counter
/// stream so adding traffic at one site never shifts another site's
/// schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// Panic the engine worker at batch dispatch (before execution).
    WorkerPanic,
    /// Sleep [`FaultPlan::slow_ms`] at batch dispatch (a stall, not a
    /// crash — exercises deadline/timeout paths).
    SlowBatch,
    /// Panic inside a [`crate::pool::WorkerPool`] task (a GEMM shard
    /// dying mid-layer; propagates to the engine supervisor through the
    /// pool's panic forwarding).
    PoolTask,
    /// Fail [`crate::MappedArtifact`] open (simulated unreadable /
    /// corrupt artifact at the mmap layer).
    MmapLoad,
    /// Fail an artifact reload/rebuild after the map succeeded
    /// (simulated corruption detected at compile time; exercises the
    /// daemon's rebuild retry loop).
    ReloadCorrupt,
    /// Drop an HTTP connection mid-stream (the daemon abandons the
    /// socket without finishing the response).
    ConnDrop,
}

/// Number of distinct [`FaultSite`]s (sizes the per-site counters).
const N_SITES: usize = 6;

impl FaultSite {
    fn index(self) -> usize {
        match self {
            FaultSite::WorkerPanic => 0,
            FaultSite::SlowBatch => 1,
            FaultSite::PoolTask => 2,
            FaultSite::MmapLoad => 3,
            FaultSite::ReloadCorrupt => 4,
            FaultSite::ConnDrop => 5,
        }
    }

    /// The spec key and log name for this site.
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::WorkerPanic => "worker_panic",
            FaultSite::SlowBatch => "slow_batch",
            FaultSite::PoolTask => "pool_panic",
            FaultSite::MmapLoad => "mmap_fail",
            FaultSite::ReloadCorrupt => "reload_fail",
            FaultSite::ConnDrop => "conn_drop",
        }
    }
}

/// Per-site salts so two sites at the same draw index never correlate.
const SITE_SALT: [u64; N_SITES] = [
    0x9e37_79b9_7f4a_7c15,
    0xbf58_476d_1ce4_e5b9,
    0x94d0_49bb_1331_11eb,
    0xd6e8_feb8_6659_fd93,
    0xa5a5_a5a5_5a5a_5a5a,
    0x0123_4567_89ab_cdef,
];

/// When a site fires.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Trigger {
    /// Never fires (site not named in the spec).
    Never,
    /// Fires each draw with this probability.
    Rate(f64),
    /// Fires exactly on the Nth draw (1-based), once.
    At(u64),
}

impl Trigger {
    fn fires(self, seed: u64, salt: u64, draw: u64) -> bool {
        match self {
            Trigger::Never => false,
            Trigger::Rate(p) => {
                let z = splitmix64(seed ^ salt ^ draw.wrapping_mul(0x2545_F491_4F6C_DD1D));
                ((z >> 11) as f64) / ((1u64 << 53) as f64) < p
            }
            Trigger::At(n) => draw + 1 == n,
        }
    }
}

/// SplitMix64: the draw-to-decision hash. Small, stateless, and good
/// enough to decorrelate sites and draws (same generator the daemon
/// uses for deterministic token embeddings).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A parsed, installable fault schedule. Cloning shares the draw
/// counters, so a clone observes (and advances) the same schedule.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    seed: u64,
    triggers: [Trigger; N_SITES],
    /// Milliseconds a fired [`FaultSite::SlowBatch`] sleeps.
    slow_ms: u64,
    /// Sentinel input value that marks a request as poisoned: any
    /// request whose input contains this exact value panics the batch
    /// executing it (the deterministic "malformed request" for
    /// quarantine tests).
    poison: Option<f32>,
    counters: Arc<[AtomicU64; N_SITES]>,
}

impl FaultPlan {
    /// Parses a comma-separated spec: `seed=N`, per-site triggers
    /// (`worker_panic=0.05` rate or `worker_panic=@3` exact draw),
    /// `slow_ms=N`, and `poison=VALUE`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for unknown keys or unparsable
    /// values.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan {
            seed: 0,
            triggers: [Trigger::Never; N_SITES],
            slow_ms: 10,
            poison: None,
            counters: Arc::new(std::array::from_fn(|_| AtomicU64::new(0))),
        };
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("chaos spec entry `{part}` is not key=value"))?;
            let site = [
                FaultSite::WorkerPanic,
                FaultSite::SlowBatch,
                FaultSite::PoolTask,
                FaultSite::MmapLoad,
                FaultSite::ReloadCorrupt,
                FaultSite::ConnDrop,
            ]
            .into_iter()
            .find(|s| s.name() == key);
            if let Some(site) = site {
                plan.triggers[site.index()] = parse_trigger(key, value)?;
            } else {
                match key {
                    "seed" => {
                        plan.seed = value
                            .parse()
                            .map_err(|_| format!("chaos seed `{value}` is not a u64"))?;
                    }
                    "slow_ms" => {
                        plan.slow_ms = value
                            .parse()
                            .map_err(|_| format!("chaos slow_ms `{value}` is not a u64"))?;
                    }
                    "poison" => {
                        let v: f32 = value
                            .parse()
                            .map_err(|_| format!("chaos poison `{value}` is not a float"))?;
                        plan.poison = Some(v);
                    }
                    _ => return Err(format!("unknown chaos spec key `{key}`")),
                }
            }
        }
        Ok(plan)
    }

    /// The reproducing seed (printed on every triggered fault).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Milliseconds a fired [`FaultSite::SlowBatch`] stalls.
    pub fn slow_ms(&self) -> u64 {
        self.slow_ms
    }

    /// The poison sentinel, if the spec set one.
    pub fn poison(&self) -> Option<f32> {
        self.poison
    }

    /// Draws once at `site`: advances the site's counter and decides —
    /// deterministically from `(seed, site, draw)` — whether the fault
    /// fires. Prints the reproducing `[chaos]` line when it does.
    pub fn roll(&self, site: FaultSite) -> bool {
        let i = site.index();
        if self.triggers[i] == Trigger::Never {
            return false;
        }
        let draw = self.counters[i].fetch_add(1, Ordering::Relaxed);
        let fired = self.triggers[i].fires(self.seed, SITE_SALT[i], draw);
        if fired {
            eprintln!(
                "[chaos] seed={} site={} draw={} -- fault injected",
                self.seed,
                site.name(),
                draw + 1
            );
        }
        fired
    }
}

fn parse_trigger(key: &str, value: &str) -> Result<Trigger, String> {
    if let Some(n) = value.strip_prefix('@') {
        let n: u64 = n
            .parse()
            .map_err(|_| format!("chaos `{key}={value}`: draw index is not a u64"))?;
        if n == 0 {
            return Err(format!("chaos `{key}=@0`: draw indices are 1-based"));
        }
        Ok(Trigger::At(n))
    } else {
        let p: f64 = value
            .parse()
            .map_err(|_| format!("chaos `{key}={value}`: rate is not a float"))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(format!("chaos `{key}={value}`: rate must be in [0, 1]"));
        }
        Ok(Trigger::Rate(p))
    }
}

/// Fast-path guard: false until the first [`install`], so a process
/// with no plan installed pays one relaxed load per site visit.
static INSTALLED: AtomicBool = AtomicBool::new(false);
static PLAN: RwLock<Option<Arc<FaultPlan>>> = RwLock::new(None);

/// Installs `plan` process-wide: every instrumented site starts
/// consulting it. Replaces any previously installed plan (tests swap
/// plans between scenarios).
pub fn install(plan: FaultPlan) {
    *PLAN
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Arc::new(plan));
    INSTALLED.store(true, Ordering::Release);
}

/// Removes the installed plan; sites go quiet again.
pub fn clear() {
    INSTALLED.store(false, Ordering::Release);
    *PLAN
        .write()
        .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
}

/// The installed plan, if any. Sites call this; the not-installed case
/// is a single relaxed atomic load.
pub fn active() -> Option<Arc<FaultPlan>> {
    if !INSTALLED.load(Ordering::Acquire) {
        return None;
    }
    PLAN.read()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .clone()
}

/// Site helper: panics with a reproducing message when the installed
/// plan fires `site`. The instrumented layer's own supervision turns
/// the panic into its recovery path.
pub fn maybe_panic(site: FaultSite) {
    if let Some(plan) = active() {
        if plan.roll(site) {
            panic!(
                "chaos: injected {} fault (seed={})",
                site.name(),
                plan.seed()
            );
        }
    }
}

/// Site helper: stalls for the plan's `slow_ms` when `site` fires.
pub fn maybe_slow(site: FaultSite) {
    if let Some(plan) = active() {
        if plan.roll(site) {
            std::thread::sleep(std::time::Duration::from_millis(plan.slow_ms()));
        }
    }
}

/// Site helper: returns `true` (caller should fail the operation) when
/// `site` fires.
pub fn maybe_fail(site: FaultSite) -> bool {
    match active() {
        Some(plan) => plan.roll(site),
        None => false,
    }
}

/// Poison scan: panics if any row in `rows` contains the installed
/// plan's poison sentinel. Engine batch executors call this at the top
/// of every (re-)execution, so bisection probes re-trigger on exactly
/// the poisoned members and isolate them.
pub fn assert_unpoisoned<'a>(rows: impl IntoIterator<Item = &'a [f32]>) {
    let Some(plan) = active() else {
        return;
    };
    let Some(sentinel) = plan.poison() else {
        return;
    };
    for row in rows {
        if row.contains(&sentinel) {
            eprintln!(
                "[chaos] seed={} site=poison -- poisoned input detected",
                plan.seed()
            );
            panic!("chaos: poisoned request (input contains sentinel {sentinel})");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_rates_exact_draws_and_knobs() {
        let plan =
            FaultPlan::parse("seed=42, worker_panic=0.25, slow_batch=@3, slow_ms=7, poison=1e6")
                .unwrap();
        assert_eq!(plan.seed(), 42);
        assert_eq!(plan.slow_ms(), 7);
        assert_eq!(plan.poison(), Some(1e6));
        assert_eq!(
            plan.triggers[FaultSite::WorkerPanic.index()],
            Trigger::Rate(0.25)
        );
        assert_eq!(plan.triggers[FaultSite::SlowBatch.index()], Trigger::At(3));
        assert_eq!(plan.triggers[FaultSite::PoolTask.index()], Trigger::Never);
    }

    #[test]
    fn parse_rejects_bad_specs() {
        assert!(FaultPlan::parse("nonsense").is_err());
        assert!(FaultPlan::parse("bogus_key=1").is_err());
        assert!(FaultPlan::parse("worker_panic=1.5").is_err());
        assert!(FaultPlan::parse("worker_panic=@0").is_err());
        assert!(FaultPlan::parse("seed=abc").is_err());
    }

    #[test]
    fn exact_draw_fires_exactly_once_at_n() {
        let plan = FaultPlan::parse("seed=1,worker_panic=@3").unwrap();
        let fired: Vec<bool> = (0..6).map(|_| plan.roll(FaultSite::WorkerPanic)).collect();
        assert_eq!(fired, vec![false, false, true, false, false, false]);
    }

    #[test]
    fn rate_draws_are_deterministic_in_seed_and_index() {
        let a = FaultPlan::parse("seed=7,pool_panic=0.5").unwrap();
        let b = FaultPlan::parse("seed=7,pool_panic=0.5").unwrap();
        let fa: Vec<bool> = (0..64).map(|_| a.roll(FaultSite::PoolTask)).collect();
        let fb: Vec<bool> = (0..64).map(|_| b.roll(FaultSite::PoolTask)).collect();
        assert_eq!(fa, fb, "same seed must reproduce the same schedule");
        assert!(fa.iter().any(|f| *f), "rate 0.5 over 64 draws must fire");
        assert!(!fa.iter().all(|f| *f), "rate 0.5 must not always fire");
        let c = FaultPlan::parse("seed=8,pool_panic=0.5").unwrap();
        let fc: Vec<bool> = (0..64).map(|_| c.roll(FaultSite::PoolTask)).collect();
        assert_ne!(fa, fc, "different seeds must differ somewhere");
    }

    #[test]
    fn rate_zero_never_fires_and_empty_spec_is_quiet() {
        let plan = FaultPlan::parse("seed=3,conn_drop=0").unwrap();
        assert!((0..256).all(|_| !plan.roll(FaultSite::ConnDrop)));
        let quiet = FaultPlan::parse("").unwrap();
        assert!(!quiet.roll(FaultSite::WorkerPanic));
        assert_eq!(quiet.poison(), None);
    }
}
