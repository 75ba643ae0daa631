//! Runtime-side telemetry hooks over the [`ant_obs`] spine.
//!
//! Every call site in the hot path goes through this module. Telemetry
//! is part of the runtime, not a build option: there is one build, and
//! its hooks record into preallocated [`ant_obs`]
//! counters/gauges/histograms registered once (lazily, on first use — a
//! cold edge) against [`ant_obs::global()`], plus the static span rings.
//! Recording is a handful of relaxed atomic adds — no locks, no
//! allocation, no syscalls — so the serving path keeps its
//! zero-allocation steady state. What a hook costs is measured in the
//! binary that pays it: `antc bench` times the per-layer hook sequence
//! through this module's public API and reports it as `hook_ns` against
//! a fixed budget (see `docs/observability.md`).
//!
//! Clock reads happen only at layer/stage boundaries ([`now`] once per
//! plan layer, chained so layer `i`'s end stamp is layer `i+1`'s start),
//! never inside GEMM tiles or pool task bodies.

use ant_obs::{register_span, Counter, Gauge, Histogram, SpanId};
use std::sync::{Arc, OnceLock};

/// The instrumented layer taxonomy: one label value per [`crate::PlanLayer`]
/// variant. The discriminant indexes the per-kind metric arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayerKind {
    /// Packed-domain dense GEMM.
    PackedLinear,
    /// Packed-domain convolution (integer im2row + GEMM).
    PackedConv,
    /// Packed-domain attention block.
    PackedAttn,
    /// ReLU.
    Relu,
    /// GELU.
    Gelu,
    /// 2×2 max pooling.
    Pool,
    /// Layer normalisation.
    Norm,
}

/// Number of [`LayerKind`] variants (size of the per-kind metric arrays).
pub const N_LAYER_KINDS: usize = 7;

/// Every kind, in index order.
pub const LAYER_KINDS: [LayerKind; N_LAYER_KINDS] = [
    LayerKind::PackedLinear,
    LayerKind::PackedConv,
    LayerKind::PackedAttn,
    LayerKind::Relu,
    LayerKind::Gelu,
    LayerKind::Pool,
    LayerKind::Norm,
];

// `LayerKind as usize` indexes the per-kind arrays that `LAYER_KINDS.map`
// builds, so the list must be in discriminant order.
const _: () = {
    let mut i = 0;
    while i < N_LAYER_KINDS {
        assert!(LAYER_KINDS[i] as usize == i);
        i += 1;
    }
};

/// `(kind label value, span name)` per kind, indexed like
/// [`LAYER_KINDS`]. Both strings are exported (`/metrics`, trace JSON)
/// and pinned by `golden/metrics.prom`.
const LAYER_NAMES: [(&str, &str); N_LAYER_KINDS] = [
    ("packed_linear", "layer.packed_linear"),
    ("packed_conv", "layer.packed_conv"),
    ("packed_attn", "layer.packed_attn"),
    ("relu", "layer.relu"),
    ("gelu", "layer.gelu"),
    ("pool", "layer.pool"),
    ("norm", "layer.norm"),
];

impl LayerKind {
    /// The stable label value used for the `kind` label on exported
    /// series (and, prefixed with `layer.`, as the span name).
    pub fn as_str(self) -> &'static str {
        LAYER_NAMES[self.index()].0
    }

    fn span_name(self) -> &'static str {
        LAYER_NAMES[self.index()].1
    }

    /// Position in [`LAYER_KINDS`] and in every per-kind array.
    fn index(self) -> usize {
        self as usize
    }
}

/// Why the engine's gather loop dispatched a batch: one `reason` label
/// value of `ant_engine_batch_close_total` per variant. The discriminant
/// indexes the per-reason counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchClose {
    /// `max_batch` requests gathered.
    Full,
    /// Followed in the queue by a request that could not join the run.
    Blocked,
    /// A prefill, which always runs alone.
    Prefill,
    /// Every open decode session has a step in the run.
    Sessions,
    /// The run did not grow for one quiet poll.
    Quiet,
    /// `max_wait` since the head request's submit was spent.
    Cap,
}

/// Every close reason, in discriminant order.
const BATCH_CLOSES: [BatchClose; 6] = [
    BatchClose::Full,
    BatchClose::Blocked,
    BatchClose::Prefill,
    BatchClose::Sessions,
    BatchClose::Quiet,
    BatchClose::Cap,
];

const _: () = {
    let mut i = 0;
    while i < BATCH_CLOSES.len() {
        assert!(BATCH_CLOSES[i] as usize == i);
        i += 1;
    }
};

impl BatchClose {
    /// The stable `reason` label value (pinned by the catalog in
    /// `docs/observability.md`).
    pub fn as_str(self) -> &'static str {
        match self {
            BatchClose::Full => "full",
            BatchClose::Blocked => "blocked",
            BatchClose::Prefill => "prefill",
            BatchClose::Sessions => "sessions",
            BatchClose::Quiet => "quiet",
            BatchClose::Cap => "cap",
        }
    }
}

/// Nanoseconds since the process-local telemetry epoch.
#[inline]
pub fn now() -> u64 {
    ant_obs::now_ns()
}

/// Preallocated handles for every runtime metric family; built once
/// (first use) against [`ant_obs::global()`]. Recording through the
/// handles never touches the registry again.
pub struct RuntimeMetrics {
    forward_time: Arc<Histogram>,
    forward_rows: Arc<Counter>,
    layer_time: [Arc<Histogram>; N_LAYER_KINDS],
    layer_macs: [Arc<Counter>; N_LAYER_KINDS],
    layer_bytes: [Arc<Counter>; N_LAYER_KINDS],
    layer_rows: [Arc<Counter>; N_LAYER_KINDS],
    layer_spans: [SpanId; N_LAYER_KINDS],
    span_forward: SpanId,
    span_batch: SpanId,
    span_load: SpanId,
    span_verify: SpanId,
    engine_queue_depth: Arc<Gauge>,
    engine_batch_size: Arc<Histogram>,
    engine_submit_wait: Arc<Histogram>,
    engine_service: Arc<Histogram>,
    engine_requests: Arc<Counter>,
    engine_batches: Arc<Counter>,
    engine_batch_close: [Arc<Counter>; BATCH_CLOSES.len()],
    engine_decode_batch: Arc<Histogram>,
    engine_decode_step: Arc<Histogram>,
    engine_decode_tokens: Arc<Counter>,
    engine_restarts: Arc<Counter>,
    engine_poisoned: Arc<Counter>,
    engine_quarantine_probes: Arc<Counter>,
    kv_cache_bytes: Arc<Gauge>,
    kv_sessions: Arc<Gauge>,
    artifact_load: Arc<Histogram>,
    artifact_loads: Arc<Counter>,
    artifact_load_copies: Arc<Counter>,
    artifact_zero_copy: Arc<Gauge>,
    artifact_verify: Arc<Histogram>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
}

/// The process-wide hook set.
pub fn metrics() -> &'static RuntimeMetrics {
    static METRICS: OnceLock<RuntimeMetrics> = OnceLock::new();
    METRICS.get_or_init(RuntimeMetrics::register)
}

impl RuntimeMetrics {
    fn register() -> RuntimeMetrics {
        let r = ant_obs::global();
        let hist_kind = |fam: &str, help: &str| {
            LAYER_KINDS.map(|k| r.histogram_with(fam, "kind", k.as_str(), help))
        };
        let ctr_kind = |fam: &str, help: &str| {
            LAYER_KINDS.map(|k| r.counter_with(fam, "kind", k.as_str(), help))
        };
        RuntimeMetrics {
            forward_time: r.histogram(
                "ant_forward_time_ns",
                "End-to-end forward_rows wall time per call",
            ),
            forward_rows: r.counter(
                "ant_forward_rows_total",
                "Rows (requests) pushed through forward_rows",
            ),
            layer_time: hist_kind(
                "ant_layer_time_ns",
                "Per-layer wall time by plan-layer kind",
            ),
            layer_macs: ctr_kind(
                "ant_layer_macs_total",
                "Multiply-accumulate operations by plan-layer kind",
            ),
            layer_bytes: ctr_kind(
                "ant_layer_bytes_total",
                "Bytes touched (activations + streamed weights) by plan-layer kind",
            ),
            layer_rows: ctr_kind("ant_layer_rows_total", "Rows executed by plan-layer kind"),
            layer_spans: LAYER_KINDS.map(|k| register_span(k.span_name())),
            span_forward: register_span("forward"),
            span_batch: register_span("engine.batch"),
            span_load: register_span("artifact.load"),
            span_verify: register_span("artifact.verify"),
            engine_queue_depth: r.gauge(
                "ant_engine_queue_depth",
                "Requests queued in the engine right now",
            ),
            engine_batch_size: r.histogram(
                "ant_engine_batch_size",
                "Requests coalesced per executed batch",
            ),
            engine_submit_wait: r.histogram(
                "ant_engine_submit_wait_ns",
                "Per-request wait from submit to batch dispatch",
            ),
            engine_service: r.histogram(
                "ant_engine_service_ns",
                "Per-batch service time from dispatch to done",
            ),
            engine_requests: r.counter(
                "ant_engine_requests_total",
                "Requests accepted by Engine::submit",
            ),
            engine_batches: r.counter("ant_engine_batches_total", "Batches executed"),
            engine_batch_close: BATCH_CLOSES.map(|why| {
                r.counter_with(
                    "ant_engine_batch_close_total",
                    "reason",
                    why.as_str(),
                    "Batches dispatched, by why the gather loop closed them",
                )
            }),
            engine_decode_batch: r.histogram(
                "ant_engine_decode_batch_size",
                "Sessions coalesced per executed decode step batch",
            ),
            engine_decode_step: r.histogram(
                "ant_engine_decode_step_ns",
                "Per-batch decode step wall time (one token per session)",
            ),
            engine_decode_tokens: r.counter(
                "ant_engine_decode_tokens_total",
                "Tokens produced by decode steps (sum of decode batch sizes)",
            ),
            engine_restarts: r.counter(
                "ant_engine_restarts_total",
                "Supervisor recoveries: panicked batch executions absorbed without killing the engine",
            ),
            engine_poisoned: r.counter(
                "ant_engine_poisoned_total",
                "Requests isolated by bisection quarantine and failed as PoisonedRequest",
            ),
            engine_quarantine_probes: r.counter(
                "ant_engine_quarantine_probes_total",
                "Bisection probe executions performed while isolating poisoned requests",
            ),
            kv_cache_bytes: r.gauge(
                "ant_kv_cache_bytes",
                "Bytes held by live packed KV caches across open sessions",
            ),
            kv_sessions: r.gauge("ant_kv_sessions", "Decode sessions currently open"),
            artifact_load: r.histogram("ant_artifact_load_ns", "Artifact load/open wall time"),
            artifact_loads: r.counter("ant_artifact_loads_total", "Artifact loads/opens"),
            artifact_load_copies: r.counter(
                "ant_artifact_load_copies_total",
                "Weight-bytes copy passes performed by artifact loads",
            ),
            artifact_zero_copy: r.gauge(
                "ant_artifact_zero_copy",
                "1 when the most recent artifact open borrowed weights zero-copy",
            ),
            artifact_verify: r.histogram(
                "ant_artifact_verify_ns",
                "Artifact checksum verification wall time",
            ),
            cache_hits: r.counter(
                "ant_selection_cache_hits_total",
                "Type-selection cache hits",
            ),
            cache_misses: r.counter(
                "ant_selection_cache_misses_total",
                "Type-selection cache misses",
            ),
        }
    }

    /// Opens the per-layer record of one plan walk.
    #[inline]
    pub fn layers(&self) -> LayerTally<'_> {
        LayerTally {
            metrics: self,
            work: [[0; 3]; N_LAYER_KINDS],
        }
    }

    /// Records one end-to-end `forward_rows` call.
    #[inline]
    pub fn record_forward(&self, start_ns: u64, dur_ns: u64, rows: u64) {
        self.forward_time.record(dur_ns);
        self.forward_rows.add(rows);
        ant_obs::record_span(self.span_forward, start_ns, dur_ns);
    }

    /// Publishes the engine's current queue depth.
    #[inline]
    pub fn engine_queue_depth(&self, depth: usize) {
        self.engine_queue_depth.set(depth as i64);
    }

    /// Counts one accepted request.
    #[inline]
    pub fn engine_submit(&self) {
        self.engine_requests.inc();
    }

    /// Records one request's submit→dispatch wait.
    #[inline]
    pub fn engine_request_wait(&self, wait_ns: u64) {
        self.engine_submit_wait.record(wait_ns);
    }

    /// Records one executed batch (dispatch→done).
    #[inline]
    pub fn engine_batch_done(&self, start_ns: u64, dur_ns: u64, batch: usize) {
        self.engine_batches.inc();
        self.engine_batch_size.record(batch as u64);
        self.engine_service.record(dur_ns);
        ant_obs::record_span(self.span_batch, start_ns, dur_ns);
    }

    /// Counts one batch the gather loop closed, by why it closed.
    #[inline]
    pub fn engine_batch_close(&self, why: BatchClose) {
        self.engine_batch_close[why as usize].inc();
    }

    /// Records one executed decode step batch: `batch` sessions each
    /// advanced one token in `dur_ns`.
    #[inline]
    pub fn engine_decode_batch(&self, start_ns: u64, dur_ns: u64, batch: usize) {
        self.engine_decode_batch.record(batch as u64);
        self.engine_decode_step.record(dur_ns);
        self.engine_decode_tokens.add(batch as u64);
        ant_obs::record_span(self.span_batch, start_ns, dur_ns);
    }

    /// Counts one supervisor recovery (a panicked batch execution
    /// absorbed without killing the engine).
    #[inline]
    pub fn engine_restart(&self) {
        self.engine_restarts.inc();
    }

    /// Counts `n` requests isolated as poisoned.
    #[inline]
    pub fn engine_poisoned(&self, n: u64) {
        self.engine_poisoned.add(n);
    }

    /// Counts `n` bisection probe executions.
    #[inline]
    pub fn engine_quarantine_probes(&self, n: u64) {
        self.engine_quarantine_probes.add(n);
    }

    /// Publishes the bytes currently pinned by open sessions' packed
    /// KV caches, and how many sessions hold them.
    #[inline]
    pub fn kv_cache_usage(&self, bytes: usize, sessions: usize) {
        self.kv_cache_bytes.set(bytes as i64);
        self.kv_sessions.set(sessions as i64);
    }

    /// Records one artifact load/open.
    pub fn artifact_load(&self, start_ns: u64, dur_ns: u64, copies: u64, zero_copy: bool) {
        self.artifact_loads.inc();
        self.artifact_load.record(dur_ns);
        self.artifact_load_copies.add(copies);
        self.artifact_zero_copy.set(i64::from(zero_copy));
        ant_obs::record_span(self.span_load, start_ns, dur_ns);
    }

    /// Records one artifact verification pass.
    pub fn artifact_verify(&self, start_ns: u64, dur_ns: u64) {
        self.artifact_verify.record(dur_ns);
        ant_obs::record_span(self.span_verify, start_ns, dur_ns);
    }

    /// Counts a type-selection cache hit.
    #[inline]
    pub fn cache_hit(&self) {
        self.cache_hits.inc();
    }

    /// Counts a type-selection cache miss.
    #[inline]
    pub fn cache_miss(&self) {
        self.cache_misses.inc();
    }
}

/// The per-layer record of one plan walk (`forward_rows`, prefill or
/// a decode step). Each layer's duration goes to its histogram and
/// span ring at once; the row/MAC/byte work counters — what GOPS and
/// bandwidth are derived from at export time — are summed here and
/// added to the registry once per kind when the walk ends (on drop,
/// so a failed or panicking walk still accounts for the layers it
/// ran). A deep model of small layers pays two atomic adds per layer
/// instead of five.
pub struct LayerTally<'m> {
    metrics: &'m RuntimeMetrics,
    /// `[rows, macs, bytes]` per layer kind.
    work: [[u64; 3]; N_LAYER_KINDS],
}

impl LayerTally<'_> {
    /// Records one executed plan layer.
    #[inline]
    pub fn record(
        &mut self,
        kind: LayerKind,
        start_ns: u64,
        dur_ns: u64,
        rows: u64,
        macs: u64,
        bytes: u64,
    ) {
        let i = kind.index();
        self.metrics.layer_time[i].record(dur_ns);
        ant_obs::record_span(self.metrics.layer_spans[i], start_ns, dur_ns);
        let work = &mut self.work[i];
        work[0] += rows;
        work[1] += macs;
        work[2] += bytes;
    }
}

impl Drop for LayerTally<'_> {
    fn drop(&mut self) {
        for (i, &[rows, macs, bytes]) in self.work.iter().enumerate() {
            if rows > 0 {
                self.metrics.layer_rows[i].add(rows);
                self.metrics.layer_bytes[i].add(bytes);
            }
            if macs > 0 {
                self.metrics.layer_macs[i].add(macs);
            }
        }
    }
}

/// Pool-local telemetry: per-slot task counters (slot 0 is the
/// participating `run` caller, slots 1.. the parked workers) plus
/// mirrors into the global aggregate families. All storage is
/// preallocated at pool construction; recording is counter adds only
/// — the pool hot path never reads a clock.
pub struct PoolObs {
    jobs: Arc<Counter>,
    tasks: Arc<Counter>,
    inline_tasks: Arc<Counter>,
    stolen_tasks: Arc<Counter>,
    job_tasks: Arc<Histogram>,
    /// Pool-local executed-task count per slot (exact, unlike the
    /// global mirrors which are shared across pools).
    slot_tasks: Vec<Counter>,
    /// Pool-local park transitions per worker slot.
    slot_parks: Vec<Counter>,
    /// Pool-local total; always equals the sum of `slot_tasks`.
    total: Counter,
}

impl PoolObs {
    /// Preallocates slots for a pool of total width `width`.
    pub fn new(width: usize) -> PoolObs {
        let r = ant_obs::global();
        PoolObs {
            jobs: r.counter("ant_pool_jobs_total", "Jobs dispatched to a worker pool"),
            tasks: r.counter("ant_pool_tasks_total", "Pool tasks executed (all slots)"),
            inline_tasks: r.counter(
                "ant_pool_inline_tasks_total",
                "Tasks executed inline without a dispatch (width-1 or single-task jobs)",
            ),
            stolen_tasks: r.counter(
                "ant_pool_stolen_tasks_total",
                "Tasks executed by parked workers rather than the submitting caller",
            ),
            job_tasks: r.histogram(
                "ant_pool_job_tasks",
                "Tasks per dispatched job (the partition grid size)",
            ),
            slot_tasks: (0..width).map(|_| Counter::new()).collect(),
            slot_parks: (0..width).map(|_| Counter::new()).collect(),
            total: Counter::new(),
        }
    }

    /// Records one dispatched (queued) job of `tasks` tasks.
    #[inline]
    pub fn record_job(&self, tasks: usize) {
        self.jobs.inc();
        self.job_tasks.record(tasks as u64);
    }

    /// Records `tasks` tasks executed inline by the caller without a
    /// dispatch.
    #[inline]
    pub fn record_inline(&self, tasks: u64) {
        self.tasks.add(tasks);
        self.inline_tasks.add(tasks);
        self.slot_tasks[0].add(tasks);
        self.total.add(tasks);
    }

    /// Records one claimed task executed by `slot`.
    #[inline]
    pub fn record_task(&self, slot: usize) {
        self.tasks.inc();
        self.slot_tasks[slot].inc();
        self.total.inc();
        if slot > 0 {
            self.stolen_tasks.inc();
        }
    }

    /// Records a worker parking on the condvar (an idle transition).
    #[inline]
    pub fn record_park(&self, slot: usize) {
        self.slot_parks[slot].inc();
    }

    /// Executed-task count per slot (slot 0 = callers).
    pub fn slot_task_counts(&self) -> Vec<u64> {
        self.slot_tasks.iter().map(|c| c.get()).collect()
    }

    /// Park-transition count per slot.
    pub fn slot_park_counts(&self) -> Vec<u64> {
        self.slot_parks.iter().map(|c| c.get()).collect()
    }

    /// Total tasks this pool executed (equals the slot sum).
    pub fn total_tasks(&self) -> u64 {
        self.total.get()
    }
}
