//! The `antc` command-line tool: train/calibrate → select → save a
//! `.antm` artifact (`quantize`), dump its contents (`inspect`), and
//! smoke-serve it through the batched engine (`serve`).
//!
//! The subcommand logic lives here (not in the binary) so the round-trip
//! behaviour is unit-testable; `src/bin/antc.rs` is a thin argv adapter.

use crate::json::Json;
use crate::render_table;
use ant_core::select::PrimitiveCombo;
use ant_core::{Codec, DataType};
use ant_nn::data::{blobs, motifs, shapes, Dataset};
use ant_nn::model::{decoder_block, mlp, small_cnn, tiny_transformer, Sequential};
use ant_nn::qat::QuantSpec;
use ant_nn::train::{evaluate, train, TrainConfig};
use ant_nn::NnError;
use ant_obs::export::{chrome_trace, prometheus_text};
use ant_obs::{Snapshot, Value};
use ant_runtime::{
    probe, ArtifactError, BatchPolicy, CompiledPlan, Engine, MappedArtifact, ModelArtifact,
    Planner, RuntimeError,
};
use ant_tensor::dist::{sample_tensor, Distribution};
use ant_tensor::Tensor;
use std::fmt;
use std::path::Path;

/// Structured failure of an `antc` subcommand.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line (message includes usage guidance).
    Usage(String),
    /// Artifact (de)serialization failed.
    Artifact(ArtifactError),
    /// Training/quantization failed.
    Nn(NnError),
    /// Plan compilation or serving failed.
    Runtime(RuntimeError),
    /// `antc loadgen` could not reach or drive the daemon.
    Loadgen(String),
    /// `antc generate` could not stream tokens from the daemon.
    Generate(String),
    /// `antc repro`: a paper claim's outcome differs from its
    /// declaration (the message lists them, then the full report).
    Repro(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Artifact(e) => write!(f, "{e}"),
            CliError::Nn(e) => write!(f, "{e}"),
            CliError::Runtime(e) => write!(f, "{e}"),
            CliError::Loadgen(msg) => write!(f, "loadgen: {msg}"),
            CliError::Generate(msg) => write!(f, "generate: {msg}"),
            CliError::Repro(msg) => write!(f, "repro: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArtifactError> for CliError {
    fn from(e: ArtifactError) -> Self {
        CliError::Artifact(e)
    }
}

impl From<NnError> for CliError {
    fn from(e: NnError) -> Self {
        CliError::Nn(e)
    }
}

impl From<RuntimeError> for CliError {
    fn from(e: RuntimeError) -> Self {
        CliError::Runtime(e)
    }
}

/// The reference model families `antc quantize` can build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Dense MLP on the blobs task (8 features, 4 classes).
    Mlp,
    /// Small CNN on the 12×12 shapes task.
    Cnn,
    /// Tiny Transformer on the motifs task.
    Transformer,
    /// Causal decoder (untrained generative reference): the model kind
    /// `antd`'s `/generate` endpoint and the decode bench serve.
    Decoder,
}

impl ModelKind {
    /// Parses the `--model` flag value.
    ///
    /// # Errors
    ///
    /// [`CliError::Usage`] for unknown names.
    pub fn parse(s: &str) -> Result<Self, CliError> {
        match s {
            "mlp" => Ok(ModelKind::Mlp),
            "cnn" => Ok(ModelKind::Cnn),
            "transformer" => Ok(ModelKind::Transformer),
            "decoder" => Ok(ModelKind::Decoder),
            other => Err(CliError::Usage(format!(
                "unknown model '{other}' (expected mlp, cnn, transformer or decoder)"
            ))),
        }
    }
}

/// Parses the `--combo` flag value (the paper's combination labels).
///
/// # Errors
///
/// [`CliError::Usage`] for unknown labels.
pub fn parse_combo(s: &str) -> Result<PrimitiveCombo, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "int" => Ok(PrimitiveCombo::Int),
        "ip" => Ok(PrimitiveCombo::IntPot),
        "fip" => Ok(PrimitiveCombo::FloatIntPot),
        "ipf" => Ok(PrimitiveCombo::IntPotFlint),
        "fipf" => Ok(PrimitiveCombo::FloatIntPotFlint),
        other => Err(CliError::Usage(format!(
            "unknown combo '{other}' (expected int, ip, fip, ipf or fipf)"
        ))),
    }
}

/// `antc quantize` configuration.
#[derive(Debug, Clone, Copy)]
pub struct QuantizeConfig {
    /// Which reference model family to build.
    pub model: ModelKind,
    /// Bit width handed to Algorithm 2.
    pub bits: u32,
    /// Candidate primitive combination.
    pub combo: PrimitiveCombo,
    /// Pre-quantization training epochs.
    pub epochs: usize,
    /// RNG seed for data, init and training.
    pub seed: u64,
}

impl Default for QuantizeConfig {
    fn default() -> Self {
        QuantizeConfig {
            model: ModelKind::Mlp,
            bits: 4,
            combo: PrimitiveCombo::IntPotFlint,
            epochs: 6,
            seed: 17,
        }
    }
}

fn build_task(kind: ModelKind, seed: u64) -> (Sequential, Dataset) {
    match kind {
        ModelKind::Mlp => (mlp(8, 4, seed), blobs(480, 8, 4, 0.5, seed.wrapping_add(1))),
        ModelKind::Cnn => (small_cnn(4, seed), shapes(240, 0.4, seed.wrapping_add(1))),
        ModelKind::Transformer => (
            tiny_transformer(8, 8, 6, seed),
            motifs(480, 8, 8, 6, seed.wrapping_add(1)),
        ),
        // No labeled task exists for the decoder: run_quantize branches
        // into quantize_decoder before ever building one.
        ModelKind::Decoder => unreachable!("decoder quantize path never builds a labeled task"),
    }
}

/// Algorithm-2 selection (through a memoizing [`Planner`]) and plan
/// compilation for `antc quantize`. A plan is packed or it does not
/// compile, so a selection the runtime cannot execute fails here —
/// before anything is written.
fn select_and_compile(
    model: &mut Sequential,
    calib: &Tensor,
    cfg: QuantizeConfig,
) -> Result<(Planner, CompiledPlan), CliError> {
    let spec = QuantSpec {
        combo: cfg.combo,
        bits: cfg.bits,
        ..QuantSpec::default()
    };
    let float_combo = matches!(
        cfg.combo,
        PrimitiveCombo::FloatIntPot | PrimitiveCombo::FloatIntPotFlint
    );
    let mut planner = Planner::new();
    match planner.compile(model, calib, spec) {
        Ok(plan) => Ok((planner, plan)),
        Err(RuntimeError::UnsupportedLayer { layer, reason }) if float_combo => {
            Err(CliError::Runtime(RuntimeError::UnsupportedLayer {
                layer,
                reason: format!(
                    "{reason}; combo {} needs the float-based PE and this runtime mirrors \
                     the int-based one (paper Sec. VII-B) — nothing written, use int, ip or ipf",
                    cfg.combo.label()
                ),
            }))
        }
        Err(e) => Err(e.into()),
    }
}

/// Runs the offline pipeline: train → calibrate → Algorithm-2 selection
/// (through a [`Planner`], so the decisions land in the artifact's cache
/// section) → serialize to `out`. Returns the human-readable report.
///
/// # Errors
///
/// Propagates training, quantization and serialization failures; a
/// selection with no exact integer-domain execution (e.g. a float type
/// under `--combo fip|fipf`) is [`RuntimeError::UnsupportedLayer`] and
/// leaves no file.
pub fn run_quantize<P: AsRef<Path>>(cfg: QuantizeConfig, out: P) -> Result<String, CliError> {
    if cfg.model == ModelKind::Decoder {
        return quantize_decoder(cfg, out);
    }
    let (mut model, data) = build_task(cfg.model, cfg.seed);
    let (train_set, test_set) = data.split(0.25);
    if cfg.epochs > 0 {
        train(
            &mut model,
            &train_set,
            TrainConfig {
                epochs: cfg.epochs,
                batch_size: 32,
                lr: 0.05,
                momentum: 0.9,
                seed: cfg.seed,
            },
        )?;
    }
    let fp32_acc = evaluate(&mut model, &test_set)?;
    let calib_indices: Vec<usize> = (0..64.min(train_set.len())).collect();
    let (calib, _) = train_set.batch(&calib_indices);
    let (planner, plan) = select_and_compile(&mut model, &calib, cfg)?;
    let quant_acc = evaluate(&mut model, &test_set)?;
    let artifact = ModelArtifact::from_model(&model)?.with_cache(planner.cache());
    artifact.save_path(&out)?;

    let (packed, f32_bytes) = plan.weight_bytes();
    let mut report = String::new();
    report.push_str(&format!(
        "quantized {:?} model: combo {}, {} bits\n",
        cfg.model,
        cfg.combo.label(),
        cfg.bits
    ));
    report.push_str(&format!(
        "accuracy: fp32 {:.3} -> quantized {:.3}\n",
        fp32_acc, quant_acc
    ));
    report.push_str(&format!(
        "weights: {packed} packed bytes vs {f32_bytes} f32 bytes ({:.1}x smaller)\n",
        f32_bytes as f64 / packed.max(1) as f64
    ));
    report.push_str(&format!(
        "cache: {} memoized selection fingerprint(s)\n",
        artifact.cache_entries().len()
    ));
    report.push_str(&format!(
        "wrote {} ({} layers)\n",
        out.as_ref().display(),
        artifact.layer_count()
    ));
    Ok(report)
}

/// Sequence length the reference decoder artifact is built at. The
/// runtime derives the token count from the input at every call, so
/// sessions may hold more tokens than this — it only sizes calibration.
const DECODER_SEQ: usize = 32;
/// Embedding width of the reference decoder; `antd` exposes it as the
/// synthetic vocabulary for `/generate`.
const DECODER_DIM: usize = 16;
/// Causal attention depth of the reference decoder.
const DECODER_DEPTH: usize = 2;

/// The decoder branch of `antc quantize`: there is no classifier head
/// (the model emits one row per token), so the labeled-dataset
/// train/evaluate steps are meaningless — calibration runs on Gaussian
/// token rows and the report describes the decode surface (token dim,
/// causal layers, KV bytes per token) instead of accuracy.
fn quantize_decoder<P: AsRef<Path>>(cfg: QuantizeConfig, out: P) -> Result<String, CliError> {
    let mut model = decoder_block(DECODER_SEQ, DECODER_DIM, DECODER_DEPTH, cfg.seed);
    let calib = gaussian(&[24, DECODER_SEQ * DECODER_DIM], cfg.seed.wrapping_add(1));
    let (planner, plan) = select_and_compile(&mut model, &calib, cfg)?;
    let artifact = ModelArtifact::from_model(&model)?.with_cache(planner.cache());
    artifact.save_path(&out)?;

    let causal = plan
        .layers()
        .iter()
        .filter(|l| matches!(l, ant_runtime::PlanLayer::PackedCausalAttn(_)))
        .count();
    let kv_per_token = {
        let session = plan.open_session(DECODER_SEQ)?;
        session.kv_bytes() / DECODER_SEQ
    };
    let (packed, f32_bytes) = plan.weight_bytes();
    let mut report = String::new();
    report.push_str(&format!(
        "quantized Decoder model: combo {}, {} bits (untrained generative reference; \
         accuracy not applicable)\n",
        cfg.combo.label(),
        cfg.bits
    ));
    report.push_str(&format!(
        "decode: token dim {} (synthetic vocabulary), {causal} causal attention layer(s), \
         {kv_per_token} KV bytes/token\n",
        plan.token_dim()
            .expect("decoder_block always compiles causal"),
    ));
    report.push_str(&format!(
        "weights: {packed} packed bytes vs {f32_bytes} f32 bytes ({:.1}x smaller)\n",
        f32_bytes as f64 / packed.max(1) as f64
    ));
    report.push_str(&format!(
        "wrote {} ({} layers)\n",
        out.as_ref().display(),
        artifact.layer_count()
    ));
    Ok(report)
}

/// Renders the `antc inspect` report: header metadata, the per-layer
/// dtype/bit-width table (with the execution image width the compiled
/// plan reports for each packed layer), and whether the artifact
/// compiles — with the refusal when it does not (a hand-built or
/// pre-refusal file carrying a float-typed layer, say).
///
/// # Errors
///
/// Propagates load failures.
pub fn run_inspect<P: AsRef<Path>>(path: P) -> Result<String, CliError> {
    let bytes = std::fs::read(&path).map_err(|e| CliError::Artifact(ArtifactError::Io(e)))?;
    let info = probe(&bytes[..])?;
    let mapped = MappedArtifact::open(&path)?;
    let copies = mapped.load_copies();
    let artifact = mapped.artifact();
    let (plan, plan_line) = match mapped.compile() {
        Ok(p) => (Some(p), "plan: compiles".to_string()),
        Err(e) => (None, format!("plan: does not compile ({e})")),
    };

    let mut out = String::new();
    out.push_str(&format!(
        "{}: .antm version {}, {} bytes\n",
        path.as_ref().display(),
        info.version,
        bytes.len()
    ));
    for s in &info.sections {
        let align = if s.offset % 64 == 0 {
            "64-byte aligned"
        } else {
            "unaligned"
        };
        out.push_str(&format!(
            "  section {}: offset {} ({align}), {} bytes, crc32 {:#010x}\n",
            s.id, s.offset, s.len, s.crc32
        ));
    }
    let storage = if mapped.is_zero_copy() {
        "mmap zero-copy (wire codes and panel images borrowed from the file mapping)"
    } else {
        "mmap with owned fallback (some ranges copied)"
    };
    out.push_str(&format!("storage: {storage}\n"));
    out.push_str(&format!("on-load weight-byte copies: {copies}\n"));
    out.push('\n');
    let mut rows = Vec::new();
    for (i, l) in artifact.layer_summaries().iter().enumerate() {
        let (dtype, bits, gran, elems, bytes) = if l.weights.is_empty() {
            ("-".to_string(), "-".to_string(), "-", 0, 0)
        } else {
            let dts: Vec<String> = l.weights.iter().map(|w| w.dtype.to_string()).collect();
            let bits: Vec<String> = l
                .weights
                .iter()
                .map(|w| w.dtype.bits().to_string())
                .collect();
            let gran = match l.weights[0].granularity {
                ant_core::Granularity::PerTensor => "tensor",
                ant_core::Granularity::PerChannel => "channel",
            };
            (
                dts.join(","),
                bits.join(","),
                gran,
                l.weights.iter().map(|w| w.elements).sum::<usize>(),
                l.weights.iter().map(|w| w.bytes).sum::<usize>(),
            )
        };
        let act = match &l.activation {
            Some((dt, scale)) => format!("{dt} @{scale:.3e}"),
            None => "-".to_string(),
        };
        // The width each weight image executes at: plan steps are
        // one-to-one with artifact layers.
        let widths = plan
            .as_ref()
            .and_then(|p| p.layers().get(i))
            .map_or(Vec::new(), |step| step.describe().image_widths());
        let image = if widths.is_empty() {
            "-".to_string()
        } else {
            widths.join(",")
        };
        rows.push(vec![
            i.to_string(),
            l.name.clone(),
            l.kind.to_string(),
            dtype,
            bits,
            gran.to_string(),
            elems.to_string(),
            bytes.to_string(),
            act,
            image,
        ]);
    }
    out.push_str(&render_table(
        &[
            "#",
            "name",
            "kind",
            "dtype",
            "bits",
            "gran",
            "elems",
            "bytes",
            "activation",
            "image",
        ],
        &rows,
    ));
    out.push('\n');
    out.push_str(&plan_line);
    out.push('\n');
    if let Some(p) = &plan {
        let (packed, f32b) = p.weight_bytes();
        out.push_str(&format!(
            "weights: {packed} packed bytes vs {f32b} f32 bytes\n"
        ));
    }
    out.push_str(&format!(
        "cache: {} memoized selection fingerprint(s)\n",
        artifact.cache_entries().len()
    ));
    // `MappedArtifact::open` above recorded its load, so the runtime's
    // families are registered by now; a counter nothing hit reads 0.
    let snap = ant_obs::global().snapshot();
    out.push_str(&format!(
        "selection cache this process: {} hit(s), {} miss(es) (telemetry registry)\n",
        delta_counter(&snap, "ant_selection_cache_hits_total", None),
        delta_counter(&snap, "ant_selection_cache_misses_total", None),
    ));
    Ok(out)
}

/// Loads an artifact, compiles it, and pushes `requests` seeded
/// random rows through a batched [`Engine`], verifying every response
/// against a direct plan execution. Returns the serving report.
///
/// With `metrics_dump`, the process-wide telemetry registry is rendered
/// in the Prometheus text exposition format to that file after the run
/// (queue depth, batch-size distribution, submit→dispatch wait,
/// dispatch→done service time, per-layer-kind timings, …).
///
/// # Errors
///
/// Propagates load/compile/engine failures; a response that disagrees
/// with the direct execution is a [`CliError::Runtime`].
pub fn run_serve<P: AsRef<Path>>(
    path: P,
    requests: usize,
    max_batch: usize,
    metrics_dump: Option<&Path>,
) -> Result<String, CliError> {
    let mapped = MappedArtifact::open(&path)?;
    let plan = mapped.compile()?;
    let storage = if mapped.is_zero_copy() {
        "mmap zero-copy"
    } else {
        "owned"
    };
    let features = plan.in_features().ok_or_else(|| {
        CliError::Runtime(RuntimeError::Engine(
            "plan does not pin an input width".to_string(),
        ))
    })?;
    let mut reference = plan.clone();
    let engine = Engine::new(
        plan,
        BatchPolicy {
            max_batch: max_batch.max(1),
            // Every request is submitted before the first wait below;
            // size the admission valve for that open-loop burst so a
            // large --requests run is not shed with `Overloaded`.
            max_queue: requests.max(BatchPolicy::default().max_queue),
            ..BatchPolicy::default()
        },
    );
    let inputs = gaussian(&[requests.max(1), features], 99);
    let start = std::time::Instant::now();
    let ids: Vec<_> = (0..requests.max(1))
        .map(|i| engine.submit(inputs.channel(i).expect("row")))
        .collect::<Result<_, _>>()?;
    let mut verified = 0usize;
    for (i, id) in ids.into_iter().enumerate() {
        let got = engine.wait(id)?;
        let row = Tensor::from_vec(inputs.channel(i).expect("row").to_vec(), &[1, features])
            .expect("row tensor");
        let want = reference.forward(&row)?;
        if got != want.as_slice() {
            return Err(CliError::Runtime(RuntimeError::Engine(format!(
                "request {i}: batched response diverges from direct execution"
            ))));
        }
        verified += 1;
    }
    let elapsed = start.elapsed();
    let stats = engine.stats();
    let mut report = format!(
        "served {verified} request(s), all verified against direct execution\n\
         {} batches, largest {}; weights {storage}\n\
         elapsed: {:.1} ms ({:.0} req/s)\n",
        stats.batches,
        stats.largest_batch,
        elapsed.as_secs_f64() * 1e3,
        verified as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    if let Some(dump) = metrics_dump {
        let text = prometheus_text(&ant_obs::global().snapshot());
        std::fs::write(dump, &text).map_err(|e| CliError::Artifact(ArtifactError::Io(e)))?;
        report.push_str(&format!(
            "metrics: wrote {} ({} series line(s), Prometheus text format)\n",
            dump.display(),
            text.lines().filter(|l| !l.starts_with('#')).count()
        ));
    }
    Ok(report)
}

/// `antc verify`: the integrity gate the lazy load path defers to.
/// Checks every section CRC, re-parses the records, and recomputes the
/// `PANL` execution images from the wire codes, comparing bit-for-bit.
///
/// # Errors
///
/// Structured [`ArtifactError`]s for any corruption, truncation or
/// panel/wire-code disagreement.
pub fn run_verify<P: AsRef<Path>>(path: P) -> Result<String, CliError> {
    let info = ModelArtifact::verify_path(&path)?;
    let mut out = format!(
        "{}: OK (.antm version {})\n",
        path.as_ref().display(),
        info.version
    );
    for s in &info.sections {
        out.push_str(&format!(
            "  section {}: {} bytes, crc32 {:#010x} verified\n",
            s.id, s.len, s.crc32
        ));
    }
    out.push_str("  PANL images match a wire-code recompute bit-for-bit\n");
    Ok(out)
}

/// `antc bench` configuration.
#[derive(Debug, Clone)]
pub struct BenchConfig {
    /// Reduced request counts for CI smoke runs.
    pub quick: bool,
    /// Where the machine-readable results land.
    pub out: std::path::PathBuf,
    /// RNG seed for model init and request data.
    pub seed: u64,
    /// A previous `BENCH_runtime.json` to guard against: any workload
    /// whose batched throughput drops more than `tolerance` below its
    /// baseline sets the `REGRESSION` marker.
    pub baseline: Option<std::path::PathBuf>,
    /// Allowed fractional throughput drop vs the baseline (e.g. `0.08`
    /// = 8%). The figures are best-slice, but on a shared box per-core
    /// speed itself moves by ~10% between runs: widen it there.
    pub tolerance: f64,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            quick: false,
            out: std::path::PathBuf::from("BENCH_runtime.json"),
            seed: 17,
            baseline: None,
            tolerance: 0.08,
        }
    }
}

/// One serving workload's measurements.
#[derive(Debug, Clone)]
pub struct BenchWorkload {
    /// Workload name (`mlp`/`cnn`/`attention`).
    pub name: &'static str,
    /// Input feature count.
    pub features: usize,
    /// Batched plan throughput, requests per second (batch 32 through
    /// [`ant_runtime::CompiledPlan::forward_rows`]).
    pub batched_ops_per_sec: f64,
    /// Engine-serving throughput, requests per second (32 concurrent
    /// submissions coalesced by a batched [`Engine`]).
    pub engine_ops_per_sec: f64,
    /// Single-request (batch-1) latency percentiles in microseconds,
    /// derived from a log2-bucketed [`ant_obs::Histogram`] of per-request
    /// nanosecond timings (±12.5% sub-octave resolution).
    pub p50_us: f64,
    /// 90th percentile batch-1 latency in microseconds.
    pub p90_us: f64,
    /// 99th percentile batch-1 latency in microseconds.
    pub p99_us: f64,
    /// 99.9th percentile batch-1 latency in microseconds.
    pub p999_us: f64,
    /// Steady-state heap allocations per batch-1 request through the
    /// scratch-arena path; `None` when the counting allocator is not
    /// installed (e.g. library callers).
    pub allocs_per_request: Option<f64>,
    /// Time-to-serving-ready (open + compile) from a mapped
    /// artifact, microseconds: parse in place, borrow wire codes and
    /// pre-packed panel images.
    pub load_us_v2: f64,
    /// Whether the mapped handle achieved the full zero-copy contract.
    pub mapped_zero_copy: bool,
    /// `Private_Dirty` kB of the mapping after a full compile
    /// (`/proc/self/smaps`): this process's private-RSS share of the
    /// weight pages — 0 means every page stays shared across processes
    /// serving the same artifact. `None` when the measurement is
    /// unavailable (off linux) — which the regression marker treats as
    /// "unknown", never as a clean zero.
    pub mapped_private_dirty_kb: Option<u64>,
    /// Per-stage breakdown read back from the telemetry registry delta
    /// over this workload's measurement windows.
    pub stages: WorkloadStages,
    /// Fraction of a batch-32 forward spent in telemetry hooks: plan
    /// layers × [`BenchReport::hook_ns`] ÷ the batched forward time.
    pub telemetry_share: f64,
}

/// One plan-layer kind's share of a measurement window, read from the
/// registry delta (`ant_layer_time_ns`/`_macs_total`/`_bytes_total`).
#[derive(Debug, Clone)]
pub struct LayerStage {
    /// Layer-kind label (`packed_linear`, `relu`, …).
    pub kind: String,
    /// Layer executions in the window.
    pub calls: u64,
    /// Summed wall time, microseconds.
    pub total_us: f64,
    /// Fraction of the summed per-layer time across all kinds.
    pub share: f64,
    /// Median per-call wall time, microseconds.
    pub p50_us: f64,
    /// 99th-percentile per-call wall time, microseconds.
    pub p99_us: f64,
    /// Derived arithmetic rate, giga-ops/s (2 ops per MAC); 0 for
    /// non-GEMM kinds.
    pub gops: f64,
    /// Derived effective bandwidth, GB/s (bytes touched / wall time).
    pub gbps: f64,
}

/// Engine-stage latency split over a measurement window
/// (`ant_engine_submit_wait_ns` / `ant_engine_service_ns`).
#[derive(Debug, Clone)]
pub struct EngineStages {
    /// Median submit→dispatch wait, microseconds.
    pub submit_wait_p50_us: f64,
    /// p99 submit→dispatch wait, microseconds.
    pub submit_wait_p99_us: f64,
    /// Median dispatch→done batch service time, microseconds.
    pub service_p50_us: f64,
    /// p99 dispatch→done batch service time, microseconds.
    pub service_p99_us: f64,
    /// Mean requests coalesced per executed batch.
    pub mean_batch: f64,
}

/// The full stage breakdown attached to a [`BenchWorkload`].
#[derive(Debug, Clone)]
pub struct WorkloadStages {
    /// Per-layer-kind breakdown of the batch-1 latency window, heaviest
    /// first.
    pub layers: Vec<LayerStage>,
    /// Summed per-layer time as a fraction of the end-to-end
    /// `forward_rows` time over the same window (the self-consistency
    /// check: layer-granularity timing must account for ~all of the
    /// request, budgeted at ±10%).
    pub coverage_of_forward: f64,
    /// Engine submit/service split over the engine-throughput window.
    pub engine: Option<EngineStages>,
}

fn delta_hist<'a>(
    delta: &'a Snapshot,
    fam: &str,
    label: Option<&str>,
) -> Option<&'a ant_obs::HistogramSnapshot> {
    match &delta.get(fam, label)?.value {
        Value::Histogram(h) => Some(h),
        _ => None,
    }
}

fn delta_counter(delta: &Snapshot, fam: &str, label: Option<&str>) -> u64 {
    match delta.get(fam, label).map(|s| &s.value) {
        Some(Value::Counter(v)) => *v,
        _ => 0,
    }
}

/// Extracts the per-layer-kind breakdown and forward-time coverage from
/// a registry delta over a window in which at least one forward ran.
fn layer_stages(delta: &Snapshot) -> (Vec<LayerStage>, f64) {
    let forward_ns = delta_hist(delta, "ant_forward_time_ns", None).map_or(0, |h| h.sum());
    let mut layers = Vec::new();
    let mut layer_ns_sum = 0u64;
    for kind in ant_runtime::obs::LAYER_KINDS {
        let kind = kind.as_str();
        let Some(time) = delta_hist(delta, "ant_layer_time_ns", Some(kind)) else {
            continue;
        };
        if time.count() == 0 {
            continue;
        }
        let ns = time.sum();
        layer_ns_sum += ns;
        let macs = delta_counter(delta, "ant_layer_macs_total", Some(kind));
        let bytes = delta_counter(delta, "ant_layer_bytes_total", Some(kind));
        layers.push(LayerStage {
            kind: kind.to_string(),
            calls: time.count(),
            total_us: ns as f64 / 1e3,
            share: 0.0, // filled below once the sum is known
            p50_us: time.quantile(0.50) / 1e3,
            p99_us: time.quantile(0.99) / 1e3,
            gops: 2.0 * macs as f64 / ns.max(1) as f64,
            gbps: bytes as f64 / ns.max(1) as f64,
        });
    }
    for l in &mut layers {
        l.share = l.total_us / (layer_ns_sum as f64 / 1e3).max(1e-9);
    }
    layers.sort_by(|a, b| b.total_us.partial_cmp(&a.total_us).expect("finite totals"));
    (layers, layer_ns_sum as f64 / forward_ns.max(1) as f64)
}

/// Extracts the engine submit/service split from a registry delta.
fn engine_stages(delta: &Snapshot) -> Option<EngineStages> {
    let wait = delta_hist(delta, "ant_engine_submit_wait_ns", None)?;
    let service = delta_hist(delta, "ant_engine_service_ns", None)?;
    let batch = delta_hist(delta, "ant_engine_batch_size", None)?;
    if service.count() == 0 {
        return None;
    }
    Some(EngineStages {
        submit_wait_p50_us: wait.quantile(0.50) / 1e3,
        submit_wait_p99_us: wait.quantile(0.99) / 1e3,
        service_p50_us: service.quantile(0.50) / 1e3,
        service_p99_us: service.quantile(0.99) / 1e3,
        mean_batch: batch.mean(),
    })
}

/// The decode workload's measurements: a causal decoder serving several
/// sessions of one-token steps through the packed M-ANT KV cache.
#[derive(Debug, Clone)]
pub struct DecodeBench {
    /// Aggregate generation rate across all coalesced sessions
    /// (sessions × steps / wall time).
    pub tokens_per_sec: f64,
    /// Median coalesced decode-step latency, microseconds (one step
    /// advances every session by one token).
    pub step_p50_us: f64,
    /// 99th-percentile coalesced decode-step latency, microseconds.
    pub step_p99_us: f64,
    /// Packed KV cache footprint per token of capacity, bytes — fixed at
    /// `open_session`, never grown by appends.
    pub kv_bytes_per_token: usize,
    /// Sessions coalesced per decode step.
    pub sessions: usize,
}

/// What one element costs through a 4-bit type's [`Codec`], the work
/// every quantize site repeats per element.
#[derive(Debug, Clone)]
pub struct CodecCost {
    /// The type: `int4s`, `pot4s` or `flint4s`.
    pub dtype: DataType,
    /// Nanoseconds per element of [`Codec::encode`].
    pub encode_ns: f64,
    /// Nanoseconds per element of [`Codec::snap`].
    pub snap_ns: f64,
}

/// The full `antc bench` result set.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Per-workload serving measurements.
    pub workloads: Vec<BenchWorkload>,
    /// Autoregressive decode measurements (tokens/s, per-step latency,
    /// KV bytes/token).
    pub decode: DecodeBench,
    /// Raw dense-GEMM speedup of the `i8` microkernel over the scalar
    /// `i32` reference on a fixed `(64, 256, 256)` shape, single thread.
    pub gemm_speedup_i8_vs_i32: f64,
    /// What one plan-layer boundary's telemetry costs in this binary,
    /// nanoseconds: the walk's per-layer hook sequence timed in a tight
    /// loop. Over [`HOOK_BUDGET_NS`] is a regression.
    pub hook_ns: f64,
    /// Per-element codec cost of each 4-bit signed primitive. Reported,
    /// not judged: nothing bounds it yet.
    pub codec: Vec<CodecCost>,
    /// Whether any tracked property regressed (steady-state
    /// allocations while counting, a non-zero-copy mapped load, dirtied
    /// weight pages, `hook_ns` over budget, a `--baseline` throughput
    /// drop). CI greps for the `REGRESSION` marker this sets in the
    /// rendered report.
    pub regression: bool,
    /// The `--baseline` file's headline numbers, carried into the written
    /// JSON (as its `"before"` object) so a committed record of a
    /// speed-up shows before and after side by side.
    pub before: Option<Json>,
}

/// A JSON number rounded to `places` decimals — the precision the
/// record has always carried for that key.
fn num(v: f64, places: i32) -> Json {
    let scale = 10f64.powi(places);
    Json::Num((v * scale).round() / scale)
}

/// A JSON object from `(key, value)` pairs, in order.
fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

impl BenchReport {
    /// Serializes the report as JSON through [`Json::render`], the one
    /// writer `loadgen --out` re-renders the same file with. Schema
    /// `ant-bench/runtime-v2`: v1 plus `p90_us`/`p999_us`, a
    /// per-workload `stages` object (per-layer-kind and engine-stage
    /// breakdowns from the telemetry registry), a top-level `decode`
    /// object (autoregressive tokens/s, per-step latency percentiles, KV
    /// bytes/token), and the telemetry cost: a top-level `telemetry`
    /// object (`hook_ns` against `budget_ns`) and a per-workload
    /// `telemetry_share`, and a top-level `codec` object (`encode_ns` and
    /// `snap_ns` per element, keyed by type).
    pub fn to_json(&self, quick: bool) -> String {
        let or_null = |v: Option<Json>| v.unwrap_or(Json::Null);
        let layer = |l: &LayerStage| {
            obj(vec![
                ("kind", Json::Str(l.kind.clone())),
                ("calls", Json::Num(l.calls as f64)),
                ("total_us", num(l.total_us, 2)),
                ("share", num(l.share, 4)),
                ("p50_us", num(l.p50_us, 3)),
                ("p99_us", num(l.p99_us, 3)),
                ("gops", num(l.gops, 3)),
                ("gbps", num(l.gbps, 3)),
            ])
        };
        let engine = |e: &EngineStages| {
            obj(vec![
                ("submit_wait_p50_us", num(e.submit_wait_p50_us, 3)),
                ("submit_wait_p99_us", num(e.submit_wait_p99_us, 3)),
                ("service_p50_us", num(e.service_p50_us, 3)),
                ("service_p99_us", num(e.service_p99_us, 3)),
                ("mean_batch", num(e.mean_batch, 2)),
            ])
        };
        let stages = |st: &WorkloadStages| {
            obj(vec![
                ("coverage_of_forward", num(st.coverage_of_forward, 4)),
                ("layers", Json::Arr(st.layers.iter().map(layer).collect())),
                ("engine", or_null(st.engine.as_ref().map(engine))),
            ])
        };
        let workload = |w: &BenchWorkload| {
            let dirty_kb = w.mapped_private_dirty_kb.map(|kb| Json::Num(kb as f64));
            obj(vec![
                ("name", Json::Str(w.name.to_string())),
                ("features", Json::Num(w.features as f64)),
                ("batched_ops_per_sec", num(w.batched_ops_per_sec, 1)),
                ("engine_ops_per_sec", num(w.engine_ops_per_sec, 1)),
                ("p50_us", num(w.p50_us, 2)),
                ("p90_us", num(w.p90_us, 2)),
                ("p99_us", num(w.p99_us, 2)),
                ("p999_us", num(w.p999_us, 2)),
                (
                    "allocs_per_request",
                    or_null(w.allocs_per_request.map(|a| num(a, 4))),
                ),
                ("load_us_v2", num(w.load_us_v2, 1)),
                ("mapped_zero_copy", Json::Bool(w.mapped_zero_copy)),
                ("mapped_private_dirty_kb", or_null(dirty_kb)),
                ("stages", stages(&w.stages)),
                ("telemetry_share", num(w.telemetry_share, 4)),
            ])
        };
        let codec = |c: &CodecCost| {
            let ns = vec![
                ("encode_ns", num(c.encode_ns, 2)),
                ("snap_ns", num(c.snap_ns, 2)),
            ];
            (c.dtype.to_string(), obj(ns))
        };
        let d = &self.decode;
        let mut doc = vec![
            ("schema", Json::Str("ant-bench/runtime-v2".to_string())),
            ("quick", Json::Bool(quick)),
            (
                "gemm_speedup_i8_vs_i32",
                num(self.gemm_speedup_i8_vs_i32, 3),
            ),
            (
                "decode",
                obj(vec![
                    ("tokens_per_sec", num(d.tokens_per_sec, 1)),
                    ("step_p50_us", num(d.step_p50_us, 2)),
                    ("step_p99_us", num(d.step_p99_us, 2)),
                    ("kv_bytes_per_token", Json::Num(d.kv_bytes_per_token as f64)),
                    ("sessions", Json::Num(d.sessions as f64)),
                ]),
            ),
            (
                "telemetry",
                obj(vec![
                    ("hook_ns", num(self.hook_ns, 1)),
                    ("budget_ns", Json::Num(HOOK_BUDGET_NS)),
                ]),
            ),
            ("codec", Json::Obj(self.codec.iter().map(codec).collect())),
            ("regression", Json::Bool(self.regression)),
        ];
        if let Some(before) = &self.before {
            doc.push(("before", before.clone()));
        }
        doc.push((
            "workloads",
            Json::Arr(self.workloads.iter().map(workload).collect()),
        ));
        obj(doc).render()
    }
}

/// Builds the three fixed serving workloads as compiled plans.
fn bench_plans(seed: u64) -> Result<Vec<(&'static str, CompiledPlan, usize)>, CliError> {
    use ant_nn::model::{deep_mlp, transformer_block};
    use ant_nn::qat::quantize_model;
    let mut out = Vec::new();
    for (name, mut model, features) in [
        ("mlp", deep_mlp(16, 10, 24, 6, seed), 16usize),
        ("cnn", small_cnn(4, seed), 144),
        ("attention", transformer_block(6, 16, 4, seed), 96),
    ] {
        let calib = gaussian(&[64, features], seed.wrapping_add(3));
        quantize_model(&mut model, &calib, QuantSpec::default())?;
        let plan = CompiledPlan::from_quantized(&model)?;
        out.push((name, plan, features));
    }
    Ok(out)
}

/// Builds the quantized load-measurement model for one workload name.
///
/// These are scaled-up variants of the serving archetypes, not the
/// serving workloads themselves: the fixed serving models are
/// deliberately tiny (they exist to pin latency percentiles), so
/// constant per-file overhead would mask any per-weight-byte work a
/// mapped load is meant not to do (copy, LUT decode, panel re-pack).
/// Load times are only meaningful at a realistic weight
/// volume, so each archetype here carries 0.4–1.6M wire codes (scaled
/// down about 10x under `--quick`, which exists for CI smoke and debug
/// test runs).
fn load_scale_model(name: &str, seed: u64, quick: bool) -> Result<Sequential, CliError> {
    use ant_nn::layer::{Conv2d, Dense, MaxPool2, Relu};
    use ant_nn::model::{deep_mlp, transformer_block, NetLayer};
    use ant_nn::qat::quantize_model;
    let (width, ch, dim) = if quick {
        (160, 24, 128)
    } else {
        (512, 64, 384)
    };
    let (mut model, features) = match name {
        "mlp" => (deep_mlp(256, 32, width, 6, seed), 256usize),
        "cnn" => {
            let conv1 = Conv2d::init("conv1", ch, (16, 24, 24), 3, 1, 1, seed);
            let pool1 = MaxPool2::new("pool1", conv1.out_shape());
            let conv2 = Conv2d::init("conv2", 2 * ch, pool1.out_shape(), 3, 1, 1, seed);
            let pool2 = MaxPool2::new("pool2", conv2.out_shape());
            let (c, h, w) = pool2.out_shape();
            let model = Sequential::new()
                .push(NetLayer::Conv(conv1))
                .push(NetLayer::Relu(Relu::new("relu1")))
                .push(NetLayer::Pool(pool1))
                .push(NetLayer::Conv(conv2))
                .push(NetLayer::Relu(Relu::new("relu2")))
                .push(NetLayer::Pool(pool2))
                .push(NetLayer::Dense(Dense::init(
                    "fc",
                    64,
                    c * h * w,
                    seed.wrapping_add(1),
                )));
            (model, 16 * 24 * 24)
        }
        _ => (transformer_block(8, dim, 16, seed), 8 * dim),
    };
    let calib = gaussian(&[16, features], seed.wrapping_add(5));
    quantize_model(&mut model, &calib, QuantSpec::default())?;
    Ok(model)
}

/// Measures time-to-serving-ready for one workload archetype (at
/// [`load_scale_model`] size): map, parse in place, adopt the pre-packed
/// images, compile. Returns
/// `(load_us, zero_copy, private_dirty_kb)`.
fn measure_load_path(
    name: &str,
    seed: u64,
    iters: usize,
    quick: bool,
) -> Result<(f64, bool, Option<u64>), CliError> {
    let artifact = ModelArtifact::from_model(&load_scale_model(name, seed, quick)?)?;
    // A directory of this run's own: concurrent bench runs (two tests in
    // one process, two CI steps on one box) never see each other's
    // artifacts, and it is removed however this function returns.
    let dir = ScratchDir::create().map_err(|e| CliError::Artifact(ArtifactError::Io(e)))?;
    let path = dir.0.join(format!("{name}.antm"));
    // `save_path` syncs before it renames: no dirty page-cache pages are
    // left for smaps to report as Private_Dirty of the mapping.
    artifact.save_path(&path)?;
    // Warm the page cache and the selection paths once.
    let mapped = MappedArtifact::open(&path)?;
    mapped.compile()?;
    let zero_copy = mapped.is_zero_copy();
    // Shared-RSS metric: after a full compile, how much of the
    // mapping this process dirtied (0 kB = every weight page stays
    // shared, the multi-process serving story).
    let private_dirty_kb = ant_runtime::mmap::private_dirty_kb(mapped.mapped_bytes());
    drop(mapped);
    let t = time_per_iter(iters, || {
        let mapped = MappedArtifact::open(&path).expect("open");
        let plan = mapped.compile().expect("compile");
        std::hint::black_box(&plan);
    });
    Ok((t * 1e6, zero_copy, private_dirty_kb))
}

/// A uniquely named directory under the system temp dir, removed with
/// its contents on drop.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn create() -> std::io::Result<ScratchDir> {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        loop {
            // Relaxed: only uniqueness within the process matters; the
            // pid separates processes, and a leftover from a dead process
            // that had the same pid is skipped, never adopted.
            let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!("antc-bench-{}-{seq}", std::process::id()));
            match std::fs::create_dir(&dir) {
                Ok(()) => return Ok(ScratchDir(dir)),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a leftover temp dir must not turn into a panic.
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Measures the autoregressive decode workload: a 2-layer causal
/// decoder, several sessions prefillled then advanced one token per
/// step through [`ant_runtime::CompiledPlan::decode_steps`] (the
/// coalesced path the engine's decode phase uses), every step against
/// the packed M-ANT KV cache. Driven through the plan directly — not
/// the engine — so the step latency histogram measures the quantize +
/// attend + project work itself, without batching-policy wait noise.
fn measure_decode(cfg: &BenchConfig) -> Result<DecodeBench, CliError> {
    use ant_nn::model::decoder_block;
    use ant_nn::qat::quantize_model;
    const SESSIONS: usize = 4;
    const WARMUP: usize = 8;
    let (seq, dim) = (8usize, 32usize);
    let steps = if cfg.quick { 64 } else { 256 };
    let mut model = decoder_block(seq, dim, 2, cfg.seed);
    let calib = gaussian(&[24, seq * dim], cfg.seed.wrapping_add(3));
    quantize_model(&mut model, &calib, QuantSpec::default())?;
    let mut plan = CompiledPlan::from_quantized(&model)?;
    // One prefill token plus every decode step must fit: capacity is
    // fixed at open and appends never grow it.
    let capacity = 1 + WARMUP + steps;
    let mut sessions = Vec::new();
    for _ in 0..SESSIONS {
        sessions.push(plan.open_session(capacity)?);
    }
    let toks = gaussian(&[SESSIONS, dim], cfg.seed.wrapping_add(7));
    let mut out = Vec::new();
    for s in &mut sessions {
        plan.prefill(s, &toks.as_slice()[..dim], &mut out)?;
    }
    let step = |plan: &mut CompiledPlan, sessions: &mut Vec<_>, out: &mut Vec<f32>| {
        let mut refs: Vec<&mut _> = sessions.iter_mut().collect();
        plan.decode_steps(&mut refs, toks.as_slice(), out)
    };
    for _ in 0..WARMUP {
        step(&mut plan, &mut sessions, &mut out)?;
    }
    let lat = ant_obs::Histogram::new();
    let start = std::time::Instant::now();
    for _ in 0..steps {
        let t = std::time::Instant::now();
        step(&mut plan, &mut sessions, &mut out)?;
        lat.record(t.elapsed().as_nanos() as u64);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let lat = lat.snapshot();
    Ok(DecodeBench {
        tokens_per_sec: (steps * SESSIONS) as f64 / elapsed.max(1e-9),
        step_p50_us: lat.quantile(0.50) / 1e3,
        step_p99_us: lat.quantile(0.99) / 1e3,
        kv_bytes_per_token: sessions[0].kv_bytes() / capacity,
        sessions: SESSIONS,
    })
}

/// Slices [`time_per_iter`] times at least; it reports the fastest.
const SLICES: usize = 8;
/// Wall time [`time_per_iter`]'s slices span at least.
const MIN_SPAN: std::time::Duration = std::time::Duration::from_millis(100);

/// Seconds per run of `f`: the fastest slice of `iters` runs, over at
/// least [`SLICES`] slices spanning at least [`MIN_SPAN`]. A `--quick`
/// window is ~100 µs, so one preemption or timer tick moves a single
/// reading by tens of percent — but only ever upwards, which makes the
/// best slice the least contaminated one (the per-slice method of
/// `benchmark/src/stats.rs`) and `--baseline` comparisons repeatable.
/// The span is there because on a shared box slow phases last tens of
/// milliseconds: eight back-to-back 160 µs slices all land inside one.
fn time_per_iter<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    let began = std::time::Instant::now();
    let mut best = f64::INFINITY;
    let mut slices = 0;
    while slices < SLICES || began.elapsed() < MIN_SPAN {
        let start = std::time::Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(start.elapsed().as_secs_f64());
        slices += 1;
    }
    best / iters.max(1) as f64
}

/// A standard-normal tensor of shape `dims` drawn from `seed`.
fn gaussian(dims: &[usize], seed: u64) -> Tensor {
    let standard = Distribution::Gaussian {
        mean: 0.0,
        std: 1.0,
    };
    sample_tensor(standard, dims, seed)
}

/// Timed repeats per [`measure_codec`] reading.
const CODEC_REPEATS: usize = 5;

/// Times [`Codec::encode`] and [`Codec::snap`] per element for `int4s`,
/// `pot4s` and `flint4s` over 4 096 Gaussian values drawn from `seed`,
/// scaled per type so that 3σ lands on the type's largest magnitude.
fn measure_codec(seed: u64, quick: bool) -> Vec<CodecCost> {
    let gauss = gaussian(&[4_096], seed);
    let iters = if quick { 2 } else { 16 };
    [DataType::int, DataType::pot, DataType::flint]
        .map(|make| {
            let codec = Codec::new(make(4, true).expect("4-bit type")).expect("codec");
            let xs: Vec<f32> = gauss
                .as_slice()
                .iter()
                .map(|v| v * codec.max_value() / 3.0)
                .collect();
            CodecCost {
                dtype: codec.dtype(),
                encode_ns: ns_per_elem(&xs, iters, |x| codec.encode(x)),
                snap_ns: ns_per_elem(&xs, iters, |x| codec.snap(x)),
            }
        })
        .into()
}

/// Nanoseconds per element of `op` over `xs`: the median of
/// [`CODEC_REPEATS`] [`time_per_iter`] readings, because on a shared box
/// one reading alone moves by tens of percent.
fn ns_per_elem<R>(xs: &[f32], iters: usize, op: impl Fn(f32) -> R) -> f64 {
    use std::hint::black_box;
    let mut secs: Vec<f64> = (0..CODEC_REPEATS)
        .map(|_| {
            time_per_iter(iters, || {
                xs.iter().for_each(|&x| _ = black_box(op(black_box(x))));
            })
        })
        .collect();
    secs.sort_by(f64::total_cmp);
    secs[CODEC_REPEATS / 2] * 1e9 / xs.len() as f64
}

/// The telemetry budget: what one plan-layer boundary's hooks may cost,
/// nanoseconds. About 4× what one clock read, a handful of relaxed
/// atomics and one ring write measure on a 2-vCPU box (~65 ns): a lock,
/// syscall or allocation creeping into a hook lands over it.
pub const HOOK_BUDGET_NS: f64 = 250.0;

/// Measures the telemetry cost of one plan-layer boundary, nanoseconds,
/// in this binary: the hook sequence `CompiledPlan::walk` executes
/// around each layer — one clock read and one `LayerTally::record` — with
/// one `record_forward` and one tally drop per walk of one layer of each
/// kind, and nothing between the hooks. Slices are short (~0.5 ms) so
/// that on a busy box some of them run uninterrupted.
fn measure_hook_ns() -> f64 {
    use ant_runtime::obs;
    const WALKS: usize = 1_000;
    let per_walk = time_per_iter(WALKS, || {
        let fwd = obs::metrics();
        let mut per_layer = fwd.layers();
        let t0 = obs::now();
        let mut t_prev = t0;
        for kind in obs::LAYER_KINDS {
            let t_now = obs::now();
            per_layer.record(kind, t_prev, t_now - t_prev, 1, 1, 1);
            t_prev = t_now;
        }
        fwd.record_forward(t0, t_prev - t0, 1);
    });
    per_walk * 1e9 / obs::N_LAYER_KINDS as f64
}

/// Runs the fixed MLP/CNN/attention serving workloads and measures
/// throughput, latency percentiles, steady-state allocations per request
/// and the raw microkernel speedup. Pure measurement — rendering and the
/// JSON artifact happen in [`run_bench`].
///
/// # Errors
///
/// Propagates quantization/compilation/engine failures.
pub fn measure_bench(cfg: &BenchConfig) -> Result<BenchReport, CliError> {
    let (warmup, requests, batch_iters) = if cfg.quick {
        (8, 64, 10)
    } else {
        (32, 512, 100)
    };
    const BATCH: usize = 32;
    let counting = crate::alloc::is_counting();
    let load_iters = if cfg.quick { 5 } else { 25 };
    let hook_ns = measure_hook_ns();
    let mut workloads = Vec::new();
    // A pool of this run's own, as wide as the default one: the
    // allocation scope below enrols its workers, and workers shared with
    // other callers (the global pool, when bench runs share a process)
    // would wait on — and be charged for — those callers' tasks.
    let pool = std::sync::Arc::new(ant_runtime::WorkerPool::new(
        ant_runtime::WorkerPool::global().width(),
    ));
    for (name, plan, features) in bench_plans(cfg.seed)? {
        let mut plan = plan.with_pool(std::sync::Arc::clone(&pool));
        let layers_per_forward = plan.layers().len();
        let (load_us_v2, mapped_zero_copy, mapped_private_dirty_kb) =
            measure_load_path(name, cfg.seed, load_iters, cfg.quick)?;
        let x = gaussian(&[BATCH, features], cfg.seed.wrapping_add(9));
        let rows: Vec<&[f32]> = (0..BATCH)
            .map(|i| &x.as_slice()[i * features..(i + 1) * features])
            .collect();
        let mut out = Vec::new();
        // Warmup: drive every scratch buffer to its high-water mark for
        // both batch shapes.
        for _ in 0..warmup {
            plan.forward_rows(x.as_slice(), BATCH, &mut out)?;
            plan.forward_rows(rows[0], 1, &mut out)?;
        }
        // Steady-state allocation count over single-row requests, on
        // this thread and the pool workers the plan dispatches to.
        let scope = crate::alloc::AllocScope::with_pool(&pool);
        for i in 0..requests {
            plan.forward_rows(rows[i % BATCH], 1, &mut out)?;
        }
        let allocs = scope.allocs();
        let allocs_per_request = counting.then(|| allocs as f64 / requests as f64);
        // Batch-1 latency distribution, recorded into a log2-bucketed
        // histogram (the same primitive the runtime's telemetry uses),
        // bracketed by registry snapshots so the per-layer stage
        // breakdown covers exactly this window.
        let lat = ant_obs::Histogram::new();
        let batch1_before = ant_obs::global().snapshot();
        for i in 0..requests {
            let t = std::time::Instant::now();
            plan.forward_rows(rows[i % BATCH], 1, &mut out)?;
            lat.record(t.elapsed().as_nanos() as u64);
        }
        let batch1_delta = ant_obs::global().snapshot().delta_since(&batch1_before);
        let lat = lat.snapshot();
        let pct = |p: f64| lat.quantile(p) / 1e3;
        // Batched throughput.
        let per_batch = time_per_iter(batch_iters, || {
            plan.forward_rows(x.as_slice(), BATCH, &mut out)
                .expect("benched forward");
        });
        // Engine serving throughput (32 concurrent, coalesced).
        let engine = Engine::new(
            plan,
            BatchPolicy {
                max_batch: BATCH,
                max_wait: std::time::Duration::from_millis(1),
                ..BatchPolicy::default()
            },
        );
        for row in &rows {
            let id = engine.submit(row).map_err(CliError::Runtime)?;
            engine.wait(id).map_err(CliError::Runtime)?;
        }
        let engine_before = ant_obs::global().snapshot();
        let per_wave = time_per_iter(batch_iters.min(40), || {
            let ids: Vec<_> = rows
                .iter()
                .map(|row| engine.submit(row).expect("submit"))
                .collect();
            for id in ids {
                engine.wait(id).expect("result");
            }
        });
        let engine_delta = ant_obs::global().snapshot().delta_since(&engine_before);
        let (layers, coverage_of_forward) = layer_stages(&batch1_delta);
        workloads.push(BenchWorkload {
            name,
            features,
            batched_ops_per_sec: BATCH as f64 / per_batch,
            engine_ops_per_sec: BATCH as f64 / per_wave,
            p50_us: pct(0.50),
            p90_us: pct(0.90),
            p99_us: pct(0.99),
            p999_us: pct(0.999),
            allocs_per_request,
            load_us_v2,
            mapped_zero_copy,
            mapped_private_dirty_kb,
            stages: WorkloadStages {
                layers,
                coverage_of_forward,
                engine: engine_stages(&engine_delta),
            },
            telemetry_share: layers_per_forward as f64 * hook_ns / (per_batch * 1e9),
        });
    }
    // Raw kernel comparison: the acceptance-criteria dense-GEMM shape.
    let gemm_speedup_i8_vs_i32 = {
        use ant_runtime::gemm::{int_gemm, PanelGemm};
        let (m, k, n) = (64usize, 256usize, 256usize);
        let b32: Vec<i32> = (0..n * k).map(|i| (i % 129) as i32 - 64).collect();
        let a32: Vec<i32> = (0..m * k).map(|i| (i % 127) as i32 - 63).collect();
        let a8: Vec<i8> = a32.iter().map(|&v| v as i8).collect();
        let b8: Vec<i8> = b32.iter().map(|&v| v as i8).collect();
        let packed = PanelGemm::pack(&b8, n, k, 127);
        let pool = ant_runtime::WorkerPool::global();
        let mut acc = vec![0i64; m * n];
        let iters = if cfg.quick { 20 } else { 200 };
        int_gemm(&a32, &b32, m, k, n, &mut acc); // warm
        let t_i32 = time_per_iter(iters, || int_gemm(&a32, &b32, m, k, n, &mut acc));
        packed.matmul(&a8, m, &mut acc, pool, 1); // warm
        let t_i8 = time_per_iter(iters, || packed.matmul(&a8, m, &mut acc, pool, 1));
        t_i32 / t_i8
    };
    let decode = measure_decode(cfg)?;
    let codec = measure_codec(cfg.seed, cfg.quick);
    // Zero-copy is only promised where the borrow gate can hold (unix
    // mmap, little-endian hosts); elsewhere the owned fallback is
    // correct, not a regression. The private-dirty budget only applies
    // where the measurement exists: `None` means "unavailable" (no
    // smaps), which must never pass as a clean zero — it is simply not
    // judged, unlike `Some(kb)` past the budget, which fails.
    let expect_zero_copy = cfg!(all(unix, target_endian = "little"));
    // The budget is stated on optimized code; an unoptimized build's
    // hooks are function calls, not a handful of inlined atomics.
    let regression = (!cfg!(debug_assertions) && hook_ns > HOOK_BUDGET_NS)
        || workloads
            .iter()
            .any(|w| w.allocs_per_request.is_some_and(|a| a > 0.0))
        || (expect_zero_copy && workloads.iter().any(|w| !w.mapped_zero_copy))
        || (expect_zero_copy
            && workloads
                .iter()
                .any(|w| w.mapped_private_dirty_kb.is_some_and(|kb| kb > 64)));
    Ok(BenchReport {
        workloads,
        decode,
        gemm_speedup_i8_vs_i32,
        hook_ns,
        codec,
        regression,
        before: None,
    })
}

/// Compares a fresh report against a stored baseline JSON (any schema
/// carrying per-workload `batched_ops_per_sec`): a workload more than
/// `tolerance` slower than its baseline sets the regression flag.
/// Returns the rendered comparison lines.
fn compare_baseline(
    report: &mut BenchReport,
    baseline: &Path,
    tolerance: f64,
) -> Result<String, CliError> {
    let text =
        std::fs::read_to_string(baseline).map_err(|e| CliError::Artifact(ArtifactError::Io(e)))?;
    let doc = Json::parse(&text)
        .map_err(|e| CliError::Usage(format!("--baseline {}: {e}", baseline.display())))?;
    let base_workloads = doc.get("workloads").and_then(Json::as_arr).ok_or_else(|| {
        CliError::Usage(format!(
            "--baseline {}: no \"workloads\" array",
            baseline.display()
        ))
    })?;
    // Keep the baseline's headline numbers for the written record.
    let number = |v: Option<&Json>| v.and_then(Json::as_f64).map_or(Json::Null, Json::Num);
    let before_rows = base_workloads
        .iter()
        .filter_map(|b| {
            let name = b.get("name").and_then(Json::as_str)?;
            Some(obj(vec![
                ("name", Json::Str(name.to_string())),
                ("batched_ops_per_sec", number(b.get("batched_ops_per_sec"))),
                ("p50_us", number(b.get("p50_us"))),
            ]))
        })
        .collect();
    let decode = |key: &str| doc.get("decode").and_then(|d| d.get(key));
    report.before = Some(obj(vec![
        (
            "gemm_speedup_i8_vs_i32",
            number(doc.get("gemm_speedup_i8_vs_i32")),
        ),
        ("decode_tokens_per_sec", number(decode("tokens_per_sec"))),
        ("decode_step_p50_us", number(decode("step_p50_us"))),
        ("workloads", Json::Arr(before_rows)),
    ]));
    let mut out = format!(
        "\nperf guard vs {} (allowed drop {:.0}%):\n",
        baseline.display(),
        tolerance * 100.0
    );
    for w in &report.workloads {
        let base_ops = base_workloads
            .iter()
            .find(|b| b.get("name").and_then(Json::as_str) == Some(w.name))
            .and_then(|b| b.get("batched_ops_per_sec"))
            .and_then(Json::as_f64);
        match base_ops {
            Some(base) if base > 0.0 => {
                let change = w.batched_ops_per_sec / base - 1.0;
                let ok = change >= -tolerance;
                if !ok {
                    report.regression = true;
                }
                out.push_str(&format!(
                    "  {}: {:.0} req/s vs baseline {:.0} ({:+.1}%) {}\n",
                    w.name,
                    w.batched_ops_per_sec,
                    base,
                    change * 100.0,
                    if ok { "ok" } else { "REGRESSED" }
                ));
            }
            _ => out.push_str(&format!("  {}: no baseline entry, skipped\n", w.name)),
        }
    }
    Ok(out)
}

/// `antc bench`: measure, apply the optional baseline perf guard,
/// render the human table, and write the machine-readable
/// `BENCH_runtime.json` (schema `ant-bench/runtime-v2`).
///
/// # Errors
///
/// Propagates measurement, baseline-parse and file-write failures.
pub fn run_bench(cfg: BenchConfig) -> Result<String, CliError> {
    let mut report = measure_bench(&cfg)?;
    let baseline_lines = match &cfg.baseline {
        Some(b) => Some(compare_baseline(&mut report, b, cfg.tolerance)?),
        None => None,
    };
    std::fs::write(&cfg.out, report.to_json(cfg.quick))
        .map_err(|e| CliError::Artifact(ArtifactError::Io(e)))?;
    let mut rows = Vec::new();
    for w in &report.workloads {
        rows.push(vec![
            w.name.to_string(),
            w.features.to_string(),
            format!("{:.0}", w.batched_ops_per_sec),
            format!("{:.0}", w.engine_ops_per_sec),
            format!("{:.1}", w.p50_us),
            format!("{:.1}", w.p90_us),
            format!("{:.1}", w.p99_us),
            format!("{:.1}", w.p999_us),
            match w.allocs_per_request {
                Some(a) => format!("{a:.2}"),
                None => "n/a".to_string(),
            },
        ]);
    }
    let mut out = render_table(
        &[
            "workload",
            "features",
            "batched req/s",
            "engine req/s",
            "p50 µs",
            "p90 µs",
            "p99 µs",
            "p999 µs",
            "allocs/req",
        ],
        &rows,
    );
    out.push_str(&format!(
        "\ndense GEMM (64x256x256): i8 microkernel {:.2}x vs scalar i32 reference\n",
        report.gemm_speedup_i8_vs_i32
    ));
    out.push_str(&format!(
        "decode ({} sessions coalesced, packed KV): {:.0} tokens/s, \
         per-step p50 {:.1} µs / p99 {:.1} µs, {} KV bytes/token\n",
        report.decode.sessions,
        report.decode.tokens_per_sec,
        report.decode.step_p50_us,
        report.decode.step_p99_us,
        report.decode.kv_bytes_per_token
    ));
    out.push_str(&format!(
        "telemetry: {:.0} ns per layer boundary (budget {HOOK_BUDGET_NS:.0} ns)\n",
        report.hook_ns
    ));
    let codec: Vec<_> = (report.codec.iter())
        .map(|c| format!("{} {:.1}/{:.1}", c.dtype, c.encode_ns, c.snap_ns))
        .collect();
    out.push_str(&format!(
        "codec (ns per element, encode/snap): {}\n",
        codec.join(", ")
    ));
    out.push_str("\nper-stage breakdown (telemetry registry, batch-1 window):\n");
    for w in &report.workloads {
        let st = &w.stages;
        let top: Vec<String> = st
            .layers
            .iter()
            .take(3)
            .map(|l| format!("{} {:.0}%", l.kind, l.share * 100.0))
            .collect();
        out.push_str(&format!(
            "  {}: layer timing covers {:.0}% of forward, hooks are {:.1}% of a batch-32 forward; top: {}\n",
            w.name,
            st.coverage_of_forward * 100.0,
            w.telemetry_share * 100.0,
            top.join(", ")
        ));
        if let Some(e) = &st.engine {
            out.push_str(&format!(
                "    engine: submit-wait p50 {:.1} µs / p99 {:.1} µs, service p50 {:.1} µs, mean batch {:.1}\n",
                e.submit_wait_p50_us, e.submit_wait_p99_us, e.service_p50_us, e.mean_batch
            ));
        }
    }
    out.push_str(
        "\nartifact load (time-to-serving-ready, load + compile,\nload-scale archetype models of ~0.4-1.6M wire codes):\n",
    );
    for w in &report.workloads {
        out.push_str(&format!(
            "  {}: mapped {:.0} us ({})\n",
            w.name,
            w.load_us_v2,
            if w.mapped_zero_copy {
                "zero-copy"
            } else {
                "owned fallback"
            }
        ));
        if let Some(kb) = w.mapped_private_dirty_kb {
            out.push_str(&format!(
                "    mapping private-dirty after compile: {kb} kB (weight pages stay process-shared)\n"
            ));
        }
    }
    if let Some(lines) = baseline_lines {
        out.push_str(&lines);
    }
    if report.regression {
        out.push_str(
            "REGRESSION: steady-state allocations, a non-zero-copy mapped load, \
             dirtied weight pages, telemetry hooks over budget, or throughput \
             below the baseline\n",
        );
    }
    out.push_str(&format!("wrote {}\n", cfg.out.display()));
    Ok(out)
}

/// `antc stats` configuration.
#[derive(Debug, Clone)]
pub struct StatsConfig {
    /// Total request rows to drive through the plan.
    pub requests: usize,
    /// Rows per `forward_rows` call.
    pub batch: usize,
    /// Write the full registry in Prometheus text format here.
    pub prom: Option<std::path::PathBuf>,
    /// Write the span rings as a chrome://tracing JSON trace here.
    pub trace: Option<std::path::PathBuf>,
}

impl Default for StatsConfig {
    fn default() -> Self {
        StatsConfig {
            requests: 256,
            batch: 8,
            prom: None,
            trace: None,
        }
    }
}

/// `antc stats`: drives seeded requests through a compiled
/// artifact and reports the per-layer-kind timing/work breakdown read
/// back from the telemetry registry — calls, total time, share, per-call
/// p50/p99, derived GOPS and effective GB/s — plus the coverage check
/// (summed per-layer time vs end-to-end forward time, budgeted ±10%).
/// Optionally exports the registry (Prometheus text) and the span rings
/// (chrome://tracing JSON).
///
/// # Errors
///
/// Propagates load/compile/forward and export-write failures.
pub fn run_stats<P: AsRef<Path>>(path: P, cfg: StatsConfig) -> Result<String, CliError> {
    let io = |e: std::io::Error| CliError::Artifact(ArtifactError::Io(e));
    let mapped = MappedArtifact::open(&path)?;
    let mut plan = mapped.compile()?;
    let features = plan.in_features().ok_or_else(|| {
        CliError::Runtime(RuntimeError::Engine(
            "plan does not pin an input width".to_string(),
        ))
    })?;
    let batch = cfg.batch.max(1);
    let iters = cfg.requests.max(1).div_ceil(batch);
    let x = gaussian(&[batch, features], 42);
    let mut out_buf = Vec::new();
    // Warmup drives scratch buffers to their high-water mark and runs
    // the cold telemetry-registration edge outside the measured window.
    for _ in 0..3 {
        plan.forward_rows(x.as_slice(), batch, &mut out_buf)?;
    }
    let before = ant_obs::global().snapshot();
    let wall = std::time::Instant::now();
    for _ in 0..iters {
        plan.forward_rows(x.as_slice(), batch, &mut out_buf)?;
    }
    let wall = wall.elapsed();
    let delta = ant_obs::global().snapshot().delta_since(&before);

    let mut out = format!(
        "{}: drove {} request row(s) in {iters} forward call(s) of batch {batch} ({:.2} ms wall)\n",
        path.as_ref().display(),
        iters * batch,
        wall.as_secs_f64() * 1e3,
    );
    let (layers, coverage) = layer_stages(&delta);
    let mut rows = Vec::new();
    for l in &layers {
        rows.push(vec![
            l.kind.clone(),
            l.calls.to_string(),
            format!("{:.2}", l.total_us / 1e3),
            format!("{:.1}%", l.share * 100.0),
            format!("{:.1}", l.p50_us),
            format!("{:.1}", l.p99_us),
            if l.gops > 0.0 {
                format!("{:.2}", l.gops)
            } else {
                "-".to_string()
            },
            format!("{:.2}", l.gbps),
        ]);
    }
    out.push('\n');
    out.push_str(&render_table(
        &[
            "layer kind",
            "calls",
            "total ms",
            "share",
            "p50 µs",
            "p99 µs",
            "GOPS",
            "GB/s",
        ],
        &rows,
    ));
    if let Some(fwd) = delta_hist(&delta, "ant_forward_time_ns", None) {
        out.push_str(&format!(
            "\nforward: {} call(s), total {:.2} ms, per-call p50 {:.1} µs / p99 {:.1} µs\n",
            fwd.count(),
            fwd.sum() as f64 / 1e6,
            fwd.quantile(0.50) / 1e3,
            fwd.quantile(0.99) / 1e3,
        ));
    }
    out.push_str(&format!(
        "per-layer timing covers {:.1}% of end-to-end forward time (budget: within 10%)\n",
        coverage * 100.0
    ));
    if let Some(prom) = &cfg.prom {
        let text = prometheus_text(&ant_obs::global().snapshot());
        std::fs::write(prom, &text).map_err(io)?;
        out.push_str(&format!(
            "wrote {} (Prometheus text exposition)\n",
            prom.display()
        ));
    }
    if let Some(trace) = &cfg.trace {
        let events = ant_obs::snapshot_spans();
        std::fs::write(trace, chrome_trace(&events)).map_err(io)?;
        out.push_str(&format!(
            "wrote {} ({} span event(s), chrome://tracing JSON)\n",
            trace.display(),
            events.len()
        ));
    }
    Ok(out)
}

/// Configuration for `antc loadgen` — drive a running `antd` daemon.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Daemon address, e.g. `127.0.0.1:7171`.
    pub addr: String,
    /// Model name to infer against (must be served by the daemon).
    pub model: String,
    /// Concurrent client connections.
    pub concurrency: usize,
    /// How long to drive load.
    pub duration: std::time::Duration,
    /// Merge the results into this `BENCH_runtime.json` under a
    /// top-level `loadgen` key (created if the file does not exist).
    pub out: Option<std::path::PathBuf>,
    /// Scrape `/metrics` afterwards and validate it structurally.
    pub check_metrics: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7171".to_string(),
            model: String::new(),
            concurrency: 4,
            duration: std::time::Duration::from_secs(5),
            out: None,
            check_metrics: false,
        }
    }
}

/// One HTTP exchange on a fresh connection (control-plane calls).
fn http_once(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<(&str, &[u8])>,
) -> Result<crate::http::ClientResponse, CliError> {
    use std::io::BufReader;
    let lg = CliError::Loadgen;
    let stream =
        std::net::TcpStream::connect(addr).map_err(|e| lg(format!("connect {addr}: {e}")))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .ok();
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| lg(e.to_string()))?);
    let mut writer = stream;
    crate::http::write_request(&mut writer, method, path, body)
        .map_err(|e| lg(format!("send {path}: {e}")))?;
    crate::http::read_response(&mut reader).map_err(|e| lg(format!("read {path}: {e}")))
}

/// Per-worker tallies, merged after the run.
#[derive(Default)]
struct LoadgenWorker {
    ok: u64,
    /// 429 answers: the daemon's admission queue was full.
    shed_429: u64,
    /// 503 answers: the daemon was recovering (circuit breaker open or
    /// half-open) or draining.
    shed_503: u64,
    /// Re-sends of a shed request after client-side backoff.
    retries: u64,
    errors: u64,
    /// Round-trip latency of each 200, in ns.
    latencies_ns: Vec<u64>,
}

/// Retry budget per logical request: a shed (429/503) answer is retried
/// after exponential backoff this many times before the client moves
/// on. Keeps a recovering daemon from reading as a wall of hard errors
/// while still bounding how long one request can stall a worker.
const LOADGEN_MAX_ATTEMPTS: u32 = 8;

/// `antc loadgen`: drives a running daemon with concurrent keep-alive
/// connections for a fixed duration and reports achieved req/s and
/// round-trip latency percentiles. 429 (overload) and 503 (recovering
/// or draining) responses count as shed load, not errors: the client
/// backs off exponentially and retries under a bounded budget, and the
/// retry rate is reported alongside throughput.
///
/// # Errors
///
/// [`CliError::Loadgen`] when the daemon is unreachable, does not serve
/// `model`, or (`check_metrics`) its exposition fails validation;
/// [`CliError::Artifact`] on `--out` file errors.
pub fn run_loadgen(cfg: LoadgenConfig) -> Result<String, CliError> {
    use std::io::BufReader;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let lg = CliError::Loadgen;
    // Discover the model's input width from the daemon itself.
    let resp = http_once(&cfg.addr, "GET", "/v1/models", None)?;
    if resp.status != 200 {
        return Err(lg(format!("GET /v1/models returned {}", resp.status)));
    }
    let doc = Json::parse(&resp.body_str()).map_err(|e| lg(format!("bad /v1/models body: {e}")))?;
    let models = doc
        .get("models")
        .and_then(Json::as_arr)
        .ok_or_else(|| lg("missing models array in /v1/models".into()))?;
    let entry = models
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(cfg.model.as_str()))
        .ok_or_else(|| {
            let served: Vec<&str> = models
                .iter()
                .filter_map(|m| m.get("name").and_then(Json::as_str))
                .collect();
            lg(format!(
                "daemon does not serve {:?} (serves {served:?})",
                cfg.model
            ))
        })?;
    let in_features = entry
        .get("in_features")
        .and_then(Json::as_f64)
        .map_or(8, |f| f as usize)
        .max(1);

    let infer_path = format!("/v1/models/{}/infer", cfg.model);
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let workers: Vec<std::thread::JoinHandle<LoadgenWorker>> = (0..cfg.concurrency.max(1))
        .map(|worker_id| {
            let addr = cfg.addr.clone();
            let infer_path = infer_path.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut w = LoadgenWorker::default();
                let mut conn: Option<(BufReader<std::net::TcpStream>, std::net::TcpStream)> = None;
                let mut iteration = 0u64;
                'requests: while !stop.load(Ordering::Relaxed) {
                    // A deterministic, slowly varying input row.
                    iteration += 1;
                    let row: Vec<String> = (0..in_features)
                        .map(|i| {
                            let v = (worker_id as u64 * 31 + iteration * 7 + i as u64) % 13;
                            format!("{:.1}", (v as f64) * 0.1 - 0.6)
                        })
                        .collect();
                    let body = format!("{{\"input\": [{}]}}", row.join(", "));
                    let mut backoff = Duration::from_millis(2);
                    for attempt in 1..=LOADGEN_MAX_ATTEMPTS {
                        if stop.load(Ordering::Relaxed) {
                            break 'requests;
                        }
                        if conn.is_none() {
                            match std::net::TcpStream::connect(&addr) {
                                Ok(s) => {
                                    s.set_read_timeout(Some(Duration::from_secs(30))).ok();
                                    s.set_nodelay(true).ok();
                                    match s.try_clone() {
                                        Ok(c) => conn = Some((BufReader::new(c), s)),
                                        Err(_) => {
                                            w.errors += 1;
                                            continue 'requests;
                                        }
                                    }
                                }
                                Err(_) => {
                                    w.errors += 1;
                                    std::thread::sleep(Duration::from_millis(5));
                                    continue 'requests;
                                }
                            }
                        }
                        let (reader, writer) = conn.as_mut().expect("connected above");
                        let sent = Instant::now();
                        let outcome = crate::http::write_request(
                            writer,
                            "POST",
                            &infer_path,
                            Some(("application/json", body.as_bytes())),
                        )
                        .map_err(crate::http::HttpError::Io)
                        .and_then(|()| crate::http::read_response(reader));
                        match outcome {
                            Ok(resp) => match resp.status {
                                200 => {
                                    w.ok += 1;
                                    w.latencies_ns.push(sent.elapsed().as_nanos() as u64);
                                    continue 'requests;
                                }
                                // Shed, not failed: back off and retry
                                // this request under the attempt budget.
                                429 => w.shed_429 += 1,
                                503 => w.shed_503 += 1,
                                _ => {
                                    w.errors += 1;
                                    continue 'requests;
                                }
                            },
                            Err(_) => {
                                w.errors += 1;
                                conn = None; // reconnect
                                continue 'requests;
                            }
                        }
                        // A 503 while draining closes the connection
                        // behind the response; reconnect lazily.
                        if attempt == LOADGEN_MAX_ATTEMPTS {
                            continue 'requests; // budget spent: move on
                        }
                        w.retries += 1;
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(Duration::from_millis(50));
                    }
                }
                w
            })
        })
        .collect();
    std::thread::sleep(cfg.duration);
    stop.store(true, Ordering::Relaxed);
    let mut merged = LoadgenWorker::default();
    for handle in workers {
        let w = handle.join().map_err(|_| lg("a worker panicked".into()))?;
        merged.ok += w.ok;
        merged.shed_429 += w.shed_429;
        merged.shed_503 += w.shed_503;
        merged.retries += w.retries;
        merged.errors += w.errors;
        merged.latencies_ns.extend(w.latencies_ns);
    }
    let elapsed = started.elapsed().as_secs_f64();
    if merged.ok == 0 {
        return Err(lg(format!(
            "no successful requests in {elapsed:.1}s ({} shed 429, {} shed 503, {} errors)",
            merged.shed_429, merged.shed_503, merged.errors
        )));
    }
    merged.latencies_ns.sort_unstable();
    let pct = |q: f64| {
        let idx = ((merged.latencies_ns.len() - 1) as f64 * q).round() as usize;
        merged.latencies_ns[idx] as f64 / 1_000.0 // µs
    };
    let req_per_s = merged.ok as f64 / elapsed;
    let (p50, p90, p99) = (pct(0.50), pct(0.90), pct(0.99));

    let mut out = format!(
        "loadgen http://{}{} — {} conns, {:.1}s\n",
        cfg.addr,
        infer_path,
        cfg.concurrency.max(1),
        elapsed
    );
    let sends = merged.ok + merged.shed_429 + merged.shed_503 + merged.errors;
    let retry_rate = if sends == 0 {
        0.0
    } else {
        merged.retries as f64 / sends as f64
    };
    out.push_str(&format!(
        "requests: {} ok, {} shed (429 overload), {} shed (503 recovering), {} errors\n",
        merged.ok, merged.shed_429, merged.shed_503, merged.errors
    ));
    out.push_str(&format!(
        "retries: {} ({:.1}% of {} sends, backoff-bounded)\n",
        merged.retries,
        retry_rate * 100.0,
        sends
    ));
    out.push_str(&format!("throughput: {req_per_s:.1} req/s\n"));
    out.push_str(&format!(
        "round-trip latency: p50 {p50:.1} µs, p90 {p90:.1} µs, p99 {p99:.1} µs\n"
    ));

    if cfg.check_metrics {
        // The scrape itself retries transport errors: against a daemon
        // with fault injection armed, one dropped connection must not
        // fail the whole load run.
        let mut resp = http_once(&cfg.addr, "GET", "/metrics", None);
        for _ in 0..3 {
            if resp.is_ok() {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
            resp = http_once(&cfg.addr, "GET", "/metrics", None);
        }
        let resp = resp?;
        if resp.status != 200 {
            return Err(lg(format!("GET /metrics returned {}", resp.status)));
        }
        let samples = crate::promcheck::validate(&resp.body_str())
            .map_err(|e| lg(format!("/metrics failed structural validation: {e}")))?;
        if !samples
            .iter()
            .any(|s| s.name == "antd_http_responses_total")
        {
            return Err(lg("/metrics lacks antd_http_responses_total".into()));
        }
        out.push_str(&format!(
            "metrics: /metrics parses cleanly ({} samples)\n",
            samples.len()
        ));
    }

    if let Some(path) = &cfg.out {
        let io = |e: std::io::Error| CliError::Artifact(ArtifactError::Io(e));
        let mut doc = match std::fs::read_to_string(path) {
            Ok(text) => {
                Json::parse(&text).map_err(|e| lg(format!("--out {}: {e}", path.display())))?
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Json::Obj(Vec::new()),
            Err(e) => return Err(io(e)),
        };
        let section = obj(vec![
            ("model", Json::Str(cfg.model.clone())),
            ("concurrency", Json::Num(cfg.concurrency.max(1) as f64)),
            ("duration_s", Json::Num(elapsed)),
            ("requests_ok", Json::Num(merged.ok as f64)),
            ("shed_429", Json::Num(merged.shed_429 as f64)),
            ("shed_503", Json::Num(merged.shed_503 as f64)),
            ("retries", Json::Num(merged.retries as f64)),
            ("retry_rate", Json::Num(retry_rate)),
            ("errors", Json::Num(merged.errors as f64)),
            ("req_per_s", Json::Num(req_per_s)),
            ("p50_us", Json::Num(p50)),
            ("p90_us", Json::Num(p90)),
            ("p99_us", Json::Num(p99)),
        ]);
        match &mut doc {
            Json::Obj(fields) => {
                fields.retain(|(k, _)| k != "loadgen");
                fields.push(("loadgen".to_string(), section));
            }
            _ => return Err(lg(format!("--out {}: not a JSON object", path.display()))),
        }
        std::fs::write(path, doc.render()).map_err(io)?;
        out.push_str(&format!("merged loadgen row into {}\n", path.display()));
    }
    Ok(out)
}

/// `antc generate` configuration.
#[derive(Debug, Clone)]
pub struct GenerateConfig {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// Model name as registered with the daemon.
    pub model: String,
    /// Prompt token ids (each below the model's synthetic vocabulary,
    /// its token dim).
    pub prompt: Vec<u32>,
    /// Number of tokens to generate.
    pub max_tokens: usize,
}

impl Default for GenerateConfig {
    fn default() -> Self {
        GenerateConfig {
            addr: "127.0.0.1:7171".to_string(),
            model: String::new(),
            prompt: vec![0],
            max_tokens: 16,
        }
    }
}

/// `antc generate`: stream tokens from a running antd daemon's
/// `POST /v1/models/{name}/generate` endpoint. The chunked JSON-line
/// stream is consumed incrementally — each token line is parsed as it
/// arrives — and the final `done` line must account for every streamed
/// token, so this doubles as the decode-smoke conformance client.
///
/// # Errors
///
/// [`CliError::Generate`] on connection failures, non-200 responses,
/// malformed stream lines, a trailing error line, or a token-count
/// mismatch between the stream and its `done` line.
pub fn run_generate(cfg: GenerateConfig) -> Result<String, CliError> {
    use crate::http::{read_chunk, read_response_head, write_request};
    use std::io::{BufReader, Read};
    let err = CliError::Generate;
    let body = format!(
        "{{\"prompt\":[{}],\"max_tokens\":{}}}",
        cfg.prompt
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(","),
        cfg.max_tokens
    );
    let path = format!("/v1/models/{}/generate", cfg.model);
    let stream = std::net::TcpStream::connect(&cfg.addr)
        .map_err(|e| err(format!("connect {}: {e}", cfg.addr)))?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .ok();
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| err(e.to_string()))?);
    let mut writer = stream;
    write_request(
        &mut writer,
        "POST",
        &path,
        Some(("application/json", body.as_bytes())),
    )
    .map_err(|e| err(format!("send {path}: {e}")))?;
    let head = read_response_head(&mut reader).map_err(|e| err(format!("read {path}: {e}")))?;
    if head.status != 200 {
        // Error responses are plain Content-Length bodies.
        let len: usize = head
            .header("content-length")
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        let mut buf = vec![0u8; len.min(64 * 1024)];
        reader.read_exact(&mut buf).ok();
        return Err(err(format!(
            "HTTP {}: {}",
            head.status,
            String::from_utf8_lossy(&buf).trim()
        )));
    }
    if !head.is_chunked() {
        return Err(err("expected a chunked token stream".to_string()));
    }
    let mut out = String::new();
    let mut line_buf: Vec<u8> = Vec::new();
    let mut streamed: Vec<u32> = Vec::new();
    let mut tail: Option<(bool, usize, Option<String>)> = None;
    while let Some(chunk) = read_chunk(&mut reader).map_err(|e| err(format!("stream: {e}")))? {
        line_buf.extend_from_slice(&chunk);
        while let Some(pos) = line_buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = line_buf.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line);
            let text = text.trim();
            if text.is_empty() {
                continue;
            }
            let doc = Json::parse(text).map_err(|e| err(format!("bad stream line: {e}")))?;
            if let Some(done) = doc.get("done").and_then(Json::as_bool) {
                let count = doc.get("tokens").and_then(Json::as_f64).unwrap_or(-1.0) as usize;
                let error = doc
                    .get("error")
                    .and_then(Json::as_str)
                    .map(ToString::to_string);
                tail = Some((done, count, error));
            } else if let Some(tok) = doc.get("token").and_then(Json::as_f64) {
                streamed.push(tok as u32);
                out.push_str(&format!("token[{}] = {}\n", streamed.len() - 1, tok as u32));
            } else {
                return Err(err(format!("unrecognized stream line: {text}")));
            }
        }
    }
    match tail {
        Some((true, count, _)) if count == streamed.len() => {
            out.push_str(&format!(
                "generated {} token(s) from {} prompt token(s); stream complete\n",
                streamed.len(),
                cfg.prompt.len()
            ));
            Ok(out)
        }
        Some((true, count, _)) => Err(err(format!(
            "done line reports {count} token(s) but {} were streamed",
            streamed.len()
        ))),
        Some((false, _, error)) => Err(err(format!(
            "stream ended early after {} token(s): {}",
            streamed.len(),
            error.unwrap_or_else(|| "unknown error".to_string())
        ))),
        None => Err(err(format!(
            "stream closed without a done line ({} token(s) received)",
            streamed.len()
        ))),
    }
}

/// Usage text for the binary.
pub const USAGE: &str = "antc — ANT quantized-model artifact tool

USAGE:
    antc quantize --out <file.antm> [--model mlp|cnn|transformer|decoder]
                  [--bits N] [--combo int|ip|fip|ipf|fipf]
                  [--epochs N] [--seed N]
    antc inspect <file.antm>
    antc verify <file.antm>
    antc serve <file.antm> [--requests N] [--batch N]
               [--metrics-dump <file.prom>]
    antc stats <file.antm> [--requests N] [--batch N]
               [--prom <file.prom>] [--trace <file.json>]
    antc bench [--quick] [--out <file.json>] [--seed N]
               [--baseline <file.json>] [--tolerance F]
    antc loadgen --model NAME [--addr HOST:PORT] [--concurrency N]
                 [--duration-secs N] [--out <file.json>] [--check-metrics]
    antc generate --model NAME [--addr HOST:PORT] [--prompt 1,2,3]
                  [--max-tokens N]
    antc repro [NAME ...] [--out <file.json>]

The quantize subcommand trains a reference model, runs Algorithm-2 type
selection through a memoizing Planner, and saves the packed result (wire
codes + pre-packed panel images + selection-cache fingerprints) as a
versioned .antm artifact (mmap-ready, 64-byte-aligned). A plan is packed
or it does not compile: the runtime mirrors the paper's int-based PE, so
when Algorithm 2 picks a type with no exact integer-domain execution (a
float type under --combo fip|fipf, 6-bit PoT) quantize exits non-zero
naming the layer and type, and writes nothing.
inspect dumps the header, section table, storage mode, per-layer
selections with each packed layer's execution image width (i8/i16),
whether the plan compiles (with the refusal if not) and the
selection-cache fingerprint/hit/miss stats. verify
runs the full integrity gate the lazy load defers: section CRCs plus
a bit-for-bit recompute of the PANL execution images. serve
memory-maps the artifact, compiles it borrowing
weights straight from the file pages, and smoke-serves verified batched
requests; --metrics-dump writes the telemetry registry in Prometheus
text format afterwards. stats drives seeded requests through the plan
and prints the per-layer-kind breakdown (calls, time share, p50/p99,
derived GOPS and GB/s) read back from the telemetry registry, with
optional Prometheus and chrome://tracing exports. bench runs fixed
MLP/CNN/attention serving workloads and writes BENCH_runtime.json
(schema ant-bench/runtime-v2: throughput, p50/p90/p99/p999 latency,
steady-state allocations per request, per-stage breakdowns, microkernel
speedup, mapped time-to-serving-ready); --baseline compares batched
throughput against a stored report and flags drops beyond --tolerance
(default 0.08) with the REGRESSION marker. loadgen drives a running
antd daemon with concurrent keep-alive connections for a fixed duration
and reports achieved req/s and round-trip latency percentiles; 429
responses count as shed load (the client backs off), --check-metrics
scrapes and structurally validates /metrics afterwards, and --out
merges the results into BENCH_runtime.json under a `loadgen` key.
generate streams tokens from a running daemon's autoregressive
/v1/models/NAME/generate endpoint (the model must be a causal decoder,
e.g. quantize --model decoder): the chunked JSON-line stream is parsed
incrementally and the final done line must account for every streamed
token, making the command a conformance check as well as a demo
client. repro prints the paper's figures and tables (NAME is fig01,
fig10..fig14, tab01..tab07, ablation or posit; all of them by default)
and checks each claim the paper makes about them, failing when a
claim's outcome differs from its declaration; --out writes the claims
as JSON (REPRO.json).";

/// A usage error: the message, then the full usage text.
pub(crate) fn usage(msg: &str) -> CliError {
    CliError::Usage(format!("{msg}\n\n{USAGE}"))
}

/// One subcommand's flag words, read left to right: every subcommand is
/// a `while let Some(flag) = flags.next()` over a flat `match`, and the
/// usage errors are spelled here once.
struct Flags<'a> {
    words: std::slice::Iter<'a, String>,
    /// The flag [`Self::next`] returned last.
    flag: &'a str,
}

impl<'a> Flags<'a> {
    fn new(words: &'a [String]) -> Self {
        Flags {
            words: words.iter(),
            flag: "",
        }
    }

    fn next(&mut self) -> Option<&'a str> {
        self.flag = self.words.next()?;
        Some(self.flag)
    }

    /// The current flag's value word.
    fn value(&mut self) -> Result<String, CliError> {
        let word = self.words.next().cloned();
        word.ok_or_else(|| usage(&format!("{} needs a value", self.flag)))
    }

    /// The current flag's value parsed as a number; `what` names the
    /// kind in the error (`"an integer"`, `"a number"`).
    fn num<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, CliError> {
        let parsed = self.value()?.parse();
        parsed.map_err(|_| usage(&format!("{} needs {what}", self.flag)))
    }

    fn unknown(&self) -> CliError {
        usage(&format!("unknown flag '{}'", self.flag))
    }
}

/// Parses argv (without the program name) and runs the selected
/// subcommand, returning its report.
///
/// # Errors
///
/// [`CliError::Usage`] on bad arguments, otherwise the subcommand's
/// failure.
pub fn run(args: &[String]) -> Result<String, CliError> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| usage("missing subcommand"))?;
    match cmd.as_str() {
        "quantize" => {
            let mut cfg = QuantizeConfig::default();
            let mut out: Option<String> = None;
            let mut flags = Flags::new(rest);
            while let Some(flag) = flags.next() {
                match flag {
                    "--out" => out = Some(flags.value()?),
                    "--model" => cfg.model = ModelKind::parse(&flags.value()?)?,
                    "--bits" => cfg.bits = flags.num("an integer")?,
                    "--combo" => cfg.combo = parse_combo(&flags.value()?)?,
                    "--epochs" => cfg.epochs = flags.num("an integer")?,
                    "--seed" => cfg.seed = flags.num("an integer")?,
                    _ => return Err(flags.unknown()),
                }
            }
            let out = out.ok_or_else(|| usage("quantize requires --out <file.antm>"))?;
            run_quantize(cfg, out)
        }
        "inspect" => match rest {
            [path] => run_inspect(path),
            _ => Err(usage("inspect takes exactly one artifact path")),
        },
        "verify" => match rest {
            [path] => run_verify(path),
            _ => Err(usage("verify takes exactly one artifact path")),
        },
        "serve" => {
            let (path, rest) = rest
                .split_first()
                .ok_or_else(|| usage("serve requires an artifact path"))?;
            let mut requests = 256usize;
            let mut batch = 32usize;
            let mut metrics_dump: Option<std::path::PathBuf> = None;
            let mut flags = Flags::new(rest);
            while let Some(flag) = flags.next() {
                match flag {
                    "--requests" => requests = flags.num("an integer")?,
                    "--batch" => batch = flags.num("an integer")?,
                    "--metrics-dump" => metrics_dump = Some(flags.value()?.into()),
                    _ => return Err(flags.unknown()),
                }
            }
            run_serve(path, requests, batch, metrics_dump.as_deref())
        }
        "stats" => {
            let (path, rest) = rest
                .split_first()
                .ok_or_else(|| usage("stats requires an artifact path"))?;
            let mut cfg = StatsConfig::default();
            let mut flags = Flags::new(rest);
            while let Some(flag) = flags.next() {
                match flag {
                    "--requests" => cfg.requests = flags.num("an integer")?,
                    "--batch" => cfg.batch = flags.num("an integer")?,
                    "--prom" => cfg.prom = Some(flags.value()?.into()),
                    "--trace" => cfg.trace = Some(flags.value()?.into()),
                    _ => return Err(flags.unknown()),
                }
            }
            run_stats(path, cfg)
        }
        "bench" => {
            let mut cfg = BenchConfig::default();
            let mut flags = Flags::new(rest);
            while let Some(flag) = flags.next() {
                match flag {
                    "--quick" => cfg.quick = true,
                    "--out" => cfg.out = flags.value()?.into(),
                    "--seed" => cfg.seed = flags.num("an integer")?,
                    "--baseline" => cfg.baseline = Some(flags.value()?.into()),
                    "--tolerance" => cfg.tolerance = flags.num("a number")?,
                    _ => return Err(flags.unknown()),
                }
            }
            run_bench(cfg)
        }
        "loadgen" => {
            let mut cfg = LoadgenConfig::default();
            let mut flags = Flags::new(rest);
            while let Some(flag) = flags.next() {
                match flag {
                    "--addr" => cfg.addr = flags.value()?,
                    "--model" => cfg.model = flags.value()?,
                    "--concurrency" => cfg.concurrency = flags.num("an integer")?,
                    "--duration-secs" => {
                        cfg.duration = std::time::Duration::from_secs(flags.num("an integer")?)
                    }
                    "--out" => cfg.out = Some(flags.value()?.into()),
                    "--check-metrics" => cfg.check_metrics = true,
                    _ => return Err(flags.unknown()),
                }
            }
            if cfg.model.is_empty() {
                return Err(usage("loadgen requires --model NAME"));
            }
            run_loadgen(cfg)
        }
        "generate" => {
            let mut cfg = GenerateConfig::default();
            let mut flags = Flags::new(rest);
            while let Some(flag) = flags.next() {
                match flag {
                    "--addr" => cfg.addr = flags.value()?,
                    "--model" => cfg.model = flags.value()?,
                    "--prompt" => {
                        let ids = flags.value()?;
                        let ids = ids.split(',').map(|t| t.trim().parse::<u32>());
                        cfg.prompt = ids.collect::<Result<_, _>>().map_err(|_| {
                            usage("--prompt needs comma-separated token ids (e.g. 1,2,3)")
                        })?
                    }
                    "--max-tokens" => cfg.max_tokens = flags.num("an integer")?,
                    _ => return Err(flags.unknown()),
                }
            }
            if cfg.model.is_empty() {
                return Err(usage("generate requires --model NAME"));
            }
            run_generate(cfg)
        }
        "repro" => {
            let mut names = Vec::new();
            let mut out: Option<std::path::PathBuf> = None;
            let mut flags = Flags::new(rest);
            while let Some(flag) = flags.next() {
                match flag {
                    "--out" => out = Some(flags.value()?.into()),
                    name if !name.starts_with('-') => names.push(name),
                    _ => return Err(flags.unknown()),
                }
            }
            crate::repro::run(&names, out.as_deref())
        }
        "--help" | "-h" | "help" => Ok(USAGE.to_string()),
        other => Err(usage(&format!("unknown subcommand '{other}'"))),
    }
}
