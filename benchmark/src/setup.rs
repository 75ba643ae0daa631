//! The set-up path every workload follows, timed stage by stage:
//! build the model → `quantize_model` → `ModelArtifact::save` →
//! `MappedArtifact::open` → `compile_strict`.

use crate::inputs::ModelSpec;
use crate::stats::median;
use crate::BenchError;
use ant_nn::model::Sequential;
use ant_nn::qat::{quantize_model, QuantSpec, TypeRatio};
use ant_runtime::{CompiledPlan, MappedArtifact, ModelArtifact};
use ant_tensor::Tensor;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Stage timings and counts of one set-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    pub quantize_s: f64,
    pub save_s: f64,
    /// Weight and activation tensors Algorithm 2 chose a type for.
    pub tensors: usize,
    /// Share of those tensors that chose a flint type.
    pub flint_share: f64,
    pub artifact_bytes: u64,
    pub zero_copy: bool,
}

/// A served model: the plan compiled from the mapped artifact, the
/// fake-quant reference it must agree with, and the artifact on disk.
pub struct Built {
    pub plan: CompiledPlan,
    /// The quantized `Sequential` (fake-quant reference forward).
    pub reference: Sequential,
    pub calib: Tensor,
    pub mapped: MappedArtifact,
    pub path: PathBuf,
    pub stages: Stages,
}

/// Runs the full set-up path once, writing the artifact to `path`.
pub fn build(spec: &ModelSpec, seed: u64, path: &Path) -> Result<Built, BenchError> {
    let mut model = spec.build(seed);
    let calib = spec.calibration(seed);
    let tq = Instant::now();
    let reports = quantize_model(&mut model, &calib, QuantSpec::default())?;
    let quantize_s = tq.elapsed().as_secs_f64();
    let ts = Instant::now();
    ModelArtifact::from_model(&model)?.save_path(path)?;
    let save_s = ts.elapsed().as_secs_f64();
    let mapped = MappedArtifact::open(path)?;
    let plan = mapped.compile_strict()?;
    let ratio = TypeRatio::from_reports(&reports);
    Ok(Built {
        plan,
        reference: model,
        calib,
        stages: Stages {
            quantize_s,
            save_s,
            tensors: ratio.counts.iter().map(|(_, c)| c).sum(),
            flint_share: ratio.fraction("flint"),
            artifact_bytes: std::fs::metadata(path)?.len(),
            zero_copy: mapped.is_zero_copy(),
        },
        mapped,
        path: path.to_path_buf(),
    })
}

/// Set-up repetitions a run makes at most, and the time after which it
/// makes no further one: cheap set-ups are repeated so their median is
/// steady, a five-second one is paid once.
const MAX_REPS: usize = 5;
const REPEAT_BUDGET_S: f64 = 2.5;

/// Sets up repeatedly and returns the last build with the **median**
/// total time. `extra` runs inside each timed repetition on the fresh
/// build and returns what it started (a daemon for `serve_open`); only
/// the last repetition's value is kept alive.
pub fn build_repeated<X>(
    spec: &ModelSpec,
    seed: u64,
    path: &Path,
    reps: usize,
    mut extra: impl FnMut(&Built) -> Result<X, BenchError>,
) -> Result<(Built, X, f64, usize), BenchError> {
    let started = Instant::now();
    let mut totals = Vec::new();
    loop {
        let t0 = Instant::now();
        let built = build(spec, seed, path)?;
        let x = extra(&built)?;
        totals.push(t0.elapsed().as_secs_f64());
        let done = totals.len() >= reps.min(MAX_REPS)
            || started.elapsed().as_secs_f64() >= REPEAT_BUDGET_S;
        if done {
            return Ok((built, x, median(&totals), totals.len()));
        }
    }
}
