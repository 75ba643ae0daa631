//! The memoizing plan compiler: model → type selection → packed plan,
//! with Algorithm-2 decisions cached across compilations.
//!
//! Type selection is the expensive step of ANT quantization (per-tensor,
//! per-candidate min-MSE grid search — paper Algorithm 2). A serving stack
//! recompiles the same checkpoint many times (restarts, replicas, A/B
//! shadows), so [`Planner`] fingerprints `(parameters, calibration, spec)`
//! and replays cached `(dtype, granularity, scales)` decisions through
//! [`TensorQuantizer::from_scales`] instead of refitting — a cache hit
//! costs one hash of the inputs plus the cheap packing pass.

use crate::error::RuntimeError;
use crate::plan::CompiledPlan;
use ant_core::{ClipSearch, DataType, Granularity, Quantizer, TensorQuantizer};
use ant_nn::model::{NetLayer, Sequential};
use ant_nn::qat::{quantize_model, QuantSpec};
use ant_tensor::Tensor;
use std::collections::HashMap;

/// A memoized Algorithm-2 outcome for one quantizable layer.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeDecision {
    /// Index into the model's layer list.
    pub layer_index: usize,
    /// Per weight tensor: chosen type, granularity and calibrated scales
    /// (dense/conv carry one entry, attention four).
    pub weights: Vec<(DataType, Granularity, Vec<f32>)>,
    /// Chosen activation type and scale.
    pub activation: (DataType, f32),
}

/// Cache of type-selection decisions keyed by an input fingerprint.
#[derive(Debug, Default)]
pub struct SelectionCache {
    entries: HashMap<u64, Vec<TypeDecision>>,
    hits: u64,
    misses: u64,
}

impl SelectionCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of cached compilations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `(hits, misses)` counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Deterministic snapshot of the memoized decisions, sorted by
    /// fingerprint — the payload of a model artifact's cache section.
    pub fn export(&self) -> Vec<(u64, Vec<TypeDecision>)> {
        let mut entries: Vec<(u64, Vec<TypeDecision>)> =
            self.entries.iter().map(|(k, v)| (*k, v.clone())).collect();
        entries.sort_by_key(|(k, _)| *k);
        entries
    }

    /// Inserts one memoized decision set under its fingerprint (the
    /// artifact warm-start path — see
    /// [`Planner::with_cache`]). Replaces any existing entry for `key`.
    pub fn insert(&mut self, key: u64, decisions: Vec<TypeDecision>) {
        self.entries.insert(key, decisions);
    }
}

/// Compiles models to [`CompiledPlan`]s, memoizing type selection.
///
/// # Example
///
/// ```
/// use ant_nn::model::mlp;
/// use ant_nn::qat::QuantSpec;
/// use ant_runtime::Planner;
/// use ant_tensor::dist::{sample_tensor, Distribution};
///
/// let mut model = mlp(8, 4, 1);
/// let calib = sample_tensor(Distribution::Gaussian { mean: 0.0, std: 1.0 }, &[64, 8], 2);
/// let mut planner = Planner::new();
/// let _plan = planner.compile(&mut model, &calib, QuantSpec::default())?;
/// // Same inputs again: Algorithm 2 is replayed from the cache.
/// let _plan = planner.compile(&mut model, &calib, QuantSpec::default())?;
/// assert_eq!(planner.cache().stats(), (1, 1)); // one hit, one miss
/// # Ok::<(), ant_runtime::RuntimeError>(())
/// ```
#[derive(Debug, Default)]
pub struct Planner {
    cache: SelectionCache,
}

impl Planner {
    /// Creates a planner with an empty selection cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a planner pre-warmed with previously exported decisions
    /// (e.g. [`crate::ModelArtifact::cache_entries`]): compiling the same
    /// `(model, calibration, spec)` inputs that produced an entry replays
    /// the saved selection instead of re-running the MSE grid search.
    pub fn with_cache(entries: Vec<(u64, Vec<TypeDecision>)>) -> Self {
        let mut planner = Self::new();
        for (key, decisions) in entries {
            planner.cache.insert(key, decisions);
        }
        planner
    }

    /// A no-op (every compile refuses what the packed path cannot
    /// execute); kept for the benchmark contract.
    #[doc(hidden)]
    #[must_use]
    pub fn strict(self) -> Self {
        self
    }

    /// The selection cache (for stats/introspection).
    pub fn cache(&self) -> &SelectionCache {
        &self.cache
    }

    /// Quantizes `model` (running Algorithm 2 per tensor, or replaying
    /// cached decisions) and compiles it to a packed plan.
    ///
    /// # Errors
    ///
    /// Propagates quantization failures and the errors of
    /// [`CompiledPlan::from_quantized`] — including its refusal of a
    /// selection with no exact integer-domain execution.
    pub fn compile(
        &mut self,
        model: &mut Sequential,
        calib: &Tensor,
        spec: QuantSpec,
    ) -> Result<CompiledPlan, RuntimeError> {
        let key = fingerprint(model, calib, spec);
        if let Some(decisions) = self.cache.entries.get(&key) {
            let decisions = decisions.clone();
            apply_decisions(model, &decisions)?;
            self.cache.hits += 1;
            crate::obs::metrics().cache_hit();
        } else {
            quantize_model(model, calib, spec)?;
            let decisions = extract_decisions(model);
            self.cache.entries.insert(key, decisions);
            self.cache.misses += 1;
            crate::obs::metrics().cache_miss();
        }
        CompiledPlan::from_quantized(model)
    }
}

/// FNV-1a over the planner inputs: spec knobs, *every* trainable
/// parameter and the calibration batch.
///
/// All parameters matter, not just quantizable weights: activation
/// calibration replays the forward pass, so the captured layer inputs —
/// and hence the fitted activation scales — depend on upstream biases and
/// normalisation parameters too. Hashing through the parameter visitor
/// keeps the key honest for any future layer kind.
fn fingerprint(model: &mut Sequential, calib: &Tensor, spec: QuantSpec) -> u64 {
    let mut h = Fnv::new();
    h.write_u32(spec.bits);
    h.write_bytes(spec.combo.label().as_bytes());
    match spec.search {
        ClipSearch::MaxAbs => h.write_u32(0),
        ClipSearch::GridMse { steps } => {
            h.write_u32(1);
            h.write_u32(steps as u32);
        }
    }
    h.write_u32(match spec.weight_granularity {
        Granularity::PerTensor => 0,
        Granularity::PerChannel => 1,
    });
    for layer in model.layers() {
        h.write_bytes(layer.name().as_bytes());
    }
    model.for_each_param(&mut |p| h.write_tensor(&p.value));
    h.write_tensor(calib);
    h.finish()
}

/// Reads the fitted quantizers off a freshly quantized model.
fn extract_decisions(model: &Sequential) -> Vec<TypeDecision> {
    let mut out = Vec::new();
    for (i, layer) in model.layers().iter().enumerate() {
        let decision = match layer {
            NetLayer::Dense(d) => quant_decision(i, &d.quant.weight, &d.quant.activation),
            NetLayer::Conv(c) => quant_decision(i, &c.quant.weight, &c.quant.activation),
            NetLayer::Attn(a) => {
                let weights = a
                    .quant
                    .weights
                    .iter()
                    .flatten()
                    .map(|q| (q.dtype(), q.granularity(), q.scales().to_vec()))
                    .collect::<Vec<_>>();
                a.quant.activation.as_ref().map(|aq| TypeDecision {
                    layer_index: i,
                    weights,
                    activation: (aq.dtype(), aq.scale()),
                })
            }
            _ => None,
        };
        if let Some(d) = decision {
            out.push(d);
        }
    }
    out
}

fn quant_decision(
    i: usize,
    weight: &Option<TensorQuantizer>,
    activation: &Option<Quantizer>,
) -> Option<TypeDecision> {
    match (weight, activation) {
        (Some(wq), Some(aq)) => Some(TypeDecision {
            layer_index: i,
            weights: vec![(wq.dtype(), wq.granularity(), wq.scales().to_vec())],
            activation: (aq.dtype(), aq.scale()),
        }),
        _ => None,
    }
}

/// Replays cached decisions onto the model: rebuilds the quantizers from
/// scales without refitting.
fn apply_decisions(model: &mut Sequential, decisions: &[TypeDecision]) -> Result<(), RuntimeError> {
    for d in decisions {
        let (adt, ascale) = d.activation;
        let act = Quantizer::with_scale(adt, ascale)?;
        match &mut model.layers_mut()[d.layer_index] {
            NetLayer::Dense(l) => {
                let (dt, g, scales) = &d.weights[0];
                l.quant.weight = Some(TensorQuantizer::from_scales(*dt, *g, scales.clone())?);
                l.quant.activation = Some(act);
            }
            NetLayer::Conv(l) => {
                let (dt, g, scales) = &d.weights[0];
                l.quant.weight = Some(TensorQuantizer::from_scales(*dt, *g, scales.clone())?);
                l.quant.activation = Some(act);
            }
            NetLayer::Attn(l) => {
                for (slot, (dt, g, scales)) in l.quant.weights.iter_mut().zip(&d.weights) {
                    *slot = Some(TensorQuantizer::from_scales(*dt, *g, scales.clone())?);
                }
                l.quant.activation = Some(act);
            }
            _ => {}
        }
    }
    Ok(())
}

/// Minimal FNV-1a hasher (no std `Hasher` needed: we hash raw f32 bit
/// patterns and control fields).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.write_bytes(&v.to_le_bytes());
    }

    fn write_tensor(&mut self, t: &Tensor) {
        for &d in t.dims() {
            self.write_bytes(&(d as u64).to_le_bytes());
        }
        for &v in t.as_slice() {
            self.write_bytes(&v.to_bits().to_le_bytes());
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ant_nn::layer::Layer as _;
    use ant_nn::model::mlp;
    use ant_tensor::dist::{sample_tensor, Distribution};

    fn setup() -> (Sequential, Tensor) {
        let model = mlp(8, 4, 17);
        let calib = sample_tensor(
            Distribution::Gaussian {
                mean: 0.0,
                std: 1.0,
            },
            &[48, 8],
            5,
        );
        (model, calib)
    }

    #[test]
    fn recompilation_hits_cache_and_matches() {
        let (mut model, calib) = setup();
        let mut planner = Planner::new();
        let spec = QuantSpec::default();
        let mut p1 = planner.compile(&mut model, &calib, spec).unwrap();
        assert_eq!(planner.cache().stats(), (0, 1));
        let mut p2 = planner.compile(&mut model, &calib, spec).unwrap();
        assert_eq!(planner.cache().stats(), (1, 1));
        assert_eq!(planner.cache().len(), 1);
        let x = sample_tensor(
            Distribution::Gaussian {
                mean: 0.0,
                std: 1.0,
            },
            &[4, 8],
            6,
        );
        assert_eq!(
            p1.forward(&x).unwrap().as_slice(),
            p2.forward(&x).unwrap().as_slice()
        );
    }

    #[test]
    fn different_spec_or_calib_misses() {
        let (mut model, calib) = setup();
        let mut planner = Planner::new();
        planner
            .compile(&mut model, &calib, QuantSpec::default())
            .unwrap();
        let spec8 = QuantSpec {
            bits: 8,
            combo: ant_core::select::PrimitiveCombo::Int,
            ..QuantSpec::default()
        };
        planner.compile(&mut model, &calib, spec8).unwrap();
        assert_eq!(planner.cache().stats(), (0, 2));
        let other_calib = sample_tensor(
            Distribution::Gaussian {
                mean: 0.0,
                std: 1.0,
            },
            &[48, 8],
            999,
        );
        planner
            .compile(&mut model, &other_calib, QuantSpec::default())
            .unwrap();
        assert_eq!(planner.cache().stats(), (0, 3));
        assert!(!planner.cache().is_empty());
    }

    #[test]
    fn bias_change_invalidates_cache() {
        // Biases shift the captured layer inputs that activation
        // calibration fits on, so they must be part of the fingerprint
        // even though they are not themselves quantized.
        let (mut model, calib) = setup();
        let mut planner = Planner::new();
        planner
            .compile(&mut model, &calib, QuantSpec::default())
            .unwrap();
        if let NetLayer::Dense(d) = &mut model.layers_mut()[0] {
            d.for_each_param(&mut |p| {
                if p.value.rank() == 1 {
                    p.value.as_mut_slice()[0] += 5.0; // perturb the bias
                }
            });
        }
        planner
            .compile(&mut model, &calib, QuantSpec::default())
            .unwrap();
        assert_eq!(planner.cache().stats(), (0, 2));
    }

    #[test]
    fn cache_replay_attaches_identical_quantizers() {
        let (mut model, calib) = setup();
        let mut planner = Planner::new();
        let spec = QuantSpec::default();
        planner.compile(&mut model, &calib, spec).unwrap();
        let first = extract_decisions(&model);
        planner.compile(&mut model, &calib, spec).unwrap();
        let second = extract_decisions(&model);
        assert_eq!(first.len(), second.len());
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(a.layer_index, b.layer_index);
            assert_eq!(a.activation.1, b.activation.1);
            for ((dta, ga, sa), (dtb, gb, sb)) in a.weights.iter().zip(&b.weights) {
                assert_eq!(dta, dtb);
                assert_eq!(ga, gb);
                assert_eq!(sa, sb);
            }
        }
    }
}
