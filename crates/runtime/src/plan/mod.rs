//! Plan compilation: from a quantized [`Sequential`] to an executable
//! packed-domain plan.
//!
//! A [`CompiledPlan`] is the inference-side artifact of ANT quantization:
//! every compute layer's weights are stored as packed wire codes
//! ([`ant_core::pack::PackedTensor`], the paper's fixed-length aligned
//! representation, Table I) together with a per-layer decode LUT and scales. At compile
//! time each weight matrix is decoded **once** through the integer LUT
//! ([`ant_core::Codec::decode_lut_int`]) into the narrower of the two
//! operand images that holds its lattice — `i8` for every ≤8-bit paper
//! type, `i16` for anything wider (wide flint magnitudes, `int15`/`int16`/
//! `pot5` weights); a lattice that fits neither is refused — and
//! pre-packed into the microkernel panel layout
//! ([`crate::gemm::PanelGemm`]). Execution quantizes activations straight
//! into the same narrow width and runs the register-blocked integer
//! microkernel: the software mirror of the TypeFusion array's
//! boundary-decoder → low-bit int-PE pipeline (paper Fig. 9, Sec. VI-A).
//!
//! The hot path is engineered for steady-state serving:
//!
//! * all intermediate buffers (quantized activations, im2row matrices,
//!   accumulators, attention q/k/v/scores/context, the layer pipeline's
//!   ping/pong activations) live in a per-plan [`Scratch`] arena — after
//!   warmup a [`CompiledPlan::forward_rows`] call performs **zero heap
//!   allocations**,
//! * there is one executor: [`CompiledPlan::forward_rows`],
//!   [`CompiledPlan::prefill`] and [`CompiledPlan::decode_steps`] all run
//!   the same layer walk (`walk.rs`), which owns the pipeline buffers,
//!   lends the arena's per-layer buffers to each step and times it; the
//!   three differ only in the phase they hand it — what causal attention
//!   does with its K/V rows,
//! * threaded GEMMs are scheduled on a persistent [`WorkerPool`] shared
//!   across layers and batches (no per-call thread spawning), partitioned
//!   over output rows *and* columns so batch-1 requests against wide
//!   layers still parallelize,
//! * integer arithmetic is exact, so none of this changes a single output
//!   bit relative to the scalar reference kernel.
//!
//! Three layer families run in the packed integer domain:
//!
//! * [`PackedLinear`] — dense layers, a direct integer GEMM,
//! * [`PackedConv`] — convolutions, lowered through an integer im2row
//!   ([`crate::gemm::im2row`]) at the layer's operand width into the same
//!   weight-stationary GEMM,
//! * [`PackedAttn`] — attention blocks: Q/K/V projections as integer
//!   GEMMs, then scores → softmax → context in f32 (attention scores are
//!   *activations* and "require high-precision numbers", Sec. IV-C /
//!   Fig. 4), and the output projection as the f32 context walked over
//!   the o-weights' integer panels with the scale applied at the boundary.
//!
//! Shape-polymorphic layers (ReLU, GELU, max-pool, layer norm) carry no
//! wire codes and execute the same arithmetic as their reference
//! implementations, so CNN→head and Transformer pipelines compile whole.
//! A plan is packed or it does not compile: a layer whose selected type
//! the integer domain cannot execute exactly — the `float` primitive, or
//! a PoT lattice whose products cannot be proven to fit the `i64`
//! accumulator (6 bits) — fails compilation with
//! [`RuntimeError::UnsupportedLayer`] from every entry point. This is the
//! software mirror of the paper's *int-based* PE (Sec. VII-B); there is
//! no float executor to fall back to, and nothing lowers to arithmetic
//! that saturates or wraps.
//!
//! Compilation has one road: every layer becomes the wire-code record an
//! `.antm` artifact persists and that record is lowered to its plan step
//! (`crate::artifact`), whether the record was just encoded from a live
//! model or parsed back from a file.

mod attn;
mod conv;
mod linear;
mod matrix;
mod norm;
mod walk;

pub use attn::PackedAttn;
pub use conv::PackedConv;
pub use linear::PackedLinear;
pub use norm::PlanNorm;
pub use walk::LayerDesc;

pub(crate) use matrix::{act_bound, decode_image, pack_weight_tensor, WeightImage};
pub(crate) use walk::{no_causal_err, SessionFactory};

use crate::artifact::LayerRecord;
use crate::error::RuntimeError;
use crate::kv::{DecodeSession, KvQuant, KvQuantSpec};
use crate::pool::WorkerPool;
use crate::scratch::Scratch;
use ant_nn::model::Sequential;
use ant_tensor::Tensor;
use std::sync::Arc;
use walk::{decode_err, DecodeRole, Phase};

/// One executable step of a compiled plan.
#[derive(Debug, Clone)]
pub enum PlanLayer {
    /// Packed-domain dense layer (boxed: an order of magnitude larger
    /// than the other variants).
    Packed(Box<PackedLinear>),
    /// Packed-domain convolution (integer im2row + GEMM).
    PackedConv(Box<PackedConv>),
    /// Packed-domain attention block (integer Q/K/V, f32 softmax).
    PackedAttn(Box<PackedAttn>),
    /// Packed-domain **causal** attention block (decoder-style): masks
    /// future tokens in the full-sequence forward, is
    /// sequence-length-polymorphic, and supports incremental decode
    /// against a per-session packed `KvCache`
    /// (see [`CompiledPlan::open_session`]).
    PackedCausalAttn(Box<PackedAttn>),
    /// ReLU (free in either domain).
    Relu,
    /// GELU (decode-boundary activation, f32 — paper Fig. 4).
    Gelu,
    /// 2×2 max pooling (monotone, so free in either domain).
    Pool {
        /// Input geometry `(c, h, w)`.
        in_shape: (usize, usize, usize),
    },
    /// Layer normalisation (decode-boundary, f32).
    Norm(Box<PlanNorm>),
}

impl PlanLayer {
    /// Wraps a packed attention block as its plan step: the causal form
    /// carries the default M-ANT KV group codec (override per plan with
    /// [`CompiledPlan::with_kv_quant`]).
    pub(crate) fn attn(p: PackedAttn, causal: bool) -> Result<PlanLayer, RuntimeError> {
        if causal {
            let p = p.into_causal(KvQuantSpec::default())?;
            Ok(PlanLayer::PackedCausalAttn(Box::new(p)))
        } else {
            Ok(PlanLayer::PackedAttn(Box::new(p)))
        }
    }
}

/// An executable quantized inference plan.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    layers: Vec<PlanLayer>,
    in_features: Option<usize>,
    /// The decode pipeline's per-token width; `Some` iff the plan has a
    /// causal attention layer.
    token_dim: Option<usize>,
    threads: usize,
    pool: Arc<WorkerPool>,
    scratch: Scratch,
}

impl CompiledPlan {
    /// Compiles a plan from a model whose quantizable layers already carry
    /// quantizers (e.g. after [`ant_nn::qat::quantize_model`] or via
    /// [`crate::Planner::compile`], which adds the memoizing cache).
    ///
    /// This is the one road from a model to a plan: each layer becomes
    /// the wire-code record an artifact would persist, and the record
    /// lowers exactly as a reloaded one does — so a plan compiled in
    /// process *is* the plan that comes back from disk.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::NotQuantized`] when a quantizable layer has no
    ///   weight/activation quantizers — serving an unquantized model is
    ///   never silently acceptable.
    /// * [`RuntimeError::UnsupportedLayer`] when a layer's selected type
    ///   has no exact integer-domain execution (the `float` primitive,
    ///   6-bit PoT) or its shapes disagree.
    pub fn from_quantized(model: &Sequential) -> Result<Self, RuntimeError> {
        let lower = |layer| LayerRecord::from_layer(layer)?.lower(&[]);
        let layers = model.layers().iter().map(lower);
        Ok(Self::from_plan_layers(layers.collect::<Result<_, _>>()?))
    }

    /// Forwards to [`Self::from_quantized`]; kept for the benchmark
    /// contract.
    #[doc(hidden)]
    pub fn from_quantized_strict(model: &Sequential) -> Result<Self, RuntimeError> {
        Self::from_quantized(model)
    }

    /// Assembles a plan from already-lowered steps.
    pub(crate) fn from_plan_layers(layers: Vec<PlanLayer>) -> Self {
        // Shape-polymorphic prefix layers (relu/gelu/norm) preserve
        // width, so the first layer that pins a width pins the plan's
        // input — a transformer opening with layer norm still reports
        // the attention block's width. The decode pipeline's token width
        // is pinned the same way, by its first dense or causal step.
        let in_features = layers.iter().find_map(|l| l.describe().in_features);
        let token_width = |l: &PlanLayer| {
            let desc = l.describe();
            match desc.decode {
                DecodeRole::Causal(p) => Some(p.dim()),
                DecodeRole::TokenLocal => desc.in_features,
                DecodeRole::No(_) => None,
            }
        };
        let causal = |l: &PlanLayer| matches!(l.describe().decode, DecodeRole::Causal(_));
        let token_dim = if layers.iter().any(causal) {
            layers.iter().find_map(token_width)
        } else {
            None
        };
        let pool = Arc::clone(WorkerPool::global());
        let threads = pool.width();
        CompiledPlan {
            layers,
            in_features,
            token_dim,
            threads,
            pool,
            scratch: Scratch::default(),
        }
    }

    /// Overrides the GEMM parallelism cap (defaults to the pool's width).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Executes this plan on a dedicated [`WorkerPool`] instead of the
    /// process-wide one (e.g. to isolate a latency-critical engine from
    /// other tenants).
    #[must_use]
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> Self {
        self.threads = self.threads.min(pool.width()).max(1);
        self.pool = pool;
        self
    }

    /// The plan's steps.
    pub fn layers(&self) -> &[PlanLayer] {
        &self.layers
    }

    /// Expected input feature count, when some layer pins one (width
    /// propagates backwards through any shape-polymorphic prefix).
    pub fn in_features(&self) -> Option<usize> {
        self.in_features
    }

    /// Number of layers carrying packed wire codes (dense, conv,
    /// attention).
    pub fn packed_layer_count(&self) -> usize {
        let packed = |l: &&PlanLayer| !l.describe().mats.is_empty();
        self.layers.iter().filter(packed).count()
    }

    /// Number of packed compute layers whose wire codes *and* integer
    /// weight images are all borrowed from a mapped artifact rather than
    /// owned by the plan — `packed_layer_count()` for a zero-copy
    /// load, `0` for a compiled or owned-loaded plan.
    pub fn borrowed_layer_count(&self) -> usize {
        let borrowed = |l: &&PlanLayer| l.describe().borrowed();
        self.layers.iter().filter(borrowed).count()
    }

    /// Bytes of packed weight storage (the aligned `⌈n·bits/8⌉` footprint),
    /// versus the f32 bytes the same weights would occupy.
    pub fn weight_bytes(&self) -> (usize, usize) {
        let mut packed = 0usize;
        let mut f32_bytes = 0usize;
        for m in self.layers.iter().flat_map(|l| l.describe().mats) {
            packed += m.weights.size_bytes();
            f32_bytes += m.weights.len() * std::mem::size_of::<f32>();
        }
        (packed, f32_bytes)
    }

    /// Runs a `[batch, features]` tensor through the plan.
    ///
    /// Integer-domain layers are exact, so outputs are deterministic and
    /// independent of how requests were grouped into the batch.
    ///
    /// This is the [`Tensor`] convenience wrapper over
    /// [`Self::forward_rows`]; it allocates the output tensor. Steady-state
    /// serving paths that care about allocation should call
    /// [`Self::forward_rows`] with a reused output buffer instead.
    ///
    /// # Errors
    ///
    /// Propagates shape mismatches.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor, RuntimeError> {
        if self.layers.is_empty() {
            return Ok(x.clone());
        }
        if x.rank() != 2 {
            return Err(RuntimeError::ShapeMismatch {
                expected: self.in_features.unwrap_or(0),
                actual: x.len(),
            });
        }
        let batch = x.dims()[0];
        let mut out = Vec::new();
        self.forward_rows(x.as_slice(), batch, &mut out)?;
        let features = out.len() / batch;
        Ok(Tensor::from_vec(out, &[batch, features]).expect("output length is batch × features"))
    }

    /// Runs `batch` rows (a `[batch, features]` slice) through the plan
    /// into `out` — the allocation-free serving entry point: every
    /// intermediate lives in the plan's [`Scratch`] arena and `out` is
    /// `clear`ed and refilled in place, so once buffers have reached
    /// their high-water marks a call performs **zero heap allocations**.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ShapeMismatch`] when `batch` is zero, `x` is not a
    /// whole number of rows, or a layer's expected feature count
    /// disagrees.
    pub fn forward_rows(
        &mut self,
        x: &[f32],
        batch: usize,
        out: &mut Vec<f32>,
    ) -> Result<(), RuntimeError> {
        if batch == 0 || !x.len().is_multiple_of(batch) {
            return Err(RuntimeError::ShapeMismatch {
                expected: self.in_features.unwrap_or(0),
                actual: x.len(),
            });
        }
        self.walk(x, batch, out, Phase::Full)
    }

    /// Whether this plan contains a causal attention layer — and so
    /// supports [`Self::open_session`] / [`Self::prefill`] /
    /// [`Self::decode_steps`].
    pub fn is_causal(&self) -> bool {
        self.token_dim.is_some()
    }

    /// The per-token feature width of the decode pipeline (the first
    /// width-pinning decode step's input); `None` for non-causal plans.
    pub fn token_dim(&self) -> Option<usize> {
        self.token_dim
    }

    /// Replaces the KV-cache quantization spec on every causal layer
    /// (validating it once — combo members that don't support
    /// `spec.bits` are skipped, an empty candidate set is an error).
    ///
    /// Sessions store data laid out for the codec that wrote them: open
    /// sessions *after* configuring the plan, never across a spec
    /// change.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnsupportedLayer`] for an invalid spec or a plan
    /// with no causal attention layer.
    pub fn with_kv_quant(mut self, spec: KvQuantSpec) -> Result<Self, RuntimeError> {
        let kvq = KvQuant::new(spec)?;
        let mut hit = false;
        for l in &mut self.layers {
            if let PlanLayer::PackedCausalAttn(p) = l {
                p.kv = Some(kvq.clone());
                hit = true;
            }
        }
        if !hit {
            return Err(no_causal_err());
        }
        Ok(self)
    }

    /// Opens a decode session: one fixed-capacity packed KV cache per
    /// causal layer, every byte allocated *here* so the per-step hot
    /// path never touches the allocator. Also validates that every plan
    /// step can execute in the decode phase (token-local or causal).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnsupportedLayer`] when `max_tokens` is zero, the
    /// plan has no causal layer, or a step is not decodable
    /// (convolution/pooling/encoder attention).
    pub fn open_session(&self, max_tokens: usize) -> Result<DecodeSession, RuntimeError> {
        self.session_factory()?.open(max_tokens)
    }

    /// Prefill: runs the whole prompt (a `[1, n·token_dim]` slice)
    /// through the full-sequence causal pipeline, filling `session`'s KV
    /// caches along the way, and returns every token's output row in
    /// `out` (the last row is the next-token state). `session` must be
    /// freshly opened.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ShapeMismatch`] for a prompt that is not a whole
    /// number of token rows, [`RuntimeError::KvCacheFull`] for one
    /// longer than the session capacity, and
    /// [`RuntimeError::UnsupportedLayer`] for a non-causal plan or a
    /// session that already holds tokens.
    pub fn prefill(
        &mut self,
        session: &mut DecodeSession,
        x: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<(), RuntimeError> {
        let dim = self.token_dim().ok_or_else(no_causal_err)?;
        if session.tokens() != 0 {
            return Err(decode_err(format!(
                "prefill needs a fresh session (this one already holds {} tokens)",
                session.tokens()
            )));
        }
        if x.is_empty() || !x.len().is_multiple_of(dim) {
            return Err(RuntimeError::ShapeMismatch {
                expected: dim,
                actual: x.len(),
            });
        }
        if x.len() / dim > session.max_tokens() {
            return Err(RuntimeError::KvCacheFull {
                capacity: session.max_tokens(),
            });
        }
        self.walk(x, 1, out, Phase::Prefill(session))
    }

    /// One batched decode step: each of the `n` sessions contributes the
    /// new token row at the same index of `x` (`[n, token_dim]`), and
    /// `out` receives the `n` output rows. Causal layers append to and
    /// stream from each session's packed KV cache; token-local layers
    /// (dense/ReLU/GELU/norm) run batched over the `n` rows — this is
    /// the coalescing [`crate::Engine`]'s decode batching exploits.
    /// After warmup a step performs **zero heap allocations**
    /// (allocator-enforced by `alloc_steady.rs`).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ShapeMismatch`] for a malformed `x`,
    /// [`RuntimeError::KvCacheFull`] when any session is at capacity,
    /// and [`RuntimeError::UnsupportedLayer`] for non-decodable plans.
    pub fn decode_steps(
        &mut self,
        sessions: &mut [&mut DecodeSession],
        x: &[f32],
        out: &mut Vec<f32>,
    ) -> Result<(), RuntimeError> {
        let dim = self.token_dim().ok_or_else(no_causal_err)?;
        let n = sessions.len();
        if n == 0 || x.len() != n * dim {
            return Err(RuntimeError::ShapeMismatch {
                expected: dim,
                actual: x.len().checked_div(n.max(1)).unwrap_or(0),
            });
        }
        for s in sessions.iter() {
            if s.tokens() >= s.max_tokens() {
                return Err(RuntimeError::KvCacheFull {
                    capacity: s.max_tokens(),
                });
            }
        }
        self.walk(x, n, out, Phase::Decode(sessions))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ant_nn::model::{mlp, small_cnn, tiny_transformer, transformer_block, NetLayer};
    use ant_nn::qat::{quantize_model, QuantSpec};
    use ant_tensor::dist::{sample_tensor, Distribution};

    fn gaussian(dims: &[usize], seed: u64) -> Tensor {
        sample_tensor(
            Distribution::Gaussian {
                mean: 0.0,
                std: 1.0,
            },
            dims,
            seed,
        )
    }

    fn quantized_mlp() -> (Sequential, Tensor) {
        let mut model = mlp(8, 4, 11);
        let calib = gaussian(&[64, 8], 3);
        quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
        (model, calib)
    }

    fn assert_close(plan: &mut CompiledPlan, model: &mut Sequential, x: &Tensor) {
        let reference = model.forward(x).unwrap();
        let out = plan.forward(x).unwrap();
        assert_eq!(out.dims(), reference.dims());
        for (a, b) in out.as_slice().iter().zip(reference.as_slice()) {
            assert!(
                (a - b).abs() <= 1e-4 * (1.0 + b.abs()),
                "packed {a} vs reference {b}"
            );
        }
    }

    #[test]
    fn plan_matches_fake_quantized_forward() {
        let (mut model, calib) = quantized_mlp();
        let mut plan = CompiledPlan::from_quantized(&model).unwrap();
        assert_eq!(plan.packed_layer_count(), 3);
        assert_eq!(plan.in_features(), Some(8));
        let x = calib;
        assert_close(&mut plan, &mut model, &x);
    }

    #[test]
    fn default_plans_pack_byte_images() {
        // The paper's 4-bit selections must land on the i8 microkernel
        // path — that is the whole economics of the narrow kernel.
        let (model, _) = quantized_mlp();
        let plan = CompiledPlan::from_quantized(&model).unwrap();
        for l in plan.layers() {
            if let PlanLayer::Packed(p) = l {
                assert!(
                    matches!(p.mat.image, WeightImage::I8(_)),
                    "{}: expected byte image",
                    p.name()
                );
            }
        }
    }

    #[test]
    fn cnn_plan_runs_packed_end_to_end() {
        let mut model = small_cnn(4, 7);
        let calib = gaussian(&[24, 144], 9);
        quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
        let mut plan = CompiledPlan::from_quantized(&model).unwrap();
        assert_eq!(plan.packed_layer_count(), 3); // conv1, conv2, head
        assert_eq!(plan.in_features(), Some(144));
        assert!(plan
            .layers()
            .iter()
            .any(|l| matches!(l, PlanLayer::PackedConv(_))));
        let x = gaussian(&[5, 144], 13);
        assert_close(&mut plan, &mut model, &x);
    }

    #[test]
    fn transformer_plan_runs_packed_end_to_end() {
        for (mut model, feat) in [
            (transformer_block(4, 8, 3, 21), 32usize),
            (tiny_transformer(4, 8, 3, 23), 32),
        ] {
            let calib = gaussian(&[24, feat], 11);
            quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
            let mut plan = CompiledPlan::from_quantized(&model).unwrap();
            assert!(plan
                .layers()
                .iter()
                .any(|l| matches!(l, PlanLayer::PackedAttn(_))));
            let x = gaussian(&[3, feat], 17);
            assert_close(&mut plan, &mut model, &x);
        }
    }

    #[test]
    fn batched_equals_single_row_execution() {
        let (model, calib) = quantized_mlp();
        let mut plan = CompiledPlan::from_quantized(&model).unwrap();
        let batched = plan.forward(&calib).unwrap();
        let f = calib.dims()[1];
        for i in 0..calib.dims()[0] {
            let row =
                Tensor::from_vec(calib.as_slice()[i * f..(i + 1) * f].to_vec(), &[1, f]).unwrap();
            let single = plan.forward(&row).unwrap();
            assert_eq!(
                single.as_slice(),
                &batched.as_slice()[i * batched.dims()[1]..(i + 1) * batched.dims()[1]],
                "row {i}"
            );
        }
    }

    #[test]
    fn forward_rows_matches_forward_without_allocating_results_anew() {
        let (model, calib) = quantized_mlp();
        let mut plan = CompiledPlan::from_quantized(&model).unwrap();
        let via_tensor = plan.forward(&calib).unwrap();
        let mut out = Vec::new();
        plan.forward_rows(calib.as_slice(), calib.dims()[0], &mut out)
            .unwrap();
        assert_eq!(out, via_tensor.as_slice());
        // Second call reuses the buffer.
        let cap = out.capacity();
        plan.forward_rows(calib.as_slice(), calib.dims()[0], &mut out)
            .unwrap();
        assert_eq!(out.capacity(), cap);
        assert_eq!(out, via_tensor.as_slice());
    }

    #[test]
    fn dedicated_pool_and_thread_caps_are_bit_identical() {
        let mut model = small_cnn(4, 7);
        let calib = gaussian(&[24, 144], 9);
        quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
        let base = CompiledPlan::from_quantized(&model).unwrap();
        let x = gaussian(&[6, 144], 29);
        let want = base.clone().with_threads(1).forward(&x).unwrap();
        for threads in [2, 4, 7] {
            let got = base.clone().with_threads(threads).forward(&x).unwrap();
            assert_eq!(got.as_slice(), want.as_slice(), "threads={threads}");
        }
        let pool = Arc::new(WorkerPool::new(3));
        let got = base.clone().with_pool(pool).forward(&x).unwrap();
        assert_eq!(got.as_slice(), want.as_slice(), "dedicated pool");
    }

    #[test]
    fn packed_weights_decode_to_effective_weights() {
        let (model, _) = quantized_mlp();
        let plan = CompiledPlan::from_quantized(&model).unwrap();
        for (layer, plan_layer) in model.layers().iter().zip(plan.layers()) {
            if let (NetLayer::Dense(d), PlanLayer::Packed(p)) = (layer, plan_layer) {
                let expected = d.effective_weight().unwrap();
                let decoded = p.weights().decode_all().unwrap();
                assert_eq!(p.weights().dims(), d.weight().dims());
                for (a, b) in decoded.iter().zip(expected.as_slice()) {
                    assert!((a - b).abs() <= 1e-6 * (1.0 + b.abs()), "{a} vs {b}");
                }
            }
        }
    }

    #[test]
    fn norm_validates_per_row_not_per_buffer() {
        // dim=2 over [batch=2, features=3]: the total length (6) is a
        // multiple of dim but each row is not — groups would straddle
        // sample boundaries. Must error, not silently normalize.
        let norm = PlanNorm::from_parts("ln".into(), vec![1.0, 1.0], vec![0.0, 0.0], 1e-5);
        let mut plan = CompiledPlan::from_plan_layers(vec![PlanLayer::Norm(Box::new(norm))]);
        assert!(matches!(
            plan.forward(&Tensor::zeros(&[2, 3])),
            Err(RuntimeError::ShapeMismatch {
                expected: 2,
                actual: 3
            })
        ));
        // Valid per-row shape still works.
        assert!(plan.forward(&Tensor::zeros(&[2, 4])).is_ok());
    }

    #[test]
    fn unquantized_dense_is_rejected() {
        let model = mlp(8, 4, 11);
        assert!(matches!(
            CompiledPlan::from_quantized(&model),
            Err(RuntimeError::NotQuantized { .. })
        ));
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let (model, _) = quantized_mlp();
        let mut plan = CompiledPlan::from_quantized(&model).unwrap();
        assert!(matches!(
            plan.forward(&Tensor::zeros(&[2, 5])),
            Err(RuntimeError::ShapeMismatch {
                expected: 8,
                actual: 5
            })
        ));
    }

    #[test]
    fn weight_bytes_reports_compression() {
        let (model, _) = quantized_mlp();
        let plan = CompiledPlan::from_quantized(&model).unwrap();
        let (packed, f32b) = plan.weight_bytes();
        assert!(packed > 0);
        // 4-bit codes: 8x smaller than f32 (up to rounding per layer).
        assert!(packed * 7 <= f32b, "packed {packed} vs f32 {f32b}");
    }

    #[test]
    fn conv_and_attn_weights_count_toward_weight_bytes() {
        let mut model = small_cnn(4, 3);
        let calib = gaussian(&[16, 144], 5);
        quantize_model(&mut model, &calib, QuantSpec::default()).unwrap();
        let plan = CompiledPlan::from_quantized(&model).unwrap();
        let (packed, f32b) = plan.weight_bytes();
        // conv1 (8·1·3·3) + conv2 (16·8·3·3) + head weights all counted.
        let total_weights = 8 * 9 + 16 * 8 * 9 + 4 * 144;
        assert_eq!(f32b, total_weights * 4);
        assert!(packed > 0 && packed * 7 <= f32b);
    }
}
