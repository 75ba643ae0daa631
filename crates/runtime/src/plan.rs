//! Plan compilation: from a quantized [`Sequential`] to an executable
//! packed-domain plan.
//!
//! A [`CompiledPlan`] is the inference-side artifact of ANT quantization:
//! every compute layer's weights are stored as packed wire codes
//! ([`PackedTensor`], the paper's fixed-length aligned representation,
//! Table I) together with a per-layer decode LUT and scales. At compile
//! time each weight matrix is decoded **once** through the integer LUT
//! ([`ant_core::Codec::decode_lut_int`]) into the narrowest operand image
//! that holds its lattice — `i8` for every ≤8-bit paper type, `i16` for
//! wide flint magnitudes, plain `i32` rows as the general fallback — and
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
//!   Fig. 4), and the output projection as a mixed-domain GEMM over the
//!   LUT-decoded weights with the scale applied at the boundary.
//!
//! Shape-polymorphic layers (ReLU, GELU, max-pool, layer norm) carry no
//! wire codes and execute the same arithmetic as their reference
//! implementations, so CNN→head and Transformer pipelines compile without
//! fallback. Only layers whose selected type has no integer decoder (the
//! `float` primitive) fall back to the fake-quantized reference path —
//! or fail compilation under [`CompiledPlan::from_quantized_strict`].

use crate::error::RuntimeError;
use crate::gemm::{dequant_into, im2row, int_gemm_pooled, Epilogue, PanelGemm};
use crate::kv::{DecodeSession, KvCache, KvHalf, KvQuant, KvQuantSpec};
use crate::obs::{self, LayerKind};
use crate::pool::WorkerPool;
use crate::scratch::{grab, Scratch};
use ant_core::pack::PackedTensor;
use ant_core::store::PackedStore;
use ant_core::{DataType, PrimitiveType, Quantizer, TensorQuantizer};
use ant_nn::attention::{layer_norm_group, softmax_rows_in_place, Attention, LayerNorm};
use ant_nn::gelu::gelu;
use ant_nn::layer::{Conv2d, Dense, Layer as _};
use ant_nn::model::{NetLayer, Sequential};
use ant_tensor::linalg::Conv2dGeometry;
use ant_tensor::Tensor;
use std::sync::Arc;

/// Specialized integer quantization of input activations. Every variant
/// computes exactly `codec.snap(x / s)` — the fake-quantization semantics —
/// but the common primitives avoid the generic snap dispatch per element:
/// `int` is a round-and-clamp, and `flint` (whose snap rounds to an integer
/// magnitude first, Algorithm 1) becomes a table lookup over the pre-imaged
/// magnitudes.
#[derive(Debug, Clone)]
enum ActQuant {
    /// `int`: round then clamp.
    IntRound {
        /// Lattice bounds in normalized units.
        lo: f32,
        /// Upper lattice bound.
        hi: f32,
    },
    /// `flint`: LUT over rounded magnitudes, sign reapplied.
    FlintLut {
        /// `lut[m] = decode(encode_int(m))` for every integer magnitude.
        lut: Vec<i32>,
        /// Largest magnitude (`flint.max_value()`).
        max: f32,
        /// Whether negative inputs carry a sign (vs clamping to zero).
        signed: bool,
    },
    /// Fallback: the codec's generic snap (e.g. `PoT`, whose snap is
    /// nearest-value on the continuous input and cannot be pre-rounded).
    Snap,
}

impl ActQuant {
    fn for_quantizer(q: &Quantizer) -> ActQuant {
        let codec = q.codec();
        let dt = codec.dtype();
        match dt.primitive() {
            PrimitiveType::Int => {
                let hi = codec.max_value();
                let lo = if dt.is_signed() { -hi } else { 0.0 };
                ActQuant::IntRound { lo, hi }
            }
            PrimitiveType::Flint => {
                let max = codec.max_value();
                let lut: Vec<i32> = (0..=max as usize)
                    .map(|m| codec.snap(m as f32) as i32)
                    .collect();
                ActQuant::FlintLut {
                    lut,
                    max,
                    signed: dt.is_signed(),
                }
            }
            _ => ActQuant::Snap,
        }
    }

    /// Quantizes one normalized value to its integer lattice point.
    #[inline]
    fn apply(&self, v: f32, codec: &ant_core::Codec) -> i32 {
        match self {
            ActQuant::IntRound { lo, hi } => v.round().clamp(*lo, *hi) as i32,
            ActQuant::FlintLut { lut, max, signed } => {
                if *signed {
                    let q = lut[v.abs().round().min(*max) as usize];
                    if v < 0.0 {
                        -q
                    } else {
                        q
                    }
                } else {
                    lut[v.round().max(0.0).min(*max) as usize]
                }
            }
            ActQuant::Snap => codec.snap(v) as i32,
        }
    }

    /// Quantizes a whole slice of real activations onto the integer
    /// lattice at operand width `T`, reusing `out`'s capacity (the
    /// zero-allocation steady state). The variant dispatch is hoisted out
    /// of the element loop so the common `int` path is a straight
    /// divide/round/clamp stream the autovectorizer handles; every
    /// element computes exactly what [`ActQuant::apply`] computes.
    fn apply_all_into<T: ActInt>(
        &self,
        x: &[f32],
        scale: f32,
        codec: &ant_core::Codec,
        out: &mut Vec<T>,
    ) {
        if out.len() != x.len() {
            out.clear();
            out.resize(x.len(), T::from_act(0));
        }
        match self {
            ActQuant::IntRound { lo, hi } => {
                let (lo, hi) = (*lo, *hi);
                #[cfg(target_arch = "x86_64")]
                if crate::gemm::avx2_available() {
                    // SAFETY: gated on runtime AVX2 detection. Same Rust
                    // code as below — IEEE divide/round/clamp semantics
                    // are ISA-independent, so results are bit-identical;
                    // compiling with AVX2 enabled just lets the
                    // autovectorizer use 8-wide divides.
                    unsafe { int_round_all_avx2(x, scale, lo, hi, out) };
                    return;
                }
                for (dst, &v) in out.iter_mut().zip(x) {
                    *dst = T::from_act((v / scale).round().clamp(lo, hi) as i32);
                }
            }
            _ => {
                for (dst, &v) in out.iter_mut().zip(x) {
                    *dst = T::from_act(self.apply(v / scale, codec));
                }
            }
        }
    }
}

/// The `int` activation-quantization loop compiled with AVX2 enabled
/// (runtime-dispatched): element-for-element the same arithmetic as the
/// scalar path in [`ActQuant::apply_all_into`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn int_round_all_avx2<T: ActInt>(x: &[f32], scale: f32, lo: f32, hi: f32, out: &mut [T]) {
    for (dst, &v) in out.iter_mut().zip(x) {
        *dst = T::from_act((v / scale).round().clamp(lo, hi) as i32);
    }
}

/// Integer widths activation buffers come in (the microkernel operand
/// widths plus the general `i32`).
trait ActInt: Copy {
    fn from_act(v: i32) -> Self;
}

impl ActInt for i8 {
    #[inline(always)]
    fn from_act(v: i32) -> i8 {
        debug_assert!((i8::MIN as i32..=i8::MAX as i32).contains(&v));
        v as i8
    }
}

impl ActInt for i16 {
    #[inline(always)]
    fn from_act(v: i32) -> i16 {
        debug_assert!((i16::MIN as i32..=i16::MAX as i32).contains(&v));
        v as i16
    }
}

impl ActInt for i32 {
    #[inline(always)]
    fn from_act(v: i32) -> i32 {
        v
    }
}

/// Narrow-copies an `i32` activation master buffer into operand width
/// `T`, reusing capacity.
fn narrow_acts<T: ActInt>(src: &[i32], out: &mut Vec<T>) {
    out.clear();
    out.extend(src.iter().map(|&v| T::from_act(v)));
}

/// A raw `*mut f32` crossing into pool tasks; tasks write disjoint
/// regions, which is what makes the shared mutable access sound.
#[derive(Clone, Copy)]
struct ShareMut(*mut f32);
unsafe impl Send for ShareMut {}
unsafe impl Sync for ShareMut {}

/// The decode-once integer image of a weight matrix, at the narrowest
/// width its lattice (and the layer's activation lattice) permits.
///
/// `i8` covers every ≤8-bit paper type (Table I magnitudes top out at 64,
/// `int8` at ±128); wide flint magnitudes (`flint8u` reaches 16384) take
/// the `i16` panels; anything wider — or a non-integral lattice that
/// slipped past strict mode — executes on plain `i32` rows. Panel images
/// are pre-packed for the microkernel at compile time (or borrowed
/// verbatim from a mapped v2 artifact's panel section), so serving never
/// re-lays weights out.
#[derive(Debug, Clone)]
pub(crate) enum WeightImage {
    /// Byte panels for the microkernel (quarter traffic, double lanes).
    I8(PanelGemm<i8>),
    /// Halfword panels (wide flint magnitudes).
    I16(PanelGemm<i16>),
    /// Plain `[out, in]` rows for the general kernel.
    I32(PackedStore<i32>),
}

impl WeightImage {
    /// Whether the image data is borrowed from a mapped artifact rather
    /// than owned by this plan.
    pub(crate) fn is_borrowed(&self) -> bool {
        match self {
            WeightImage::I8(pg) => pg.is_borrowed(),
            WeightImage::I16(pg) => pg.is_borrowed(),
            WeightImage::I32(rows) => rows.is_borrowed(),
        }
    }

    /// Bytes per decoded weight element at this image's execution width
    /// (telemetry: sizes the streamed-weight traffic of a GEMM pass).
    pub(crate) fn elem_bytes(&self) -> usize {
        match self {
            WeightImage::I8(_) => 1,
            WeightImage::I16(_) => 2,
            WeightImage::I32(_) => 4,
        }
    }
}

/// One weight matrix compiled to the packed integer domain: wire codes,
/// the LUT-decoded integer image in microkernel layout (decode once,
/// execute many) and one scale per output row.
#[derive(Debug, Clone)]
struct PackedMatrix {
    /// Packed wire codes, shaped (`[out, in]` for dense/attention
    /// projections, `[co, ci, kh, kw]` for conv kernels).
    weights: PackedTensor,
    /// LUT-decoded integer weights at the execution width.
    image: WeightImage,
    /// Per-output-row scales (broadcast when the quantizer was
    /// per-tensor).
    w_scales: Vec<f32>,
    out: usize,
    inp: usize,
}

/// Encodes a `[out, inp]`-flattened f32 weight onto packed wire codes
/// under `wq`, attaching `dims` as the logical shape. Shared by plan
/// compilation and artifact export so both produce bit-identical code
/// streams for the same `(weight, quantizer)` pair.
pub(crate) fn pack_weight_tensor(
    w: &[f32],
    out: usize,
    inp: usize,
    wq: &TensorQuantizer,
    dims: &[usize],
) -> Result<PackedTensor, RuntimeError> {
    let codec = wq.codec();
    let scales = wq.scales();
    // Broadcast a per-tensor scale across output rows.
    let w_scales: Vec<f32> = if scales.len() == 1 {
        vec![scales[0]; out]
    } else {
        scales.to_vec()
    };
    if w_scales.len() != out {
        return Err(RuntimeError::Quant(ant_core::QuantError::ChannelMismatch {
            expected: out,
            actual: w_scales.len(),
        }));
    }
    let mut codes = Vec::with_capacity(out * inp);
    for o in 0..out {
        let s = w_scales[o];
        for i in 0..inp {
            codes.push(codec.encode(w[o * inp + i] / s));
        }
    }
    Ok(PackedTensor::pack_with_dims(
        wq.dtype(),
        &codes,
        scales.to_vec(),
        dims,
    )?)
}

/// The layer's bound on quantized-activation magnitudes, when the
/// activation lattice is integral (it is for every int/PoT/flint type
/// whose values fit `i32`): what fixes the microkernel's widening
/// cadence and qualifies the narrow operand widths.
pub(crate) fn act_bound(act: &Quantizer) -> Option<i64> {
    let codec = act.codec();
    codec.decode_lut_int()?;
    Some(codec.max_value() as i64)
}

impl PackedMatrix {
    /// Encodes a `[out, inp]`-flattened weight onto wire codes under `wq`,
    /// attaching `dims` as the packed tensor's logical shape.
    fn pack(
        w: &[f32],
        out: usize,
        inp: usize,
        wq: &TensorQuantizer,
        dims: &[usize],
        act_max: Option<i64>,
    ) -> Result<Self, RuntimeError> {
        let weights = pack_weight_tensor(w, out, inp, wq, dims)?;
        Self::from_packed(weights, act_max)
    }

    /// Reconstructs the executable matrix straight from an existing packed
    /// tensor — the construction-from-wire-codes path used when a plan is
    /// rebuilt from a saved artifact. No floats are re-encoded: the wire
    /// codes *are* the weights, so a reloaded plan is bit-identical to the
    /// plan that was saved. `act_max` is the activation-lattice magnitude
    /// bound (see [`act_bound`]); `None` keeps the general `i32` image.
    fn from_packed(weights: PackedTensor, act_max: Option<i64>) -> Result<Self, RuntimeError> {
        let (out, inp, w_scales) = Self::validate_shape(&weights)?;
        let image = decode_image(&weights, act_max)?;
        Ok(PackedMatrix {
            weights,
            image,
            w_scales,
            out,
            inp,
        })
    }

    /// Reconstructs the executable matrix from wire codes *and* an
    /// already-built integer image — the zero-copy path used by
    /// [`crate::artifact::MappedArtifact`], where the image bytes are
    /// borrowed straight from a mapped v2 panel section. The image's
    /// shape is validated against the wire codes' dims; its *contents*
    /// are trusted here (lying panel bytes produce wrong results, not
    /// UB) and cross-checked against a fresh decode by `antc verify`.
    pub(crate) fn from_packed_with_image(
        weights: PackedTensor,
        act_max: Option<i64>,
        image: WeightImage,
    ) -> Result<Self, RuntimeError> {
        let (out, inp, w_scales) = Self::validate_shape(&weights)?;
        let shape_ok = match &image {
            WeightImage::I8(pg) => {
                (pg.n(), pg.k()) == (out, inp)
                    && Some(pg.a_max()) == act_max.filter(|&am| am <= i8::MAX as i64)
            }
            WeightImage::I16(pg) => (pg.n(), pg.k()) == (out, inp) && Some(pg.a_max()) == act_max,
            WeightImage::I32(rows) => rows.len() == out * inp,
        };
        if !shape_ok {
            return Err(RuntimeError::Quant(ant_core::QuantError::ChannelMismatch {
                expected: out * inp,
                actual: match &image {
                    WeightImage::I8(pg) => pg.n() * pg.k(),
                    WeightImage::I16(pg) => pg.n() * pg.k(),
                    WeightImage::I32(rows) => rows.len(),
                },
            }));
        }
        Ok(PackedMatrix {
            weights,
            image,
            w_scales,
            out,
            inp,
        })
    }

    /// Validates the packed tensor's dims/scales for matrix execution and
    /// returns `(out, inp, broadcast w_scales)`.
    fn validate_shape(weights: &PackedTensor) -> Result<(usize, usize, Vec<f32>), RuntimeError> {
        let dims = weights.dims();
        if dims.len() < 2 {
            return Err(RuntimeError::Quant(ant_core::QuantError::ChannelMismatch {
                expected: 2,
                actual: dims.len(),
            }));
        }
        let out = dims[0];
        let inp: usize = dims[1..].iter().product();
        let scales = weights.scales();
        let w_scales: Vec<f32> = if scales.len() == 1 {
            vec![scales[0]; out]
        } else {
            scales.to_vec()
        };
        if w_scales.len() != out {
            return Err(RuntimeError::Quant(ant_core::QuantError::ChannelMismatch {
                expected: out,
                actual: w_scales.len(),
            }));
        }
        Ok((out, inp, w_scales))
    }

    /// The decoded weight rows as f32 lattice values (`[out, inp]`,
    /// unscaled) — the operand of attention's mixed-domain output
    /// projection.
    fn rows_f32(&self) -> Vec<f32> {
        decode_rows_f32(&self.weights)
    }

    /// Quantizes the f32 input onto the activation lattice at this
    /// image's operand width, into the matching arena buffer.
    fn quantize_acts(
        &self,
        x: &[f32],
        act: &Quantizer,
        act_quant: &ActQuant,
        ws: &mut LayerScratch<'_>,
    ) {
        let (s_a, codec) = (act.scale(), act.codec());
        match &self.image {
            WeightImage::I8(_) => act_quant.apply_all_into(x, s_a, codec, ws.act_i8),
            WeightImage::I16(_) => act_quant.apply_all_into(x, s_a, codec, ws.act_i16),
            WeightImage::I32(_) => act_quant.apply_all_into(x, s_a, codec, ws.act_i32),
        }
    }

    /// Integer GEMM `[m, inp] · selfᵀ` over already-quantized activations,
    /// dequantized through `epi` into `out`. The caller supplies the
    /// activations at every width it has (only this image's width is
    /// read). Panel images fuse the epilogue into the microkernel's
    /// writeback; `acc` is only grown for reductions longer than one
    /// cadence block and for `i32`-row images. Buffers arrive as explicit
    /// arguments so the caller can keep the rest of the arena borrowed.
    #[allow(clippy::too_many_arguments)]
    fn project(
        &self,
        a8: &[i8],
        a16: &[i16],
        a32: &[i32],
        m: usize,
        epi: &Epilogue<'_>,
        out: &mut [f32],
        acc: &mut Vec<i64>,
        pool: &WorkerPool,
        threads: usize,
    ) {
        match &self.image {
            WeightImage::I8(pg) => pg.matmul_dequant(a8, m, epi, out, acc, pool, threads),
            WeightImage::I16(pg) => pg.matmul_dequant(a16, m, epi, out, acc, pool, threads),
            WeightImage::I32(rows) => {
                let acc = grab(acc, m * self.out, 0);
                int_gemm_pooled(a32, rows, m, self.inp, self.out, acc, pool, threads);
                dequant_into(acc, m, epi, out);
            }
        }
    }

    /// The combined per-output dequantization scales for a fixed
    /// activation scale: `deq[o] = a_scale · w_scales[o]`, precomputed
    /// once at plan compile time so the per-request dequant loop is a
    /// straight multiply-add stream.
    fn deq_scales(&self, a_scale: f32) -> Vec<f32> {
        self.w_scales.iter().map(|&w| a_scale * w).collect()
    }
}

/// Decodes a packed tensor's wire codes into the plan-domain integer
/// image at the narrowest operand width the weight *and* activation
/// lattices allow, pre-packing microkernel panels for it. Shared by
/// plan compilation and the v2 artifact writer so the panel bytes the
/// writer serializes are bit-identical to the ones a fresh compile
/// would build.
pub(crate) fn decode_image(
    weights: &PackedTensor,
    act_max: Option<i64>,
) -> Result<WeightImage, RuntimeError> {
    let dims = weights.dims();
    let out = dims[0];
    let inp: usize = dims[1..].iter().product();
    let codec = ant_core::Codec::new(weights.dtype())?;
    // Decode once through the integer LUT when the lattice is
    // integral (every packed-domain type); fall back to the f32 LUT
    // cast otherwise — that path only executes behind a Fallback
    // anyway.
    let (w_int, integral): (Vec<i32>, bool) = match codec.decode_lut_int() {
        Some(lut) => (
            weights.codes().iter().map(|&c| lut[c as usize]).collect(),
            true,
        ),
        None => {
            let lut = codec.decode_lut();
            (
                weights
                    .codes()
                    .iter()
                    .map(|&c| lut[c as usize] as i32)
                    .collect(),
                false,
            )
        }
    };
    if integral {
        if let Some(am) = act_max {
            if am <= i8::MAX as i64 {
                if let Some(w8) = w_int
                    .iter()
                    .map(|&v| i8::try_from(v).ok())
                    .collect::<Option<Vec<i8>>>()
                {
                    return Ok(WeightImage::I8(PanelGemm::pack(&w8, out, inp, am)));
                }
            }
            if am <= i16::MAX as i64 {
                if let Some(w16) = w_int
                    .iter()
                    .map(|&v| i16::try_from(v).ok())
                    .collect::<Option<Vec<i16>>>()
                {
                    let b_max = w16.iter().map(|&v| (v as i64).abs()).max().unwrap_or(0);
                    // A cadence too short to amortize the widening
                    // fold means the magnitudes are effectively wide:
                    // take the general path instead.
                    if crate::gemm::k_block_for(am, b_max) >= 16 {
                        return Ok(WeightImage::I16(PanelGemm::pack(&w16, out, inp, am)));
                    }
                }
            }
        }
    }
    Ok(WeightImage::I32(PackedStore::from_vec(w_int)))
}

/// Decodes a packed tensor's wire codes to f32 lattice values (exact,
/// independent of the execution image width). Shared by attention's
/// output projection and the v2 artifact writer.
pub(crate) fn decode_rows_f32(weights: &PackedTensor) -> Vec<f32> {
    let lut = ant_core::Codec::new(weights.dtype())
        .expect("codec validated at construction")
        .decode_lut();
    weights.codes().iter().map(|&c| lut[c as usize]).collect()
}

/// Transposes a square `[n, n]` row-major matrix.
pub(crate) fn transpose(m: &[f32], n: usize) -> Vec<f32> {
    let mut t = vec![0f32; n * n];
    for r in 0..n {
        for c in 0..n {
            t[c * n + r] = m[r * n + c];
        }
    }
    t
}

/// The slice of the scratch arena (plus scheduling context) a packed
/// layer borrows for one forward step. Pipeline buffers (`ping`/`pong`)
/// stay with the caller; everything else is here, split-borrowed so a
/// layer can hold several at once.
struct LayerScratch<'a> {
    pool: &'a WorkerPool,
    threads: usize,
    act_i8: &'a mut Vec<i8>,
    act_i16: &'a mut Vec<i16>,
    act_i32: &'a mut Vec<i32>,
    rows_i8: &'a mut Vec<i8>,
    rows_i16: &'a mut Vec<i16>,
    rows_i32: &'a mut Vec<i32>,
    acc: &'a mut Vec<i64>,
    q: &'a mut Vec<f32>,
    k: &'a mut Vec<f32>,
    v: &'a mut Vec<f32>,
    scores: &'a mut Vec<f32>,
    ctx: &'a mut Vec<f32>,
    kv_row: &'a mut Vec<f32>,
    kv_codes: &'a mut Vec<u8>,
}

/// Rejects types the integer-domain engine cannot execute (the `float`
/// primitive has no int-based wire decoder — paper Sec. V-B ships the
/// int-based PE precisely to avoid it).
fn check_int_domain(layer: &str, dtypes: &[DataType]) -> Result<(), RuntimeError> {
    for &dt in dtypes {
        if dt.primitive() == PrimitiveType::Float {
            return Err(RuntimeError::UnsupportedType {
                layer: layer.to_string(),
                dtype: dt,
            });
        }
    }
    Ok(())
}

/// Validates a `[batch, features]` slice against an expected feature
/// count.
fn check_features(x: &[f32], batch: usize, expected: usize) -> Result<(), RuntimeError> {
    if batch == 0 || x.len() != batch * expected {
        return Err(RuntimeError::ShapeMismatch {
            expected,
            actual: x.len().checked_div(batch).unwrap_or(0),
        });
    }
    Ok(())
}

/// A dense layer compiled to the packed integer domain.
#[derive(Debug, Clone)]
pub struct PackedLinear {
    name: String,
    mat: PackedMatrix,
    bias: Vec<f32>,
    /// Precomputed `act.scale() · w_scales[o]` dequant scales.
    deq: Vec<f32>,
    /// Input-activation quantizer (per-tensor).
    act: Quantizer,
    /// Specialized integer activation-quantization path.
    act_quant: ActQuant,
}

impl PackedLinear {
    /// Builds the layer directly from saved wire codes (artifact reload
    /// path): `weights` must be a `[out, in]`-shaped pack and `bias` a
    /// length-`out` vector.
    pub(crate) fn from_parts(
        name: String,
        weights: PackedTensor,
        bias: Vec<f32>,
        act: Quantizer,
    ) -> Result<Self, RuntimeError> {
        Self::build(name, weights, bias, act, None)
    }

    /// Like [`Self::from_parts`], but with a pre-built weight image
    /// (borrowed from a mapped v2 artifact) instead of decoding one.
    pub(crate) fn from_parts_with_image(
        name: String,
        weights: PackedTensor,
        bias: Vec<f32>,
        act: Quantizer,
        image: WeightImage,
    ) -> Result<Self, RuntimeError> {
        Self::build(name, weights, bias, act, Some(image))
    }

    fn build(
        name: String,
        weights: PackedTensor,
        bias: Vec<f32>,
        act: Quantizer,
        image: Option<WeightImage>,
    ) -> Result<Self, RuntimeError> {
        check_int_domain(&name, &[weights.dtype(), act.dtype()])?;
        let bound = act_bound(&act);
        let mat = match image {
            Some(img) => PackedMatrix::from_packed_with_image(weights, bound, img)?,
            None => PackedMatrix::from_packed(weights, bound)?,
        };
        if bias.len() != mat.out {
            return Err(RuntimeError::ShapeMismatch {
                expected: mat.out,
                actual: bias.len(),
            });
        }
        let deq = mat.deq_scales(act.scale());
        Ok(PackedLinear {
            name,
            mat,
            bias,
            deq,
            act_quant: ActQuant::for_quantizer(&act),
            act,
        })
    }

    /// Layer name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The packed weight tensor (`[out, in]`).
    pub fn weights(&self) -> &PackedTensor {
        &self.mat.weights
    }

    /// Whether the wire codes and the integer image are both borrowed
    /// from a mapped artifact (the v2 zero-copy load path).
    pub fn weights_borrowed(&self) -> bool {
        self.mat.weights.is_borrowed() && self.mat.image.is_borrowed()
    }

    /// The weight data type.
    pub fn dtype(&self) -> DataType {
        self.mat.weights.dtype()
    }

    /// The activation quantizer.
    pub fn activation(&self) -> &Quantizer {
        &self.act
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.mat.inp
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.mat.out
    }

    /// Executes `y = dequant(int_gemm(quant(x), W_codes)) + b` on a
    /// `[batch, in]` slice, writing a `[batch, out]` slice.
    fn forward_rows(
        &self,
        x: &[f32],
        batch: usize,
        ws: &mut LayerScratch<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(), RuntimeError> {
        check_features(x, batch, self.mat.inp)?;
        self.mat.quantize_acts(x, &self.act, &self.act_quant, ws);
        let out = grab(out, batch * self.mat.out, 0.0);
        let epi = Epilogue {
            deq: &self.deq,
            bias: Some(&self.bias),
            rows_per_sample: 1,
        };
        self.mat.project(
            ws.act_i8, ws.act_i16, ws.act_i32, batch, &epi, out, ws.acc, ws.pool, ws.threads,
        );
        Ok(())
    }
}

/// A 2-D convolution compiled to the packed integer domain: the quantized
/// input is lowered by an *integer* im2row at the layer's operand width
/// and the kernel runs through the same weight-stationary GEMM as dense
/// layers, with one scale per output channel (paper Sec. V: CONV and FC
/// share the PE array after lowering).
#[derive(Debug, Clone)]
pub struct PackedConv {
    name: String,
    /// Kernel as `[co, ci·kh·kw]` with packed shape `[co, ci, kh, kw]`.
    mat: PackedMatrix,
    bias: Vec<f32>,
    /// Precomputed `act.scale() · w_scales[c]` dequant scales.
    deq: Vec<f32>,
    act: Quantizer,
    act_quant: ActQuant,
    in_shape: (usize, usize, usize),
    geo: Conv2dGeometry,
    out_shape: (usize, usize, usize),
}

impl PackedConv {
    /// Builds the convolution directly from saved wire codes (artifact
    /// reload path): `weights` must be a `[co, ci, kh, kw]`-shaped pack
    /// consistent with `in_shape` and `geo`.
    pub(crate) fn from_parts(
        name: String,
        weights: PackedTensor,
        bias: Vec<f32>,
        act: Quantizer,
        in_shape: (usize, usize, usize),
        geo: Conv2dGeometry,
    ) -> Result<Self, RuntimeError> {
        Self::build(name, weights, bias, act, in_shape, geo, None)
    }

    /// Like [`Self::from_parts`], but with a pre-built weight image
    /// (borrowed from a mapped v2 artifact) instead of decoding one.
    pub(crate) fn from_parts_with_image(
        name: String,
        weights: PackedTensor,
        bias: Vec<f32>,
        act: Quantizer,
        in_shape: (usize, usize, usize),
        geo: Conv2dGeometry,
        image: WeightImage,
    ) -> Result<Self, RuntimeError> {
        Self::build(name, weights, bias, act, in_shape, geo, Some(image))
    }

    fn build(
        name: String,
        weights: PackedTensor,
        bias: Vec<f32>,
        act: Quantizer,
        in_shape: (usize, usize, usize),
        geo: Conv2dGeometry,
        image: Option<WeightImage>,
    ) -> Result<Self, RuntimeError> {
        check_int_domain(&name, &[weights.dtype(), act.dtype()])?;
        let dims = weights.dims().to_vec();
        if dims.len() != 4 || dims[1] != in_shape.0 || dims[2] != geo.kh || dims[3] != geo.kw {
            return Err(RuntimeError::UnsupportedLayer {
                layer: name,
                reason: format!(
                    "kernel shape {dims:?} inconsistent with input {in_shape:?} / geometry {geo:?}"
                ),
            });
        }
        let (oh, ow) = match (
            geo.out_extent(in_shape.1, geo.kh),
            geo.out_extent(in_shape.2, geo.kw),
        ) {
            (Some(oh), Some(ow)) => (oh, ow),
            _ => {
                return Err(RuntimeError::UnsupportedLayer {
                    layer: name,
                    reason: format!(
                        "kernel {0}x{1} does not fit input {in_shape:?}",
                        geo.kh, geo.kw
                    ),
                })
            }
        };
        let bound = act_bound(&act);
        let mat = match image {
            Some(img) => PackedMatrix::from_packed_with_image(weights, bound, img)?,
            None => PackedMatrix::from_packed(weights, bound)?,
        };
        if bias.len() != mat.out {
            return Err(RuntimeError::ShapeMismatch {
                expected: mat.out,
                actual: bias.len(),
            });
        }
        let out_shape = (dims[0], oh, ow);
        let deq = mat.deq_scales(act.scale());
        Ok(PackedConv {
            name,
            mat,
            bias,
            deq,
            act_quant: ActQuant::for_quantizer(&act),
            act,
            in_shape,
            geo,
            out_shape,
        })
    }

    /// Layer name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The packed kernel (`[co, ci, kh, kw]`).
    pub fn weights(&self) -> &PackedTensor {
        &self.mat.weights
    }

    /// Whether the wire codes and the integer image are both borrowed
    /// from a mapped artifact (the v2 zero-copy load path).
    pub fn weights_borrowed(&self) -> bool {
        self.mat.weights.is_borrowed() && self.mat.image.is_borrowed()
    }

    /// The kernel data type.
    pub fn dtype(&self) -> DataType {
        self.mat.weights.dtype()
    }

    /// The activation quantizer.
    pub fn activation(&self) -> &Quantizer {
        &self.act
    }

    /// Input geometry `(ci, h, w)`.
    pub fn in_shape(&self) -> (usize, usize, usize) {
        self.in_shape
    }

    /// Output geometry `(co, oh, ow)`.
    pub fn out_shape(&self) -> (usize, usize, usize) {
        self.out_shape
    }

    /// Kernel/stride/padding geometry.
    pub fn geometry(&self) -> Conv2dGeometry {
        self.geo
    }

    /// Flattened input feature count.
    pub fn in_features(&self) -> usize {
        let (c, h, w) = self.in_shape;
        c * h * w
    }

    /// Flattened output feature count.
    pub fn out_features(&self) -> usize {
        let (c, h, w) = self.out_shape;
        c * h * w
    }

    /// Executes the convolution on a `[batch, ci·h·w]` slice entirely in
    /// the integer domain: quantize → im2row → integer GEMM → dequantize,
    /// all at the layer's operand width.
    fn forward_rows(
        &self,
        x: &[f32],
        batch: usize,
        ws: &mut LayerScratch<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(), RuntimeError> {
        let feat = self.in_features();
        check_features(x, batch, feat)?;
        let (co, oh, ow) = self.out_shape;
        let pixels = oh * ow;
        // One big GEMM over every output pixel of every sample: rows are
        // receptive fields, so weight panels stream once per row tile.
        // Quantization and the im2row lowering happen directly at the
        // layer's operand width.
        self.mat.quantize_acts(x, &self.act, &self.act_quant, ws);
        match &self.mat.image {
            WeightImage::I8(_) => self.lower(ws.act_i8, batch, ws.rows_i8),
            WeightImage::I16(_) => self.lower(ws.act_i16, batch, ws.rows_i16),
            WeightImage::I32(_) => self.lower(ws.act_i32, batch, ws.rows_i32),
        }
        // Dequantize + bias land straight in the [batch, co·oh·ow]
        // activation layout: each sample's `pixels` GEMM rows are written
        // channel-major by the epilogue, no separate scatter pass.
        let ov = grab(out, batch * co * pixels, 0.0);
        let epi = Epilogue {
            deq: &self.deq,
            bias: Some(&self.bias),
            rows_per_sample: pixels,
        };
        self.mat.project(
            ws.rows_i8,
            ws.rows_i16,
            ws.rows_i32,
            batch * pixels,
            &epi,
            ov,
            ws.acc,
            ws.pool,
            ws.threads,
        );
        Ok(())
    }

    /// im2row-lowers a batch of quantized samples (at any operand width)
    /// into `rows`: `[batch · oh·ow, ci·kh·kw]`.
    fn lower<T: Copy + Default>(&self, acts: &[T], batch: usize, rows: &mut Vec<T>) {
        let (ci, h, w) = self.in_shape;
        let per_sample = self.out_shape.1 * self.out_shape.2 * self.mat.inp;
        let rows = grab(rows, batch * per_sample, T::default());
        for (sample, lowered) in acts
            .chunks_exact(self.in_features())
            .zip(rows.chunks_exact_mut(per_sample))
        {
            im2row(sample, ci, h, w, self.geo, lowered);
        }
    }
}

/// A self-attention block compiled to the packed integer domain. Q/K/V
/// projections consume the quantized input as integer GEMMs; scores,
/// softmax and the context product stay f32 (softmax outputs are
/// activations that "require high-precision numbers", Sec. IV-C); the
/// output projection runs as a mixed-domain GEMM — f32 context against
/// the LUT-decoded weights, scale applied per output channel at the
/// boundary — so all four projection weights live as packed wire codes.
#[derive(Debug, Clone)]
pub struct PackedAttn {
    name: String,
    seq: usize,
    dim: usize,
    /// Packed q, k, v, o projections, each `[dim, dim]`.
    projs: [PackedMatrix; 4],
    /// Precomputed `act.scale() · w_scales` for the q/k/v dequants.
    deq_qkv: [Vec<f32>; 3],
    /// The o-projection's decoded lattice values as f32, **transposed**
    /// (`[in, out]`): its GEMM operand is the f32 context, so the decode
    /// happens once at compile time, and the transposed layout lets the
    /// mixed-domain product run output-major — the per-output reduction
    /// keeps its ascending-`d` addition order (bit-identical to the
    /// row-major loop) while the inner loop vectorizes over outputs.
    /// Owned on compile; borrowed from the panel section of a mapped
    /// v2 artifact on the zero-copy reload path.
    wo_t_f32: PackedStore<f32>,
    act: Quantizer,
    act_quant: ActQuant,
    /// The KV-cache group codec — `Some` iff this is a causal
    /// (decoder-style) block, which masks future tokens in the
    /// full-sequence forward and supports incremental decode against a
    /// packed [`KvCache`]. Encoder blocks never touch it.
    kv: Option<KvQuant>,
}

impl PackedAttn {
    /// Builds the attention block directly from saved wire codes (artifact
    /// reload path): each projection must be a `[dim, dim]`-shaped pack.
    pub(crate) fn from_parts(
        name: String,
        seq: usize,
        dim: usize,
        projections: [PackedTensor; 4],
        act: Quantizer,
    ) -> Result<Self, RuntimeError> {
        Self::build(name, seq, dim, projections, act, None)
    }

    /// Like [`Self::from_parts`], but with pre-built q/k/v/o weight
    /// images and the transposed f32 o-projection operand (all borrowed
    /// from a mapped v2 artifact) instead of decoding them.
    pub(crate) fn from_parts_with_images(
        name: String,
        seq: usize,
        dim: usize,
        projections: [PackedTensor; 4],
        act: Quantizer,
        images: [WeightImage; 4],
        wo_t: PackedStore<f32>,
    ) -> Result<Self, RuntimeError> {
        Self::build(name, seq, dim, projections, act, Some((images, wo_t)))
    }

    fn build(
        name: String,
        seq: usize,
        dim: usize,
        projections: [PackedTensor; 4],
        act: Quantizer,
        prebuilt: Option<([WeightImage; 4], PackedStore<f32>)>,
    ) -> Result<Self, RuntimeError> {
        let mut dtypes = vec![act.dtype()];
        dtypes.extend(projections.iter().map(|p| p.dtype()));
        check_int_domain(&name, &dtypes)?;
        for p in &projections {
            if p.dims() != [dim, dim] {
                return Err(RuntimeError::UnsupportedLayer {
                    layer: name,
                    reason: format!("projection shape {:?}, expected [{dim}, {dim}]", p.dims()),
                });
            }
        }
        let bound = act_bound(&act);
        let [q, k, v, o] = projections;
        let (projs, wo_t_f32) = match prebuilt {
            Some(([qi, ki, vi, oi], wo_t)) => {
                if wo_t.len() != dim * dim {
                    return Err(RuntimeError::ShapeMismatch {
                        expected: dim * dim,
                        actual: wo_t.len(),
                    });
                }
                (
                    [
                        PackedMatrix::from_packed_with_image(q, bound, qi)?,
                        PackedMatrix::from_packed_with_image(k, bound, ki)?,
                        PackedMatrix::from_packed_with_image(v, bound, vi)?,
                        PackedMatrix::from_packed_with_image(o, bound, oi)?,
                    ],
                    wo_t,
                )
            }
            None => {
                let projs = [
                    PackedMatrix::from_packed(q, bound)?,
                    PackedMatrix::from_packed(k, bound)?,
                    PackedMatrix::from_packed(v, bound)?,
                    PackedMatrix::from_packed(o, bound)?,
                ];
                let wo_t = PackedStore::from_vec(transpose(&projs[3].rows_f32(), dim));
                (projs, wo_t)
            }
        };
        let deq_qkv = std::array::from_fn(|i| projs[i].deq_scales(act.scale()));
        Ok(PackedAttn {
            name,
            seq,
            dim,
            projs,
            deq_qkv,
            wo_t_f32,
            act_quant: ActQuant::for_quantizer(&act),
            act,
            kv: None,
        })
    }

    /// Converts this block into its causal (decoder) form, attaching the
    /// KV-cache group codec for `spec`.
    pub(crate) fn into_causal(mut self, spec: KvQuantSpec) -> Result<Self, RuntimeError> {
        self.kv = Some(KvQuant::new(spec)?);
        Ok(self)
    }

    /// Whether this block masks future tokens (decoder-style).
    pub fn causal(&self) -> bool {
        self.kv.is_some()
    }

    /// The KV-cache quantization spec, on causal blocks.
    pub fn kv_spec(&self) -> Option<KvQuantSpec> {
        self.kv.as_ref().map(|k| k.spec())
    }

    fn kv_codec(&self) -> Result<&KvQuant, RuntimeError> {
        self.kv
            .as_ref()
            .ok_or_else(|| RuntimeError::UnsupportedLayer {
                layer: self.name.clone(),
                reason: "causal execution of a block with no KV codec".to_string(),
            })
    }

    /// Layer name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Sequence length.
    pub fn seq(&self) -> usize {
        self.seq
    }

    /// Per-token feature count.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The four packed projection weights (q, k, v, o).
    pub fn projections(&self) -> [&PackedTensor; 4] {
        [
            &self.projs[0].weights,
            &self.projs[1].weights,
            &self.projs[2].weights,
            &self.projs[3].weights,
        ]
    }

    /// Whether every projection's wire codes and integer image — plus
    /// the transposed f32 o-operand — are borrowed from a mapped
    /// artifact (the v2 zero-copy load path).
    pub fn weights_borrowed(&self) -> bool {
        self.projs
            .iter()
            .all(|p| p.weights.is_borrowed() && p.image.is_borrowed())
            && self.wo_t_f32.is_borrowed()
    }

    /// The activation quantizer.
    pub fn activation(&self) -> &Quantizer {
        &self.act
    }

    /// Flattened input (and output) feature count.
    pub fn in_features(&self) -> usize {
        self.seq * self.dim
    }

    /// Quantizes `x` (`[rows, dim]`) once and projects it to Q, K and V —
    /// three batch-wide integer GEMMs, each dequantized straight into
    /// `ws.q`/`ws.k`/`ws.v`. Returns the `i32` master quantization, taken
    /// out of the arena so the remaining scratch stays independently
    /// borrowable (a pointer-sized swap, not a copy); callers hand it
    /// back to `ws.act_i32` when done with the residual.
    fn project_qkv(&self, x: &[f32], s_a: f32, rows: usize, ws: &mut LayerScratch<'_>) -> Vec<i32> {
        // One master serves all projections, which may sit at different
        // operand widths: narrow it once per width any of them needs (in
        // the common case all three share one width: one pass).
        self.act_quant
            .apply_all_into(x, s_a, self.act.codec(), ws.act_i32);
        let master = std::mem::take(ws.act_i32);
        let qkv = &self.projs[..3];
        if qkv.iter().any(|p| matches!(p.image, WeightImage::I8(_))) {
            narrow_acts(&master, ws.act_i8);
        }
        if qkv.iter().any(|p| matches!(p.image, WeightImage::I16(_))) {
            narrow_acts(&master, ws.act_i16);
        }
        for (which, dst) in [&mut *ws.q, &mut *ws.k, &mut *ws.v].into_iter().enumerate() {
            let epi = Epilogue {
                deq: &self.deq_qkv[which],
                bias: None,
                rows_per_sample: 1,
            };
            self.projs[which].project(
                ws.act_i8,
                ws.act_i16,
                &master,
                rows,
                &epi,
                grab(dst, rows * self.dim, 0.0),
                ws.acc,
                ws.pool,
                ws.threads,
            );
        }
        master
    }

    /// Executes `Y = X̂ + softmax(QKᵀ/√d) V Woᵀ` on a `[batch, seq·dim]`
    /// slice, where `X̂` is the quantized input and Q/K/V come from integer
    /// GEMMs over its lattice codes.
    fn forward_rows(
        &self,
        x: &[f32],
        batch: usize,
        ws: &mut LayerScratch<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(), RuntimeError> {
        let feat = self.in_features();
        check_features(x, batch, feat)?;
        let (seq, dim) = (self.seq, self.dim);
        let s_a = self.act.scale();
        // One i32 master quantization serves all projections (which may
        // sit at different operand widths) and the residual below. It is
        // taken out of the arena for the duration of the call so the
        // remaining scratch stays independently borrowable; the swap is
        // pointer-sized, not a copy.
        let inv_sqrt_d = 1.0 / (dim as f32).sqrt();
        // Q/K/V are purely row-wise, so the whole batch projects through
        // three batch-wide integer GEMMs ([batch·seq, dim] each) — the
        // coalescing the engine batches requests for — instead of 3·batch
        // per-sample ones.
        let rows = batch * seq;
        // Narrow the master once per operand width any projection needs
        // (in the common case all three share one width: one pass).
        let master = self.project_qkv(x, s_a, rows, ws);
        // Scores, softmax and context in f32 — the decode boundary.
        // Attention mixes tokens only within a sample, so this
        // parallelizes over samples: each chunk of samples owns one
        // scores slice and writes disjoint context rows.
        let ctx_len = rows * dim;
        let chunks = ws.threads.min(ws.pool.width()).min(batch).max(1);
        let samples_per = batch.div_ceil(chunks);
        grab(ws.ctx, ctx_len, 0.0);
        grab(ws.scores, chunks * seq * seq, 0.0);
        let (q, k, v) = (&*ws.q, &*ws.k, &*ws.v);
        let ctx_ptr = ShareMut(ws.ctx.as_mut_ptr());
        let scores_ptr = ShareMut(ws.scores.as_mut_ptr());
        ws.pool.run(chunks, &|chunk| {
            let (ctx_dst, scores_dst) = (ctx_ptr, scores_ptr);
            // SAFETY: each chunk touches its own scores slice and the
            // context rows of its own samples — disjoint regions.
            let a = unsafe {
                std::slice::from_raw_parts_mut(scores_dst.0.add(chunk * seq * seq), seq * seq)
            };
            let lo = chunk * samples_per;
            let hi = ((chunk + 1) * samples_per).min(batch);
            for s in lo..hi {
                let qs = &q[s * feat..(s + 1) * feat];
                let ks = &k[s * feat..(s + 1) * feat];
                for i in 0..seq {
                    for j in 0..seq {
                        let mut dot = 0f32;
                        for d in 0..dim {
                            dot += qs[i * dim + d] * ks[j * dim + d];
                        }
                        a[i * seq + j] = dot * inv_sqrt_d;
                    }
                }
                softmax_rows_in_place(a, seq, seq);
                let vs = &v[s * feat..(s + 1) * feat];
                let cs = unsafe { std::slice::from_raw_parts_mut(ctx_dst.0.add(s * feat), feat) };
                cs.fill(0.0);
                for i in 0..seq {
                    for j in 0..seq {
                        let aij = a[i * seq + j];
                        for d in 0..dim {
                            cs[i * dim + d] += aij * vs[j * dim + d];
                        }
                    }
                }
            }
        });
        // Output projection, batch-wide: mixed-domain GEMM of the f32
        // context against the decoded lattice weights, scale at the
        // boundary, plus the residual on the quantized input —
        // parallelized over output rows. Output-major against the
        // transposed weights: each output's reduction still sums in
        // ascending `d` (bit-identical to the row-major dot), but the
        // inner loop is a broadcast-multiply-add stream over outputs the
        // autovectorizer handles.
        let ov = grab(out, batch * feat, 0.0);
        let (ctx, a32, wo_t) = (&*ws.ctx, &master[..], &self.wo_t_f32);
        let w_scales = &self.projs[3].w_scales;
        let out_ptr = ShareMut(ov.as_mut_ptr());
        let row_tasks = if rows * dim * dim >= 1 << 18 {
            ws.threads.min(ws.pool.width()).min(rows).max(1)
        } else {
            1
        };
        let rows_per = rows.div_ceil(row_tasks);
        ws.pool.run(row_tasks, &|t| {
            let dst = out_ptr;
            let lo = t * rows_per;
            let hi = ((t + 1) * rows_per).min(rows);
            for r in lo..hi {
                // SAFETY: tasks own disjoint output rows.
                let row_out = unsafe { std::slice::from_raw_parts_mut(dst.0.add(r * dim), dim) };
                row_out.fill(0.0);
                for d in 0..dim {
                    let c = ctx[r * dim + d];
                    let w_row = &wo_t[d * dim..(d + 1) * dim];
                    for (o, out_val) in row_out.iter_mut().enumerate() {
                        *out_val += c * w_row[o];
                    }
                }
                for (o, out_val) in row_out.iter_mut().enumerate() {
                    *out_val = a32[r * dim + o] as f32 * s_a + *out_val * w_scales[o];
                }
            }
        });
        // Hand the master buffer (and its capacity) back to the arena.
        *ws.act_i32 = master;
        Ok(())
    }

    /// Full-sequence **causal** forward: like [`Self::forward_rows`] but
    /// sequence-length-polymorphic (`seq` derives from the input, so one
    /// plan serves any prompt length), masking `j > i` in the scores, and
    /// quantize-dequantizing every K/V token row through the M-ANT group
    /// codec — exactly the values an incremental decode later streams
    /// back out of its [`KvCache`]. When `sink` is supplied (the prefill
    /// path; `batch` must be 1), the quantized rows are also appended to
    /// the cache and the attention consumes them as decoded *from the
    /// cache*, keeping prefill bit-identical to the cache-less reference
    /// forward by construction.
    fn forward_rows_causal(
        &self,
        x: &[f32],
        batch: usize,
        ws: &mut LayerScratch<'_>,
        out: &mut Vec<f32>,
        sink: Option<&mut KvCache>,
    ) -> Result<(), RuntimeError> {
        let dim = self.dim;
        let features = x.len() / batch.max(1);
        if batch == 0
            || !x.len().is_multiple_of(batch)
            || features == 0
            || !features.is_multiple_of(dim)
        {
            return Err(RuntimeError::ShapeMismatch {
                expected: dim,
                actual: features,
            });
        }
        let seq = features / dim;
        let feat = features;
        debug_assert!(
            sink.is_none() || batch == 1,
            "prefill sinks are per-session"
        );
        let kvq = self.kv_codec()?;
        let s_a = self.act.scale();
        let inv_sqrt_d = 1.0 / (dim as f32).sqrt();
        let rows = batch * seq;
        let master = self.project_qkv(x, s_a, rows, ws);
        // Move K and V into the quantized KV domain row by row — in
        // place when free-running, through the cache when prefilling
        // (bitwise identical: one shared group-encode path).
        match sink {
            Some(cache) => {
                let base = cache.tokens();
                for r in 0..rows {
                    let kr = &ws.k[r * dim..(r + 1) * dim];
                    let vr = &ws.v[r * dim..(r + 1) * dim];
                    cache.append(kvq, kr, vr, ws.kv_codes)?;
                }
                for r in 0..rows {
                    cache.decode_row(kvq, KvHalf::K, base + r, &mut ws.k[r * dim..(r + 1) * dim]);
                    cache.decode_row(kvq, KvHalf::V, base + r, &mut ws.v[r * dim..(r + 1) * dim]);
                }
            }
            None => {
                for r in 0..rows {
                    kvq.quant_dequant_row(&mut ws.k[r * dim..(r + 1) * dim], ws.kv_codes);
                    kvq.quant_dequant_row(&mut ws.v[r * dim..(r + 1) * dim], ws.kv_codes);
                }
            }
        }
        // Masked scores, softmax and context — the structure of the
        // encoder path with future positions pinned to -inf (their
        // softmax weight is exactly 0.0, so the context reduction is
        // bitwise the prefix-only reduction decode performs).
        let ctx_len = rows * dim;
        let chunks = ws.threads.min(ws.pool.width()).min(batch).max(1);
        let samples_per = batch.div_ceil(chunks);
        grab(ws.ctx, ctx_len, 0.0);
        grab(ws.scores, chunks * seq * seq, 0.0);
        let (q, k, v) = (&*ws.q, &*ws.k, &*ws.v);
        let ctx_ptr = ShareMut(ws.ctx.as_mut_ptr());
        let scores_ptr = ShareMut(ws.scores.as_mut_ptr());
        ws.pool.run(chunks, &|chunk| {
            let (ctx_dst, scores_dst) = (ctx_ptr, scores_ptr);
            // SAFETY: each chunk touches its own scores slice and the
            // context rows of its own samples — disjoint regions.
            let a = unsafe {
                std::slice::from_raw_parts_mut(scores_dst.0.add(chunk * seq * seq), seq * seq)
            };
            let lo = chunk * samples_per;
            let hi = ((chunk + 1) * samples_per).min(batch);
            for s in lo..hi {
                let qs = &q[s * feat..(s + 1) * feat];
                let ks = &k[s * feat..(s + 1) * feat];
                for i in 0..seq {
                    for j in 0..=i {
                        let mut dot = 0f32;
                        for d in 0..dim {
                            dot += qs[i * dim + d] * ks[j * dim + d];
                        }
                        a[i * seq + j] = dot * inv_sqrt_d;
                    }
                    for j in (i + 1)..seq {
                        a[i * seq + j] = f32::NEG_INFINITY;
                    }
                }
                softmax_rows_in_place(a, seq, seq);
                let vs = &v[s * feat..(s + 1) * feat];
                let cs = unsafe { std::slice::from_raw_parts_mut(ctx_dst.0.add(s * feat), feat) };
                cs.fill(0.0);
                for i in 0..seq {
                    for j in 0..seq {
                        let aij = a[i * seq + j];
                        for d in 0..dim {
                            cs[i * dim + d] += aij * vs[j * dim + d];
                        }
                    }
                }
            }
        });
        // Output projection + residual, identical to the encoder path.
        let ov = grab(out, batch * feat, 0.0);
        let (ctx, a32, wo_t) = (&*ws.ctx, &master[..], &self.wo_t_f32);
        let w_scales = &self.projs[3].w_scales;
        let out_ptr = ShareMut(ov.as_mut_ptr());
        let row_tasks = if rows * dim * dim >= 1 << 18 {
            ws.threads.min(ws.pool.width()).min(rows).max(1)
        } else {
            1
        };
        let rows_per = rows.div_ceil(row_tasks);
        ws.pool.run(row_tasks, &|t| {
            let dst = out_ptr;
            let lo = t * rows_per;
            let hi = ((t + 1) * rows_per).min(rows);
            for r in lo..hi {
                // SAFETY: tasks own disjoint output rows.
                let row_out = unsafe { std::slice::from_raw_parts_mut(dst.0.add(r * dim), dim) };
                row_out.fill(0.0);
                for d in 0..dim {
                    let c = ctx[r * dim + d];
                    let w_row = &wo_t[d * dim..(d + 1) * dim];
                    for (o, out_val) in row_out.iter_mut().enumerate() {
                        *out_val += c * w_row[o];
                    }
                }
                for (o, out_val) in row_out.iter_mut().enumerate() {
                    *out_val = a32[r * dim + o] as f32 * s_a + *out_val * w_scales[o];
                }
            }
        });
        *ws.act_i32 = master;
        Ok(())
    }

    /// One incremental decode step for `n` sessions at once: batches the
    /// Q/K/V projections over all `n` new token rows (the coalescing the
    /// engine's decode batching buys), appends each session's K/V row to
    /// its cache for this layer, then runs causal attention for the new
    /// token against the cached prefix, streaming rows straight out of
    /// the packed codes.
    ///
    /// Numerically this reproduces the last token row of the
    /// full-sequence causal forward **exactly**: the cache hands back the
    /// same quantized values (shared group-encode path), the reductions
    /// keep the same ascending-`d`/ascending-`j` orders, and the prefix
    /// softmax is bitwise the masked full-row softmax.
    fn decode_rows(
        &self,
        x: &[f32],
        sessions: &mut [&mut DecodeSession],
        cache_ix: usize,
        ws: &mut LayerScratch<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(), RuntimeError> {
        let dim = self.dim;
        let rows = sessions.len();
        check_features(x, rows, dim)?;
        let kvq = self.kv_codec()?;
        let s_a = self.act.scale();
        let inv_sqrt_d = 1.0 / (dim as f32).sqrt();
        let master = self.project_qkv(x, s_a, rows, ws);
        // Fixed-stride score scratch — the largest capacity any session
        // in the batch can reach — so steady-state grabs never resize.
        let stride = sessions
            .iter()
            .map(|s| s.max_tokens())
            .max()
            .unwrap_or(1)
            .max(1);
        grab(ws.ctx, rows * dim, 0.0);
        grab(ws.scores, stride, 0.0);
        grab(ws.kv_row, dim, 0.0);
        for (si, sess) in sessions.iter_mut().enumerate() {
            let cache =
                sess.caches
                    .get_mut(cache_ix)
                    .ok_or_else(|| RuntimeError::UnsupportedLayer {
                        layer: self.name.clone(),
                        reason: "decode session does not match this plan's causal layers"
                            .to_string(),
                    })?;
            let kr = &ws.k[si * dim..(si + 1) * dim];
            let vr = &ws.v[si * dim..(si + 1) * dim];
            cache.append(kvq, kr, vr, ws.kv_codes)?;
            let t = cache.tokens();
            let qs = &ws.q[si * dim..(si + 1) * dim];
            let a = &mut ws.scores[..t];
            let row = &mut ws.kv_row[..dim];
            for (j, aj) in a.iter_mut().enumerate() {
                cache.decode_row(kvq, KvHalf::K, j, row);
                let mut dot = 0f32;
                for d in 0..dim {
                    dot += qs[d] * row[d];
                }
                *aj = dot * inv_sqrt_d;
            }
            softmax_rows_in_place(a, 1, t);
            let cs = &mut ws.ctx[si * dim..(si + 1) * dim];
            cs.fill(0.0);
            for (j, &aij) in a.iter().enumerate() {
                cache.decode_row(kvq, KvHalf::V, j, row);
                for d in 0..dim {
                    cs[d] += aij * row[d];
                }
            }
        }
        // Output projection + residual — the same output-major,
        // ascending-`d` loop as the full forward, serial (decode rows
        // are few and small).
        let ov = grab(out, rows * dim, 0.0);
        let (ctx, a32, wo_t) = (&*ws.ctx, &master[..], &self.wo_t_f32);
        let w_scales = &self.projs[3].w_scales;
        for r in 0..rows {
            let row_out = &mut ov[r * dim..(r + 1) * dim];
            row_out.fill(0.0);
            for d in 0..dim {
                let c = ctx[r * dim + d];
                let w_row = &wo_t[d * dim..(d + 1) * dim];
                for (o, out_val) in row_out.iter_mut().enumerate() {
                    *out_val += c * w_row[o];
                }
            }
            for (o, out_val) in row_out.iter_mut().enumerate() {
                *out_val = a32[r * dim + o] as f32 * s_a + *out_val * w_scales[o];
            }
        }
        *ws.act_i32 = master;
        Ok(())
    }
}

/// Layer normalisation state copied into a plan (γ, β and ε are the only
/// things the stateless forward needs).
#[derive(Debug, Clone)]
pub struct PlanNorm {
    name: String,
    dim: usize,
    gamma: Vec<f32>,
    beta: Vec<f32>,
    eps: f32,
}

impl PlanNorm {
    /// Builds the norm step from explicit parameters (artifact reload
    /// path).
    pub(crate) fn from_parts(name: String, gamma: Vec<f32>, beta: Vec<f32>, eps: f32) -> PlanNorm {
        let dim = gamma.len();
        PlanNorm {
            name,
            dim,
            gamma,
            beta,
            eps,
        }
    }

    fn from_layer(n: &LayerNorm) -> PlanNorm {
        PlanNorm {
            name: n.name().to_string(),
            dim: n.dim(),
            gamma: n.gamma().as_slice().to_vec(),
            beta: n.beta().as_slice().to_vec(),
            eps: n.eps(),
        }
    }

    /// Layer name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Feature-group size.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Normalises `dim`-sized feature groups through the shared
    /// [`layer_norm_group`] kernel — the *same* arithmetic as the
    /// reference [`LayerNorm`] forward, by construction.
    fn forward_rows(
        &self,
        x: &[f32],
        batch: usize,
        out: &mut Vec<f32>,
    ) -> Result<(), RuntimeError> {
        // Per-row validation: every sample's feature count must be a
        // whole number of norm groups, or groups would silently straddle
        // sample boundaries (total length alone cannot catch that).
        let features = x.len() / batch.max(1);
        if batch == 0 || !x.len().is_multiple_of(batch) || !features.is_multiple_of(self.dim) {
            return Err(RuntimeError::ShapeMismatch {
                expected: self.dim,
                actual: features,
            });
        }
        let groups = x.len() / self.dim;
        let ov = grab(out, x.len(), 0.0);
        for gi in 0..groups {
            let lo = gi * self.dim;
            layer_norm_group(
                &x[lo..lo + self.dim],
                &self.gamma,
                &self.beta,
                self.eps,
                None,
                &mut ov[lo..lo + self.dim],
            );
        }
        Ok(())
    }
}

/// 2×2/stride-2 max pooling over a `[batch, c·h·w]` slice — arithmetic
/// identical to the reference `MaxPool2` forward (pooling commutes with
/// the monotone dequantization, so it is free in either domain).
fn maxpool2_rows(
    x: &[f32],
    batch: usize,
    in_shape: (usize, usize, usize),
    out: &mut Vec<f32>,
) -> Result<(), RuntimeError> {
    let (c, h, w) = in_shape;
    check_features(x, batch, c * h * w)?;
    let (oh, ow) = (h / 2, w / 2);
    let ov = grab(out, batch * c * oh * ow, 0.0);
    for s in 0..batch {
        let xin = &x[s * c * h * w..(s + 1) * c * h * w];
        let xout = &mut ov[s * c * oh * ow..(s + 1) * c * oh * ow];
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let idx = (ci * h + oy * 2 + dy) * w + ox * 2 + dx;
                            if xin[idx] > best {
                                best = xin[idx];
                            }
                        }
                    }
                    xout[(ci * oh + oy) * ow + ox] = best;
                }
            }
        }
    }
    Ok(())
}

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
    /// Reference (fake-quantized f32) execution for layers the packed
    /// path cannot cover (a `float`-typed selection). This path is off
    /// the zero-allocation hot path: it round-trips through [`Tensor`].
    Fallback(Box<NetLayer>),
}

/// An executable quantized inference plan.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    layers: Vec<PlanLayer>,
    in_features: Option<usize>,
    threads: usize,
    pool: Arc<WorkerPool>,
    scratch: Scratch,
}

impl CompiledPlan {
    /// Compiles a plan from a model whose quantizable layers already carry
    /// quantizers (e.g. after [`ant_nn::qat::quantize_model`] or via
    /// [`crate::Planner::compile`], which adds the memoizing cache).
    ///
    /// Layers whose selected type has no integer-domain decoder (the
    /// `float` primitive) compile to [`PlanLayer::Fallback`] and execute
    /// through their fake-quantized reference implementation; use
    /// [`Self::from_quantized_strict`] to refuse them instead, and
    /// [`Self::coverage`] to observe how much of a plan is packed.
    ///
    /// # Errors
    ///
    /// * [`RuntimeError::NotQuantized`] when a quantizable layer has no
    ///   weight/activation quantizers (either mode — serving an
    ///   unquantized model is never silently acceptable).
    pub fn from_quantized(model: &Sequential) -> Result<Self, RuntimeError> {
        Self::compile(model, false)
    }

    /// Strict [`Self::from_quantized`]: every layer must lower to the
    /// packed domain.
    ///
    /// # Errors
    ///
    /// As [`Self::from_quantized`], plus
    /// [`RuntimeError::UnsupportedLayer`] wherever the lenient mode would
    /// have emitted a [`PlanLayer::Fallback`].
    pub fn from_quantized_strict(model: &Sequential) -> Result<Self, RuntimeError> {
        Self::compile(model, true)
    }

    fn compile(model: &Sequential, strict: bool) -> Result<Self, RuntimeError> {
        let mut layers = Vec::with_capacity(model.layers().len());
        for layer in model.layers() {
            let lowered = match layer {
                NetLayer::Dense(d) => pack_dense(d).map(|p| PlanLayer::Packed(Box::new(p))),
                NetLayer::Conv(c) => pack_conv(c).map(|p| PlanLayer::PackedConv(Box::new(p))),
                NetLayer::Attn(a) => pack_attn(a).and_then(|p| {
                    if a.causal() {
                        // Causal blocks carry the default M-ANT KV group
                        // codec; override per plan with
                        // [`CompiledPlan::with_kv_quant`].
                        p.into_causal(KvQuantSpec::default())
                            .map(|p| PlanLayer::PackedCausalAttn(Box::new(p)))
                    } else {
                        Ok(PlanLayer::PackedAttn(Box::new(p)))
                    }
                }),
                NetLayer::Relu(_) => Ok(PlanLayer::Relu),
                NetLayer::Gelu(_) => Ok(PlanLayer::Gelu),
                NetLayer::Pool(p) => Ok(PlanLayer::Pool {
                    in_shape: p.in_shape(),
                }),
                NetLayer::Norm(n) => Ok(PlanLayer::Norm(Box::new(PlanNorm::from_layer(n)))),
            };
            match lowered {
                Ok(l) => layers.push(l),
                Err(RuntimeError::UnsupportedType { layer: name, dtype }) => {
                    if strict {
                        return Err(RuntimeError::UnsupportedLayer {
                            layer: name,
                            reason: format!("selected type {dtype} has no integer-domain decoder"),
                        });
                    }
                    layers.push(PlanLayer::Fallback(Box::new(layer.clone())));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(Self::from_plan_layers(layers))
    }

    /// Assembles a plan from already-lowered steps (the artifact reload
    /// path, where packed layers are rebuilt straight from wire codes).
    pub(crate) fn from_plan_layers(layers: Vec<PlanLayer>) -> Self {
        // Shape-polymorphic prefix layers (relu/gelu/norm) preserve
        // width, so the first layer that pins a width pins the plan's
        // input — a transformer opening with layer norm still reports
        // the attention block's width.
        let in_features = layers.iter().find_map(plan_layer_in_features);
        let pool = Arc::clone(WorkerPool::global());
        let threads = pool.width();
        CompiledPlan {
            layers,
            in_features,
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
        self.layers
            .iter()
            .filter(|l| {
                matches!(
                    l,
                    PlanLayer::Packed(_)
                        | PlanLayer::PackedConv(_)
                        | PlanLayer::PackedAttn(_)
                        | PlanLayer::PackedCausalAttn(_)
                )
            })
            .count()
    }

    /// Number of packed compute layers whose wire codes *and* integer
    /// weight images are all borrowed from a mapped artifact rather than
    /// owned by the plan — `packed_layer_count()` for a v2 zero-copy
    /// load, `0` for a compiled or v1-loaded plan.
    pub fn borrowed_layer_count(&self) -> usize {
        self.layers
            .iter()
            .filter(|l| match l {
                PlanLayer::Packed(p) => p.weights_borrowed(),
                PlanLayer::PackedConv(p) => p.weights_borrowed(),
                PlanLayer::PackedAttn(p) | PlanLayer::PackedCausalAttn(p) => p.weights_borrowed(),
                _ => false,
            })
            .count()
    }

    /// Fraction of plan layers executing outside the fallback path.
    ///
    /// The denominator is **every** layer of the plan, fallback layers
    /// included: `coverage() == 1 − fallback_count / layers().len()`.
    /// Packed compute layers *and* shape-polymorphic decode-boundary
    /// layers (ReLU/GELU/pool/norm) count as covered; float-typed
    /// [`PlanLayer::Fallback`] layers count against coverage but still
    /// count in the denominator — a 5-layer plan with one fallback reports
    /// exactly `0.8`, never `4/4`. `antc inspect` and the serving examples
    /// print this same quantity; an empty plan reports `1.0`.
    pub fn coverage(&self) -> f64 {
        if self.layers.is_empty() {
            return 1.0;
        }
        let fallback = self
            .layers
            .iter()
            .filter(|l| matches!(l, PlanLayer::Fallback(_)))
            .count();
        1.0 - fallback as f64 / self.layers.len() as f64
    }

    /// Bytes of packed weight storage (the aligned `⌈n·bits/8⌉` footprint),
    /// versus the f32 bytes the same weights would occupy.
    pub fn weight_bytes(&self) -> (usize, usize) {
        let mut packed = 0usize;
        let mut f32_bytes = 0usize;
        let mut add = |t: &PackedTensor| {
            packed += t.size_bytes();
            f32_bytes += t.len() * std::mem::size_of::<f32>();
        };
        for l in &self.layers {
            match l {
                PlanLayer::Packed(p) => add(p.weights()),
                PlanLayer::PackedConv(p) => add(p.weights()),
                PlanLayer::PackedAttn(p) | PlanLayer::PackedCausalAttn(p) => {
                    p.projections().into_iter().for_each(&mut add)
                }
                _ => {}
            }
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
    /// Propagates shape mismatches and fallback-layer failures.
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
    /// their high-water marks a call performs **zero heap allocations**
    /// (fallback layers excepted — they round-trip through [`Tensor`]).
    ///
    /// # Errors
    ///
    /// [`RuntimeError::ShapeMismatch`] when `batch` is zero, `x` is not a
    /// whole number of rows, or a layer's expected feature count
    /// disagrees; plus fallback-layer failures.
    pub fn forward_rows(
        &mut self,
        x: &[f32],
        batch: usize,
        out: &mut Vec<f32>,
    ) -> Result<(), RuntimeError> {
        self.run_rows(x, batch, out, None)
    }

    /// The shared pipeline runner behind [`Self::forward_rows`] (no
    /// session) and [`Self::prefill`] (a session whose caches absorb
    /// every causal layer's K/V rows).
    fn run_rows(
        &mut self,
        x: &[f32],
        batch: usize,
        out: &mut Vec<f32>,
        mut session: Option<&mut DecodeSession>,
    ) -> Result<(), RuntimeError> {
        if batch == 0 || !x.len().is_multiple_of(batch) {
            return Err(RuntimeError::ShapeMismatch {
                expected: self.in_features.unwrap_or(0),
                actual: x.len(),
            });
        }
        let threads = self.threads;
        let pool = &*self.pool;
        let Scratch {
            act_i8,
            act_i16,
            act_i32,
            rows_i8,
            rows_i16,
            rows_i32,
            acc,
            q,
            k,
            v,
            scores,
            ctx,
            kv_row,
            kv_codes,
            ping,
            pong,
        } = &mut self.scratch;
        grab(ping, x.len(), 0.0).copy_from_slice(x);
        let mut cur_is_ping = true;
        let mut causal_ix = 0usize;
        // Timing is chained — one clock read per layer boundary (layer
        // i's end stamp is layer i+1's start), never inside GEMM tiles.
        let fwd = obs::metrics();
        let mut per_layer = fwd.layers();
        let t0 = obs::now();
        let mut t_prev = t0;
        for layer in self.layers.iter_mut() {
            let (cur, next) = if cur_is_ping {
                (&mut *ping, &mut *pong)
            } else {
                (&mut *pong, &mut *ping)
            };
            let was_ping = cur_is_ping;
            let in_len = cur.len();
            let mut ws = LayerScratch {
                pool,
                threads,
                act_i8,
                act_i16,
                act_i32,
                rows_i8,
                rows_i16,
                rows_i32,
                acc,
                q,
                k,
                v,
                scores,
                ctx,
                kv_row,
                kv_codes,
            };
            match layer {
                PlanLayer::Packed(p) => {
                    p.forward_rows(cur, batch, &mut ws, next)?;
                    cur_is_ping = !cur_is_ping;
                }
                PlanLayer::PackedConv(p) => {
                    p.forward_rows(cur, batch, &mut ws, next)?;
                    cur_is_ping = !cur_is_ping;
                }
                PlanLayer::PackedAttn(p) => {
                    p.forward_rows(cur, batch, &mut ws, next)?;
                    cur_is_ping = !cur_is_ping;
                }
                PlanLayer::PackedCausalAttn(p) => {
                    let sink = match session.as_deref_mut() {
                        Some(s) => Some(s.caches.get_mut(causal_ix).ok_or_else(|| {
                            RuntimeError::UnsupportedLayer {
                                layer: p.name().to_string(),
                                reason: "decode session does not match this plan's causal layers"
                                    .to_string(),
                            }
                        })?),
                        None => None,
                    };
                    p.forward_rows_causal(cur, batch, &mut ws, next, sink)?;
                    causal_ix += 1;
                    cur_is_ping = !cur_is_ping;
                }
                PlanLayer::Relu => {
                    for v in cur.iter_mut() {
                        *v = v.max(0.0);
                    }
                }
                PlanLayer::Gelu => {
                    for v in cur.iter_mut() {
                        *v = gelu(*v);
                    }
                }
                PlanLayer::Pool { in_shape } => {
                    maxpool2_rows(cur, batch, *in_shape, next)?;
                    cur_is_ping = !cur_is_ping;
                }
                PlanLayer::Norm(n) => {
                    n.forward_rows(cur, batch, next)?;
                    cur_is_ping = !cur_is_ping;
                }
                PlanLayer::Fallback(l) => {
                    let features = cur.len() / batch;
                    let t = Tensor::from_vec(cur.clone(), &[batch, features])
                        .expect("pipeline buffer is batch × features");
                    let y = l.forward(&t)?;
                    grab(next, y.len(), 0.0).copy_from_slice(y.as_slice());
                    cur_is_ping = !cur_is_ping;
                }
            }
            let t_now = obs::now();
            let out_len = if cur_is_ping != was_ping {
                next.len()
            } else {
                in_len
            };
            let (kind, macs, bytes) = layer_obs_info(layer, batch, in_len, out_len);
            per_layer.record(kind, t_prev, t_now - t_prev, batch as u64, macs, bytes);
            t_prev = t_now;
        }
        fwd.record_forward(t0, t_prev.saturating_sub(t0), batch as u64);
        let cur = if cur_is_ping { &*ping } else { &*pong };
        out.clear();
        out.extend_from_slice(cur);
        Ok(())
    }

    /// Whether this plan contains a causal attention layer — and so
    /// supports [`Self::open_session`] / [`Self::prefill`] /
    /// [`Self::decode_steps`].
    pub fn is_causal(&self) -> bool {
        self.layers
            .iter()
            .any(|l| matches!(l, PlanLayer::PackedCausalAttn(_)))
    }

    /// The per-token feature width of the decode pipeline (the first
    /// width-pinning decode step's input); `None` for non-causal plans.
    pub fn token_dim(&self) -> Option<usize> {
        if !self.is_causal() {
            return None;
        }
        self.layers.iter().find_map(|l| match l {
            PlanLayer::Packed(p) => Some(p.in_features()),
            PlanLayer::PackedCausalAttn(p) => Some(p.dim()),
            _ => None,
        })
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
    /// (convolution/pooling/encoder attention/fallback).
    pub fn open_session(&self, max_tokens: usize) -> Result<DecodeSession, RuntimeError> {
        self.session_factory()?.open(max_tokens)
    }

    /// A pre-validated session-opening recipe, detachable from the plan:
    /// [`crate::Engine`] hands its plan to the worker thread but still
    /// opens sessions on the caller side through one of these. Captures
    /// each causal layer's width and KV codec, so a factory must not
    /// outlive a [`Self::with_kv_quant`] reconfiguration of its plan.
    ///
    /// # Errors
    ///
    /// The same plan-composition errors as [`Self::open_session`].
    pub(crate) fn session_factory(&self) -> Result<SessionFactory, RuntimeError> {
        let mut layers = Vec::new();
        for l in &self.layers {
            match l {
                PlanLayer::PackedCausalAttn(p) => {
                    layers.push((p.dim(), p.kv_codec()?.clone()));
                }
                PlanLayer::Packed(_) | PlanLayer::Relu | PlanLayer::Gelu | PlanLayer::Norm(_) => {}
                PlanLayer::PackedAttn(p) => {
                    return Err(decode_err(format!(
                        "layer {} is encoder-style attention; decode needs causal blocks",
                        p.name()
                    )));
                }
                PlanLayer::PackedConv(p) => {
                    return Err(decode_err(format!(
                        "layer {} (convolution) is not token-local",
                        p.name()
                    )));
                }
                PlanLayer::Pool { .. } => {
                    return Err(decode_err("pooling is not token-local".to_string()));
                }
                PlanLayer::Fallback(_) => {
                    return Err(decode_err(
                        "fallback layers do not execute in the decode phase".to_string(),
                    ));
                }
            }
        }
        if layers.is_empty() {
            return Err(no_causal_err());
        }
        Ok(SessionFactory { layers })
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
        self.run_rows(x, 1, out, Some(session))
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
        let threads = self.threads;
        let pool = &*self.pool;
        let Scratch {
            act_i8,
            act_i16,
            act_i32,
            rows_i8,
            rows_i16,
            rows_i32,
            acc,
            q,
            k,
            v,
            scores,
            ctx,
            kv_row,
            kv_codes,
            ping,
            pong,
        } = &mut self.scratch;
        grab(ping, x.len(), 0.0).copy_from_slice(x);
        let mut cur_is_ping = true;
        let mut causal_ix = 0usize;
        let fwd = obs::metrics();
        let mut per_layer = fwd.layers();
        let t0 = obs::now();
        let mut t_prev = t0;
        for layer in self.layers.iter_mut() {
            let (cur, next) = if cur_is_ping {
                (&mut *ping, &mut *pong)
            } else {
                (&mut *pong, &mut *ping)
            };
            let was_ping = cur_is_ping;
            let in_len = cur.len();
            let mut ws = LayerScratch {
                pool,
                threads,
                act_i8,
                act_i16,
                act_i32,
                rows_i8,
                rows_i16,
                rows_i32,
                acc,
                q,
                k,
                v,
                scores,
                ctx,
                kv_row,
                kv_codes,
            };
            match layer {
                PlanLayer::Packed(p) => {
                    p.forward_rows(cur, n, &mut ws, next)?;
                    cur_is_ping = !cur_is_ping;
                }
                PlanLayer::PackedCausalAttn(p) => {
                    p.decode_rows(cur, sessions, causal_ix, &mut ws, next)?;
                    causal_ix += 1;
                    cur_is_ping = !cur_is_ping;
                }
                PlanLayer::Relu => {
                    for v in cur.iter_mut() {
                        *v = v.max(0.0);
                    }
                }
                PlanLayer::Gelu => {
                    for v in cur.iter_mut() {
                        *v = gelu(*v);
                    }
                }
                PlanLayer::Norm(nl) => {
                    nl.forward_rows(cur, n, next)?;
                    cur_is_ping = !cur_is_ping;
                }
                // Unreachable when the session came from `open_session`
                // (it validates the whole plan); kept as a structured
                // error for hand-built sessions.
                PlanLayer::PackedAttn(_)
                | PlanLayer::PackedConv(_)
                | PlanLayer::Pool { .. }
                | PlanLayer::Fallback(_) => {
                    return Err(decode_err(
                        "a non-token-local layer cannot execute in the decode phase".to_string(),
                    ));
                }
            }
            let t_now = obs::now();
            let out_len = if cur_is_ping != was_ping {
                next.len()
            } else {
                in_len
            };
            let (kind, macs, bytes) = layer_obs_info(layer, n, in_len, out_len);
            per_layer.record(kind, t_prev, t_now - t_prev, n as u64, macs, bytes);
            t_prev = t_now;
        }
        fwd.record_forward(t0, t_prev.saturating_sub(t0), n as u64);
        let cur = if cur_is_ping { &*ping } else { &*pong };
        out.clear();
        out.extend_from_slice(cur);
        Ok(())
    }
}

/// A plan's session-opening recipe, detached from the plan itself: the
/// per-causal-layer token width and KV codec, pre-validated by
/// [`CompiledPlan::session_factory`]. Lets [`crate::Engine`] open
/// sessions after its plan moved into the worker thread.
#[derive(Debug, Clone)]
pub(crate) struct SessionFactory {
    /// `(dim, codec)` for each causal layer, in plan order.
    layers: Vec<(usize, KvQuant)>,
}

impl SessionFactory {
    /// Opens a session with room for `max_tokens` tokens per layer —
    /// every byte of cache storage is allocated here, none on the
    /// decode hot path.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnsupportedLayer`] when `max_tokens` is zero.
    pub(crate) fn open(&self, max_tokens: usize) -> Result<DecodeSession, RuntimeError> {
        if max_tokens == 0 {
            return Err(decode_err(
                "session capacity must be at least one token".to_string(),
            ));
        }
        let caches = self
            .layers
            .iter()
            .map(|(dim, kv)| KvCache::new(*dim, max_tokens, kv))
            .collect();
        Ok(DecodeSession::new(caches, max_tokens))
    }
}

/// Structured "this isn't decodable" error.
fn decode_err(reason: String) -> RuntimeError {
    RuntimeError::UnsupportedLayer {
        layer: "decode".to_string(),
        reason,
    }
}

/// The error every decode entry point returns on a non-causal plan.
fn no_causal_err() -> RuntimeError {
    decode_err("plan has no causal attention layer".to_string())
}

/// Work accounting for one executed plan layer: `(kind, MACs, bytes
/// touched)` for `batch` rows with `in_len`/`out_len` f32 activations.
/// MACs count GEMM multiply-accumulates (zero for non-GEMM layers);
/// bytes count the f32 activations read and written plus one streamed
/// pass over the integer weight image (and the im2row lowering for
/// convolutions) — the quantities `antc stats` turns into GOPS and
/// effective-bandwidth figures. All of it is a handful of integer
/// multiplies against already-resident struct fields; with telemetry
/// compiled out the no-op consumer lets the whole call fold away.
fn layer_obs_info(
    layer: &PlanLayer,
    batch: usize,
    in_len: usize,
    out_len: usize,
) -> (LayerKind, u64, u64) {
    let b = batch as u64;
    let act_bytes = ((in_len + out_len) * std::mem::size_of::<f32>()) as u64;
    match layer {
        PlanLayer::Packed(p) => {
            let (o, i) = (p.mat.out as u64, p.mat.inp as u64);
            let w = (p.mat.out * p.mat.inp * p.mat.image.elem_bytes()) as u64;
            (LayerKind::PackedLinear, b * o * i, act_bytes + w)
        }
        PlanLayer::PackedConv(p) => {
            let (co, oh, ow) = p.out_shape;
            let k = p.mat.inp as u64;
            let pixels = (oh * ow) as u64;
            let elem = p.mat.image.elem_bytes() as u64;
            let w = (p.mat.out * p.mat.inp) as u64 * elem;
            // The im2row matrix is written and then streamed by the GEMM
            // at the operand width.
            let rows_bytes = 2 * b * pixels * k * elem;
            (
                LayerKind::PackedConv,
                b * pixels * k * co as u64,
                act_bytes + w + rows_bytes,
            )
        }
        PlanLayer::PackedAttn(p) => {
            let (s, d) = (p.seq as u64, p.dim as u64);
            // Four [d, d] projections over s tokens, plus the s×s score
            // and context GEMMs.
            let macs = b * (4 * s * d * d + 2 * s * s * d);
            let w: u64 = p
                .projs
                .iter()
                .map(|m| (m.out * m.inp * m.image.elem_bytes()) as u64)
                .sum::<u64>()
                + (p.wo_t_f32.len() * std::mem::size_of::<f32>()) as u64;
            (LayerKind::PackedAttn, macs, act_bytes + w)
        }
        PlanLayer::PackedCausalAttn(p) => {
            // Sequence length is input-derived here (seq-polymorphic):
            // `in_len / (batch·dim)` is the prompt length during
            // prefill/full forward and exactly 1 during a decode step.
            let d = p.dim as u64;
            let s = ((in_len as u64) / b.max(1) / d.max(1)).max(1);
            let macs = b * (4 * s * d * d + 2 * s * s * d);
            let w: u64 = p
                .projs
                .iter()
                .map(|m| (m.out * m.inp * m.image.elem_bytes()) as u64)
                .sum::<u64>()
                + (p.wo_t_f32.len() * std::mem::size_of::<f32>()) as u64;
            (LayerKind::PackedAttn, macs, act_bytes + w)
        }
        PlanLayer::Relu => (LayerKind::Relu, 0, act_bytes),
        PlanLayer::Gelu => (LayerKind::Gelu, 0, act_bytes),
        PlanLayer::Pool { .. } => (LayerKind::Pool, 0, act_bytes),
        PlanLayer::Norm(_) => (LayerKind::Norm, 0, act_bytes),
        PlanLayer::Fallback(_) => (LayerKind::Fallback, 0, act_bytes),
    }
}

/// Input feature count implied by a lowered plan step, when it has one
/// (mirrors [`layer_in_features`] so artifact-reloaded plans pin the same
/// input width as freshly compiled ones).
fn plan_layer_in_features(layer: &PlanLayer) -> Option<usize> {
    match layer {
        PlanLayer::Packed(p) => Some(p.in_features()),
        PlanLayer::PackedConv(p) => Some(p.in_features()),
        PlanLayer::PackedAttn(p) => Some(p.in_features()),
        PlanLayer::Pool {
            in_shape: (c, h, w),
        } => Some(c * h * w),
        PlanLayer::Fallback(l) => layer_in_features(l),
        _ => None,
    }
}

/// Input feature count implied by a layer's geometry, when it has one.
fn layer_in_features(layer: &NetLayer) -> Option<usize> {
    match layer {
        NetLayer::Dense(d) => Some(d.in_features()),
        NetLayer::Conv(c) => {
            let (ci, h, w) = c.in_shape();
            Some(ci * h * w)
        }
        NetLayer::Pool(p) => {
            let (c, h, w) = p.in_shape();
            Some(c * h * w)
        }
        NetLayer::Attn(a) => Some(a.seq() * a.dim()),
        _ => None,
    }
}

/// Packs one quantized dense layer: encodes the fake-quantized weight onto
/// wire codes, precomputes the LUT-decoded narrow weight image, and
/// carries the activation quantizer.
fn pack_dense(d: &Dense) -> Result<PackedLinear, RuntimeError> {
    let name = d.name().to_string();
    let (wq, aq) = require_quantizers(&name, &d.quant.weight, &d.quant.activation)?;
    check_int_domain(&name, &[wq.dtype(), aq.dtype()])?;
    let (out, inp) = (d.out_features(), d.in_features());
    let mat = PackedMatrix::pack(
        d.weight().as_slice(),
        out,
        inp,
        wq,
        &[out, inp],
        act_bound(aq),
    )?;
    let deq = mat.deq_scales(aq.scale());
    Ok(PackedLinear {
        name,
        mat,
        bias: d.bias().as_slice().to_vec(),
        deq,
        act_quant: ActQuant::for_quantizer(aq),
        act: aq.clone(),
    })
}

/// Packs one quantized convolution: kernel codes shaped `[co, ci, kh, kw]`
/// with per-output-channel scales, geometry captured for the im2row
/// lowering.
fn pack_conv(c: &Conv2d) -> Result<PackedConv, RuntimeError> {
    let name = c.name().to_string();
    let (wq, aq) = require_quantizers(&name, &c.quant.weight, &c.quant.activation)?;
    check_int_domain(&name, &[wq.dtype(), aq.dtype()])?;
    let dims = c.weight().dims().to_vec();
    let (co, kin) = (dims[0], dims[1] * dims[2] * dims[3]);
    let mat = PackedMatrix::pack(c.weight().as_slice(), co, kin, wq, &dims, act_bound(aq))?;
    let deq = mat.deq_scales(aq.scale());
    Ok(PackedConv {
        name,
        mat,
        bias: c.bias().as_slice().to_vec(),
        deq,
        act_quant: ActQuant::for_quantizer(aq),
        act: aq.clone(),
        in_shape: c.in_shape(),
        geo: c.geometry(),
        out_shape: c.out_shape(),
    })
}

/// Packs one quantized attention block: all four projection weights onto
/// wire codes plus the shared input-activation quantizer.
fn pack_attn(a: &Attention) -> Result<PackedAttn, RuntimeError> {
    let name = a.name().to_string();
    let aq = a
        .quant
        .activation
        .as_ref()
        .ok_or_else(|| RuntimeError::NotQuantized {
            layer: name.clone(),
        })?;
    let mut dtypes = vec![aq.dtype()];
    for wq in &a.quant.weights {
        match wq {
            Some(q) => dtypes.push(q.dtype()),
            None => {
                return Err(RuntimeError::NotQuantized {
                    layer: name.clone(),
                })
            }
        }
    }
    check_int_domain(&name, &dtypes)?;
    let dim = a.dim();
    let bound = act_bound(aq);
    let weights = a.projection_weights();
    let mut projs = Vec::with_capacity(4);
    for (w, wq) in weights.iter().zip(&a.quant.weights) {
        let wq = wq.as_ref().expect("checked above");
        projs.push(PackedMatrix::pack(
            w.as_slice(),
            dim,
            dim,
            wq,
            &[dim, dim],
            bound,
        )?);
    }
    let projs: [PackedMatrix; 4] = projs.try_into().expect("exactly four projections");
    let wo_t_f32 = PackedStore::from_vec(transpose(&projs[3].rows_f32(), dim));
    let deq_qkv = std::array::from_fn(|i| projs[i].deq_scales(aq.scale()));
    Ok(PackedAttn {
        name,
        seq: a.seq(),
        dim,
        projs,
        deq_qkv,
        wo_t_f32,
        act_quant: ActQuant::for_quantizer(aq),
        act: aq.clone(),
        kv: None,
    })
}

/// Unwraps a layer's weight/activation quantizer pair or reports it as
/// unquantized.
fn require_quantizers<'a>(
    name: &str,
    weight: &'a Option<TensorQuantizer>,
    activation: &'a Option<Quantizer>,
) -> Result<(&'a TensorQuantizer, &'a Quantizer), RuntimeError> {
    match (weight, activation) {
        (Some(w), Some(a)) => Ok((w, a)),
        _ => Err(RuntimeError::NotQuantized {
            layer: name.to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ant_core::{ClipSearch, Granularity};
    use ant_nn::model::{mlp, small_cnn, tiny_transformer, transformer_block};
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
        assert_eq!(plan.coverage(), 1.0);
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
        let mut plan = CompiledPlan::from_quantized_strict(&model).unwrap();
        assert_eq!(plan.coverage(), 1.0);
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
            let mut plan = CompiledPlan::from_quantized_strict(&model).unwrap();
            assert_eq!(plan.coverage(), 1.0);
            assert!(plan
                .layers()
                .iter()
                .any(|l| matches!(l, PlanLayer::PackedAttn(_))));
            let x = gaussian(&[3, feat], 17);
            assert_close(&mut plan, &mut model, &x);
        }
    }

    #[test]
    fn float_typed_layer_falls_back_leniently_and_fails_strict() {
        let (mut model, calib) = quantized_mlp();
        // Force a float-typed weight on the middle dense layer.
        let fdt = DataType::float(4, true).unwrap();
        if let NetLayer::Dense(d) = &mut model.layers_mut()[2] {
            let (q, _) = TensorQuantizer::fit(
                fdt,
                &d.weight().clone(),
                Granularity::PerChannel,
                ClipSearch::default(),
            )
            .unwrap();
            d.quant.weight = Some(q);
        }
        let mut plan = CompiledPlan::from_quantized(&model).unwrap();
        assert!(plan.coverage() < 1.0);
        assert_eq!(plan.packed_layer_count(), 2);
        assert!(plan
            .layers()
            .iter()
            .any(|l| matches!(l, PlanLayer::Fallback(_))));
        // Fallback still computes exactly what the reference computes.
        assert_close(&mut plan, &mut model, &calib.clone());
        // Strict mode refuses the same model.
        match CompiledPlan::from_quantized_strict(&model) {
            Err(RuntimeError::UnsupportedLayer { layer, .. }) => assert_eq!(layer, "fc2"),
            other => panic!("expected UnsupportedLayer, got {other:?}"),
        }
    }

    #[test]
    fn coverage_counts_fallback_layers_in_the_denominator() {
        // The documented contract: coverage = 1 − fallback/total over ALL
        // plan layers. The 5-layer MLP (dense, relu, dense, relu, dense)
        // with one float-typed dense must report exactly 4/5, not 4/4.
        let (mut model, _) = quantized_mlp();
        let fdt = DataType::float(4, true).unwrap();
        if let NetLayer::Dense(d) = &mut model.layers_mut()[2] {
            let (q, _) = TensorQuantizer::fit(
                fdt,
                &d.weight().clone(),
                Granularity::PerChannel,
                ClipSearch::default(),
            )
            .unwrap();
            d.quant.weight = Some(q);
        }
        let plan = CompiledPlan::from_quantized(&model).unwrap();
        assert_eq!(plan.layers().len(), 5);
        assert_eq!(plan.coverage(), 1.0 - 1.0 / 5.0);
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
        let base = CompiledPlan::from_quantized_strict(&model).unwrap();
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
    fn act_quant_specializations_match_codec_snap() {
        use ant_core::DataType;
        for dt in [
            DataType::int(4, true).unwrap(),
            DataType::int(4, false).unwrap(),
            DataType::int(8, true).unwrap(),
            DataType::flint(4, true).unwrap(),
            DataType::flint(4, false).unwrap(),
            DataType::flint(6, true).unwrap(),
            DataType::pot(4, true).unwrap(),
            DataType::pot(4, false).unwrap(),
        ] {
            let q = Quantizer::with_scale(dt, 1.0).unwrap();
            let act = ActQuant::for_quantizer(&q);
            let codec = q.codec();
            let max = codec.max_value();
            let mut v = -1.5 * max;
            let step = max / 97.0;
            while v <= 1.5 * max {
                assert_eq!(act.apply(v, codec), codec.snap(v) as i32, "{dt}: v={v}");
                v += step;
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
