//! Operand preparation shared by every packed layer: activation
//! quantization at the microkernel's operand widths, the decode-once
//! weight image, and the [`PackedMatrix`] that pairs wire codes with it.

use crate::error::RuntimeError;
use crate::gemm::{KernelOperand, PanelGemm};
use crate::pool::WorkerPool;
use crate::scratch::{grab, LayerBufs};
use ant_core::pack::PackedTensor;
use ant_core::{DataType, PrimitiveType, Quantizer, TensorQuantizer};

/// Quantizes real activations onto `act`'s integer lattice at operand
/// width `T` — `snap(x / s)` per element, read from the codec's step
/// table — into `out`, reusing its capacity (the zero-allocation steady
/// state). Every packed layer's operand rows go through this one loop.
pub(super) fn quantize_rows<T: KernelOperand>(act: &Quantizer, x: &[f32], out: &mut Vec<T>) {
    let out = grab(out, x.len(), T::default());
    act.codec()
        .encode_into(x, act.scale(), out, |_, v| T::from_i32(v as i32));
}

/// The decode-once integer image of a weight matrix, at the narrower of
/// the two operand widths its lattice (and the layer's activation
/// lattice) permits — the one place a layer's execution width is decided.
///
/// `i8` covers every ≤8-bit paper type (Table I magnitudes top out at 64,
/// `int8` at ±128); anything wider that still fits a halfword (`flint8u`
/// reaches 16384, `int15`/`int16`/`pot5` weights) takes the `i16` panels
/// at whatever widening cadence the magnitudes leave (≥ 1). A lattice
/// that fits neither has no execution and is refused at compilation.
/// Panel images are pre-packed for the microkernel at compile time (or
/// borrowed verbatim from a mapped artifact's panel section), so serving
/// never re-lays weights out.
#[derive(Debug, Clone)]
pub(crate) enum WeightImage {
    /// Byte panels for the microkernel (quarter traffic, double lanes).
    I8(PanelGemm<i8>),
    /// Halfword panels (wide magnitudes).
    I16(PanelGemm<i16>),
}

impl WeightImage {
    /// Whether the image data is borrowed from a mapped artifact rather
    /// than owned by this plan.
    pub(crate) fn is_borrowed(&self) -> bool {
        match self {
            WeightImage::I8(pg) => pg.is_borrowed(),
            WeightImage::I16(pg) => pg.is_borrowed(),
        }
    }

    /// Bytes per decoded weight element at this image's execution width
    /// (telemetry: sizes the streamed-weight traffic of a GEMM pass).
    pub(crate) fn elem_bytes(&self) -> usize {
        match self {
            WeightImage::I8(_) => 1,
            WeightImage::I16(_) => 2,
        }
    }
}

/// One weight matrix compiled to the packed integer domain: wire codes,
/// the LUT-decoded integer image in microkernel layout (decode once,
/// execute many) and one scale per output row.
#[derive(Debug, Clone)]
pub(super) struct PackedMatrix {
    /// Packed wire codes, shaped (`[out, in]` for dense/attention
    /// projections, `[co, ci, kh, kw]` for conv kernels).
    pub(super) weights: PackedTensor,
    /// LUT-decoded integer weights at the execution width.
    pub(super) image: WeightImage,
    /// Per-output-row scales (broadcast when the quantizer was
    /// per-tensor).
    pub(super) w_scales: Vec<f32>,
    pub(super) out: usize,
    pub(super) inp: usize,
}

/// Broadcasts a per-tensor scale across `out` output rows (per-channel
/// scales pass through) and checks there is one per row.
fn row_scales(scales: &[f32], out: usize) -> Result<Vec<f32>, RuntimeError> {
    let w_scales = if scales.len() == 1 {
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
    Ok(w_scales)
}

/// Encodes an f32 weight of logical shape `dims` (flattened row-major,
/// one scale group per `dims[0]` row) onto packed wire codes under `wq`:
/// the one place a float weight becomes codes, so a plan compiled in
/// process and an exported artifact cannot disagree on a code stream.
pub(crate) fn pack_weight_tensor(
    w: &[f32],
    wq: &TensorQuantizer,
    dims: &[usize],
) -> Result<PackedTensor, RuntimeError> {
    let codec = wq.codec();
    let w_scales = row_scales(wq.scales(), dims[0])?;
    let inp: usize = dims[1..].iter().product();
    let mut codes = Vec::with_capacity(w.len());
    for (row, s) in w.chunks_exact(inp.max(1)).zip(&w_scales) {
        codes.extend(row.iter().map(|&v| codec.encode(v / s)));
    }
    Ok(PackedTensor::pack_with_dims(
        wq.dtype(),
        &codes,
        wq.scales().to_vec(),
        dims,
    )?)
}

/// The refusal for a `(layer, type)` pair the integer domain cannot
/// execute exactly. There is no other executor, so this is how
/// compilation of such a selection ends, from every entry point.
fn unsupported(layer: &str, dtype: DataType) -> RuntimeError {
    RuntimeError::UnsupportedLayer {
        layer: layer.to_string(),
        reason: format!("selected type {dtype} has no exact integer-domain execution"),
    }
}

/// The layer's bound on quantized-activation magnitudes — what fixes the
/// microkernel's widening cadence and qualifies the byte width — or the
/// refusal for an activation lattice no operand width holds: `float`, or
/// one reaching past `i16` (16-bit unsigned `int`, 5-bit unsigned PoT).
/// Derived from the type alone, so every image — decoded here or adopted
/// from a mapped artifact — is checked against the same bound.
pub(crate) fn act_bound(layer: &str, act: &Quantizer) -> Result<i64, RuntimeError> {
    let codec = act.codec();
    let max = codec.max_value() as i64;
    match codec.decode_lut_int() {
        Some(_) if max <= i16::MAX as i64 => Ok(max),
        _ => Err(unsupported(layer, act.dtype())),
    }
}

impl PackedMatrix {
    /// Builds the executable matrix straight from packed wire codes —
    /// both plan compilation (which encodes the weight first) and the
    /// artifact reload path land here, so a reloaded plan is
    /// bit-identical to the plan that was saved: no floats are
    /// re-encoded, the wire codes *are* the weights. `act_max` is the
    /// activation-lattice magnitude bound (see [`act_bound`]).
    ///
    /// With `image: None` the integer image is decoded here. `Some` is
    /// the zero-copy path used by [`crate::artifact::MappedArtifact`],
    /// where the image bytes are borrowed straight from a mapped panel
    /// section: its shape is validated against the wire codes' dims; its
    /// *contents* are trusted (lying panel bytes produce wrong results,
    /// not UB) and cross-checked against a fresh decode by `antc verify`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UnsupportedLayer`] when the weight lattice has no
    /// exact image at either operand width; a shape error when an adopted
    /// image disagrees with the wire codes' dims, with `act_max`, or is
    /// narrower than `act_max` needs.
    pub(super) fn from_packed(
        layer: &str,
        weights: PackedTensor,
        act_max: i64,
        image: Option<WeightImage>,
    ) -> Result<Self, RuntimeError> {
        let dims = weights.dims();
        if dims.len() < 2 {
            return Err(RuntimeError::Quant(ant_core::QuantError::ChannelMismatch {
                expected: 2,
                actual: dims.len(),
            }));
        }
        let (out, inp) = (dims[0], dims[1..].iter().product::<usize>());
        let w_scales = row_scales(weights.scales(), out)?;
        let image = match image {
            None => decode_image(layer, &weights, act_max)?,
            Some(image) => {
                let (n, k, a_max, width_max) = match &image {
                    WeightImage::I8(pg) => (pg.n(), pg.k(), pg.a_max(), i8::MAX as i64),
                    WeightImage::I16(pg) => (pg.n(), pg.k(), pg.a_max(), i16::MAX as i64),
                };
                if (n, k, a_max) != (out, inp, act_max) || act_max > width_max {
                    return Err(RuntimeError::Quant(ant_core::QuantError::ChannelMismatch {
                        expected: out * inp,
                        actual: n * k,
                    }));
                }
                image
            }
        };
        Ok(PackedMatrix {
            weights,
            image,
            w_scales,
            out,
            inp,
        })
    }

    /// Whether the wire codes and the integer image are both borrowed
    /// from a mapped artifact.
    pub(super) fn is_borrowed(&self) -> bool {
        self.weights.is_borrowed() && self.image.is_borrowed()
    }

    /// The combined per-output dequantization scales for a fixed
    /// activation scale: `deq[o] = a_scale · w_scales[o]`, precomputed
    /// once at plan compile time so the per-request dequant loop is a
    /// straight multiply-add stream.
    pub(super) fn deq_scales(&self, a_scale: f32) -> Vec<f32> {
        self.w_scales.iter().map(|&w| a_scale * w).collect()
    }
}

/// Decodes a packed tensor's wire codes into the plan-domain integer
/// image and pre-packs microkernel panels for it: `i8` when the
/// activation bound and every decoded weight fit a byte, else `i16` when
/// both fit a halfword. Shared by plan compilation and the artifact
/// writer so the panel bytes the writer serializes are bit-identical to
/// the ones a fresh compile would build.
///
/// # Errors
///
/// [`RuntimeError::UnsupportedLayer`] when the weight lattice has no
/// exact integer image or a decoded weight (or `act_max`) fits neither
/// width: there is nothing to execute, and a rounded image would compute
/// a different model.
pub(crate) fn decode_image(
    layer: &str,
    weights: &PackedTensor,
    act_max: i64,
) -> Result<WeightImage, RuntimeError> {
    let dims = weights.dims();
    let out = dims[0];
    let inp: usize = dims[1..].iter().product();
    let lut = ant_core::Codec::new(weights.dtype())?
        .decode_lut_int()
        .ok_or_else(|| unsupported(layer, weights.dtype()))?;
    let w_int: Vec<i32> = weights.codes().iter().map(|&c| lut[c as usize]).collect();
    if act_max <= i8::MAX as i64 {
        let w8 = w_int.iter().map(|&v| i8::try_from(v).ok());
        if let Some(w8) = w8.collect::<Option<Vec<_>>>() {
            return Ok(WeightImage::I8(PanelGemm::pack(&w8, out, inp, act_max)));
        }
    }
    if act_max <= i16::MAX as i64 {
        let w16 = w_int.iter().map(|&v| i16::try_from(v).ok());
        if let Some(w16) = w16.collect::<Option<Vec<_>>>() {
            return Ok(WeightImage::I16(PanelGemm::pack(&w16, out, inp, act_max)));
        }
    }
    Err(unsupported(layer, weights.dtype()))
}

/// What a layer executes with for one step: the scheduling context plus
/// the arena's per-layer buffers, lent whole by the plan's layer walk
/// (which keeps the ping/pong pipeline buffers to itself).
pub(super) struct LayerCtx<'a> {
    pub(super) pool: &'a WorkerPool,
    pub(super) threads: usize,
    pub(super) bufs: &'a mut LayerBufs,
}

/// Rejects types the integer-domain engine cannot execute (the `float`
/// primitive has no int-based wire decoder — paper Sec. V-B ships the
/// int-based PE precisely to avoid it).
pub(super) fn check_int_domain(layer: &str, dtypes: &[DataType]) -> Result<(), RuntimeError> {
    for &dt in dtypes {
        if dt.primitive() == PrimitiveType::Float {
            return Err(unsupported(layer, dt));
        }
    }
    Ok(())
}

/// Validates a `[batch, features]` slice against an expected feature
/// count.
pub(super) fn check_features(x: &[f32], batch: usize, expected: usize) -> Result<(), RuntimeError> {
    if batch == 0 || x.len() != batch * expected {
        return Err(RuntimeError::ShapeMismatch {
            expected,
            actual: x.len().checked_div(batch).unwrap_or(0),
        });
    }
    Ok(())
}
