//! [`PackedConv`]: a convolution lowered by an integer im2row into the
//! same weight-stationary GEMM as dense layers.

use super::matrix::{
    act_bound, check_features, check_int_domain, quantize_rows, LayerCtx, PackedMatrix, WeightImage,
};
use crate::error::RuntimeError;
use crate::gemm::{im2row, Epilogue, KernelOperand};
use crate::scratch::grab;
use ant_core::pack::PackedTensor;
use ant_core::{DataType, Quantizer};
use ant_tensor::linalg::Conv2dGeometry;

/// A 2-D convolution compiled to the packed integer domain: the quantized
/// input is lowered by an *integer* im2row at the layer's operand width
/// and the kernel runs through the same weight-stationary GEMM as dense
/// layers, with one scale per output channel (paper Sec. V: CONV and FC
/// share the PE array after lowering).
#[derive(Debug, Clone)]
pub struct PackedConv {
    name: String,
    /// Kernel as `[co, ci·kh·kw]` with packed shape `[co, ci, kh, kw]`.
    pub(super) mat: PackedMatrix,
    bias: Vec<f32>,
    /// Precomputed `act.scale() · w_scales[c]` dequant scales.
    deq: Vec<f32>,
    act: Quantizer,
    in_shape: (usize, usize, usize),
    geo: Conv2dGeometry,
    pub(super) out_shape: (usize, usize, usize),
}

impl PackedConv {
    /// Builds the convolution from wire codes: `weights` must be a
    /// `[co, ci, kh, kw]`-shaped pack consistent with `in_shape` and
    /// `geo`. `image` is a pre-built weight image (borrowed from a mapped
    /// artifact); `None` decodes one.
    pub(crate) fn from_parts(
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
        let mat = PackedMatrix::from_packed(&name, weights, act_bound(&name, &act)?, image)?;
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
    /// from a mapped artifact (the zero-copy load path).
    pub fn weights_borrowed(&self) -> bool {
        self.mat.is_borrowed()
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
    pub(super) fn forward_rows(
        &self,
        x: &[f32],
        batch: usize,
        ws: &mut LayerCtx<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(), RuntimeError> {
        let feat = self.in_features();
        check_features(x, batch, feat)?;
        let (co, oh, ow) = self.out_shape;
        let pixels = oh * ow;
        let b = &mut *ws.bufs;
        // Dequantize + bias land straight in the [batch, co·oh·ow]
        // activation layout: each sample's `pixels` GEMM rows are written
        // channel-major by the epilogue, no separate scatter pass.
        let ov = grab(out, batch * co * pixels, 0.0);
        let epi = Epilogue {
            deq: &self.deq,
            bias: Some(&self.bias),
            rows_per_sample: pixels,
        };
        // One big GEMM over every output pixel of every sample: rows are
        // receptive fields, so weight panels stream once per row tile.
        // Quantization and the im2row lowering happen directly at the
        // layer's operand width.
        let m = batch * pixels;
        match &self.mat.image {
            WeightImage::I8(pg) => {
                let rows = self.lower(x, batch, &mut b.act_i8, &mut b.rows_i8);
                pg.matmul_dequant(rows, m, &epi, ov, &mut b.acc, ws.pool, ws.threads);
            }
            WeightImage::I16(pg) => {
                let rows = self.lower(x, batch, &mut b.act_i16, &mut b.rows_i16);
                pg.matmul_dequant(rows, m, &epi, ov, &mut b.acc, ws.pool, ws.threads);
            }
        }
        Ok(())
    }

    /// Quantizes a batch of samples at operand width `T` into `acts` and
    /// im2row-lowers them into `rows`: `[batch · oh·ow, ci·kh·kw]`.
    fn lower<'r, T: KernelOperand>(
        &self,
        x: &[f32],
        batch: usize,
        acts: &mut Vec<T>,
        rows: &'r mut Vec<T>,
    ) -> &'r [T] {
        quantize_rows(&self.act, x, acts);
        let (ci, h, w) = self.in_shape;
        let per_sample = self.out_shape.1 * self.out_shape.2 * self.mat.inp;
        let rows = grab(rows, batch * per_sample, T::default());
        for (sample, lowered) in acts
            .chunks_exact(self.in_features())
            .zip(rows.chunks_exact_mut(per_sample))
        {
            im2row(sample, ci, h, w, self.geo, lowered);
        }
        rows
    }
}
