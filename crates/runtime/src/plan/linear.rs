//! [`PackedLinear`]: a dense layer as one integer GEMM.

use super::matrix::{
    act_bound, check_features, check_int_domain, quantize_rows, LayerCtx, PackedMatrix, WeightImage,
};
use crate::error::RuntimeError;
use crate::gemm::Epilogue;
use crate::scratch::grab;
use ant_core::pack::PackedTensor;
use ant_core::{DataType, Quantizer};

/// A dense layer compiled to the packed integer domain.
#[derive(Debug, Clone)]
pub struct PackedLinear {
    name: String,
    pub(super) mat: PackedMatrix,
    bias: Vec<f32>,
    /// Precomputed `act.scale() · w_scales[o]` dequant scales.
    deq: Vec<f32>,
    /// Input-activation quantizer (per-tensor).
    act: Quantizer,
}

impl PackedLinear {
    /// Builds the layer from wire codes: `weights` must be a
    /// `[out, in]`-shaped pack and `bias` a length-`out` vector. `image`
    /// is a pre-built weight image (borrowed from a mapped artifact);
    /// `None` decodes one.
    pub(crate) fn from_parts(
        name: String,
        weights: PackedTensor,
        bias: Vec<f32>,
        act: Quantizer,
        image: Option<WeightImage>,
    ) -> Result<Self, RuntimeError> {
        check_int_domain(&name, &[weights.dtype(), act.dtype()])?;
        let mat = PackedMatrix::from_packed(&name, weights, act_bound(&name, &act)?, image)?;
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
    /// from a mapped artifact (the zero-copy load path).
    pub fn weights_borrowed(&self) -> bool {
        self.mat.is_borrowed()
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
    pub(super) fn forward_rows(
        &self,
        x: &[f32],
        batch: usize,
        ws: &mut LayerCtx<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(), RuntimeError> {
        check_features(x, batch, self.mat.inp)?;
        let b = &mut *ws.bufs;
        let out = grab(out, batch * self.mat.out, 0.0);
        let epi = Epilogue {
            deq: &self.deq,
            bias: Some(&self.bias),
            rows_per_sample: 1,
        };
        match &self.mat.image {
            WeightImage::I8(pg) => {
                quantize_rows(&self.act, x, &mut b.act_i8);
                pg.matmul_dequant(&b.act_i8, batch, &epi, out, &mut b.acc, ws.pool, ws.threads);
            }
            WeightImage::I16(pg) => {
                quantize_rows(&self.act, x, &mut b.act_i16);
                pg.matmul_dequant(
                    &b.act_i16, batch, &epi, out, &mut b.acc, ws.pool, ws.threads,
                );
            }
        }
        Ok(())
    }
}
