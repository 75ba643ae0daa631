//! The f32 shape-polymorphic steps that carry no wire codes: layer
//! normalisation and max pooling, each the same arithmetic as its
//! reference implementation.

use super::matrix::check_features;
use crate::error::RuntimeError;
use crate::scratch::grab;
use ant_nn::attention::layer_norm_group;

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
    /// Builds the norm step from its parameters.
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
    /// reference [`ant_nn::attention::LayerNorm`] forward, by construction.
    pub(super) fn forward_rows(
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
pub(super) fn maxpool2_rows(
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
