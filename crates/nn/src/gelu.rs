//! GELU activation (tanh approximation), the Transformer FFN nonlinearity
//! the paper's Fig. 4 pipeline re-quantizes after ("their following layers
//! are usually activation layers such as SoftMax and GeLU, which also
//! require high-precision numbers").

use crate::layer::{Layer, Param};
use crate::vmath::{gelu_grad, gelu_slice};
use crate::NnError;
use ant_tensor::Tensor;

/// Gaussian error linear unit with the standard tanh approximation.
#[derive(Debug, Clone, Default)]
pub struct Gelu {
    name: String,
    cached_input: Option<Tensor>,
}

/// Scalar GELU (export hook: inference runtimes that execute GELU outside
/// the layer abstraction must compute the *same* function, bit for bit, or
/// their outputs drift from the QAT reference). It is
/// [`vmath::gelu`](crate::vmath::gelu) — the one definition, which
/// [`vmath::gelu_slice`](crate::vmath::gelu_slice) applies at vector width.
pub use crate::vmath::gelu;

impl Gelu {
    /// Creates a GELU layer.
    pub fn new(name: impl Into<String>) -> Self {
        Gelu {
            name: name.into(),
            cached_input: None,
        }
    }
}

impl Layer for Gelu {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        self.cached_input = Some(x.clone());
        let mut y = x.clone();
        gelu_slice(y.as_mut_slice());
        Ok(y)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        let x = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::NoForwardState {
                layer: self.name.clone(),
            })?;
        Ok(grad.zip_with(x, |g, xi| g * gelu_grad(xi))?)
    }

    fn for_each_param(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gelu_known_values() {
        // GELU(0) = 0; GELU is ≈ identity for large positive x and ≈ 0 for
        // large negative x.
        assert_eq!(gelu(0.0), 0.0);
        assert!((gelu(10.0) - 10.0).abs() < 1e-3);
        assert!(gelu(-10.0).abs() < 1e-3);
        // Known point: GELU(1) ≈ 0.8412.
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut layer = Gelu::new("gelu");
        let x = Tensor::from_slice(&[-2.0, -0.5, 0.0, 0.3, 1.7]);
        let y = layer.forward(&x).unwrap();
        let dx = layer.backward(&Tensor::ones(y.dims())).unwrap();
        let eps = 1e-3;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let numeric = (xp.map(gelu).as_slice()[i] - xm.map(gelu).as_slice()[i]) / (2.0 * eps);
            assert!(
                (numeric - dx.as_slice()[i]).abs() < 1e-3,
                "grad[{i}]: {numeric} vs {}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn backward_requires_forward() {
        let mut layer = Gelu::new("gelu");
        assert!(matches!(
            layer.backward(&Tensor::ones(&[1, 2])),
            Err(NnError::NoForwardState { .. })
        ));
    }

    #[test]
    fn gelu_output_has_negative_dip() {
        // Unlike ReLU, GELU outputs are slightly negative for small
        // negative inputs — its signature shape (and why post-GELU
        // activations are signed, affecting type selection).
        let mut layer = Gelu::new("gelu");
        let y = layer.forward(&Tensor::from_slice(&[-0.5])).unwrap();
        assert!(y.as_slice()[0] < 0.0);
    }
}
