//! Network container and the three reference model architectures used in
//! the accuracy experiments (the reproduction's stand-ins for the paper's
//! VGG/ResNet/BERT benchmarks — see DESIGN.md for the substitution
//! rationale).

use crate::attention::{Attention, LayerNorm};
use crate::gelu::Gelu;
use crate::layer::{Conv2d, Dense, Layer, MaxPool2, Param, Relu};
use crate::NnError;
use ant_tensor::Tensor;

/// A concrete layer in a [`Sequential`] network.
///
/// An enum (rather than trait objects) so quantization passes can match on
/// the layers that own weights without downcasting.
#[derive(Debug, Clone)]
pub enum NetLayer {
    /// Fully-connected layer.
    Dense(Dense),
    /// ReLU activation.
    Relu(Relu),
    /// 2-D convolution.
    Conv(Conv2d),
    /// 2×2 max pooling.
    Pool(MaxPool2),
    /// Layer normalisation.
    Norm(LayerNorm),
    /// Single-head self-attention block (boxed: it is an order of
    /// magnitude larger than the other variants).
    Attn(Box<Attention>),
    /// GELU activation.
    Gelu(Gelu),
}

impl NetLayer {
    fn as_layer_mut(&mut self) -> &mut dyn Layer {
        match self {
            NetLayer::Dense(l) => l,
            NetLayer::Relu(l) => l,
            NetLayer::Conv(l) => l,
            NetLayer::Pool(l) => l,
            NetLayer::Norm(l) => l,
            NetLayer::Attn(l) => l.as_mut(),
            NetLayer::Gelu(l) => l,
        }
    }

    /// Forward pass on this single layer (export hook: lets external
    /// code execute one layer's reference arithmetic on its own).
    ///
    /// # Errors
    ///
    /// Propagates the layer's [`Layer::forward`] error.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        self.as_layer_mut().forward(x)
    }

    /// Layer name.
    pub fn name(&self) -> &str {
        match self {
            NetLayer::Dense(l) => l.name(),
            NetLayer::Relu(l) => l.name(),
            NetLayer::Conv(l) => l.name(),
            NetLayer::Pool(l) => l.name(),
            NetLayer::Norm(l) => l.name(),
            NetLayer::Attn(l) => l.name(),
            NetLayer::Gelu(l) => l.name(),
        }
    }

    /// Whether this layer owns quantizable compute weights (the paper
    /// quantizes CONV and FC layers, Sec. VI-B).
    pub fn is_quantizable(&self) -> bool {
        matches!(
            self,
            NetLayer::Dense(_) | NetLayer::Conv(_) | NetLayer::Attn(_)
        )
    }
}

/// A feed-forward stack of layers.
#[derive(Debug, Clone, Default)]
pub struct Sequential {
    layers: Vec<NetLayer>,
}

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    #[must_use]
    pub fn push(mut self, layer: NetLayer) -> Self {
        self.layers.push(layer);
        self
    }

    /// The layers, immutably.
    pub fn layers(&self) -> &[NetLayer] {
        &self.layers
    }

    /// The layers, mutably (used by quantization passes).
    pub fn layers_mut(&mut self) -> &mut [NetLayer] {
        &mut self.layers
    }

    /// Forward pass through all layers.
    ///
    /// # Errors
    ///
    /// Propagates the first failing layer's error.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        let mut cur = x.clone();
        for layer in &mut self.layers {
            cur = layer.as_layer_mut().forward(&cur)?;
        }
        Ok(cur)
    }

    /// Backward pass, returning the input gradient.
    ///
    /// # Errors
    ///
    /// Propagates the first failing layer's error.
    pub fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        let mut cur = grad.clone();
        for layer in self.layers.iter_mut().rev() {
            cur = layer.as_layer_mut().backward(&cur)?;
        }
        Ok(cur)
    }

    /// Visits every trainable parameter.
    pub fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        for layer in &mut self.layers {
            layer.as_layer_mut().for_each_param(f);
        }
    }

    /// Zeroes all gradients.
    pub fn zero_grad(&mut self) {
        self.for_each_param(&mut |p| p.zero_grad());
    }

    /// Total trainable scalar count.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.for_each_param(&mut |p| n += p.value.len());
        n
    }

    /// Indices of quantizable (weight-owning) layers.
    pub fn quantizable_layers(&self) -> Vec<usize> {
        self.layers
            .iter()
            .enumerate()
            .filter(|(_, l)| l.is_quantizable())
            .map(|(i, _)| i)
            .collect()
    }
}

/// An MLP for the blob-classification task (the paper's "simple model"
/// axis): 16 → 48 → 48 → `classes`.
pub fn mlp(input: usize, classes: usize, seed: u64) -> Sequential {
    Sequential::new()
        .push(NetLayer::Dense(Dense::init("fc1", 48, input, seed)))
        .push(NetLayer::Relu(Relu::new("relu1")))
        .push(NetLayer::Dense(Dense::init(
            "fc2",
            48,
            48,
            seed.wrapping_add(10),
        )))
        .push(NetLayer::Relu(Relu::new("relu2")))
        .push(NetLayer::Dense(Dense::init(
            "head",
            classes,
            48,
            seed.wrapping_add(20),
        )))
}

/// A deep, narrow MLP: `depth` hidden layers of `width` units. Depth
/// compounds per-layer quantization error, which is what makes low-bit
/// effects measurable on small tasks (used by the Fig. 11/12 experiments).
pub fn deep_mlp(input: usize, classes: usize, width: usize, depth: usize, seed: u64) -> Sequential {
    let mut m = Sequential::new()
        .push(NetLayer::Dense(Dense::init("fc0", width, input, seed)))
        .push(NetLayer::Relu(Relu::new("relu0")));
    for i in 1..depth {
        m = m
            .push(NetLayer::Dense(Dense::init(
                format!("fc{i}"),
                width,
                width,
                seed.wrapping_add(i as u64),
            )))
            .push(NetLayer::Relu(Relu::new(format!("relu{i}"))));
    }
    m.push(NetLayer::Dense(Dense::init(
        "head",
        classes,
        width,
        seed.wrapping_add(100),
    )))
}

/// A small CNN for the 12×12 shape-classification task (stand-in for the
/// paper's CNN benchmarks): conv(8)-pool-conv(16)-pool-fc.
pub fn small_cnn(classes: usize, seed: u64) -> Sequential {
    let conv1 = Conv2d::init("conv1", 8, (1, 12, 12), 3, 1, 1, seed);
    let pool1 = MaxPool2::new("pool1", conv1.out_shape());
    let conv2 = Conv2d::init(
        "conv2",
        16,
        pool1.out_shape(),
        3,
        1,
        1,
        seed.wrapping_add(30),
    );
    let pool2 = MaxPool2::new("pool2", conv2.out_shape());
    let fc_in = pool2.out_features();
    Sequential::new()
        .push(NetLayer::Conv(conv1))
        .push(NetLayer::Relu(Relu::new("relu1")))
        .push(NetLayer::Pool(pool1))
        .push(NetLayer::Conv(conv2))
        .push(NetLayer::Relu(Relu::new("relu2")))
        .push(NetLayer::Pool(pool2))
        .push(NetLayer::Dense(Dense::init(
            "head",
            classes,
            fc_in,
            seed.wrapping_add(40),
        )))
}

/// A tiny Transformer encoder for the motif-detection task (stand-in for
/// the paper's BERT benchmarks): LN → attention → LN → FFN → head.
pub fn tiny_transformer(seq: usize, dim: usize, classes: usize, seed: u64) -> Sequential {
    Sequential::new()
        .push(NetLayer::Norm(LayerNorm::new("ln1", dim)))
        .push(NetLayer::Attn(Box::new(Attention::init(
            "attn", seq, dim, seed,
        ))))
        .push(NetLayer::Norm(LayerNorm::new("ln2", dim)))
        .push(NetLayer::Dense(Dense::init(
            "ffn1",
            64,
            seq * dim,
            seed.wrapping_add(50),
        )))
        .push(NetLayer::Relu(Relu::new("relu")))
        .push(NetLayer::Dense(Dense::init(
            "head",
            classes,
            64,
            seed.wrapping_add(60),
        )))
}

/// A single Transformer block head: attention → GELU → dense classifier.
/// The minimal attention-bearing model (no LayerNorm, no FFN expansion),
/// used by the packed-runtime conformance experiments where every layer
/// kind must execute without fallback.
pub fn transformer_block(seq: usize, dim: usize, classes: usize, seed: u64) -> Sequential {
    Sequential::new()
        .push(NetLayer::Attn(Box::new(Attention::init(
            "attn", seq, dim, seed,
        ))))
        .push(NetLayer::Gelu(Gelu::new("gelu")))
        .push(NetLayer::Dense(Dense::init(
            "head",
            classes,
            seq * dim,
            seed.wrapping_add(70),
        )))
}

/// A causal decoder stack for autoregressive generation: `depth` blocks
/// of LayerNorm → causal attention → GELU over `[batch, seq*dim]`
/// inputs. Every layer is token-local or causal, so the stack is
/// sequence-length polymorphic at inference time — exactly the property
/// incremental KV-cache decode requires. The output keeps the input
/// width (`dim` features per token); serving treats the final token row
/// as next-token logits over a `dim`-entry vocabulary (tied-embedding
/// style), so no classifier head pins a fixed sequence length.
pub fn decoder_block(seq: usize, dim: usize, depth: usize, seed: u64) -> Sequential {
    let mut m = Sequential::new();
    for i in 0..depth.max(1) {
        m = m
            .push(NetLayer::Norm(LayerNorm::new(format!("ln{i}"), dim)))
            .push(NetLayer::Attn(Box::new(
                Attention::init(
                    format!("attn{i}"),
                    seq,
                    dim,
                    seed.wrapping_add(10 * i as u64),
                )
                .with_causal(true),
            )))
            .push(NetLayer::Gelu(Gelu::new(format!("gelu{i}"))));
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn mlp_shapes() {
        let mut m = mlp(16, 8, 1);
        let y = m.forward(&gaussian(&[4, 16], 2)).unwrap();
        assert_eq!(y.dims(), &[4, 8]);
        assert_eq!(m.quantizable_layers(), vec![0, 2, 4]);
        assert!(m.param_count() > 0);
    }

    #[test]
    fn deep_mlp_shapes() {
        let mut m = deep_mlp(16, 10, 24, 6, 2);
        let y = m.forward(&gaussian(&[3, 16], 1)).unwrap();
        assert_eq!(y.dims(), &[3, 10]);
        assert_eq!(m.quantizable_layers().len(), 7); // 6 hidden + head
    }

    #[test]
    fn cnn_shapes() {
        let mut m = small_cnn(4, 3);
        let y = m.forward(&gaussian(&[2, 144], 4)).unwrap();
        assert_eq!(y.dims(), &[2, 4]);
        assert_eq!(m.quantizable_layers().len(), 3);
    }

    #[test]
    fn transformer_shapes() {
        let mut m = tiny_transformer(6, 8, 4, 5);
        let y = m.forward(&gaussian(&[3, 48], 6)).unwrap();
        assert_eq!(y.dims(), &[3, 4]);
        assert_eq!(m.quantizable_layers().len(), 3); // attn + 2 dense
    }

    #[test]
    fn transformer_block_shapes() {
        let mut m = transformer_block(5, 6, 3, 8);
        let y = m.forward(&gaussian(&[2, 30], 9)).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
        assert_eq!(m.quantizable_layers(), vec![0, 2]);
    }

    #[test]
    fn decoder_block_shapes_and_causality() {
        let (seq, dim) = (6, 8);
        let mut m = decoder_block(seq, dim, 2, 11);
        let x = gaussian(&[2, seq * dim], 13);
        let y = m.forward(&x).unwrap();
        assert_eq!(y.dims(), &[2, seq * dim]);
        assert_eq!(m.quantizable_layers().len(), 2);
        // Causality must survive stacking: perturb the last token, the
        // prefix outputs of sample 0 stay bit-identical.
        let mut xp = x.clone();
        xp.as_mut_slice()[(seq - 1) * dim] += 1.0;
        let yp = m.forward(&xp).unwrap();
        assert_eq!(
            &y.as_slice()[..(seq - 1) * dim],
            &yp.as_slice()[..(seq - 1) * dim]
        );
    }

    #[test]
    fn end_to_end_gradient_check_mlp() {
        let mut m = mlp(6, 3, 7);
        let x = gaussian(&[2, 6], 8);
        let y = m.forward(&x).unwrap();
        let dx = m.backward(&Tensor::ones(y.dims())).unwrap();
        // The network is piecewise linear in x, so central differences are
        // exact unless [x-eps, x+eps] straddles a ReLU kink. Detect that by
        // comparing two step sizes: away from kinks they agree exactly.
        let numeric_at = |m: &mut Sequential, i: usize, eps: f32| {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fp = m.forward(&xp).unwrap().sum();
            let fm = m.forward(&xm).unwrap().sum();
            (fp - fm) / (2.0 * eps)
        };
        let mut checked = 0;
        for i in 0..6 {
            let fine = numeric_at(&mut m, i, 1e-3);
            if (fine - dx.as_slice()[i]).abs() < 2e-2 * (1.0 + fine.abs()) {
                checked += 1;
                continue;
            }
            // Mismatch: only excusable if the step interval straddles a
            // kink, which shows up as step-size-dependent estimates.
            let coarse = numeric_at(&mut m, i, 4e-3);
            assert!(
                (coarse - fine).abs() > 1e-3 * (1.0 + fine.abs()),
                "grad[{i}]: numeric {fine} vs analytic {} (linear region)",
                dx.as_slice()[i]
            );
        }
        assert!(
            checked >= 3,
            "too many kink-straddling indices ({checked} checked)"
        );
    }

    #[test]
    fn zero_grad_clears_accumulation() {
        let mut m = mlp(4, 2, 9);
        let x = gaussian(&[1, 4], 10);
        let y = m.forward(&x).unwrap();
        let _ = m.backward(&Tensor::ones(y.dims())).unwrap();
        let mut any_nonzero = false;
        m.for_each_param(&mut |p| any_nonzero |= p.grad.as_slice().iter().any(|&g| g != 0.0));
        assert!(any_nonzero);
        m.zero_grad();
        m.for_each_param(&mut |p| {
            assert!(p.grad.as_slice().iter().all(|&g| g == 0.0));
        });
    }
}
