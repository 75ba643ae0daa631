//! Single-head self-attention and layer normalisation — the pieces that
//! make the Transformer workload (the paper's BERT/ViT benchmarks) real
//! rather than an MLP in disguise. Attention activations are exactly where
//! the paper observes Laplace-like long tails (Fig. 1, Sec. VII-E), so QAT
//! experiments need this layer to reproduce the phenomenon.

use crate::layer::{Layer, Param};
use crate::vmath::exp_sub_slice;
use crate::NnError;
use ant_core::{Quantizer, TensorQuantizer};
use ant_tensor::linalg;
use ant_tensor::Tensor;

/// Quantization state for the attention block: one weight quantizer per
/// projection (q, k, v, o) plus an input-activation quantizer.
#[derive(Debug, Clone, Default)]
pub struct AttnQuantState {
    /// Per-projection weight quantizers.
    pub weights: [Option<TensorQuantizer>; 4],
    /// Per-tensor input-activation quantizer.
    pub activation: Option<Quantizer>,
}

impl AttnQuantState {
    /// Whether any quantizer is attached.
    pub fn is_active(&self) -> bool {
        self.weights.iter().any(Option::is_some) || self.activation.is_some()
    }
}

/// Layer normalisation over groups of `dim` features (one group per token
/// position for `[batch, seq*dim]` inputs).
#[derive(Debug, Clone)]
pub struct LayerNorm {
    name: String,
    dim: usize,
    gamma: Param,
    beta: Param,
    eps: f32,
    cache: Option<LnCache>,
}

#[derive(Debug, Clone)]
struct LnCache {
    xhat: Tensor,
    inv_std: Vec<f32>,
}

impl LayerNorm {
    /// Creates a layer norm over `dim`-sized feature groups.
    pub fn new(name: impl Into<String>, dim: usize) -> Self {
        LayerNorm {
            name: name.into(),
            dim,
            gamma: Param::new(Tensor::ones(&[dim])),
            beta: Param::new(Tensor::zeros(&[dim])),
            eps: 1e-5,
            cache: None,
        }
    }

    /// Feature-group size (export hook for inference runtimes).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Scale parameter γ `[dim]` (export hook for inference runtimes).
    pub fn gamma(&self) -> &Tensor {
        &self.gamma.value
    }

    /// Shift parameter β `[dim]` (export hook for inference runtimes).
    pub fn beta(&self) -> &Tensor {
        &self.beta.value
    }

    /// Variance epsilon (export hook for inference runtimes).
    pub fn eps(&self) -> f32 {
        self.eps
    }
}

/// Normalises one `dim`-sized feature group, applying the affine
/// `γ·x̂ + β` into `out`, optionally recording x̂ (for backward caches),
/// and returns the inverse standard deviation (export hook: inference
/// runtimes that evaluate layer norm outside the layer abstraction must
/// use the *same* mean/variance formulation, or their outputs drift from
/// the QAT reference).
pub fn layer_norm_group(
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    mut xhat: Option<&mut [f32]>,
    out: &mut [f32],
) -> f32 {
    let dim = x.len();
    let mean = x.iter().sum::<f32>() / dim as f32;
    let var = x.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / dim as f32;
    let istd = 1.0 / (var + eps).sqrt();
    for (k, &v) in x.iter().enumerate() {
        let xh = (v - mean) * istd;
        if let Some(buf) = xhat.as_deref_mut() {
            buf[k] = xh;
        }
        out[k] = gamma[k] * xh + beta[k];
    }
    istd
}

impl Layer for LayerNorm {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        if x.rank() != 2 || !x.dims()[1].is_multiple_of(self.dim) {
            return Err(NnError::BadInput {
                layer: self.name.clone(),
                reason: format!("features {:?} not divisible by dim {}", x.dims(), self.dim),
            });
        }
        let groups = x.len() / self.dim;
        let mut out = x.clone();
        let mut xhat = x.clone();
        let mut inv_std = Vec::with_capacity(groups);
        let g = self.gamma.value.as_slice();
        let b = self.beta.value.as_slice();
        for gi in 0..groups {
            let lo = gi * self.dim;
            let hi = lo + self.dim;
            let istd = layer_norm_group(
                &x.as_slice()[lo..hi],
                g,
                b,
                self.eps,
                Some(&mut xhat.as_mut_slice()[lo..hi]),
                &mut out.as_mut_slice()[lo..hi],
            );
            inv_std.push(istd);
        }
        self.cache = Some(LnCache { xhat, inv_std });
        Ok(out)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        let cache = self.cache.as_ref().ok_or_else(|| NnError::NoForwardState {
            layer: self.name.clone(),
        })?;
        let groups = grad.len() / self.dim;
        let mut dx = grad.clone();
        let g = self.gamma.value.as_slice();
        let d = self.dim as f32;
        for gi in 0..groups {
            let lo = gi * self.dim;
            let hi = lo + self.dim;
            let gy = &grad.as_slice()[lo..hi];
            let xh = &cache.xhat.as_slice()[lo..hi];
            // Parameter gradients.
            for k in 0..self.dim {
                self.gamma.grad.as_mut_slice()[k] += gy[k] * xh[k];
                self.beta.grad.as_mut_slice()[k] += gy[k];
            }
            // dx = inv_std/d * (d*gy*γ − Σ(gy*γ) − x̂ Σ(gy*γ*x̂)).
            let gyg: Vec<f32> = (0..self.dim).map(|k| gy[k] * g[k]).collect();
            let sum_gyg: f32 = gyg.iter().sum();
            let sum_gyg_xh: f32 = gyg.iter().zip(xh).map(|(a, b)| a * b).sum();
            let istd = cache.inv_std[gi];
            for k in 0..self.dim {
                dx.as_mut_slice()[lo + k] = istd / d * (d * gyg[k] - sum_gyg - xh[k] * sum_gyg_xh);
            }
        }
        Ok(dx)
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }
}

/// Single-head self-attention with a residual connection:
/// `Y = X + softmax(QKᵀ/√d) V Woᵀ` over `[batch, seq*dim]` inputs.
///
/// With [`Attention::with_causal`] the score matrix is masked so token
/// `i` attends only to tokens `j ≤ i` — the decoder variant used by
/// autoregressive models, where it makes token-by-token incremental
/// decode mathematically equivalent to the full-sequence forward.
#[derive(Debug, Clone)]
pub struct Attention {
    name: String,
    seq: usize,
    dim: usize,
    causal: bool,
    wq: Param,
    wk: Param,
    wv: Param,
    wo: Param,
    /// Quantization hooks for the four projection weights and the input
    /// activations.
    pub quant: AttnQuantState,
    cache: Option<AttnCache>,
}

#[derive(Debug, Clone)]
struct AttnCache {
    x: Tensor,      // [batch, seq*dim] (post activation-quant)
    q: Vec<Tensor>, // per-sample [seq, dim]
    k: Vec<Tensor>,
    v: Vec<Tensor>,
    a: Vec<Tensor>, // per-sample [seq, seq] softmax
    o: Vec<Tensor>, // per-sample [seq, dim]
}

impl Attention {
    /// Creates an attention block for `seq`-token, `dim`-feature inputs.
    pub fn init(name: impl Into<String>, seq: usize, dim: usize, seed: u64) -> Self {
        let bound = (3.0 / dim as f32).sqrt();
        let mk = |s| {
            ant_tensor::dist::sample_tensor(
                ant_tensor::dist::Distribution::Uniform {
                    lo: -bound,
                    hi: bound,
                },
                &[dim, dim],
                s,
            )
        };
        Attention {
            name: name.into(),
            seq,
            dim,
            causal: false,
            wq: Param::new(mk(seed)),
            wk: Param::new(mk(seed.wrapping_add(1))),
            wv: Param::new(mk(seed.wrapping_add(2))),
            wo: Param::new(mk(seed.wrapping_add(3))),
            quant: AttnQuantState::default(),
            cache: None,
        }
    }

    /// Turns causal (autoregressive) masking on or off: token `i`'s
    /// scores over `j > i` are set to `-∞` before the softmax, so its
    /// output depends only on the prefix `0..=i`. Backward needs no
    /// masking of its own — masked positions have `a == 0`, so the
    /// softmax Jacobian zeroes their gradient automatically.
    #[must_use]
    pub fn with_causal(mut self, causal: bool) -> Self {
        self.causal = causal;
        self
    }

    /// Whether this block applies the causal mask (export hook for
    /// inference runtimes).
    pub fn causal(&self) -> bool {
        self.causal
    }

    /// Sequence length (export hook for inference runtimes).
    pub fn seq(&self) -> usize {
        self.seq
    }

    /// Per-token feature count (export hook for inference runtimes).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The four projection weights (q, k, v, o) for quantization analysis.
    pub fn projection_weights(&self) -> [&Tensor; 4] {
        [
            &self.wq.value,
            &self.wk.value,
            &self.wv.value,
            &self.wo.value,
        ]
    }

    fn effective(&self, which: usize) -> Result<Tensor, NnError> {
        let p = match which {
            0 => &self.wq,
            1 => &self.wk,
            2 => &self.wv,
            _ => &self.wo,
        };
        match &self.quant.weights[which] {
            Some(q) => Ok(q.apply(&p.value)?),
            None => Ok(p.value.clone()),
        }
    }
}

/// Row-wise max-subtracted softmax over a `[rows, cols]` slice (export
/// hook: inference runtimes that evaluate attention scores outside the
/// layer abstraction must use the *same* formulation — the
/// [`vmath`](crate::vmath) `exp`, an ascending sum, one divide per
/// element — or their outputs drift from the QAT reference).
pub fn softmax_rows_in_place(m: &mut [f32], rows: usize, cols: usize) {
    assert_eq!(m.len(), rows * cols, "softmax shape");
    for i in 0..rows {
        let row = &mut m[i * cols..(i + 1) * cols];
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        exp_sub_slice(row, max);
        let sum = row.iter().fold(0.0, |s, &e| s + e);
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

fn softmax_rows(m: &Tensor) -> Tensor {
    let mut out = m.clone();
    softmax_rows_in_place(out.as_mut_slice(), m.dims()[0], m.dims()[1]);
    out
}

impl Layer for Attention {
    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        let feat = self.seq * self.dim;
        if x.rank() != 2 || x.dims()[1] != feat {
            return Err(NnError::BadInput {
                layer: self.name.clone(),
                reason: format!("expected [batch, {feat}], got {:?}", x.dims()),
            });
        }
        let xq = match &self.quant.activation {
            Some(q) => q.apply(x),
            None => x.clone(),
        };
        let batch = x.dims()[0];
        let wq = self.effective(0)?;
        let wk = self.effective(1)?;
        let wv = self.effective(2)?;
        let wo = self.effective(3)?;
        let scale = 1.0 / (self.dim as f32).sqrt();
        let mut out = Tensor::zeros(&[batch, feat]);
        let mut cache = AttnCache {
            x: xq.clone(),
            q: Vec::with_capacity(batch),
            k: Vec::with_capacity(batch),
            v: Vec::with_capacity(batch),
            a: Vec::with_capacity(batch),
            o: Vec::with_capacity(batch),
        };
        for s in 0..batch {
            let xs = Tensor::from_vec(xq.channel(s)?.to_vec(), &[self.seq, self.dim])?;
            let q = linalg::matmul(&xs, &wq.transpose()?)?;
            let k = linalg::matmul(&xs, &wk.transpose()?)?;
            let v = linalg::matmul(&xs, &wv.transpose()?)?;
            let mut scores = linalg::matmul(&q, &k.transpose()?)?.scale(scale);
            if self.causal {
                let m = scores.as_mut_slice();
                for i in 0..self.seq {
                    for j in (i + 1)..self.seq {
                        m[i * self.seq + j] = f32::NEG_INFINITY;
                    }
                }
            }
            let a = softmax_rows(&scores);
            let o = linalg::matmul(&a, &v)?;
            let y = linalg::matmul(&o, &wo.transpose()?)?;
            // Residual connection.
            let res = xs.add(&y)?;
            out.channel_mut(s)?.copy_from_slice(res.as_slice());
            cache.q.push(q);
            cache.k.push(k);
            cache.v.push(v);
            cache.a.push(a);
            cache.o.push(o);
        }
        self.cache = Some(cache);
        Ok(out)
    }

    fn backward(&mut self, grad: &Tensor) -> Result<Tensor, NnError> {
        let cache = self.cache.take().ok_or_else(|| NnError::NoForwardState {
            layer: self.name.clone(),
        })?;
        let batch = grad.dims()[0];
        let wq = self.effective(0)?;
        let wk = self.effective(1)?;
        let wv = self.effective(2)?;
        let wo = self.effective(3)?;
        let scale = 1.0 / (self.dim as f32).sqrt();
        let mut dx_all = Tensor::zeros(grad.dims());
        for s in 0..batch {
            let gy = Tensor::from_vec(grad.channel(s)?.to_vec(), &[self.seq, self.dim])?;
            let xs = Tensor::from_vec(cache.x.channel(s)?.to_vec(), &[self.seq, self.dim])?;
            // Residual branch.
            let mut dx = gy.clone();
            // Output projection: y = o · woᵀ.
            let do_ = linalg::matmul(&gy, &wo)?;
            self.wo.grad = self
                .wo
                .grad
                .add(&linalg::matmul(&gy.transpose()?, &cache.o[s])?)?;
            // o = a · v.
            let da = linalg::matmul(&do_, &cache.v[s].transpose()?)?;
            let dv = linalg::matmul(&cache.a[s].transpose()?, &do_)?;
            // Softmax backward per row: ds = a ⊙ (da − rowsum(da ⊙ a)).
            let mut ds = da.clone();
            let a = &cache.a[s];
            for i in 0..self.seq {
                let arow = &a.as_slice()[i * self.seq..(i + 1) * self.seq];
                let darow = &da.as_slice()[i * self.seq..(i + 1) * self.seq];
                let dot: f32 = arow.iter().zip(darow).map(|(x, y)| x * y).sum();
                for j in 0..self.seq {
                    ds.as_mut_slice()[i * self.seq + j] = arow[j] * (darow[j] - dot);
                }
            }
            let ds = ds.scale(scale);
            // scores = q · kᵀ.
            let dq = linalg::matmul(&ds, &cache.k[s])?;
            let dk = linalg::matmul(&ds.transpose()?, &cache.q[s])?;
            // Projections: q = x · wqᵀ etc.
            self.wq.grad = self.wq.grad.add(&linalg::matmul(&dq.transpose()?, &xs)?)?;
            self.wk.grad = self.wk.grad.add(&linalg::matmul(&dk.transpose()?, &xs)?)?;
            self.wv.grad = self.wv.grad.add(&linalg::matmul(&dv.transpose()?, &xs)?)?;
            dx = dx.add(&linalg::matmul(&dq, &wq)?)?;
            dx = dx.add(&linalg::matmul(&dk, &wk)?)?;
            dx = dx.add(&linalg::matmul(&dv, &wv)?)?;
            dx_all.channel_mut(s)?.copy_from_slice(dx.as_slice());
        }
        Ok(dx_all)
    }

    fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.wq);
        f(&mut self.wk);
        f(&mut self.wv);
        f(&mut self.wo);
    }
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
    fn layernorm_normalises_groups() {
        let mut ln = LayerNorm::new("ln", 4);
        let x =
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[1, 8]).unwrap();
        let y = ln.forward(&x).unwrap();
        for g in 0..2 {
            let s = &y.as_slice()[g * 4..(g + 1) * 4];
            let mean: f32 = s.iter().sum::<f32>() / 4.0;
            let var: f32 = s.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 4.0;
            assert!(mean.abs() < 1e-5, "group {g} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "group {g} var {var}");
        }
    }

    #[test]
    fn layernorm_gradient_check() {
        let mut ln = LayerNorm::new("ln", 6);
        let x = gaussian(&[2, 12], 3);
        let y = ln.forward(&x).unwrap();
        // Use a non-uniform upstream gradient so the test exercises the
        // cross terms.
        let g = Tensor::from_fn(y.dims(), |i| 0.3 + 0.1 * (i[1] as f32));
        let dx = ln.backward(&g).unwrap();
        let eps = 1e-2;
        let loss = |ln: &mut LayerNorm, xx: &Tensor| {
            let yy = ln.forward(xx).unwrap();
            yy.as_slice()
                .iter()
                .enumerate()
                .map(|(i, v)| v * (0.3 + 0.1 * ((i % 12) as f32)))
                .sum::<f32>()
        };
        for i in 0..8 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let numeric = (loss(&mut ln, &xp) - loss(&mut ln, &xm)) / (2.0 * eps);
            let analytic = dx.as_slice()[i];
            assert!(
                (numeric - analytic).abs() < 2e-2 * (1.0 + numeric.abs()),
                "grad[{i}]: {numeric} vs {analytic}"
            );
        }
    }

    #[test]
    fn attention_forward_shape_and_residual() {
        let mut at = Attention::init("attn", 4, 8, 17);
        let x = gaussian(&[2, 32], 19);
        let y = at.forward(&x).unwrap();
        assert_eq!(y.dims(), &[2, 32]);
        // With zero projection output the residual passes through; verify
        // output differs from input but correlates strongly.
        assert_ne!(y, x);
    }

    #[test]
    fn attention_gradient_check() {
        let mut at = Attention::init("attn", 3, 4, 23);
        let x = gaussian(&[2, 12], 29).scale(0.5);
        let y = at.forward(&x).unwrap();
        let g = Tensor::ones(y.dims());
        let dx = at.backward(&g).unwrap();
        let eps = 1e-2;
        for i in 0..12 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fp = at.forward(&xp).unwrap().sum();
            let fm = at.forward(&xm).unwrap().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = dx.as_slice()[i];
            assert!(
                (numeric - analytic).abs() < 3e-2 * (1.0 + numeric.abs()),
                "grad[{i}]: {numeric} vs {analytic}"
            );
        }
    }

    #[test]
    fn attention_weight_gradients_nonzero() {
        let mut at = Attention::init("attn", 4, 8, 31);
        let x = gaussian(&[3, 32], 37);
        let y = at.forward(&x).unwrap();
        let _ = at.backward(&Tensor::ones(y.dims())).unwrap();
        let mut norms = Vec::new();
        at.for_each_param(&mut |p| {
            norms.push(p.grad.as_slice().iter().map(|v| v.abs()).sum::<f32>())
        });
        assert_eq!(norms.len(), 4);
        for (i, n) in norms.iter().enumerate() {
            assert!(*n > 0.0, "projection {i} has zero gradient");
        }
    }

    #[test]
    fn attention_rejects_bad_shapes() {
        let mut at = Attention::init("attn", 4, 8, 41);
        assert!(matches!(
            at.forward(&Tensor::zeros(&[1, 31])),
            Err(NnError::BadInput { .. })
        ));
        assert!(matches!(
            Attention::init("a2", 4, 8, 43).backward(&Tensor::zeros(&[1, 32])),
            Err(NnError::NoForwardState { .. })
        ));
    }

    #[test]
    fn causal_mask_hides_future_tokens() {
        // Perturbing token t must not change any output row before t —
        // the defining property of the decoder variant.
        let (seq, dim) = (5, 4);
        let mut at = Attention::init("attn", seq, dim, 61).with_causal(true);
        assert!(at.causal());
        let x = gaussian(&[1, seq * dim], 63);
        let y = at.forward(&x).unwrap();
        for t in 1..seq {
            let mut xp = x.clone();
            for d in 0..dim {
                xp.as_mut_slice()[t * dim + d] += 0.7;
            }
            let yp = at.forward(&xp).unwrap();
            assert_eq!(
                &y.as_slice()[..t * dim],
                &yp.as_slice()[..t * dim],
                "token {t} leaked into its prefix"
            );
            assert_ne!(
                &y.as_slice()[t * dim..(t + 1) * dim],
                &yp.as_slice()[t * dim..(t + 1) * dim],
                "token {t} should still see itself"
            );
        }
        // Non-causal blocks do leak (sanity check that the test bites).
        let mut enc = Attention::init("attn", seq, dim, 61);
        let y = enc.forward(&x).unwrap();
        let mut xp = x.clone();
        xp.as_mut_slice()[(seq - 1) * dim] += 0.7;
        let yp = enc.forward(&xp).unwrap();
        assert_ne!(&y.as_slice()[..dim], &yp.as_slice()[..dim]);
    }

    #[test]
    fn causal_gradient_check() {
        // The softmax Jacobian zeroes masked positions, so backward
        // needs no mask of its own; verify against central differences.
        let mut at = Attention::init("attn", 3, 4, 67).with_causal(true);
        let x = gaussian(&[2, 12], 71).scale(0.5);
        let y = at.forward(&x).unwrap();
        let g = Tensor::ones(y.dims());
        let dx = at.backward(&g).unwrap();
        let eps = 1e-2;
        for i in 0..12 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let fp = at.forward(&xp).unwrap().sum();
            let fm = at.forward(&xm).unwrap().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            let analytic = dx.as_slice()[i];
            assert!(
                (numeric - analytic).abs() < 3e-2 * (1.0 + numeric.abs()),
                "grad[{i}]: {numeric} vs {analytic}"
            );
        }
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = gaussian(&[5, 7], 47);
        let s = softmax_rows(&m);
        for i in 0..5 {
            let row_sum: f32 = s.as_slice()[i * 7..(i + 1) * 7].iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
            assert!(s.as_slice()[i * 7..(i + 1) * 7].iter().all(|&v| v >= 0.0));
        }
    }
}
