//! [`PackedAttn`]: attention with integer Q/K/V projections, an f32
//! score/softmax/context core and an output projection that walks the
//! o-weights' integer panels with the f32 context — one full-sequence
//! body for encoder and causal blocks, plus the decode step that streams
//! K/V rows out of a packed cache.

use super::matrix::{
    act_bound, check_features, check_int_domain, quantize_rows, LayerCtx, PackedMatrix, WeightImage,
};
use crate::error::RuntimeError;
use crate::gemm::{partition, Epilogue, KernelOperand};
use crate::kv::{DecodeSession, KvCache, KvHalf, KvQuant, KvQuantSpec};
use crate::scratch::grab;
use ant_core::pack::PackedTensor;
use ant_core::Quantizer;
use ant_nn::attention::softmax_rows_in_place;
use ant_nn::vmath::{axpy, dot, panel_matvec};

/// A raw `*mut f32` crossing into pool tasks; tasks write disjoint
/// regions, which is what makes the shared mutable access sound.
#[derive(Clone, Copy)]
struct ShareMut(*mut f32);
// SAFETY: the pointer is only dereferenced inside pool tasks that each
// own a disjoint region of the buffer it points into, and the buffer
// outlives the `WorkerPool::run` call that executes them.
unsafe impl Send for ShareMut {}
unsafe impl Sync for ShareMut {}

/// A self-attention block compiled to the packed integer domain. Q/K/V
/// projections consume the quantized input as integer GEMMs; scores,
/// softmax and the context product stay f32 (softmax outputs are
/// activations that "require high-precision numbers", Sec. IV-C); the
/// output projection multiplies that f32 context into the o-weights'
/// integer panel image, scale applied per output channel at the
/// boundary. Each projection weight is its wire codes plus one decoded
/// image, which is what executes.
#[derive(Debug, Clone)]
pub struct PackedAttn {
    name: String,
    seq: usize,
    pub(super) dim: usize,
    /// Packed q, k, v, o projections, each `[dim, dim]`.
    pub(super) projs: [PackedMatrix; 4],
    /// Precomputed `act.scale() · w_scales` for the q/k/v dequants.
    deq_qkv: [Vec<f32>; 3],
    act: Quantizer,
    /// The KV-cache group codec — `Some` iff this is a causal
    /// (decoder-style) block, which masks future tokens in the
    /// full-sequence forward and supports incremental decode against a
    /// packed [`KvCache`]. Encoder blocks never touch it.
    pub(super) kv: Option<KvQuant>,
}

impl PackedAttn {
    /// Builds the attention block from wire codes: each projection must
    /// be a `[dim, dim]`-shaped pack. `prebuilt` carries the q/k/v/o
    /// weight images (borrowed from a mapped artifact); `None` decodes
    /// them.
    pub(crate) fn from_parts(
        name: String,
        seq: usize,
        dim: usize,
        projections: [PackedTensor; 4],
        act: Quantizer,
        prebuilt: Option<[WeightImage; 4]>,
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
        let [qi, ki, vi, oi] = prebuilt.map_or(Default::default(), |images| images.map(Some));
        let bound = act_bound(&name, &act)?;
        let [q, k, v, o] = projections;
        let projs = [
            PackedMatrix::from_packed(&name, q, bound, qi)?,
            PackedMatrix::from_packed(&name, k, bound, ki)?,
            PackedMatrix::from_packed(&name, v, bound, vi)?,
            PackedMatrix::from_packed(&name, o, bound, oi)?,
        ];
        let deq_qkv = std::array::from_fn(|i| projs[i].deq_scales(act.scale()));
        Ok(PackedAttn {
            name,
            seq,
            dim,
            projs,
            deq_qkv,
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

    pub(super) fn kv_codec(&self) -> Result<&KvQuant, RuntimeError> {
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
        std::array::from_fn(|i| &self.projs[i].weights)
    }

    /// Whether every projection's wire codes and integer image are
    /// borrowed from a mapped artifact (the zero-copy load path).
    pub fn weights_borrowed(&self) -> bool {
        self.projs.iter().all(PackedMatrix::is_borrowed)
    }

    /// The activation quantizer.
    pub fn activation(&self) -> &Quantizer {
        &self.act
    }

    /// Flattened input (and output) feature count.
    pub fn in_features(&self) -> usize {
        self.seq * self.dim
    }

    /// This session's cache for the `ix`-th causal layer of the plan.
    pub(super) fn cache_at<'s>(
        &self,
        session: &'s mut DecodeSession,
        ix: usize,
    ) -> Result<&'s mut KvCache, RuntimeError> {
        session
            .caches
            .get_mut(ix)
            .ok_or_else(|| RuntimeError::UnsupportedLayer {
                layer: self.name.clone(),
                reason: "decode session does not match this plan's causal layers".to_string(),
            })
    }

    /// Quantizes `x` (`[rows, dim]`) once and projects it to Q, K and V —
    /// three batch-wide integer GEMMs (the coalescing the engine batches
    /// requests for), each dequantized straight into the arena's
    /// `q`/`k`/`v`. The master quantization is left in `act_i16` (every
    /// admissible activation lattice fits it), where it also feeds the
    /// residual; byte-width projections read a copy narrowed once into
    /// `act_i8`.
    fn project_qkv(&self, x: &[f32], rows: usize, ws: &mut LayerCtx<'_>) {
        let b = &mut *ws.bufs;
        quantize_rows(&self.act, x, &mut b.act_i16);
        if self.projs[..3].iter().any(|p| p.image.elem_bytes() == 1) {
            b.act_i8.clear();
            let narrowed = b.act_i16.iter().map(|&v| i8::from_i32(v as i32));
            b.act_i8.extend(narrowed);
        }
        for (which, dst) in [&mut b.q, &mut b.k, &mut b.v].into_iter().enumerate() {
            let epi = Epilogue {
                deq: &self.deq_qkv[which],
                bias: None,
                rows_per_sample: 1,
            };
            let out = grab(dst, rows * self.dim, 0.0);
            let (acc, pool, threads) = (&mut b.acc, ws.pool, ws.threads);
            match &self.projs[which].image {
                WeightImage::I8(pg) => {
                    pg.matmul_dequant(&b.act_i8, rows, &epi, out, acc, pool, threads)
                }
                WeightImage::I16(pg) => {
                    pg.matmul_dequant(&b.act_i16, rows, &epi, out, acc, pool, threads)
                }
            }
        }
    }

    /// Output projection plus residual for whole token rows: `ctx`,
    /// `master` and `out` are the same rows of the context, the quantized
    /// input and the output. Each row is one [`panel_matvec`] of the f32
    /// context over the o-weights' `i8`/`i16` panels (every output sums
    /// in ascending `d`), then the per-channel scale at the boundary plus
    /// the residual on the quantized input.
    fn out_project(&self, ctx: &[f32], master: &[i16], out: &mut [f32]) {
        let (dim, s_a) = (self.dim, self.act.scale());
        let (image, w_scales) = (&self.projs[3].image, &self.projs[3].w_scales);
        for ((row_out, ctx), a16) in out
            .chunks_exact_mut(dim)
            .zip(ctx.chunks_exact(dim))
            .zip(master.chunks_exact(dim))
        {
            match image {
                WeightImage::I8(pg) => panel_matvec(ctx, pg.panels(), row_out),
                WeightImage::I16(pg) => panel_matvec(ctx, pg.panels(), row_out),
            }
            for (o, out_val) in row_out.iter_mut().enumerate() {
                *out_val = a16[o] as f32 * s_a + *out_val * w_scales[o];
            }
        }
    }

    /// Full-sequence forward, `Y = X̂ + softmax(QKᵀ/√d) V Woᵀ` on a
    /// `[batch, seq·dim]` slice, where `X̂` is the quantized input and
    /// Q/K/V come from integer GEMMs over its lattice codes.
    ///
    /// A **causal** block differs in three ways, none of them a
    /// per-element branch: it is sequence-length-polymorphic (`seq`
    /// derives from the input, so one plan serves any prompt length); row
    /// `i` scores only `j ≤ i`; and every K/V token row is
    /// quantize-dequantized through the M-ANT group codec — exactly the
    /// values an incremental decode later streams back out of its
    /// [`KvCache`]. With a `sink` (prefill: one sample, one session) each
    /// row is appended to the cache, which leaves it dequantized in place
    /// in the same pass — the values the cache hands back later — so
    /// prefill is bit-identical to the cache-less forward by construction.
    pub(super) fn forward_rows(
        &self,
        x: &[f32],
        batch: usize,
        ws: &mut LayerCtx<'_>,
        out: &mut Vec<f32>,
        sink: Option<&mut KvCache>,
    ) -> Result<(), RuntimeError> {
        let dim = self.dim;
        let feat = x.len() / batch.max(1);
        if self.kv.is_none() {
            check_features(x, batch, self.in_features())?;
        } else if batch == 0
            || !x.len().is_multiple_of(batch)
            || feat == 0
            || !feat.is_multiple_of(dim)
        {
            return Err(RuntimeError::ShapeMismatch {
                expected: dim,
                actual: feat,
            });
        }
        let seq = feat / dim;
        let inv_sqrt_d = 1.0 / (dim as f32).sqrt();
        let rows = batch * seq;
        self.project_qkv(x, rows, ws);
        let b = &mut *ws.bufs;
        // Move K and V into the quantized KV domain row by row, in place
        // — and into the cache too when prefilling (bitwise identical:
        // one group selection, `KvQuant::quant_group`).
        if let Some(kvq) = &self.kv {
            let (k, v) = (b.k.chunks_exact_mut(dim), b.v.chunks_exact_mut(dim));
            match sink {
                Some(cache) => {
                    for (kr, vr) in k.zip(v) {
                        cache.append(kvq, kr, vr, &mut b.kv_codes)?;
                    }
                }
                None => {
                    for (kr, vr) in k.zip(v) {
                        kvq.quant_dequant_row(kr, &mut b.kv_codes);
                        kvq.quant_dequant_row(vr, &mut b.kv_codes);
                    }
                }
            }
        }
        // Scores, softmax and context in f32 — the decode boundary, on
        // the `vmath` helpers the decode step shares.
        // Attention mixes tokens only within a sample, so this
        // parallelizes over samples: each chunk of samples owns one
        // scores slice and writes disjoint context rows. A causal row
        // pins its future positions to -inf: their softmax weight is
        // exactly 0.0, so the context reduction is bitwise the
        // prefix-only reduction decode performs.
        let causal = self.kv.is_some();
        let chunks = ws.threads.min(ws.pool.width()).min(batch).max(1);
        let samples_per = batch.div_ceil(chunks);
        grab(&mut b.ctx, rows * dim, 0.0);
        grab(&mut b.scores, chunks * seq * seq, 0.0);
        let (q, k, v) = (&b.q, &b.k, &b.v);
        let ctx_ptr = ShareMut(b.ctx.as_mut_ptr());
        let scores_ptr = ShareMut(b.scores.as_mut_ptr());
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
                    let visible = if causal { i + 1 } else { seq };
                    let qi = &qs[i * dim..(i + 1) * dim];
                    for (j, kj) in ks.chunks_exact(dim).take(visible).enumerate() {
                        a[i * seq + j] = dot(qi, kj) * inv_sqrt_d;
                    }
                    a[i * seq + visible..(i + 1) * seq].fill(f32::NEG_INFINITY);
                }
                softmax_rows_in_place(a, seq, seq);
                let vs = &v[s * feat..(s + 1) * feat];
                // SAFETY: as above — sample `s` belongs to this chunk alone.
                let cs = unsafe { std::slice::from_raw_parts_mut(ctx_dst.0.add(s * feat), feat) };
                cs.fill(0.0);
                for (ci, ai) in cs.chunks_exact_mut(dim).zip(a.chunks_exact(seq)) {
                    for (&aij, vj) in ai.iter().zip(vs.chunks_exact(dim)) {
                        axpy(ci, aij, vj);
                    }
                }
            }
        });
        // Output projection, batch-wide, parallelized over output rows.
        let ov = grab(out, rows * dim, 0.0);
        let (ctx, master) = (&b.ctx, &b.act_i16);
        let out_ptr = ShareMut(ov.as_mut_ptr());
        let row_tasks = partition(rows, dim, dim, ws.threads.min(ws.pool.width())).0;
        let rows_per = rows.div_ceil(row_tasks);
        ws.pool.run(row_tasks, &|t| {
            let dst = out_ptr;
            let at = (t * rows_per).min(rows) * dim..((t + 1) * rows_per).min(rows) * dim;
            // SAFETY: tasks own disjoint output rows.
            let rows_out = unsafe { std::slice::from_raw_parts_mut(dst.0.add(at.start), at.len()) };
            self.out_project(&ctx[at.clone()], &master[at], rows_out);
        });
        Ok(())
    }

    /// One incremental decode step for `n` sessions at once: batches the
    /// Q/K/V projections over all `n` new token rows (the coalescing the
    /// engine's decode batching buys), appends each session's K/V row to
    /// its cache for this layer, then runs causal attention for the new
    /// token against the cached prefix. Each cached K/V row streams out
    /// of its packed codes a group at a time ([`KvCache::read_row`]) into
    /// one scratch row that feeds [`dot`] or [`axpy`].
    ///
    /// Numerically this reproduces the last token row of the
    /// full-sequence causal forward **exactly**: the cache hands back the
    /// same quantized values (one group selection), scores and
    /// context go through the same [`dot`] and [`axpy`] — whose result
    /// depends on neither row position nor batch — in the same
    /// ascending-`j` order, and the prefix softmax is bitwise the masked
    /// full-row softmax.
    pub(super) fn decode_rows(
        &self,
        x: &[f32],
        sessions: &mut [&mut DecodeSession],
        cache_ix: usize,
        ws: &mut LayerCtx<'_>,
        out: &mut Vec<f32>,
    ) -> Result<(), RuntimeError> {
        let dim = self.dim;
        let rows = sessions.len();
        check_features(x, rows, dim)?;
        let kvq = self.kv_codec()?;
        let inv_sqrt_d = 1.0 / (dim as f32).sqrt();
        self.project_qkv(x, rows, ws);
        let b = &mut *ws.bufs;
        // Fixed-stride score scratch — the largest capacity any session
        // in the batch can reach — so steady-state grabs never resize.
        let stride = sessions
            .iter()
            .map(|s| s.max_tokens())
            .max()
            .unwrap_or(1)
            .max(1);
        grab(&mut b.ctx, rows * dim, 0.0);
        grab(&mut b.scores, stride, 0.0);
        grab(&mut b.kv_row, dim, 0.0);
        for (si, sess) in sessions.iter_mut().enumerate() {
            let cache = self.cache_at(sess, cache_ix)?;
            let kr = &mut b.k[si * dim..(si + 1) * dim];
            let vr = &mut b.v[si * dim..(si + 1) * dim];
            cache.append(kvq, kr, vr, &mut b.kv_codes)?;
            let t = cache.tokens();
            let qs = &b.q[si * dim..(si + 1) * dim];
            let a = &mut b.scores[..t];
            let row = &mut b.kv_row[..dim];
            for (j, aj) in a.iter_mut().enumerate() {
                cache.read_row(kvq, KvHalf::K, j, row);
                *aj = dot(qs, row) * inv_sqrt_d;
            }
            softmax_rows_in_place(a, 1, t);
            let cs = &mut b.ctx[si * dim..(si + 1) * dim];
            cs.fill(0.0);
            for (j, &aij) in a.iter().enumerate() {
                cache.read_row(kvq, KvHalf::V, j, row);
                axpy(cs, aij, row);
            }
        }
        // Serial: decode rows are few and small.
        self.out_project(&b.ctx, &b.act_i16, grab(out, rows * dim, 0.0));
        Ok(())
    }
}
