//! The executor: one walk over a plan's layers for every entry point,
//! the per-layer dispatch it drives, and the one per-kind table
//! ([`PlanLayer::describe`]) that telemetry, plan shape queries and
//! decodability all read.

use super::attn::PackedAttn;
use super::matrix::{LayerCtx, PackedMatrix};
use super::norm::maxpool2_rows;
use super::{CompiledPlan, PlanLayer};
use crate::error::RuntimeError;
use crate::kv::{DecodeSession, KvCache, KvQuant};
use crate::obs::{self, LayerKind};
use crate::scratch::{grab, Scratch};
use ant_nn::vmath::gelu_slice;

/// Which entry point a walk serves — the only thing that differs between
/// them is what causal attention does with its K/V rows.
pub(super) enum Phase<'a, 's> {
    /// Full-sequence forward over `rows` independent samples.
    Full,
    /// Full-sequence forward of one prompt, filling the session's caches.
    Prefill(&'a mut DecodeSession),
    /// One new token row per session against its cached prefix.
    Decode(&'a mut [&'s mut DecodeSession]),
}

/// How a step takes part in the decode phase.
#[derive(Clone, Copy)]
pub(super) enum DecodeRole<'a> {
    /// Row-wise: runs batched over the sessions' token rows.
    TokenLocal,
    /// Causal attention: owns one KV cache per session.
    Causal(&'a PackedAttn),
    /// Mixes positions some other way; the reason completes
    /// "layer {name} …".
    No(&'static str),
}

/// How many GEMM rows a sample sends through each of a step's matrices.
enum GemmRows {
    /// One (dense; moot for steps without matrices).
    One,
    /// One im2row-lowered row per output pixel.
    Lowered(usize),
    /// One per `dim`-wide token of the input (attention — input-derived,
    /// so causal blocks account the actual prompt length, and exactly 1
    /// in a decode step), plus the token-pair score/context products.
    PerToken(usize),
}

/// What one plan step is, what it pins and what it costs, read from
/// already-resident struct fields: building one allocates nothing.
pub struct LayerDesc<'a> {
    pub(super) kind: LayerKind,
    name: &'a str,
    /// Input feature count the step pins, when it pins one.
    pub(super) in_features: Option<usize>,
    /// The packed weight matrices (empty for steps without wire codes).
    pub(super) mats: &'a [PackedMatrix],
    gemm: GemmRows,
    pub(super) decode: DecodeRole<'a>,
}

impl LayerDesc<'_> {
    /// The execution width (`i8`/`i16`) of each packed weight image, in
    /// projection order; empty for steps without wire codes.
    pub fn image_widths(&self) -> Vec<&'static str> {
        self.mats
            .iter()
            .map(|m| match m.image.elem_bytes() {
                1 => "i8",
                _ => "i16",
            })
            .collect()
    }

    /// Whether the step carries wire codes and all of them and their
    /// images are borrowed from a mapped artifact.
    pub(super) fn borrowed(&self) -> bool {
        !self.mats.is_empty() && self.mats.iter().all(PackedMatrix::is_borrowed)
    }

    /// `(MACs, bytes touched)` for `batch` rows with `in_len`/`out_len`
    /// f32 activations. MACs count GEMM multiply-accumulates (zero for
    /// non-GEMM layers); bytes count the f32 activations read and written
    /// plus one streamed pass over the integer weight images (and the
    /// im2row lowering for convolutions) — the quantities `antc stats`
    /// turns into GOPS and effective-bandwidth figures.
    pub(super) fn work(&self, batch: usize, in_len: usize, out_len: usize) -> (u64, u64) {
        let b = batch as u64;
        let mut bytes = ((in_len + out_len) * std::mem::size_of::<f32>()) as u64;
        let weights: u64 = self.mats.iter().map(|m| (m.out * m.inp) as u64).sum();
        for m in self.mats {
            bytes += (m.out * m.inp * m.image.elem_bytes()) as u64;
        }
        let macs = match self.gemm {
            GemmRows::One => b * weights,
            GemmRows::Lowered(pixels) => {
                // The im2row matrix is written and then streamed by the
                // GEMM at the operand width.
                let m = &self.mats[0];
                bytes += 2 * b * (pixels * m.inp * m.image.elem_bytes()) as u64;
                b * pixels as u64 * weights
            }
            GemmRows::PerToken(dim) => {
                let d = dim as u64;
                let s = ((in_len as u64) / b.max(1) / d.max(1)).max(1);
                b * (s * weights + 2 * s * s * d)
            }
        };
        (macs, bytes)
    }

    /// The structured error for a step that cannot run in the decode
    /// phase.
    pub(super) fn decode_refusal(&self) -> Option<RuntimeError> {
        match self.decode {
            DecodeRole::No(why) => Some(decode_err(format!("layer {} {why}", self.name))),
            _ => None,
        }
    }
}

impl PlanLayer {
    /// Describes this step: the one per-kind table behind work
    /// accounting, the plan's shape and weight queries, decodability and
    /// `antc inspect`'s image-width column.
    pub fn describe(&self) -> LayerDesc<'_> {
        let base = LayerDesc {
            kind: LayerKind::Relu,
            name: "relu",
            in_features: None,
            mats: &[],
            gemm: GemmRows::One,
            decode: DecodeRole::TokenLocal,
        };
        match self {
            PlanLayer::Packed(p) => LayerDesc {
                kind: LayerKind::PackedLinear,
                name: p.name(),
                in_features: Some(p.in_features()),
                mats: std::slice::from_ref(&p.mat),
                ..base
            },
            PlanLayer::PackedConv(p) => LayerDesc {
                kind: LayerKind::PackedConv,
                name: p.name(),
                in_features: Some(p.in_features()),
                mats: std::slice::from_ref(&p.mat),
                gemm: GemmRows::Lowered(p.out_shape.1 * p.out_shape.2),
                decode: DecodeRole::No("(convolution) is not token-local"),
            },
            PlanLayer::PackedAttn(p) | PlanLayer::PackedCausalAttn(p) => LayerDesc {
                kind: LayerKind::PackedAttn,
                name: p.name(),
                // A causal block is sequence-length-polymorphic: it pins
                // a token width, not an input width.
                in_features: (!p.causal()).then(|| p.in_features()),
                mats: &p.projs,
                gemm: GemmRows::PerToken(p.dim),
                decode: if p.causal() {
                    DecodeRole::Causal(p)
                } else {
                    DecodeRole::No("is encoder-style attention; decode needs causal blocks")
                },
            },
            PlanLayer::Relu => base,
            PlanLayer::Gelu => LayerDesc {
                kind: LayerKind::Gelu,
                name: "gelu",
                ..base
            },
            PlanLayer::Pool {
                in_shape: (c, h, w),
            } => LayerDesc {
                kind: LayerKind::Pool,
                name: "pool",
                in_features: Some(c * h * w),
                decode: DecodeRole::No("(pooling) is not token-local"),
                ..base
            },
            PlanLayer::Norm(n) => LayerDesc {
                kind: LayerKind::Norm,
                name: n.name(),
                ..base
            },
        }
    }

    /// Executes this step on `rows` rows of `cur`. Returns whether the
    /// output went to `next` (`false`: `cur` was updated in place).
    /// `causal_ix` counts the causal layers passed so far — the index of
    /// this layer's cache in a session.
    fn run(
        &mut self,
        cur: &mut [f32],
        next: &mut Vec<f32>,
        rows: usize,
        ws: &mut LayerCtx<'_>,
        phase: &mut Phase<'_, '_>,
        causal_ix: &mut usize,
    ) -> Result<bool, RuntimeError> {
        if matches!(phase, Phase::Decode(_)) {
            // Unreachable when the sessions came from `open_session` (it
            // validates the whole plan); kept for hand-built sessions.
            if let Some(refusal) = self.describe().decode_refusal() {
                return Err(refusal);
            }
        }
        match self {
            PlanLayer::Packed(p) => p.forward_rows(cur, rows, ws, next)?,
            PlanLayer::PackedConv(p) => p.forward_rows(cur, rows, ws, next)?,
            PlanLayer::PackedAttn(p) => p.forward_rows(cur, rows, ws, next, None)?,
            PlanLayer::PackedCausalAttn(p) => {
                let ix = *causal_ix;
                *causal_ix += 1;
                match phase {
                    Phase::Full => p.forward_rows(cur, rows, ws, next, None)?,
                    // A session is one sample, whatever the caller's
                    // `rows`: a cache never absorbs a batch.
                    Phase::Prefill(session) => {
                        let sink = p.cache_at(session, ix)?;
                        p.forward_rows(cur, 1, ws, next, Some(sink))?
                    }
                    Phase::Decode(sessions) => p.decode_rows(cur, sessions, ix, ws, next)?,
                }
            }
            PlanLayer::Relu => {
                for v in cur.iter_mut() {
                    *v = v.max(0.0);
                }
                return Ok(false);
            }
            PlanLayer::Gelu => {
                gelu_slice(cur);
                return Ok(false);
            }
            PlanLayer::Pool { in_shape } => maxpool2_rows(cur, rows, *in_shape, next)?,
            PlanLayer::Norm(n) => n.forward_rows(cur, rows, next)?,
        }
        Ok(true)
    }
}

impl CompiledPlan {
    /// Runs `rows` rows of `x` through every layer into `out`: the one
    /// executor behind [`Self::forward_rows`], [`Self::prefill`] and
    /// [`Self::decode_steps`], which validate their arguments and pick
    /// the `phase`. It alone holds the ping/pong pipeline buffers, lends
    /// the arena's layer buffers, and times and accounts each layer.
    pub(super) fn walk(
        &mut self,
        x: &[f32],
        rows: usize,
        out: &mut Vec<f32>,
        mut phase: Phase<'_, '_>,
    ) -> Result<(), RuntimeError> {
        let Scratch {
            layer: bufs,
            ping,
            pong,
        } = &mut self.scratch;
        let mut ws = LayerCtx {
            pool: &self.pool,
            threads: self.threads,
            bufs,
        };
        grab(ping, x.len(), 0.0).copy_from_slice(x);
        let (mut cur, mut next) = (ping, pong);
        let mut causal_ix = 0usize;
        // Timing is chained — one clock read per layer boundary (layer
        // i's end stamp is layer i+1's start), never inside GEMM tiles.
        let fwd = obs::metrics();
        let mut per_layer = fwd.layers();
        let t0 = obs::now();
        let mut t_prev = t0;
        for layer in self.layers.iter_mut() {
            let in_len = cur.len();
            if layer.run(cur, next, rows, &mut ws, &mut phase, &mut causal_ix)? {
                std::mem::swap(&mut cur, &mut next);
            }
            let t_now = obs::now();
            let desc = layer.describe();
            let (macs, bytes) = desc.work(rows, in_len, cur.len());
            per_layer.record(desc.kind, t_prev, t_now - t_prev, rows as u64, macs, bytes);
            t_prev = t_now;
        }
        fwd.record_forward(t0, t_prev.saturating_sub(t0), rows as u64);
        out.clear();
        out.extend_from_slice(cur);
        Ok(())
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
            let desc = l.describe();
            if let Some(refusal) = desc.decode_refusal() {
                return Err(refusal);
            }
            if let DecodeRole::Causal(p) = desc.decode {
                layers.push((p.dim(), p.kv_codec()?.clone()));
            }
        }
        if layers.is_empty() {
            return Err(no_causal_err());
        }
        Ok(SessionFactory { layers })
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
pub(super) fn decode_err(reason: String) -> RuntimeError {
    RuntimeError::UnsupportedLayer {
        layer: "decode".to_string(),
        reason,
    }
}

/// The error every decode entry point returns on a non-causal plan.
pub(crate) fn no_causal_err() -> RuntimeError {
    decode_err("plan has no causal attention layer".to_string())
}
