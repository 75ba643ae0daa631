//! The per-plan scratch arena: every buffer the packed execution hot
//! path needs, owned once and reused across layers, batches, and
//! requests.
//!
//! The first runtime versions allocated fresh `Vec`s in every layer's
//! `forward` — quantized activations, the im2row matrix, the `i64`
//! accumulator, attention's q/k/v/scores/context — per layer, per batch.
//! At serving scale that is thousands of allocator round-trips per
//! second on the hot path. A [`Scratch`] instead grows each buffer to
//! its high-water mark during warmup and then serves every subsequent
//! request with **zero heap allocation**: `clear` + `resize` inside
//! existing capacity never touches the allocator (pinned by
//! `crates/bench/tests/alloc_steady.rs` with a counting global
//! allocator, and reported per-request by `antc bench`).
//!
//! The arena is nested: [`Scratch`] owns the pipeline's ping/pong
//! activation buffers, which only the plan's layer walk touches, and one
//! `LayerBufs` holding everything a single layer works in, which the
//! walk lends to each layer whole — no per-layer re-assembly of borrows.
//!
//! The arena is also the *mutable* half of the plan's storage split:
//! weight images may be borrowed read-only straight out of a mapped
//! `.antm` file ([`crate::MappedArtifact`], owned-or-borrowed
//! [`ant_core::store::PackedStore`]), but scratch is always per-plan
//! owned heap memory — execution never writes anywhere near the
//! mapping, so borrowed weights cannot alias a store.

/// Reusable execution buffers for one [`crate::CompiledPlan`]: the
/// layer pipeline's ping/pong activations, which stay with the plan's
/// layer walk, and the `LayerBufs` every layer borrows as one unit.
///
/// Cloning a plan starts the clone with an *empty* arena (capacity is a
/// cache, not state): the clone re-warms on its first request.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Per-layer working buffers.
    pub(crate) layer: LayerBufs,
    /// Layer-pipeline ping buffer (current activations).
    pub(crate) ping: Vec<f32>,
    /// Layer-pipeline pong buffer (next activations).
    pub(crate) pong: Vec<f32>,
}

/// The buffers a layer works in for one step. Plain fields rather than
/// accessor methods so a layer can split-borrow several at once (e.g.
/// attention holds activations, q/k/v, scores and context
/// simultaneously).
#[derive(Debug, Default)]
pub(crate) struct LayerBufs {
    /// Quantized activations, byte width (microkernel `i8` path).
    pub(crate) act_i8: Vec<i8>,
    /// Quantized activations, `i16` width.
    pub(crate) act_i16: Vec<i16>,
    /// im2row lowering, byte width.
    pub(crate) rows_i8: Vec<i8>,
    /// im2row lowering, `i16` width.
    pub(crate) rows_i16: Vec<i16>,
    /// The exact `i64` GEMM accumulator. Stays empty for panel images
    /// whose reduction fits one cadence block (the fused-writeback path
    /// never touches it); grown only by longer reductions.
    pub(crate) acc: Vec<i64>,
    /// Attention query projections (f32, post-dequant).
    pub(crate) q: Vec<f32>,
    /// Attention key projections.
    pub(crate) k: Vec<f32>,
    /// Attention value projections.
    pub(crate) v: Vec<f32>,
    /// Attention score rows (`seq × seq` per concurrent chunk).
    pub(crate) scores: Vec<f32>,
    /// Attention context (softmax · V).
    pub(crate) ctx: Vec<f32>,
    /// Decode-path staging row: one cached K or V row dequantized for
    /// the running attention accumulation.
    pub(crate) kv_row: Vec<f32>,
    /// Unpacked per-element KV wire codes (staging for nibble packing).
    pub(crate) kv_codes: Vec<u8>,
}

impl Clone for Scratch {
    fn clone(&self) -> Scratch {
        Scratch::default()
    }
}

/// Reshapes `buf` to exactly `len` elements, reusing capacity (no
/// allocation once the high-water mark is reached) and — when the length
/// already matches — leaving the stale contents in place (no memset).
///
/// Contents are therefore **unspecified**: callers must fully overwrite
/// the slice (every `grab` consumer in the plan does — GEMM regions
/// assign every cell, dequant/pool/norm write every element, and the
/// attention context clears its own rows).
pub(crate) fn grab<T: Copy>(buf: &mut Vec<T>, len: usize, fill: T) -> &mut [T] {
    if buf.len() != len {
        buf.clear();
        buf.resize(len, fill);
    }
    buf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grab_reuses_capacity() {
        let mut v: Vec<i64> = Vec::new();
        grab(&mut v, 128, 7);
        assert!(v.iter().all(|&x| x == 7));
        let cap = v.capacity();
        let ptr = v.as_ptr();
        grab(&mut v, 64, 1);
        assert_eq!(v.len(), 64);
        assert_eq!(v.capacity(), cap);
        assert_eq!(v.as_ptr(), ptr);
        grab(&mut v, 128, 2);
        assert_eq!(v.capacity(), cap);
        assert!(v.iter().all(|&x| x == 2));
    }

    #[test]
    fn cloned_scratch_is_empty() {
        let mut s = Scratch::default();
        grab(&mut s.layer.acc, 1024, 0);
        let c = s.clone();
        assert_eq!(c.layer.acc.capacity(), 0);
    }
}
