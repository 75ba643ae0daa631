//! Packed M-ANT KV cache: group-wise quantized key/value storage for
//! autoregressive decode.
//!
//! Encoder-style execution materialises K/V for a whole sequence inside
//! [`crate::Scratch`] and throws them away after the forward. Decode
//! inverts that: each step produces exactly one new K and V row per
//! attention layer, and every *previous* row must stay resident for the
//! lifetime of the session. Keeping them in f32 would make the cache the
//! dominant memory consumer at serving scale, so — following M-ANT's
//! extension of the paper's adaptive-type idea to per-group LLM
//! quantization — rows are stored in the packed low-bit domain:
//!
//! * the row is split into fixed-size **groups** ([`KvQuantSpec::group`]
//!   elements each);
//! * each group gets its own amax scale **and its own data type**, chosen
//!   per group from the combo's members ([`PrimitiveCombo::members`], in
//!   order, so a group's type tag is its candidate's index) by the same
//!   min-error rule Algorithm 2 applies per tensor (the `float` member of
//!   FIP-style combos is skipped — the KV path stays in the int-decodable
//!   family, like the rest of the runtime);
//! * wire codes are nibble-packed when [`KvQuantSpec::bits`] ≤ 4, one
//!   byte per code otherwise, appended token-row-at-a-time into a byte
//!   arena sized once at session-open time.
//!
//! Quantize-and-store and the cache-less forward run one per-group
//! selection (`KvQuant::quant_group`): each candidate encodes the group
//! once through its codec's step table ([`Codec::encode_into`]), and the
//! least-error candidate's codes are kept, not encoded again. A row read
//! back out of the cache is therefore **bit-identical** to the
//! quantize-dequantize a full-sequence causal forward applies in place —
//! and `KvCache::append` hands the caller that dequantized row in the same
//! pass, so a prefill never reads back what it just wrote.
//! `KvCache::read_row` streams a cached row out a group at a time:
//! layout, type and scale are resolved once per group, then one
//! branch-free loop converts its codes — an `int` group by sign extension
//! (its table entry *is* the sign-extended code), any other type through
//! a 256-entry table a `u8` code indexes without a bounds check. Every
//! element is still `scale · lut[code]`, one rounding, so
//! `decode_conformance.rs` holds incremental decode to full-sequence
//! execution bit for bit.
//!
//! Nothing here allocates on the decode hot path: the arena and the
//! scale/tag side arrays are sized at `KvCache::new` time and appends
//! only write into reserved capacity (pinned by `alloc_steady.rs`).

use crate::error::RuntimeError;
use crate::scratch::grab;
use ant_core::select::PrimitiveCombo;
use ant_core::{Codec, DataType, PrimitiveType};

/// Configuration for M-ANT group-wise KV-cache quantization.
///
/// The default — 8-bit codes, groups of 64, the paper's final `IP-F`
/// combo — mirrors M-ANT's serving configuration. Validation happens in
/// [`crate::CompiledPlan::with_kv_quant`]; members of the combo whose
/// constructors reject the bit width (e.g. PoT stops at 6 bits) are
/// simply left out of the per-group candidate set rather than failing
/// the whole spec, exactly like Algorithm 2's promotion handling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvQuantSpec {
    /// Wire-code width in bits (2..=8). Widths ≤ 4 nibble-pack two codes
    /// per byte.
    pub bits: u32,
    /// Elements per quantization group (each group carries its own scale
    /// and type tag).
    pub group: usize,
    /// The primitive combination groups select their type from.
    pub combo: PrimitiveCombo,
}

impl Default for KvQuantSpec {
    fn default() -> Self {
        KvQuantSpec {
            bits: 8,
            group: 64,
            combo: PrimitiveCombo::IntPotFlint,
        }
    }
}

/// One per-group type candidate: a constructed codec, its decode LUT
/// padded to the 256 codes a byte holds (entries past `2^bits` are never
/// read) and its max representable magnitude, cached so group selection
/// never re-derives them.
#[derive(Debug, Clone)]
struct Candidate {
    codec: Codec,
    lut: [f32; 256],
    max: f32,
}

/// The group codec shared by every causal-attention layer of a plan:
/// candidate types for [`KvQuantSpec::combo`] at [`KvQuantSpec::bits`],
/// with per-group min-MSE selection.
#[derive(Debug, Clone)]
pub(crate) struct KvQuant {
    spec: KvQuantSpec,
    cands: Vec<Candidate>,
}

impl KvQuant {
    /// Builds the candidate set for `spec`. Combo members whose
    /// constructors reject `bits` are skipped (PoT tops out at 6 bits,
    /// flint needs ≥ 4); only an *empty* candidate set is an error.
    pub(crate) fn new(spec: KvQuantSpec) -> Result<KvQuant, RuntimeError> {
        let unsupported = |reason: String| RuntimeError::UnsupportedLayer {
            layer: "kv-cache".to_string(),
            reason,
        };
        if !(2..=8).contains(&spec.bits) {
            return Err(unsupported(format!(
                "KV wire-code width {} outside 2..=8",
                spec.bits
            )));
        }
        if spec.group == 0 {
            return Err(unsupported("KV group size must be >= 1".to_string()));
        }
        // The float primitive has no int-based decoder anywhere in the
        // runtime; the KV path keeps that invariant.
        let members = spec
            .combo
            .members()
            .iter()
            .filter(|&&p| p != PrimitiveType::Float);
        let cands: Vec<Candidate> = members
            .filter_map(|&p| Codec::new(DataType::new(p, spec.bits, true).ok()?).ok())
            .map(|codec| {
                let mut lut = [0f32; 256];
                let table = codec.decode_lut();
                lut[..table.len()].copy_from_slice(&table);
                let max = codec.max_value();
                Candidate { codec, lut, max }
            })
            .collect();
        if cands.is_empty() {
            return Err(unsupported(format!(
                "no combo member of {} supports {}-bit codes",
                spec.combo.label(),
                spec.bits
            )));
        }
        Ok(KvQuant { spec, cands })
    }

    /// The spec this codec was built for.
    pub(crate) fn spec(&self) -> KvQuantSpec {
        self.spec
    }

    /// Number of candidate types a group chooses between.
    #[cfg(test)]
    pub(crate) fn candidate_count(&self) -> usize {
        self.cands.len()
    }

    /// Quantization groups per `dim`-element token row.
    pub(crate) fn groups_for(&self, dim: usize) -> usize {
        dim.div_ceil(self.spec.group)
    }

    /// Packed bytes one `dim`-element token row occupies in the arena.
    pub(crate) fn token_bytes(&self, dim: usize) -> usize {
        if self.spec.bits <= 4 {
            dim.div_ceil(2)
        } else {
            dim
        }
    }

    /// Quantize-dequantizes one group in place: encodes the group once
    /// per candidate at the group's amax scale into `trial`, keeps the
    /// codes of the one with least squared reconstruction error in
    /// `codes[..g.len()]` (one byte per element, unpacked), replaces `g`
    /// with `scale · lut[code]` and returns `(type tag, scale)`.
    fn quant_group(&self, g: &mut [f32], codes: &mut [u8], trial: &mut [u8]) -> (u8, f32) {
        let mut amax = 0f32;
        for &x in g.iter() {
            amax = amax.max(x.abs());
        }
        let trial = &mut trial[..g.len()];
        let (mut best, mut best_scale, mut best_err) = (0, 1.0, f32::INFINITY);
        for (ci, c) in self.cands.iter().enumerate() {
            let scale = if amax > 0.0 { amax / c.max } else { 1.0 };
            c.codec.encode_into(g, scale, trial, |code, _| code as u8);
            let mut err = 0f32;
            for (&code, &x) in trial.iter().zip(g.iter()) {
                let d = scale * c.lut[code as usize] - x;
                err += d * d;
            }
            // The first candidate stands until one beats it (also when
            // no error is finite).
            if ci == 0 || err < best_err {
                best_err = err;
                best = ci;
                best_scale = scale;
                codes.copy_from_slice(trial);
            }
        }
        let lut = &self.cands[best].lut;
        for (&code, x) in codes.iter().zip(g.iter_mut()) {
            *x = best_scale * lut[code as usize];
        }
        (best as u8, best_scale)
    }

    /// Code scratch for `len`-element rows: the row's codes, then one
    /// group's trial codes (grown once, then reused).
    fn code_scratch<'a>(&self, codes: &'a mut Vec<u8>, len: usize) -> (&'a mut [u8], &'a mut [u8]) {
        grab(codes, len + self.spec.group, 0).split_at_mut(len)
    }

    /// Quantize-dequantizes `row` in place — the full-sequence causal
    /// forward's view of the cache when no session is attached. `codes`
    /// is reusable scratch.
    pub(crate) fn quant_dequant_row(&self, row: &mut [f32], codes: &mut Vec<u8>) {
        let (scratch, trial) = self.code_scratch(codes, row.len());
        let group = self.spec.group;
        for (chunk, cbuf) in row.chunks_mut(group).zip(scratch.chunks_mut(group)) {
            self.quant_group(chunk, cbuf, trial);
        }
    }

    /// Packs unpacked per-element codes into the arena layout.
    fn pack_row(&self, codes: &[u8], dst: &mut [u8]) {
        if self.spec.bits <= 4 {
            for (i, b) in dst.iter_mut().enumerate() {
                let lo = codes[2 * i];
                let hi = codes.get(2 * i + 1).copied().unwrap_or(0);
                *b = lo | (hi << 4);
            }
        } else {
            dst.copy_from_slice(codes);
        }
    }
}

/// The value of a signed `int` wire code whose sign bit is `sign`
/// (`1 << (bits − 1)`): the code sign-extended — exactly its
/// `decode_lut` entry — in `i32` lanes, which vectorize at any width.
#[inline(always)]
fn int_value(code: u8, sign: i32) -> f32 {
    ((i32::from(code) ^ sign) - sign) as f32
}

/// Converts one group's codes, which start at element `at` of a packed
/// row, into `out` through `value`: one code per byte, or two per byte
/// low nibble first (a group starting on an odd element takes its first
/// code from a high nibble).
#[inline(always)]
fn read_group(out: &mut [f32], packed: &[u8], at: usize, nibbles: bool, value: impl Fn(u8) -> f32) {
    if !nibbles {
        for (o, &c) in out.iter_mut().zip(&packed[at..]) {
            *o = value(c);
        }
        return;
    }
    let (head, out) = out.split_at_mut(at % 2);
    for o in head {
        *o = value(packed[at / 2] >> 4);
    }
    let bytes = &packed[at.div_ceil(2)..];
    let (pairs, tail) = out.as_chunks_mut::<2>();
    for (pair, &b) in pairs.iter_mut().zip(bytes) {
        *pair = [value(b & 0x0F), value(b >> 4)];
    }
    for (o, &b) in tail.iter_mut().zip(&bytes[pairs.len()..]) {
        *o = value(b & 0x0F);
    }
}

/// Which half of a [`KvCache`] a row operation targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum KvHalf {
    /// Key rows.
    K,
    /// Value rows.
    V,
}

/// One causal-attention layer's packed K/V storage for one decode
/// session.
///
/// Layout: `[max_tokens` packed K rows `][max_tokens` packed V rows `]`
/// in one zeroed byte arena sized at construction (rows are only ever
/// read and written a byte at a time, so it needs no alignment), with
/// per-token per-group scales and type tags in side arrays whose capacity
/// is reserved up front — [`KvCache::append`] therefore performs **zero
/// allocations**.
#[derive(Debug)]
pub(crate) struct KvCache {
    arena: Vec<u8>,
    dim: usize,
    n_groups: usize,
    token_bytes: usize,
    max_tokens: usize,
    tokens: usize,
    scales_k: Vec<f32>,
    scales_v: Vec<f32>,
    tags_k: Vec<u8>,
    tags_v: Vec<u8>,
}

impl KvCache {
    /// Allocates storage for up to `max_tokens` rows of `dim` elements
    /// each (both halves), quantized per `kv`.
    pub(crate) fn new(dim: usize, max_tokens: usize, kv: &KvQuant) -> KvCache {
        let token_bytes = kv.token_bytes(dim);
        let n_groups = kv.groups_for(dim);
        KvCache {
            arena: vec![0; 2 * max_tokens * token_bytes],
            dim,
            n_groups,
            token_bytes,
            max_tokens,
            tokens: 0,
            scales_k: Vec::with_capacity(max_tokens * n_groups),
            scales_v: Vec::with_capacity(max_tokens * n_groups),
            tags_k: Vec::with_capacity(max_tokens * n_groups),
            tags_v: Vec::with_capacity(max_tokens * n_groups),
        }
    }

    /// Tokens currently held.
    pub(crate) fn tokens(&self) -> usize {
        self.tokens
    }

    /// Bytes this cache holds resident (arena plus scale/tag side
    /// arrays, at their reserved capacity).
    pub(crate) fn kv_bytes(&self) -> usize {
        self.arena.len()
            + (self.scales_k.capacity() + self.scales_v.capacity()) * std::mem::size_of::<f32>()
            + self.tags_k.capacity()
            + self.tags_v.capacity()
    }

    fn row_range(&self, half: KvHalf, t: usize) -> std::ops::Range<usize> {
        let base = match half {
            KvHalf::K => 0,
            KvHalf::V => self.max_tokens * self.token_bytes,
        };
        base + t * self.token_bytes..base + (t + 1) * self.token_bytes
    }

    /// Quantizes and appends one K row and one V row (the next token's),
    /// returning the token's index, and leaves each row dequantized in
    /// place — the values [`Self::read_row`] will hand back. `codes` is
    /// reusable unpacked-code scratch. Fails with
    /// [`RuntimeError::KvCacheFull`] at capacity, rows untouched.
    pub(crate) fn append(
        &mut self,
        kv: &KvQuant,
        k_row: &mut [f32],
        v_row: &mut [f32],
        codes: &mut Vec<u8>,
    ) -> Result<usize, RuntimeError> {
        debug_assert_eq!(k_row.len(), self.dim);
        debug_assert_eq!(v_row.len(), self.dim);
        if self.tokens == self.max_tokens {
            return Err(RuntimeError::KvCacheFull {
                capacity: self.max_tokens,
            });
        }
        let t = self.tokens;
        let (scratch, trial) = kv.code_scratch(codes, self.dim);
        let group = kv.spec.group;
        for (half, row) in [(KvHalf::K, k_row), (KvHalf::V, v_row)] {
            let (scales, tags) = match half {
                KvHalf::K => (&mut self.scales_k, &mut self.tags_k),
                KvHalf::V => (&mut self.scales_v, &mut self.tags_v),
            };
            for (chunk, cbuf) in row.chunks_mut(group).zip(scratch.chunks_mut(group)) {
                let (tag, scale) = kv.quant_group(chunk, cbuf, trial);
                scales.push(scale);
                tags.push(tag);
            }
            let range = self.row_range(half, t);
            kv.pack_row(scratch, &mut self.arena[range]);
        }
        self.tokens = t + 1;
        Ok(t)
    }

    /// Token `t`'s packed `half` row with its per-group scales and tags.
    fn row(&self, half: KvHalf, t: usize) -> (&[u8], &[f32], &[u8]) {
        let (scales, tags) = match half {
            KvHalf::K => (&self.scales_k, &self.tags_k),
            KvHalf::V => (&self.scales_v, &self.tags_v),
        };
        let meta = t * self.n_groups..(t + 1) * self.n_groups;
        (
            &self.arena[self.row_range(half, t)],
            &scales[meta.clone()],
            &tags[meta],
        )
    }

    /// Decodes token `t`'s row into `out` a group at a time — exactly the
    /// values [`KvQuant::quant_dequant_row`] produces for the original
    /// row (one group selection, lossless packing). Code layout, type and
    /// scale are resolved once per group; its element loop is branch-
    /// and bounds-check-free.
    pub(crate) fn read_row(&self, kv: &KvQuant, half: KvHalf, t: usize, out: &mut [f32]) {
        debug_assert!(t < self.tokens, "read of unwritten token row");
        debug_assert_eq!(out.len(), self.dim);
        let (packed, scales, tags) = self.row(half, t);
        let (group, nibbles, sign) = (kv.spec.group, kv.spec.bits <= 4, 1 << (kv.spec.bits - 1));
        let groups = out.chunks_mut(group).zip(scales).zip(tags);
        for (g, ((chunk, &scale), &tag)) in groups.enumerate() {
            let c = &kv.cands[tag as usize];
            if c.codec.dtype().primitive() == PrimitiveType::Int {
                read_group(chunk, packed, g * group, nibbles, |code| {
                    scale * int_value(code, sign)
                });
            } else {
                read_group(chunk, packed, g * group, nibbles, |code| {
                    scale * c.lut[code as usize]
                });
            }
        }
    }
}

/// A decode session: per-layer packed KV caches plus the token cursor,
/// pinned for the lifetime of one generation stream.
///
/// Opened by [`crate::CompiledPlan::open_session`] (or, at the serving
/// layer, [`crate::Engine::open_session`]); one
/// [`crate::CompiledPlan::prefill`] primes it with the prompt, then
/// [`crate::CompiledPlan::decode_steps`] appends one token per call.
/// All storage is sized at open time — steady-state decode performs zero
/// heap allocations (enforced by `alloc_steady.rs`).
#[derive(Debug)]
pub struct DecodeSession {
    pub(crate) caches: Vec<KvCache>,
    pub(crate) max_tokens: usize,
}

impl DecodeSession {
    pub(crate) fn new(caches: Vec<KvCache>, max_tokens: usize) -> DecodeSession {
        DecodeSession { caches, max_tokens }
    }

    /// Tokens appended so far (prompt + generated).
    pub fn tokens(&self) -> usize {
        self.caches.first().map_or(0, |c| c.tokens())
    }

    /// The token capacity this session was opened with.
    pub fn max_tokens(&self) -> usize {
        self.max_tokens
    }

    /// Resident bytes across every layer's packed cache.
    pub fn kv_bytes(&self) -> usize {
        self.caches.iter().map(|c| c.kv_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn spec(bits: u32, group: usize, combo: PrimitiveCombo) -> KvQuantSpec {
        KvQuantSpec { bits, group, combo }
    }

    /// The per-element oracle for [`KvCache::read_row`]: each code
    /// unpacked by its own width test, then one bounds-checked load from
    /// the codec's own `decode_lut`, then the scale.
    fn decode_row(cache: &KvCache, kv: &KvQuant, half: KvHalf, t: usize, out: &mut [f32]) {
        let (packed, scales, tags) = cache.row(half, t);
        for (d, o) in out.iter_mut().enumerate() {
            let code = if kv.spec.bits <= 4 {
                (packed[d / 2] >> ((d % 2) * 4)) & 0x0F
            } else {
                packed[d]
            };
            let g = d / kv.spec.group;
            let lut = kv.cands[tags[g] as usize].codec.decode_lut();
            *o = scales[g] * lut[code as usize];
        }
    }

    /// Appends `(k, v)` and returns the rows as `append` left them.
    fn append(cache: &mut KvCache, kv: &KvQuant, k: &[f32], v: &[f32]) -> [Vec<f32>; 2] {
        let (mut k, mut v) = (k.to_vec(), v.to_vec());
        cache.append(kv, &mut k, &mut v, &mut Vec::new()).unwrap();
        [k, v]
    }

    #[test]
    fn spec_validation() {
        for bad_bits in [0, 1, 9, 16] {
            assert!(KvQuant::new(spec(bad_bits, 64, PrimitiveCombo::IntPotFlint)).is_err());
        }
        assert!(KvQuant::new(spec(8, 0, PrimitiveCombo::IntPotFlint)).is_err());
        assert!(KvQuant::new(KvQuantSpec::default()).is_ok());
    }

    #[test]
    fn candidate_sets_follow_member_bit_support() {
        // 4-bit IP-F: int4 + pot4 + flint4 all construct.
        let q = KvQuant::new(spec(4, 16, PrimitiveCombo::IntPotFlint)).unwrap();
        assert_eq!(q.candidate_count(), 3);
        // 8-bit IP-F: PoT stops at 6 bits, so int8 + flint8 only.
        let q = KvQuant::new(spec(8, 16, PrimitiveCombo::IntPotFlint)).unwrap();
        assert_eq!(q.candidate_count(), 2);
        // Int-only combos always have exactly one candidate.
        let q = KvQuant::new(spec(8, 16, PrimitiveCombo::Int)).unwrap();
        assert_eq!(q.candidate_count(), 1);
        // 3-bit: flint needs >= 4 signed bits, leaving int3 + pot3.
        let q = KvQuant::new(spec(3, 16, PrimitiveCombo::IntPotFlint)).unwrap();
        assert_eq!(q.candidate_count(), 2);
    }

    #[test]
    fn fresh_cache_bytes_are_zero() {
        let kv = KvQuant::new(KvQuantSpec::default()).unwrap();
        let cache = KvCache::new(96, 17, &kv);
        assert_eq!(cache.arena.len(), 2 * 17 * kv.token_bytes(96));
        assert!(cache.arena.iter().all(|&b| b == 0));
    }

    fn row(dim: usize, seed: u64) -> Vec<f32> {
        // Deterministic splitmix-style values in roughly [-2, 2].
        let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        (0..dim)
            .map(|_| {
                s ^= s >> 30;
                s = s.wrapping_mul(0xbf58_476d_1ce4_e5b9);
                s ^= s >> 27;
                ((s >> 40) as f32 / (1u64 << 23) as f32) - 2.0
            })
            .collect()
    }

    /// Bit patterns, so `-0.0` and `0.0` differ.
    fn f32_bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn append_then_decode_matches_in_place_quant_dequant_bitwise() {
        for combo in [
            PrimitiveCombo::Int,
            PrimitiveCombo::IntPot,
            PrimitiveCombo::IntPotFlint,
        ] {
            for bits in [4, 8] {
                for group in [16, 64, 128] {
                    let kv = KvQuant::new(spec(bits, group, combo)).unwrap();
                    let dim = 72; // not a multiple of 16/64/128: exercises the tail group
                    let mut cache = KvCache::new(dim, 5, &kv);
                    let mut codes = Vec::new();
                    let mut rows = Vec::new();
                    for t in 0..5u64 {
                        let (k, v) = (row(dim, 2 * t + 1), row(dim, 2 * t + 2));
                        let written = append(&mut cache, &kv, &k, &v);
                        rows.push(([k, v], written));
                    }
                    let mut got = vec![0f32; dim];
                    for (t, (srcs, written)) in rows.iter().enumerate() {
                        for (i, half) in [KvHalf::K, KvHalf::V].into_iter().enumerate() {
                            let mut reference = srcs[i].clone();
                            kv.quant_dequant_row(&mut reference, &mut codes);
                            cache.read_row(&kv, half, t, &mut got);
                            let what =
                                format!("{combo:?} bits {bits} group {group} token {t} {half:?}");
                            assert_eq!(f32_bits(&got), f32_bits(&reference), "{what}");
                            assert_eq!(
                                f32_bits(&written[i]),
                                f32_bits(&reference),
                                "{what}: written back"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn group_reader_equals_the_per_element_oracle_at_every_width_and_group() {
        let (mut int_groups, mut lut_groups) = (0, 0);
        for combo in [PrimitiveCombo::Int, PrimitiveCombo::IntPotFlint] {
            for bits in 2..=8 {
                for group in 1..40 {
                    let kv = KvQuant::new(spec(bits, group, combo)).unwrap();
                    // Odd dims: never a multiple of 8, rarely of the group,
                    // and nibble groups that start on a high nibble.
                    for dim in [7, 37, 79] {
                        let mut cache = KvCache::new(dim, 3, &kv);
                        for t in 0..3 {
                            let mut k = row(dim, (bits as u64) << 20 | (group as u64) << 8 | t);
                            k[dim / 2] = 0.0; // a zero inside some group
                            append(&mut cache, &kv, &k, &row(dim, !t ^ group as u64));
                        }
                        let (mut got, mut want) = (vec![f32::NAN; dim], vec![0f32; dim]);
                        for t in 0..3 {
                            for half in [KvHalf::K, KvHalf::V] {
                                cache.read_row(&kv, half, t, &mut got);
                                decode_row(&cache, &kv, half, t, &mut want);
                                assert_eq!(
                                    f32_bits(&got),
                                    f32_bits(&want),
                                    "{combo:?} bits {bits} group {group} dim {dim} token {t} {half:?}"
                                );
                                for &tag in cache.row(half, t).2 {
                                    if kv.cands[tag as usize].codec.dtype().primitive()
                                        == PrimitiveType::Int
                                    {
                                        int_groups += 1;
                                    } else {
                                        lut_groups += 1;
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(
            int_groups > 0 && lut_groups > 0,
            "{int_groups} int, {lut_groups} table groups"
        );
    }

    #[test]
    fn int_codes_convert_to_their_decode_lut_entries() {
        for bits in 2..=8 {
            let codec = Codec::new(DataType::int(bits, true).unwrap()).unwrap();
            let lut = codec.decode_lut();
            assert_eq!(lut.len(), 1 << bits);
            for (code, want) in lut.iter().enumerate() {
                let got = int_value(code as u8, 1 << (bits - 1));
                assert_eq!(got.to_bits(), want.to_bits(), "int{bits} code {code}");
            }
        }
    }

    #[test]
    fn quant_error_is_small_at_8_bits() {
        let kv = KvQuant::new(KvQuantSpec::default()).unwrap();
        let orig = row(256, 9);
        let mut deq = orig.clone();
        let mut codes = Vec::new();
        kv.quant_dequant_row(&mut deq, &mut codes);
        let amax = orig.iter().fold(0f32, |m, x| m.max(x.abs()));
        for (o, d) in orig.iter().zip(deq.iter()) {
            assert!((o - d).abs() <= amax / 100.0, "{o} vs {d}");
        }
    }

    #[test]
    fn zero_group_round_trips_exactly() {
        let kv = KvQuant::new(KvQuantSpec::default()).unwrap();
        let mut cache = KvCache::new(64, 2, &kv);
        let zeros = vec![0f32; 64];
        let written = append(&mut cache, &kv, &zeros, &zeros);
        let mut got = vec![1f32; 64];
        cache.read_row(&kv, KvHalf::K, 0, &mut got);
        assert_eq!(f32_bits(&got), f32_bits(&zeros));
        assert_eq!(f32_bits(&written[0]), f32_bits(&zeros));
    }

    #[test]
    fn capacity_is_enforced_and_append_does_not_allocate_sides() {
        let kv = KvQuant::new(KvQuantSpec::default()).unwrap();
        let mut cache = KvCache::new(32, 3, &kv);
        let mut codes = vec![0u8; 32];
        let (mut k, mut v) = (row(32, 1), row(32, 2));
        let cap = cache.scales_k.capacity();
        let ptr = cache.scales_k.as_ptr();
        for t in 0..3 {
            assert_eq!(cache.append(&kv, &mut k, &mut v, &mut codes).unwrap(), t);
        }
        assert_eq!(cache.scales_k.capacity(), cap, "side array reallocated");
        assert_eq!(cache.scales_k.as_ptr(), ptr, "side array moved");
        match cache.append(&kv, &mut k, &mut v, &mut codes) {
            Err(RuntimeError::KvCacheFull { capacity: 3 }) => {}
            other => panic!("expected KvCacheFull, got {other:?}"),
        }
        assert_eq!(cache.tokens(), 3);
    }

    #[test]
    fn session_accounting() {
        let kv = KvQuant::new(KvQuantSpec::default()).unwrap();
        let caches = vec![KvCache::new(64, 8, &kv), KvCache::new(64, 8, &kv)];
        let sess = DecodeSession::new(caches, 8);
        assert_eq!(sess.tokens(), 0);
        assert_eq!(sess.max_tokens(), 8);
        // Arena: 2 layers × 2 halves × 8 tokens × 64 bytes, plus sides.
        assert!(sess.kv_bytes() >= 2 * 2 * 8 * 64);
        fn assert_send<T: Send>() {}
        assert_send::<DecodeSession>();
    }

    /// Straight-line float reference for one group: amax scaling,
    /// per-candidate MSE, winner re-encode — written independently of
    /// the production path's buffering and packing.
    fn reference_group(kv: &KvQuant, g: &[f32]) -> Vec<f32> {
        let amax = g.iter().fold(0f32, |m, x| m.max(x.abs()));
        let mut best: Option<(f32, Vec<f32>)> = None;
        for c in &kv.cands {
            let scale = if amax > 0.0 { amax / c.max } else { 1.0 };
            let lut = c.codec.decode_lut();
            let deq: Vec<f32> = g
                .iter()
                .map(|&x| scale * lut[c.codec.encode(x / scale) as usize])
                .collect();
            let err: f32 = deq.iter().zip(g).map(|(d, x)| (d - x) * (d - x)).sum();
            if best.as_ref().map(|(e, _)| err < *e).unwrap_or(true) {
                best = Some((err, deq));
            }
        }
        best.unwrap().1
    }

    proptest! {
        /// Group-quantized appends round-trip against the float
        /// reference: decoding a cached row reproduces, bit for bit,
        /// what the independent reference computes per group.
        #[test]
        fn prop_cached_rows_match_float_reference(
            seed in 0u64..1u64 << 48,
            dim in 1usize..80,
            group in 1usize..40,
            bits_ix in 0usize..7,
            tokens in 1usize..6,
        ) {
            let bits = [2u32, 3, 4, 5, 6, 7, 8][bits_ix];
            let kv = KvQuant::new(spec(bits, group, PrimitiveCombo::IntPotFlint)).unwrap();
            let mut cache = KvCache::new(dim, tokens, &kv);
            let mut originals = Vec::new();
            for t in 0..tokens as u64 {
                let k = row(dim, seed ^ (2 * t));
                let v = row(dim, seed ^ (2 * t + 1));
                append(&mut cache, &kv, &k, &v);
                originals.push((k, v));
            }
            let mut got = vec![0f32; dim];
            for (t, (k, v)) in originals.iter().enumerate() {
                for (half, src) in [(KvHalf::K, k), (KvHalf::V, v)] {
                    let want: Vec<f32> = src
                        .chunks(group)
                        .flat_map(|g| reference_group(&kv, g))
                        .collect();
                    cache.read_row(&kv, half, t, &mut got);
                    prop_assert_eq!(f32_bits(&got), f32_bits(&want));
                }
            }
        }
    }
}
