//! The narrow-operand microkernel: register-blocked `mr×NR` tiles
//! (`mr ∈ 1..=MR`, monomorphised — a row tail computes exactly the rows
//! it has) over panel-packed weights, with a provably safe `i32 → i64`
//! widening cadence and the dequantizing epilogue fused into the tile
//! writeback.
//!
//! # Why narrow operands
//!
//! After the boundary LUT decode every ANT lattice value is a small
//! integer (paper Table I: the 4-bit types top out at ±64, `int8` at
//! ±128), so carrying operands as `i32` wastes 4× the memory bandwidth
//! and — because products must then accumulate in `i64` — half the SIMD
//! lanes. The microkernel instead streams `i8` (or `i16`) operands and
//! accumulates 32-bit, which is exactly the economics of the paper's
//! low-bit MAC array (Sec. VI-A).
//!
//! # One skeleton, two tiles
//!
//! [`region`] walks one task's rows × panels of a [`PanelGemm`] row tile →
//! cadence block → panel. Per row tile and block the activations are
//! presented once as `i16` rows (bytes sign-extended into a stack
//! [`Stage`], halfwords in place) and shared by every panel; the `PAIRS`
//! parameter picks what multiplies them, and a [`Sink`] says where block
//! sums go. The portable tile multiplies one `k`-step at a time; the AVX2
//! tile ([`super::avx2`]) multiplies *pairs* of `k`-steps with
//! `vpmaddwd`. Both read the same `[k][NR]` panels, both serve `i8` and
//! `i16` images, and — all arithmetic being exact integer math — both
//! produce the same block sums. A sink either folds them into the exact
//! `i64` accumulator ([`Wide`]) or, when the whole reduction is a single
//! cadence block, dequantizes them straight into the layer's `f32` output
//! ([`Dequant`]), skipping the `m×n` `i64` round trip.
//!
//! # The widening cadence and its safety argument
//!
//! A dot product of `kb` terms with `|a| ≤ a_max` and `|b| ≤ b_max` is
//! bounded by `kb · a_max · b_max`. The kernel therefore accumulates in
//! `i32` for at most `k_block` terms at a time, then folds the block sum
//! into an `i64` accumulator, where
//!
//! ```text
//! k_block = min(K_BLOCK_MAX, i32::MAX / (a_max · b_max))   (≥ 1)
//! ```
//!
//! so no intermediate can wrap. `a_max`/`b_max` come from the decode LUT
//! of the layer's [`ant_core::Codec`] — a compile-time-style bound tied to
//! the wire-code space ([`ant_core::Codec::num_codes`] entries), not to
//! the data. For byte operands the bound is static: the const assertion
//! below pins `K_BLOCK_MAX · 128 · 128 ≤ i32::MAX`, so the full-magnitude
//! `±(128, 127)` worst case is safe at the maximum cadence. The `i64`
//! outer accumulator is exact for any realistic `k` (it would take
//! `k > 2^33` maximal byte products to wrap it).
//!
//! **Pair sums.** A `vpmaddwd` lane is `a₀·b₀ + a₁·b₁` computed in `i32`
//! and then added to the running lane, so every intermediate of a block
//! is still a sum of at most `kb` of the block's products — bounded by
//! `kb · a_max · b_max` exactly as above, and `k_block` is unchanged. The
//! one new intermediate is the pair itself, `≤ 2 · a_max · b_max`, which
//! fits precisely when `k_block ≥ 2`; the pair tile is therefore only
//! selected under that condition ([`pair_safe`]). That also excludes the
//! single `i16` corner `2 · (−32768)² = 2³¹` where `vpmaddwd` itself
//! wraps: it needs `a_max · b_max = 2³⁰`, i.e. `k_block = 1`, which runs
//! on the scalar tile. Pairs are formed from the start of each cadence
//! block; an odd block (odd `k` or odd `k_block`) ends in one step whose
//! partner is zero on both operands, contributing exactly `a·b + 0`.

use super::{PanelGemm, NR};
use std::mem::MaybeUninit;
use std::ops::Range;

/// Row-tile height of the microkernel (output rows per register tile).
pub(crate) const MR: usize = 4;

/// Upper bound on the widening cadence: block sums fold into `i64` at
/// least every `K_BLOCK_MAX` terms even when the operand magnitudes would
/// allow more.
pub(crate) const K_BLOCK_MAX: usize = 8192;

// The static worst case for byte operands: the `int8` hw range is
// [−128, 127], so |product| ≤ 128·128 and a full block stays in `i32`.
const _: () = assert!((K_BLOCK_MAX as i64) * 128 * 128 <= i32::MAX as i64);

/// Staging space for one row tile's activations widened to `i16`: `MR`
/// rows of at most one cadence block. Lives uninitialised on
/// [`region`]'s stack — only the `mr × kb` prefix a block actually uses
/// is ever written or read, so its size costs nothing per tile.
pub(crate) type Stage = [MaybeUninit<i16>; MR * K_BLOCK_MAX];

mod private {
    /// Seals [`super::KernelOperand`]: the microkernel is written (and
    /// overflow-argued) for exactly these operand widths.
    pub trait Sealed {}
    impl Sealed for i8 {}
    impl Sealed for i16 {}
}

/// An integer operand width the narrow microkernel accepts (`i8` or
/// `i16`). Sealed: the widening-cadence safety argument is made per
/// width, so the set is closed. The [`ant_core::store::StorePod`]
/// supertrait lets panel images live in owned-or-borrowed
/// [`ant_core::store::PackedStore`] storage.
pub trait KernelOperand:
    private::Sealed + ant_core::store::StorePod + Copy + Default + Send + Sync + 'static
{
    #[doc(hidden)]
    fn widen(self) -> i32;
    #[doc(hidden)]
    fn from_i32(v: i32) -> Self;
}

impl KernelOperand for i8 {
    #[inline(always)]
    fn widen(self) -> i32 {
        self as i32
    }
    #[inline(always)]
    fn from_i32(v: i32) -> i8 {
        debug_assert!(
            (i8::MIN as i32..=i8::MAX as i32).contains(&v),
            "value {v} exceeds i8"
        );
        v as i8
    }
}

impl KernelOperand for i16 {
    #[inline(always)]
    fn widen(self) -> i32 {
        self as i32
    }
    #[inline(always)]
    fn from_i32(v: i32) -> i16 {
        debug_assert!(
            (i16::MIN as i32..=i16::MAX as i32).contains(&v),
            "value {v} exceeds i16"
        );
        v as i16
    }
}

/// The widening cadence for operand magnitude bounds `a_max · b_max`
/// (see the module docs): the longest `i32`-safe block, capped at
/// [`K_BLOCK_MAX`] and floored at 1.
pub(crate) fn k_block_for(a_max: i64, b_max: i64) -> usize {
    let prod = a_max.max(1) * b_max.max(1);
    ((i32::MAX as i64 / prod).max(1) as usize).min(K_BLOCK_MAX)
}

/// Whether a cadence admits the pair tile: a `vpmaddwd` lane holds two
/// products before the running add, so two terms must fit `i32` (see the
/// module docs' pair-sum argument).
pub(crate) fn pair_safe(k_block: usize) -> bool {
    k_block >= 2
}

/// Presents `mr` activation rows of `kb` elements (starting at `a0`, row
/// stride `lda`) as the `i16` rows both tiles read, returning their base
/// pointer and row stride. Halfword rows are used in place; byte rows are
/// sign-extended into `stage` — once per row tile and cadence block,
/// shared by every panel. Staged rows sit `kb` (rounded even) apart, so
/// the tile stays compact in L1 whatever `k_block` allows.
///
/// # Safety
///
/// `a0` must be valid for reads of `mr` rows of `kb` elements at stride
/// `lda`, with `mr ≤ MR` and `kb ≤ K_BLOCK_MAX`.
#[inline(always)]
unsafe fn stage_rows<T: KernelOperand>(
    stage: &mut Stage,
    a0: *const T,
    mr: usize,
    lda: usize,
    kb: usize,
) -> (*const i16, usize) {
    if size_of::<T>() == size_of::<i16>() {
        return (a0 as *const i16, lda);
    }
    let stride = kb.next_multiple_of(2);
    for r in 0..mr {
        // SAFETY (caller): row `r` holds `kb` readable bytes, and
        // `mr · stride ≤ MR · K_BLOCK_MAX` fits the stage.
        let src = std::slice::from_raw_parts(a0.add(r * lda) as *const i8, kb);
        for (d, &s) in stage[r * stride..r * stride + kb].iter_mut().zip(src) {
            d.write(s as i16);
        }
    }
    (stage.as_ptr() as *const i16, stride)
}

/// The `i32` block sums of `M` staged rows against one `[kb][NR]` panel
/// slice: the AVX2 pair tile when `PAIRS`, else the portable tile (one
/// `k`-step at a time), which serves non-AVX2 machines and cadences too
/// short for pairs.
///
/// # Safety
///
/// `a` must be valid for reads of `M` rows of `kb` elements at stride
/// `lda`, `panel` for `kb · NR` elements, and `kb` terms of the operands'
/// magnitudes must fit `i32` (the cadence bound). `PAIRS` additionally
/// needs AVX2 and [`pair_safe`].
#[inline(always)]
unsafe fn tile<T: KernelOperand, const PAIRS: bool, const M: usize>(
    a: *const i16,
    lda: usize,
    panel: *const T,
    kb: usize,
) -> [[i32; NR]; M] {
    #[cfg(target_arch = "x86_64")]
    if PAIRS {
        return super::avx2::tile::<T, M>(a, lda, panel, kb);
    }
    let mut acc = [[0i32; NR]; M];
    for p in 0..kb {
        // SAFETY: `p < kb`, inside both the panel slice and each row.
        let b = &*(panel.add(p * NR) as *const [T; NR]);
        for (r, acc_row) in acc.iter_mut().enumerate() {
            let av = *a.add(r * lda + p) as i32;
            for (dst, &bv) in acc_row.iter_mut().zip(b) {
                *dst += av * bv.widen();
            }
        }
    }
    acc
}

/// Where a tile's block sums go. Implementations hold a raw pointer to
/// the *full* output; a region writes only the cells of its own rows ×
/// panels, which is the disjointness `PanelGemm::run`'s partitioning
/// guarantees.
pub(crate) trait Sink: Sync {
    /// Output offset of GEMM row `i`, column 0.
    fn row(&self, i: usize) -> usize;

    /// Consumes the block sums of an `M × nc` tile at columns `c0..`;
    /// `first` marks the reduction's first cadence block.
    ///
    /// # Safety
    ///
    /// The output must be valid for writes at those cells, with no
    /// concurrent access to them.
    unsafe fn put<const M: usize>(
        &self,
        rows: &[usize; M],
        c0: usize,
        nc: usize,
        acc: &[[i32; NR]; M],
        first: bool,
    );
}

/// Folds block sums into the exact row-major `i64` accumulator.
pub(crate) struct Wide {
    pub(crate) out: *mut i64,
    pub(crate) ldc: usize,
}

// SAFETY: the pointer targets an exclusively borrowed output that pool
// tasks write in disjoint regions; `ldc` is plain data.
unsafe impl Sync for Wide {}

impl Sink for Wide {
    #[inline(always)]
    fn row(&self, i: usize) -> usize {
        i * self.ldc
    }

    #[inline(always)]
    unsafe fn put<const M: usize>(
        &self,
        rows: &[usize; M],
        c0: usize,
        nc: usize,
        acc: &[[i32; NR]; M],
        first: bool,
    ) {
        for (&row, acc_row) in rows.iter().zip(acc) {
            let dst = self.out.add(row + c0);
            for (c, &v) in acc_row.iter().take(nc).enumerate() {
                let prev = if first { 0 } else { dst.add(c).read() };
                dst.add(c).write(prev + v as i64);
            }
        }
    }
}

/// The dequantizing epilogue of a packed layer: `acc · deq[o] + bias[o]`
/// per output channel `o`, and where each GEMM row lands in the layer's
/// `f32` output.
///
/// GEMM rows come in groups of `rows_per_sample` (a convolution's output
/// pixels; `1` for dense layers) and each group is written
/// channel-major: row `i`, channel `o` goes to
/// `(i / rps) · rps · n + o · rps + i % rps`. With `rows_per_sample = 1`
/// that is plain row-major `i · n + o`; with a conv's pixel count it is
/// the `[batch, co, oh·ow]` activation layout, so no separate scatter
/// pass is needed.
#[derive(Debug, Clone, Copy)]
pub struct Epilogue<'a> {
    /// Per-output-channel dequantization scales (`a_scale · w_scale[o]`).
    pub deq: &'a [f32],
    /// Optional per-output-channel bias, added after scaling.
    pub bias: Option<&'a [f32]>,
    /// GEMM rows per sample (`≥ 1`; see the type docs).
    pub rows_per_sample: usize,
}

impl Epilogue<'_> {
    /// Asserts the epilogue fits an `m × n` GEMM writing `out_len` values.
    pub(crate) fn check(&self, m: usize, n: usize, out_len: usize) {
        assert_eq!(self.deq.len(), n, "dequant scale count");
        assert!(self.bias.is_none_or(|b| b.len() == n), "bias length");
        assert!(
            self.rows_per_sample >= 1 && m.is_multiple_of(self.rows_per_sample),
            "rows per sample"
        );
        assert_eq!(out_len, m * n, "output length");
    }

    /// Output offset of GEMM row `i`, channel 0.
    #[inline(always)]
    pub(crate) fn row_offset(&self, i: usize) -> usize {
        let rps = self.rows_per_sample;
        (i / rps) * rps * self.deq.len() + i % rps
    }
}

/// Dequantizes single-block tile sums straight into the `f32` output
/// (the fused epilogue). Only valid when the reduction is one cadence
/// block, i.e. every `put` is `first`.
pub(crate) struct Dequant<'a> {
    pub(crate) out: *mut f32,
    pub(crate) epi: Epilogue<'a>,
}

// SAFETY: as for `Wide` — disjoint region writes through the pointer;
// the epilogue is shared read-only slices.
unsafe impl Sync for Dequant<'_> {}

impl Sink for Dequant<'_> {
    #[inline(always)]
    fn row(&self, i: usize) -> usize {
        self.epi.row_offset(i)
    }

    #[inline(always)]
    unsafe fn put<const M: usize>(
        &self,
        rows: &[usize; M],
        c0: usize,
        nc: usize,
        acc: &[[i32; NR]; M],
        first: bool,
    ) {
        debug_assert!(first, "fused writeback needs a single cadence block");
        // Channel parameters padded to the panel width once per tile, so
        // the per-row arithmetic is fixed-width: under AVX2 it compiles to
        // `vcvtdq2ps` + `vmulps` + `vaddps`. Multiply and add stay two
        // roundings (Rust never contracts them into an FMA), and
        // `i32 as f32 == i64 as f32` for every value in `i32` range — so
        // this is bit-identical to `dequant_into` after an `i64` fold.
        let mut deq = [0f32; NR];
        deq[..nc].copy_from_slice(&self.epi.deq[c0..c0 + nc]);
        let mut bias = [0f32; NR];
        if let Some(b) = self.epi.bias {
            bias[..nc].copy_from_slice(&b[c0..c0 + nc]);
        }
        let rps = self.epi.rows_per_sample;
        for (&row, acc_row) in rows.iter().zip(acc) {
            let mut vals = [0f32; NR];
            for ((v, &x), &d) in vals.iter_mut().zip(acc_row).zip(&deq) {
                *v = x as f32 * d;
            }
            if self.epi.bias.is_some() {
                for (v, &b) in vals.iter_mut().zip(&bias) {
                    *v += b;
                }
            }
            let dst = self.out.add(row + c0 * rps);
            if nc == NR && rps == 1 {
                (dst as *mut [f32; NR]).write_unaligned(vals);
            } else {
                for (c, &v) in vals.iter().take(nc).enumerate() {
                    dst.add(c * rps).write(v);
                }
            }
        }
    }
}

/// Computes one task's share of a GEMM: output rows `rows` × panels
/// `cols` of `a · bᵀ` against `pg`'s panels, blocked by its cadence. Per
/// row tile the activations are staged once per cadence block and shared
/// by every panel, each tile's block sums going to `sink`.
///
/// # Safety
///
/// `sink`'s output must be valid for writes over the region's cells with
/// no concurrent access to them; `a` must hold every row in `rows` at
/// stride `pg.k`; `PAIRS` needs AVX2 and [`pair_safe`] for the cadence.
#[inline(always)]
pub(crate) unsafe fn region<T: KernelOperand, S: Sink, const PAIRS: bool>(
    pg: &PanelGemm<T>,
    a: &[T],
    rows: Range<usize>,
    cols: Range<usize>,
    sink: &S,
) {
    debug_assert!(a.len() >= rows.end * pg.k && pg.panels.len() >= cols.end * pg.k * NR);
    let mut stage: Stage = [MaybeUninit::uninit(); MR * K_BLOCK_MAX];
    let mut i0 = rows.start;
    while i0 < rows.end {
        let mr = MR.min(rows.end - i0);
        match mr {
            1 => row_tile::<T, S, PAIRS, 1>(pg, a, i0, &cols, &mut stage, sink),
            2 => row_tile::<T, S, PAIRS, 2>(pg, a, i0, &cols, &mut stage, sink),
            3 => row_tile::<T, S, PAIRS, 3>(pg, a, i0, &cols, &mut stage, sink),
            _ => row_tile::<T, S, PAIRS, MR>(pg, a, i0, &cols, &mut stage, sink),
        }
        i0 += mr;
    }
}

/// The `M`-row tile of [`region`] starting at row `i0` (same contract),
/// monomorphised on the exact row count.
#[inline(always)]
unsafe fn row_tile<T: KernelOperand, S: Sink, const PAIRS: bool, const M: usize>(
    pg: &PanelGemm<T>,
    a: &[T],
    i0: usize,
    cols: &Range<usize>,
    stage: &mut Stage,
    sink: &S,
) {
    let (k, n, a0) = (pg.k, pg.n, a.as_ptr().add(i0 * pg.k));
    let panels: &[T] = &pg.panels;
    // Output row offsets, hoisted out of the panel loop.
    let out_rows: [usize; M] = std::array::from_fn(|r| sink.row(i0 + r));
    let mut k0 = 0usize;
    // At least one pass, so an empty reduction still writes its zeros.
    loop {
        let kb = pg.k_block.min(k - k0);
        let (ap, lda) = stage_rows(stage, a0.add(k0), M, k, kb);
        for pi in cols.clone() {
            let panel = panels.as_ptr().add((pi * k + k0) * NR);
            let acc = tile::<T, PAIRS, M>(ap, lda, panel, kb);
            sink.put(&out_rows, pi * NR, NR.min(n - pi * NR), &acc, k0 == 0);
        }
        k0 += kb;
        if k0 >= k {
            break;
        }
    }
}
