//! The AVX2 `vpmaddwd` pair tile, selected by runtime feature detection.
//!
//! Same skeleton, same `[k][NR]` panels and same cadence as the scalar
//! tile ([`super::kernel`]); only the multiply differs. Two `k`-steps of
//! a panel are one 16-element load, widened to `i16` (bytes) or taken as
//! is (`i16` images) and interleaved into `NR` column pairs
//! `(b[p][c], b[p+1][c])` — once, shared by every row of the tile. A row
//! then costs one `vpbroadcastd` of its own `(a[p], a[p+1])` pair, one
//! `vpmaddwd` and one `vpaddd` per 16 MACs. Byte activations are widened
//! to `i16` once per row tile and cadence block (not per panel) into the
//! region's stack [`kernel::Stage`]; `i16` activations are already pairs
//! in place. All arithmetic is exact, so the block sums equal the scalar
//! tile's bit for bit (see the pair-sum argument in [`super::kernel`]).

#![cfg(target_arch = "x86_64")]

use super::kernel::{self, KernelOperand, Sink};
use super::{PanelGemm, NR};
use std::arch::x86_64::*;
use std::ops::Range;

/// [`kernel::region`] on the pair tile, compiled with AVX2 enabled so the
/// whole walk — staging, tile, fused epilogue — inlines into one
/// vectorised body.
///
/// # Safety
///
/// As [`kernel::region`]; additionally the caller must have verified
/// AVX2 support ([`super::avx2_available`]) and [`kernel::pair_safe`] for
/// the cadence.
#[target_feature(enable = "avx2")]
pub(crate) unsafe fn region<T: KernelOperand, S: Sink>(
    pg: &PanelGemm<T>,
    a: &[T],
    rows: Range<usize>,
    cols: Range<usize>,
    sink: &S,
) {
    debug_assert!(kernel::pair_safe(pg.k_block));
    kernel::region::<T, S, true>(pg, a, rows, cols, sink)
}

/// The `vpmaddwd` tile (contract as the portable tile in
/// [`super::kernel`]). `T` is `i8` or `i16` (the sealed [`KernelOperand`]
/// set), told apart by size at monomorphisation.
///
/// # Safety
///
/// `a` must be valid for reads of `M` rows of `kb` elements at stride
/// `lda`, `panel` for `kb · NR` elements; the cadence must be
/// [`kernel::pair_safe`] and the caller compiled with AVX2 enabled.
#[inline(always)]
pub(crate) unsafe fn tile<T: KernelOperand, const M: usize>(
    a: *const i16,
    lda: usize,
    panel: *const T,
    kb: usize,
) -> [[i32; NR]; M] {
    let mut acc = [_mm256_setzero_si256(); M];
    let mut p = 0usize;
    while p + 2 <= kb {
        let bv = load_pair(panel.add(p * NR));
        for (r, lane) in acc.iter_mut().enumerate() {
            // One 32-bit load is the row's `(a[p], a[p+1])` pair.
            let pair = (a.add(r * lda + p) as *const i32).read_unaligned();
            *lane = _mm256_add_epi32(*lane, _mm256_madd_epi16(_mm256_set1_epi32(pair), bv));
        }
        p += 2;
    }
    if p < kb {
        // Odd block tail: the partner is zero on both operands, so
        // nothing past row `kb − 1` of either is read.
        let bv = load_tail(panel.add(p * NR));
        for (r, lane) in acc.iter_mut().enumerate() {
            let pair = *a.add(r * lda + p) as u16 as i32;
            *lane = _mm256_add_epi32(*lane, _mm256_madd_epi16(_mm256_set1_epi32(pair), bv));
        }
    }
    let mut out = [[0i32; NR]; M];
    for (dst, &lane) in out.iter_mut().zip(&acc) {
        _mm256_storeu_si256(dst.as_mut_ptr() as *mut __m256i, lane);
    }
    out
}

/// Two consecutive panel rows (`2·NR` elements at `p`) as `NR` column
/// pairs: 32-bit lane `c` is `(row₀[c], row₁[c])` in `i16`.
#[inline(always)]
unsafe fn load_pair<T: KernelOperand>(p: *const T) -> __m256i {
    if size_of::<T>() == size_of::<i8>() {
        // 16 bytes: interleave the two rows bytewise, then sign-extend.
        let rows = _mm_loadu_si128(p as *const __m128i);
        let zip = _mm_setr_epi8(0, 8, 1, 9, 2, 10, 3, 11, 4, 12, 5, 13, 6, 14, 7, 15);
        _mm256_cvtepi8_epi16(_mm_shuffle_epi8(rows, zip))
    } else {
        // 16 halfwords, one row per 128-bit half: bring columns 0..3 of
        // both rows into the low half (4..7 into the high), then zip
        // within each half.
        let rows = _mm256_permute4x64_epi64(_mm256_loadu_si256(p as *const __m256i), 0b11_01_10_00);
        let zip = _mm256_setr_epi8(
            0, 1, 8, 9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15, //
            0, 1, 8, 9, 2, 3, 10, 11, 4, 5, 12, 13, 6, 7, 14, 15,
        );
        _mm256_shuffle_epi8(rows, zip)
    }
}

/// One last panel row (`NR` elements at `p`) paired with zeros: lane `c`
/// is `(row[c], 0)`.
#[inline(always)]
unsafe fn load_tail<T: KernelOperand>(p: *const T) -> __m256i {
    let row = if size_of::<T>() == size_of::<i8>() {
        _mm_cvtepi8_epi16(_mm_loadl_epi64(p as *const __m128i))
    } else {
        _mm_loadu_si128(p as *const __m128i)
    };
    _mm256_cvtepu16_epi32(row)
}
