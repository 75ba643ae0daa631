//! Bit-identity and overflow-bound suite for the narrow-operand
//! microkernel GEMM.
//!
//! The contract under test: [`PanelGemm`] (panel-packed `i8`/`i16`
//! operands, register-blocked tiles, `i32` accumulation with the
//! widening cadence, optional AVX2) produces **exactly** the `i64`
//! accumulator of the scalar [`int_gemm`] reference — across odd and
//! tail shapes, every thread partitioning, and at full operand
//! magnitudes where the cadence is the only thing standing between the
//! `i32` block accumulator and wraparound.

use ant_runtime::gemm::{im2row, int_gemm, partition, PanelGemm, NR};
use ant_runtime::WorkerPool;
use proptest::prelude::*;
use std::sync::Arc;

fn reference(a: &[i32], b: &[i32], m: usize, k: usize, n: usize) -> Vec<i64> {
    let mut out = vec![0i64; m * n];
    for i in 0..m {
        for o in 0..n {
            for p in 0..k {
                out[i * n + o] += a[i * k + p] as i64 * b[o * k + p] as i64;
            }
        }
    }
    out
}

fn lcg(len: usize, seed: u32, range: i32) -> Vec<i32> {
    let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
    (0..len)
        .map(|_| {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            ((state >> 16) as i32 % range) - range / 2
        })
        .collect()
}

/// The satellite shape grid: every m,k,n in {1..17} ∪ {129, 256} would be
/// ~8000 cells; proptest samples indices into it instead, with the tails
/// pinned by the deterministic tests below.
const DIMS: [usize; 19] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 129, 256,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// i8 microkernel == scalar reference on random shapes (including
    /// panel tails n % NR != 0 and row tails m % MR != 0), all thread
    /// counts.
    #[test]
    fn panel_i8_bit_identical_to_reference(
        mi in 0usize..19, ki in 0usize..19, ni in 0usize..19,
        seed in 0u32..10_000, threads in 1usize..9,
    ) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let a32 = lcg(m * k, seed, 255);
        let b32 = lcg(n * k, seed.wrapping_add(1), 255);
        let a8: Vec<i8> = a32.iter().map(|&v| v as i8).collect();
        let b8: Vec<i8> = b32.iter().map(|&v| v as i8).collect();
        let packed = PanelGemm::pack(&b8, n, k, 127);
        let mut out = vec![0i64; m * n];
        packed.matmul(&a8, m, &mut out, WorkerPool::global(), threads);
        prop_assert_eq!(out, reference(&a32, &b32, m, k, n));
    }

    /// i16 microkernel == scalar reference at wide-flint-scale magnitudes
    /// (values up to ±16384, the flint8u lattice maximum).
    #[test]
    fn panel_i16_bit_identical_to_reference(
        mi in 0usize..19, ki in 0usize..19, ni in 0usize..19,
        seed in 0u32..10_000, threads in 1usize..9,
    ) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        let a32 = lcg(m * k, seed, 32767);
        let b32 = lcg(n * k, seed.wrapping_add(1), 32767);
        let a16: Vec<i16> = a32.iter().map(|&v| v as i16).collect();
        let b16: Vec<i16> = b32.iter().map(|&v| v as i16).collect();
        let packed = PanelGemm::pack(&b16, n, k, 16384);
        let mut out = vec![0i64; m * n];
        packed.matmul(&a16, m, &mut out, WorkerPool::global(), threads);
        prop_assert_eq!(out, reference(&a32, &b32, m, k, n));
    }

    /// i16 microkernel == `int_gemm` at magnitudes that force the short
    /// cadences `int15`/`int16`/`pot5` layers are served at: the bounds
    /// are pinned so `k_block` is exactly 1, 2, 3, 7, 8 or 15 (odd blocks
    /// end on a zero-partner pair; 1 takes the scalar tile), and both are
    /// reached. A wrapped block panics in debug and is silent in release,
    /// so CI runs this suite in both profiles.
    #[test]
    fn panel_i16_short_cadences_bit_identical_to_int_gemm(
        mi in 0usize..19, ki in 0usize..19, ni in 0usize..19, ci in 0usize..6,
        seed in 0u32..10_000, threads in 1usize..9,
    ) {
        let (m, k, n) = (DIMS[mi], DIMS[ki], DIMS[ni]);
        // (a_max, b_max) → cadence ⌊i32::MAX / (a_max · b_max)⌋.
        let (a_max, b_max, cadence) = [
            (32768, 32768, 1usize),
            (32767, 32767, 2),
            (32767, 21846, 3),
            (32767, 9362, 7),
            (32767, 8192, 8),
            (32767, 4369, 15),
        ][ci];
        // Values in [−max, max − 1], with −max pinned on both sides.
        let mut a32 = lcg(m * k, seed, 2 * a_max);
        let mut b32 = lcg(n * k, seed.wrapping_add(1), 2 * b_max);
        a32[0] = -a_max;
        b32[0] = -b_max;
        let a16: Vec<i16> = a32.iter().map(|&v| v as i16).collect();
        let b16: Vec<i16> = b32.iter().map(|&v| v as i16).collect();
        let packed = PanelGemm::pack(&b16, n, k, a_max as i64);
        prop_assert_eq!(packed.k_block(), cadence);
        let mut out = vec![i64::MIN; m * n];
        packed.matmul(&a16, m, &mut out, WorkerPool::global(), threads);
        let mut expect = vec![0i64; m * n];
        int_gemm(&a32, &b32, m, k, n, &mut expect);
        prop_assert_eq!(out, expect);
    }
}

/// The widening-cadence overflow bound at max-magnitude operands: every
/// product is `(−128 or 127)²`-scale, so an unguarded `i32` dot product
/// would wrap after ~2^17 terms. `k` is driven across and beyond the
/// cadence (multiples of the block size ± 1) to hit the block-boundary
/// tails.
#[test]
fn max_magnitude_operands_never_wrap() {
    let pool = WorkerPool::global();
    let kb = {
        // Recover the cadence the kernel actually uses for ±127/±128.
        let probe = PanelGemm::pack(&[127i8], 1, 1, 127);
        probe.k_block()
    };
    for k in [1, kb - 1, kb, kb + 1, 2 * kb, 2 * kb + 7, 3 * kb + 5] {
        let (m, n) = (2usize, 3usize);
        // Worst case: all +127 against all −128 (largest-magnitude pair).
        let a8 = vec![127i8; m * k];
        let b8 = vec![-128i8; n * k];
        let packed = PanelGemm::pack(&b8, n, k, 127);
        let mut out = vec![0i64; m * n];
        packed.matmul(&a8, m, &mut out, pool, 1);
        let expect = 127i64 * -128 * k as i64;
        assert!(out.iter().all(|&v| v == expect), "k={k}: {out:?}");
        // Alternating signs exercise cancellation inside a block.
        let a8: Vec<i8> = (0..m * k)
            .map(|i| if i % 2 == 0 { 127 } else { -128 })
            .collect();
        let a32: Vec<i32> = a8.iter().map(|&v| v as i32).collect();
        let b32: Vec<i32> = b8.iter().map(|&v| v as i32).collect();
        let packed = PanelGemm::pack(&b8, n, k, 128);
        let mut out = vec![0i64; m * n];
        packed.matmul(&a8, m, &mut out, pool, 1);
        assert_eq!(out, reference(&a32, &b32, m, k, n), "k={k} alternating");
    }
}

/// The cadence itself respects the documented bound: block sums of
/// `k_block` maximal products stay within `i32`.
#[test]
fn cadence_times_max_product_fits_i32() {
    for (a_max, b) in [
        (127i64, vec![127i8; 8]),
        (128, vec![-128i8; 8]),
        (1, vec![1i8; 8]),
    ] {
        let b_max = b.iter().map(|&v| (v as i64).abs()).max().unwrap();
        let pg = PanelGemm::pack(&b, 1, 8, a_max);
        assert!(
            pg.k_block() as i64 * a_max * b_max <= i32::MAX as i64,
            "cadence {} × {a_max} × {b_max} exceeds i32",
            pg.k_block()
        );
        assert!(pg.k_block() >= 1);
    }
    // i16 at full magnitude: cadence collapses toward 1 but never 0.
    let pg = PanelGemm::pack(&[i16::MIN; 8], 1, 8, 32767);
    assert!(pg.k_block() >= 1);
    assert!(pg.k_block() as i64 * 32767 * 32768 <= i32::MAX as i64);
}

/// Regression pin for the historical `threads.min(m)` cap: a batch-1
/// request against a wide layer must split over output columns.
#[test]
fn batch_one_wide_gemm_parallelizes() {
    let (rc, cc) = partition(1, 512, 4096, 8);
    assert_eq!(rc, 1, "one row can only yield one row chunk");
    assert!(
        cc >= 4,
        "m=1, n=4096 must fan out over columns, got {cc} chunks"
    );
    // And the fanned-out result is still exact.
    let (m, k, n) = (1usize, 512usize, 4096usize);
    let a = lcg(m * k, 21, 65);
    let b = lcg(n * k, 22, 65);
    let mut expect = vec![0i64; m * n];
    int_gemm(&a, &b, m, k, n, &mut expect);
    let pool = Arc::new(WorkerPool::new(4));
    let a8: Vec<i8> = a.iter().map(|&v| v as i8).collect();
    let b8: Vec<i8> = b.iter().map(|&v| v as i8).collect();
    let packed = PanelGemm::pack(&b8, n, k, 127);
    let mut got = vec![0i64; m * n];
    packed.matmul(&a8, m, &mut got, &pool, 4);
    assert_eq!(got, expect);
}

/// Panel packing handles every tail: n not a multiple of NR leaves a
/// partially filled last panel whose padded rows must not leak into real
/// outputs.
#[test]
fn panel_tails_are_exact_for_every_remainder() {
    let k = 33;
    for n in 1..=2 * NR + 1 {
        let m = 5;
        let a32 = lcg(m * k, 31, 255);
        let b32 = lcg(n * k, 37, 255);
        let a8: Vec<i8> = a32.iter().map(|&v| v as i8).collect();
        let b8: Vec<i8> = b32.iter().map(|&v| v as i8).collect();
        let packed = PanelGemm::pack(&b8, n, k, 127);
        let mut out = vec![0i64; m * n];
        packed.matmul(&a8, m, &mut out, WorkerPool::global(), 1);
        assert_eq!(out, reference(&a32, &b32, m, k, n), "n={n}");
    }
}

/// The generic im2row at narrow widths agrees with the i32 one (same
/// lowering, narrower lattice) for padded and unpadded geometries.
#[test]
fn narrow_im2row_matches_i32_lowering() {
    use ant_tensor::linalg::Conv2dGeometry;
    for (c, h, w, kernel, stride, padding) in [
        (2usize, 6usize, 5usize, 3usize, 1usize, 1usize),
        (3, 5, 5, 2, 2, 0),
    ] {
        let geo = Conv2dGeometry::new(kernel, kernel, stride, padding).unwrap();
        let ints = lcg(c * h * w, 13, 15);
        let narrow: Vec<i8> = ints.iter().map(|&v| v as i8).collect();
        let oh = geo.out_extent(h, kernel).unwrap();
        let ow = geo.out_extent(w, kernel).unwrap();
        let k = c * kernel * kernel;
        let mut rows32 = vec![i32::MIN; oh * ow * k];
        let mut rows8 = vec![i8::MIN; oh * ow * k];
        im2row(&ints, c, h, w, geo, &mut rows32);
        im2row(&narrow, c, h, w, geo, &mut rows8);
        for (i, (&wide, &byte)) in rows32.iter().zip(&rows8).enumerate() {
            assert_eq!(wide, byte as i32, "pad={padding} idx={i}");
        }
    }
}

// ---------------------------------------------------------------------
// Pair-kernel cases (`vpmaddwd` tile, exact row tails, fused writeback).
// The three-way pair-tile / scalar-tile / reference grid (which also runs
// the dispatching `matmul`) lives next to the kernel in `gemm::tests`,
// where each tile can be called directly; the cases here cover behaviour
// only visible through the public API.
// ---------------------------------------------------------------------

use ant_runtime::gemm::{dequant_into, Epilogue};

/// All-(−128) bytes on both sides: every product is +2¹⁴, every pair
/// +2¹⁵, and a full 8192-term block sums to exactly 2²⁷ — nothing cancels,
/// so any lost or doubled term shows.
#[test]
fn all_minus_128_bytes_are_exact_across_the_cadence() {
    let pool = WorkerPool::global();
    let kb = PanelGemm::pack(&[-128i8], 1, 1, 128).k_block();
    for k in [1, 2, 3, kb - 1, kb, kb + 1, 2 * kb + 1] {
        for m in [1usize, 3, 4, 5] {
            let n = NR + 1;
            let packed = PanelGemm::pack(&vec![-128i8; n * k], n, k, 128);
            let mut out = vec![0i64; m * n];
            packed.matmul(&vec![-128i8; m * k], m, &mut out, pool, 1);
            let expect = 128i64 * 128 * k as i64;
            assert!(out.iter().all(|&v| v == expect), "m={m} k={k}: {out:?}");
        }
    }
}

/// Max-magnitude `i16` operands at the pair boundary. With
/// `a_max = 32767` against all-(−32768) weights the cadence is exactly 2:
/// one `vpmaddwd` lane per block, holding `2 · 32767 · 32768 = 2³¹ − 2¹⁶`,
/// the largest pair sum the pair tile is ever allowed to form. One step
/// further — `a_max = 32768` — two products no longer fit, the cadence
/// drops to 1 and the scalar tile must take over: (−32768)² + (−32768)²
/// is 2³¹, where `vpmaddwd` wraps.
#[test]
fn max_magnitude_i16_at_the_pair_boundary() {
    let pool = WorkerPool::global();
    for k in [1usize, 2, 3, 4, 5, 17] {
        let (m, n) = (5usize, NR + 2);
        let b = vec![i16::MIN; n * k];
        // Largest admissible pair: cadence 2.
        let packed = PanelGemm::pack(&b, n, k, 32767);
        assert_eq!(packed.k_block(), 2);
        let mut out = vec![0i64; m * n];
        packed.matmul(&vec![i16::MAX; m * k], m, &mut out, pool, 1);
        let expect = 32767i64 * -32768 * k as i64;
        assert!(out.iter().all(|&v| v == expect), "k={k}: {out:?}");
        // The wrapping corner: cadence 1, scalar tile.
        let packed = PanelGemm::pack(&b, n, k, 32768);
        assert_eq!(packed.k_block(), 1);
        packed.matmul(&vec![i16::MIN; m * k], m, &mut out, pool, 1);
        let expect = (1i64 << 30) * k as i64;
        assert!(out.iter().all(|&v| v == expect), "k={k} corner: {out:?}");
    }
}

/// `matmul_dequant` against `matmul` + `dequant_into`, compared as bits.
/// Returns whether the call went through the `i64` fold (it grew `acc`).
fn fused_equals_unfused<T: ant_runtime::gemm::KernelOperand>(
    packed: &PanelGemm<T>,
    a: &[T],
    m: usize,
    epi: &Epilogue<'_>,
    threads: usize,
) -> bool {
    let pool = WorkerPool::global();
    let n = packed.n();
    let mut wide = vec![0i64; m * n];
    packed.matmul(a, m, &mut wide, pool, threads);
    let mut expect = vec![f32::NAN; m * n];
    dequant_into(&wide, m, epi, &mut expect);
    let mut got = vec![f32::NAN; m * n];
    let mut acc = Vec::new();
    packed.matmul_dequant(a, m, epi, &mut got, &mut acc, pool, threads);
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&got), bits(&expect), "m={m} k={} n={n}", packed.k());
    !acc.is_empty()
}

/// Non-trivial per-channel scales and biases (mixed signs, so a fused
/// multiply-add would round differently somewhere).
fn channel_params(n: usize, seed: u32) -> (Vec<f32>, Vec<f32>) {
    let raw = lcg(2 * n, seed, 2001);
    let deq = raw[..n].iter().map(|&v| v as f32 * 3.1e-4 + 1e-5).collect();
    let bias = raw[n..].iter().map(|&v| v as f32 * 0.37).collect();
    (deq, bias)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fused writeback is bit-identical to the `i64` fold followed by
    /// `dequant_into` — with and without bias, row-major (dense) and
    /// channel-major per sample (conv), on random shapes with every tail,
    /// single- and multi-threaded.
    #[test]
    fn fused_writeback_bit_identical_i8(
        samples in 1usize..5, rps_i in 0usize..7, ki in 0usize..19, ni in 0usize..19,
        seed in 0u32..10_000, with_bias in 0usize..2, threads in 1usize..5,
    ) {
        let rps = [1usize, 1, 3, 7, 4, 8, 36][rps_i];
        let (m, k, n) = (samples * rps, DIMS[ki], DIMS[ni]);
        let a8: Vec<i8> = lcg(m * k, seed, 255).iter().map(|&v| v as i8).collect();
        let b8: Vec<i8> = lcg(n * k, seed.wrapping_add(1), 255).iter().map(|&v| v as i8).collect();
        let packed = PanelGemm::pack(&b8, n, k, 127);
        let (deq, bias) = channel_params(n, seed.wrapping_add(2));
        let epi = Epilogue {
            deq: &deq,
            bias: (with_bias == 1).then_some(&bias[..]),
            rows_per_sample: rps,
        };
        let folded = fused_equals_unfused(&packed, &a8, m, &epi, threads);
        prop_assert!(!folded, "a single-block reduction must not touch the i64 accumulator");
    }

    /// Same, at halfword width. At ±16384 the cadence is 7, so any
    /// `k > 7` is a multi-block reduction and must fall back to the fold.
    #[test]
    fn fused_writeback_bit_identical_i16(
        m in 1usize..10, ki in 0usize..17, ni in 0usize..17,
        seed in 0u32..10_000, with_bias in 0usize..2,
    ) {
        let (k, n) = (DIMS[ki], DIMS[ni]);
        let a16: Vec<i16> = lcg(m * k, seed, 32767).iter().map(|&v| v as i16).collect();
        let b16: Vec<i16> = lcg(n * k, seed.wrapping_add(1), 32767).iter().map(|&v| v as i16).collect();
        let packed = PanelGemm::pack(&b16, n, k, 16384);
        let (deq, bias) = channel_params(n, seed.wrapping_add(2));
        let epi = Epilogue {
            deq: &deq,
            bias: (with_bias == 1).then_some(&bias[..]),
            rows_per_sample: 1,
        };
        let folded = fused_equals_unfused(&packed, &a16, m, &epi, 1);
        prop_assert_eq!(folded, k > packed.k_block());
    }
}

/// A byte reduction longer than the maximum cadence (`k > 8192`) cannot
/// be a single `i32` block: `matmul_dequant` must fold through the `i64`
/// accumulator — and still agree bit for bit. Full-magnitude operands
/// make the block sums as large as the cadence allows.
#[test]
fn fused_writeback_falls_back_to_the_fold_past_the_cadence() {
    let (m, n) = (5usize, NR + 3);
    let (deq, bias) = channel_params(n, 77);
    for (k, must_fold) in [(8192usize, false), (8193, true), (2 * 8192 + 5, true)] {
        let a8: Vec<i8> = (0..m * k)
            .map(|i| if i % 3 == 0 { -128 } else { 127 })
            .collect();
        let b8 = vec![-128i8; n * k];
        let packed = PanelGemm::pack(&b8, n, k, 128);
        assert_eq!(packed.k_block(), 8192);
        for bias in [None, Some(&bias[..])] {
            let epi = Epilogue {
                deq: &deq,
                bias,
                rows_per_sample: 1,
            };
            let folded = fused_equals_unfused(&packed, &a8, m, &epi, 1);
            assert_eq!(folded, must_fold, "k={k}");
        }
    }
}
