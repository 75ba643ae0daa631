//! Integer-domain GEMM over decoded operands.
//!
//! After the boundary LUT decode, every ANT operand is a small signed
//! integer and a layer's matmul is an exact integer computation — the same
//! arithmetic the TypeFusion PE array performs (`ant-hw`'s `multiply`/
//! `Accumulator`, paper Fig. 7). Exactness is what makes batched execution
//! deterministic: results are bit-identical regardless of how requests are
//! grouped *and* of which kernel, tiling, or thread partitioning computed
//! them.
//!
//! Two implementations share that contract — the oracle and the kernel:
//!
//! * [`int_gemm`] — the scalar `i32 × i32 → i64` reference: a plain safe
//!   triple loop, obviously correct, and the oracle every kernel test
//!   compares against. Nothing serves requests through it.
//! * [`PanelGemm`] — the narrow microkernel behind every packed layer:
//!   weights pre-packed once into `NR`-interleaved `i8`/`i16` panels
//!   (decode-once, serve-many), a register-blocked `mr×8` tile computed
//!   for exactly the `mr ∈ 1..=4` rows a tile has, `i32` accumulation
//!   with a provably safe widening cadence (see the `kernel` submodule
//!   docs for the bound), and — behind runtime feature detection — one
//!   AVX2 `vpmaddwd` tile for both operand widths that retires two
//!   `k`-steps per multiply. Packed layers call
//!   [`PanelGemm::matmul_dequant`], which fuses the dequantizing
//!   [`Epilogue`] into the tile writeback whenever the reduction is one
//!   cadence block (always, for byte operands up to `k = 8192`) and
//!   otherwise folds through the exact `i64` accumulator. It is scheduled
//!   on the persistent [`WorkerPool`] and partitioned over output
//!   *columns* as well as rows ([`partition`]) — a batch-1 request
//!   against a wide layer (`m = 1`, `n = 4096`) fans out across the pool
//!   instead of running single-threaded.
//!
//! The two operand widths are the whole integer domain: a lattice that
//! fits neither `i8` nor `i16` is refused at plan compilation, not run on
//! a third path.
//!
//! The weight operand is kept in (or packed from) the `[n, k]`
//! weight-stationary layout (rows contiguous), so each output channel is a
//! dot product of two contiguous streams; [`im2row`] lowers convolutions
//! into the same layout.

pub(crate) mod avx2;
pub(crate) mod kernel;

use crate::pool::WorkerPool;
use ant_core::store::{PackedStore, StorePod};
pub(crate) use kernel::k_block_for;
use kernel::Sink;
pub use kernel::{Epilogue, KernelOperand};

/// Panel width of the microkernel: output channels are packed and
/// computed in groups of `NR` (one `i32×8` SIMD register per tile row).
pub const NR: usize = 8;

/// Minimum multiply-accumulates per task before an extra worker pays for
/// its dispatch. A persistent-pool dispatch costs on the order of a
/// microsecond (one lock + wake), orders of magnitude below the thread
/// *spawn* the previous implementation paid, so the floor is 4× lower
/// than the old `1 << 20`.
const MIN_WORK_PER_TASK: usize = 1 << 18;

/// `out[m×n] = a[m×k] · bᵀ` where `b` is `[n, k]` row-major (the
/// weight-stationary layout). Accumulation is exact in `i64`.
///
/// This is the reference: the narrow [`PanelGemm`] microkernel is
/// bit-identical to it by construction (integer arithmetic) and by test
/// (`gemm::tests`, `tests/microkernel.rs` proptests).
///
/// # Panics
///
/// Panics when slice lengths disagree with the given dimensions.
pub fn int_gemm(a: &[i32], b: &[i32], m: usize, k: usize, n: usize, out: &mut [i64]) {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), n * k, "rhs length");
    assert_eq!(out.len(), m * n, "output length");
    for (i, out_row) in out.chunks_exact_mut(n.max(1)).enumerate() {
        let a_row = &a[i * k..(i + 1) * k];
        for (o, dst) in out_row.iter_mut().enumerate() {
            let w_row = &b[o * k..(o + 1) * k];
            *dst = a_row
                .iter()
                .zip(w_row)
                .map(|(&av, &wv)| av as i64 * wv as i64)
                .sum();
        }
    }
}

/// How a GEMM splits across pool workers: `(row_chunks, col_chunks)`
/// output-grid partitioning for a problem of the given shape at the given
/// parallelism cap.
///
/// Rows are preferred (better locality: a task streams contiguous output
/// rows), but when the row count can't absorb the parallelism — the
/// serving-critical `m = 1`, huge-`n` shape — the remainder splits over
/// output columns, so tall-weight/small-batch GEMMs parallelize too
/// (regression-pinned in `tests/microkernel.rs`). Work below
/// `MIN_WORK_PER_TASK` MACs per extra task stays single-threaded.
pub fn partition(m: usize, k: usize, n: usize, threads: usize) -> (usize, usize) {
    let work = m.saturating_mul(k).saturating_mul(n);
    let max_tasks = threads.max(1).min((work / MIN_WORK_PER_TASK).max(1));
    let row_chunks = max_tasks.min(m.max(1));
    let col_chunks = (max_tasks / row_chunks).clamp(1, n.div_ceil(NR).max(1));
    (row_chunks, col_chunks)
}

/// Runs `body(row_range, panel_range)` over the partition grid, on the
/// pool when the grid has more than one cell. `col_units` is the number
/// of independently splittable column units (`NR`-wide panels).
fn run_partitioned(
    pool: &WorkerPool,
    threads: usize,
    m: usize,
    k: usize,
    n: usize,
    col_units: usize,
    body: &(dyn Fn(std::ops::Range<usize>, std::ops::Range<usize>) + Sync),
) {
    let (rc, cc) = partition(m, k, n, threads.min(pool.width()));
    let cc = cc.min(col_units.max(1));
    if rc * cc <= 1 {
        body(0..m, 0..col_units);
        return;
    }
    let rows_per = m.div_ceil(rc);
    let units_per = col_units.div_ceil(cc);
    pool.run(rc * cc, &|t| {
        let (ri, ci) = (t / cc, t % cc);
        let r0 = (ri * rows_per).min(m);
        let r1 = ((ri + 1) * rows_per).min(m);
        let c0 = (ci * units_per).min(col_units);
        let c1 = ((ci + 1) * units_per).min(col_units);
        if r0 < r1 && c0 < c1 {
            body(r0..r1, c0..c1);
        }
    });
}

/// Weights pre-packed for the narrow-operand microkernel: `[n, k]`
/// row-major rows re-laid into `⌈n/NR⌉` interleaved `[k][NR]` panels at
/// construction (decode once, serve many), so the GEMM inner loop reads
/// both operands as perfectly sequential narrow streams.
///
/// The operand width `T` (`i8` or `i16`) is chosen by the caller from the
/// layer's decode-LUT magnitudes ([`ant_core::Codec::decode_lut_int`]);
/// the widening cadence is derived
/// from the packed data's actual maximum magnitude and the caller's bound
/// on activation magnitudes (see the `kernel` submodule for the overflow
/// argument).
///
/// # Example
///
/// ```
/// use ant_runtime::gemm::{int_gemm, PanelGemm};
/// use ant_runtime::WorkerPool;
///
/// let (m, k, n) = (3, 5, 4);
/// let a: Vec<i8> = (0..m * k as i8).map(|v| v - 7).collect();
/// let b: Vec<i8> = (0..n * k as i8).map(|v| 9 - v).collect();
/// let packed = PanelGemm::pack(&b, n as usize, k as usize, 127);
/// let mut fast = vec![0i64; (m * n) as usize];
/// packed.matmul(&a, m as usize, &mut fast, WorkerPool::global(), 1);
///
/// let a32: Vec<i32> = a.iter().map(|&v| v as i32).collect();
/// let b32: Vec<i32> = b.iter().map(|&v| v as i32).collect();
/// let mut reference = vec![0i64; (m * n) as usize];
/// int_gemm(&a32, &b32, m as usize, k as usize, n as usize, &mut reference);
/// assert_eq!(fast, reference);
/// ```
#[derive(Debug, Clone)]
pub struct PanelGemm<T: StorePod> {
    panels: PackedStore<T>,
    n: usize,
    k: usize,
    k_block: usize,
    a_max: i64,
    b_max: i64,
}

impl<T: KernelOperand> PanelGemm<T> {
    /// Packs `b` (`[n, k]` row-major weight-stationary rows) into
    /// microkernel panels. `a_max` is the caller's bound on the magnitude
    /// of every activation later passed to [`PanelGemm::matmul`]; it
    /// fixes the widening cadence, so violating it in release mode can
    /// silently wrap (debug builds assert it).
    ///
    /// # Panics
    ///
    /// Panics when `b.len() != n * k`.
    pub fn pack(b: &[T], n: usize, k: usize, a_max: i64) -> PanelGemm<T> {
        assert_eq!(b.len(), n * k, "rhs length");
        let b_max = b
            .iter()
            .map(|&v| (v.widen() as i64).abs())
            .max()
            .unwrap_or(0);
        let n_panels = n.div_ceil(NR);
        let mut panels = vec![T::default(); n_panels * k * NR];
        for pi in 0..n_panels {
            for p in 0..k {
                for c in 0..NR {
                    let row = pi * NR + c;
                    if row < n {
                        panels[(pi * k + p) * NR + c] = b[row * k + p];
                    }
                }
            }
        }
        Self::from_store(PackedStore::from_vec(panels), n, k, a_max, b_max)
            .expect("freshly packed panels are exactly sized")
    }

    /// Rebuilds a panel image from already-interleaved storage — the
    /// zero-repack deserialization path, where `panels` borrows the
    /// panel section of a memory-mapped artifact verbatim. The widening
    /// cadence is re-derived from the recorded magnitude bounds
    /// (`a_max`, `b_max`), never trusted from the file. Returns `None`
    /// when the storage is not exactly `⌈n/NR⌉·k·NR` elements.
    ///
    /// Overstated magnitude bounds cost cadence (smaller `k_block`);
    /// *understated* bounds can silently wrap block sums in release
    /// mode, exactly as a violated `a_max` contract on
    /// [`PanelGemm::pack`] would — `antc verify` recomputes panels and
    /// bounds from the wire codes to detect a lying artifact.
    pub fn from_store(
        panels: PackedStore<T>,
        n: usize,
        k: usize,
        a_max: i64,
        b_max: i64,
    ) -> Option<PanelGemm<T>> {
        if panels.len() != n.div_ceil(NR) * k * NR {
            return None;
        }
        Some(PanelGemm {
            panels,
            n,
            k,
            k_block: k_block_for(a_max, b_max),
            a_max,
            b_max,
        })
    }

    /// Output channel count (`n`).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reduction depth (`k`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The widening cadence in effect (exposed so tests can pin the
    /// overflow bound).
    pub fn k_block(&self) -> usize {
        self.k_block
    }

    /// The activation-magnitude bound the cadence was derived under.
    pub fn a_max(&self) -> i64 {
        self.a_max
    }

    /// The packed data's recorded maximum operand magnitude.
    pub fn b_max(&self) -> i64 {
        self.b_max
    }

    /// The raw `NR`-interleaved panel storage (`⌈n/NR⌉` panels of
    /// `[k][NR]`), as serialized into `.antm` panel sections.
    pub fn panels(&self) -> &[T] {
        &self.panels
    }

    /// Whether the panels are borrowed from a mapped artifact rather
    /// than owned.
    pub fn is_borrowed(&self) -> bool {
        self.panels.is_borrowed()
    }

    /// `out[m×n] = a[m×k] · bᵀ` through the microkernel, partitioned over
    /// the pool (capped at `threads`). Bit-identical to [`int_gemm`] on
    /// the widened operands.
    ///
    /// # Panics
    ///
    /// Panics when slice lengths disagree with the given dimensions, and
    /// in debug builds when an activation magnitude exceeds the `a_max`
    /// bound given to [`PanelGemm::pack`].
    pub fn matmul(&self, a: &[T], m: usize, out: &mut [i64], pool: &WorkerPool, threads: usize) {
        assert_eq!(out.len(), m * self.n, "output length");
        let sink = kernel::Wide {
            out: out.as_mut_ptr(),
            ldc: self.n,
        };
        self.run(a, m, &sink, pool, threads);
    }

    /// [`PanelGemm::matmul`] with the layer epilogue applied:
    /// `out = acc · deq[o] + bias[o]`, laid out as [`Epilogue`] describes.
    /// Bit-identical to `matmul` followed by [`dequant_into`].
    ///
    /// When the reduction fits one cadence block (`k ≤ k_block`) the
    /// `i32` tile sums are dequantized straight into `out` and `acc` is
    /// left untouched; longer reductions fold through `acc` (grown to
    /// `m·n` once, then reused) and dequantize from there.
    ///
    /// # Panics
    ///
    /// As [`PanelGemm::matmul`], and when the epilogue's slices are not
    /// `n` long, or `m` is not a whole number of samples.
    #[allow(clippy::too_many_arguments)] // a GEMM's shape is its signature
    pub fn matmul_dequant(
        &self,
        a: &[T],
        m: usize,
        epi: &Epilogue<'_>,
        out: &mut [f32],
        acc: &mut Vec<i64>,
        pool: &WorkerPool,
        threads: usize,
    ) {
        if self.k > self.k_block {
            let acc = crate::scratch::grab(acc, m * self.n, 0);
            self.matmul(a, m, acc, pool, threads);
            return dequant_into(acc, m, epi, out);
        }
        epi.check(m, self.n, out.len());
        let sink = kernel::Dequant {
            out: out.as_mut_ptr(),
            epi: *epi,
        };
        self.run(a, m, &sink, pool, threads);
    }

    /// Drives the microkernel over the partition grid into `sink`,
    /// choosing the pair tile when the machine and the cadence allow it.
    fn run<S: Sink>(&self, a: &[T], m: usize, sink: &S, pool: &WorkerPool, threads: usize) {
        assert_eq!(a.len(), m * self.k, "lhs length");
        debug_assert!(
            a.iter().all(|&v| (v.widen() as i64).abs() <= self.a_max),
            "activation magnitude exceeds the a_max cadence bound"
        );
        let pairs = avx2_available() && kernel::pair_safe(self.k_block);
        let panels = self.n.div_ceil(NR);
        run_partitioned(pool, threads, m, self.k, self.n, panels, &|rows, cols| {
            // SAFETY: the sink's output spans the full `m × n` result
            // (checked by the callers) and partition cells are disjoint
            // regions of it; `a` was length-checked against `m · k` and
            // the panel store at construction; the pair tile runs only
            // behind AVX2 detection and `pair_safe`.
            unsafe {
                if pairs {
                    #[cfg(target_arch = "x86_64")]
                    return avx2::region(self, a, rows, cols, sink);
                }
                kernel::region::<T, S, false>(self, a, rows, cols, sink)
            }
        });
    }
}

/// Dequantizes an exact `i64` accumulator (`[m, n]` row-major) into the
/// layer output `epi` describes: the reference form of the fused
/// writeback, and the path multi-block reductions take. Element for element `acc as f32 · deq[o] (+ bias[o])`, multiply
/// and add rounded separately.
///
/// # Panics
///
/// Panics when slice lengths disagree with `m` and the epilogue.
pub fn dequant_into(acc: &[i64], m: usize, epi: &Epilogue<'_>, out: &mut [f32]) {
    let n = epi.deq.len();
    assert_eq!(acc.len(), m * n, "accumulator length");
    epi.check(m, n, out.len());
    let rps = epi.rows_per_sample;
    for (i, acc_row) in acc.chunks_exact(n.max(1)).enumerate().take(m) {
        let base = epi.row_offset(i);
        // The bias dispatch is hoisted out of the channel loop.
        match epi.bias {
            Some(bias) => {
                for (o, ((&v, &d), &b)) in acc_row.iter().zip(epi.deq).zip(bias).enumerate() {
                    out[base + o * rps] = v as f32 * d + b;
                }
            }
            None => {
                for (o, (&v, &d)) in acc_row.iter().zip(epi.deq).enumerate() {
                    out[base + o * rps] = v as f32 * d;
                }
            }
        }
    }
}

/// Whether the AVX2 fast paths (pair microkernel, quantize loops) are
/// usable on this machine (runtime-detected; std caches the probe).
pub(crate) fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// Lowers one quantized `[c, h, w]` sample (as lattice integers of any
/// kernel width) into the `[oh*ow, c*kh*kw]` im2row matrix: row `p` holds
/// the receptive field of output pixel `p`, in the `(c, kh, kw)` order of
/// a row-major flattened conv kernel, so a convolution becomes
/// `im2row · Wᵀ` on the weight-stationary GEMM directly.
///
/// The lowering copies runs, not elements: per output row and `(c, kh)`
/// input line, each interior pixel's `kw`-wide window is one fixed-width
/// copy. Width 3, the only one any model here uses, is monomorphised (a
/// `[T; 3]` copy compiles to a few moves); other widths run the same loop
/// with a runtime width. Only border pixels, whose windows overhang the
/// padding, go element by element, and input rows outside the image are
/// skipped.
///
/// Padding positions stay `0` — the integer image of the reference path's
/// structural f32 zeros. With zero padding every element is overwritten,
/// so the output is *not* pre-cleared in that case (the buffer may hold
/// arbitrary stale scratch contents).
///
/// # Panics
///
/// Panics when slice lengths disagree with the geometry, or when the
/// kernel does not fit the padded input.
pub fn im2row<T: Copy + Default>(
    sample: &[T],
    c: usize,
    h: usize,
    w: usize,
    geo: ant_tensor::linalg::Conv2dGeometry,
    out: &mut [T],
) {
    match geo.kw {
        3 => im2row_runs::<T, 3>(sample, c, h, w, geo, out),
        _ => im2row_runs::<T, 0>(sample, c, h, w, geo, out),
    }
}

/// [`im2row`] with the window width fixed at `KW` (`0`: read from the
/// geometry at run time).
#[inline(always)]
fn im2row_runs<T: Copy + Default, const KW: usize>(
    sample: &[T],
    c: usize,
    h: usize,
    w: usize,
    geo: ant_tensor::linalg::Conv2dGeometry,
    out: &mut [T],
) {
    let kw = if KW == 0 { geo.kw } else { KW };
    let (kh, s, pad) = (geo.kh, geo.stride, geo.padding);
    assert_eq!(sample.len(), c * h * w, "sample length");
    let oh = geo.out_extent(h, kh).expect("kernel fits input height");
    let ow = geo.out_extent(w, kw).expect("kernel fits input width");
    let k = c * kh * kw;
    assert_eq!(out.len(), oh * ow * k, "output length");
    if pad > 0 {
        // Padding positions are never written below; everything else is,
        // so the clear is only needed (and only paid) when padding exists.
        out.fill(T::default());
    }
    // Interior pixels `lo..hi` have their whole window inside the input
    // line: `ox·s ≥ pad` and `ox·s − pad + kw ≤ w`. (When `w + pad < kw`
    // no pixel is interior, and then `ow ≤ lo`.)
    let lo = pad.div_ceil(s).min(ow);
    let hi = ((w + pad).saturating_sub(kw) / s + 1).clamp(lo, ow);
    for (oy, rows) in out.chunks_exact_mut((ow * k).max(1)).enumerate() {
        // One `(ci, ki)` input line at a time; its windows fill columns
        // `col..col + kw` of every pixel's row.
        for line_idx in 0..c * kh {
            let (ci, ki) = (line_idx / kh, line_idx % kh);
            let Some(iy) = (oy * s + ki).checked_sub(pad).filter(|&iy| iy < h) else {
                continue;
            };
            let line = &sample[(ci * h + iy) * w..][..w];
            let col = line_idx * kw;
            for ox in lo..hi {
                rows[ox * k + col..][..kw].copy_from_slice(&line[ox * s - pad..][..kw]);
            }
            // Border pixels: a column left of the input wraps to a huge
            // index, so `get` skips it like one right of the input.
            for ox in (0..lo).chain(hi..ow) {
                for (kj, dst) in rows[ox * k + col..][..kw].iter_mut().enumerate() {
                    if let Some(&v) = line.get((ox * s + kj).wrapping_sub(pad)) {
                        *dst = v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ant_tensor::linalg::{self, Conv2dGeometry};
    use ant_tensor::Tensor;

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

    fn lcg_ints(len: usize, seed: u32, range: i32) -> Vec<i32> {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                ((state >> 16) as i32 % range) - range / 2
            })
            .collect()
    }

    #[test]
    fn matches_reference_on_odd_shapes() {
        for (m, k, n) in [(1, 1, 1), (3, 7, 5), (9, 16, 4), (17, 3, 11)] {
            let a = lcg_ints(m * k, 1, 65);
            let b = lcg_ints(n * k, 2, 65);
            let mut out = vec![0i64; m * n];
            int_gemm(&a, &b, m, k, n, &mut out);
            assert_eq!(out, reference(&a, &b, m, k, n), "m={m} k={k} n={n}");
        }
    }

    #[test]
    fn panel_gemm_matches_reference_on_odd_shapes() {
        for (m, k, n) in [(1, 1, 1), (3, 7, 5), (9, 16, 4), (17, 3, 11), (5, 129, 13)] {
            let a32 = lcg_ints(m * k, 11, 65);
            let b32 = lcg_ints(n * k, 12, 65);
            let a8: Vec<i8> = a32.iter().map(|&v| v as i8).collect();
            let b8: Vec<i8> = b32.iter().map(|&v| v as i8).collect();
            let packed = PanelGemm::pack(&b8, n, k, 127);
            let mut out = vec![0i64; m * n];
            packed.matmul(&a8, m, &mut out, WorkerPool::global(), 1);
            assert_eq!(out, reference(&a32, &b32, m, k, n), "m={m} k={k} n={n}");
        }
    }

    /// One kernel run straight through [`kernel::region`], bypassing the
    /// dispatch in [`PanelGemm::run`]: the scalar tile, or (`pairs`) the
    /// AVX2 pair tile.
    fn run_tile<T: KernelOperand>(pg: &PanelGemm<T>, a: &[T], m: usize, pairs: bool) -> Vec<i64> {
        let n = pg.n;
        // Dirty output: every cell must be assigned, not accumulated into.
        let mut out = vec![i64::MIN; m * n];
        let sink = kernel::Wide {
            out: out.as_mut_ptr(),
            ldc: n,
        };
        let cols = 0..n.div_ceil(NR);
        // SAFETY: full-range region over an exclusively borrowed output;
        // operands sized by `pack`/the caller; the pair tile only behind
        // the same two guards `run` applies.
        unsafe {
            #[cfg(target_arch = "x86_64")]
            if pairs {
                assert!(avx2_available() && kernel::pair_safe(pg.k_block));
                avx2::region(pg, a, 0..m, cols, &sink);
                return out;
            }
            assert!(!pairs, "no pair tile on this architecture");
            kernel::region::<T, _, false>(pg, a, 0..m, cols, &sink);
        }
        out
    }

    /// The satellite grid for one operand width and magnitude bound:
    /// every row-tile height and tail (`m ∈ 1..=9`), `k` around the pair
    /// boundary, the 16-element load boundary and the cadence boundary,
    /// every `n mod NR` — pair tile vs scalar tile vs `int_gemm`.
    fn tile_grid<T: KernelOperand>(a_max: i32, b_max: i32) {
        let kb = k_block_for(a_max as i64, b_max as i64);
        assert!(kb >= 2, "grid magnitudes must admit the pair tile");
        let mut ks = vec![1, 2, 3, 15, 16, 17, kb - 1, kb, kb + 1];
        ks.sort_unstable();
        ks.dedup();
        for k in ks {
            for n in (1..=NR).chain([NR + 5]) {
                for m in 1..=9usize {
                    let seed = (m * 31 + n * 7 + k) as u32;
                    let mut a32 = lcg_ints(m * k, seed, 2 * a_max + 1);
                    let mut b32 = lcg_ints(n * k, seed + 1, 2 * b_max + 1);
                    // Pin the extremes so the bound is actually reached.
                    a32[0] = -a_max;
                    b32[0] = -b_max;
                    let a: Vec<T> = a32.iter().map(|&v| T::from_i32(v)).collect();
                    let b: Vec<T> = b32.iter().map(|&v| T::from_i32(v)).collect();
                    let pg = PanelGemm::pack(&b, n, k, a_max as i64);
                    assert_eq!(pg.k_block(), kb);
                    let expect = reference(&a32, &b32, m, k, n);
                    let scalar = run_tile(&pg, &a, m, false);
                    assert_eq!(scalar, expect, "scalar tile m={m} k={k} n={n}");
                    if avx2_available() {
                        let pair = run_tile(&pg, &a, m, true);
                        assert_eq!(pair, expect, "pair tile m={m} k={k} n={n}");
                    }
                    let mut dispatched = vec![i64::MIN; m * n];
                    pg.matmul(&a, m, &mut dispatched, WorkerPool::global(), 1);
                    assert_eq!(dispatched, expect, "matmul m={m} k={k} n={n}");
                }
            }
        }
    }

    #[test]
    fn pair_tile_scalar_tile_and_reference_agree_on_the_byte_grid() {
        // Full byte magnitudes: cadence 8192, so the grid crosses the
        // 8191/8192/8193 block boundary.
        tile_grid::<i8>(127, 127);
    }

    #[test]
    fn pair_tile_scalar_tile_and_reference_agree_on_the_halfword_grid() {
        // An odd cadence (7) — every block but the last ends on a
        // zero-partner tail — and an even one (14).
        assert_eq!(k_block_for(16384, 16384), 7);
        tile_grid::<i16>(16384, 16384);
        assert_eq!(k_block_for(12000, 12000), 14);
        tile_grid::<i16>(12000, 12000);
    }

    #[test]
    fn a_cadence_of_one_takes_the_scalar_tile() {
        // a_max · b_max = 2³⁰: two products no longer fit `i32`, and
        // (−32768)² + (−32768)² = 2³¹ is exactly where `vpmaddwd` wraps.
        // The dispatch must refuse the pair tile, and the answer proves
        // it did: a wrapped pair would come out negative.
        let (m, k, n) = (3usize, 6usize, 5usize);
        let a = vec![i16::MIN; m * k];
        let b = vec![i16::MIN; n * k];
        let pg = PanelGemm::pack(&b, n, k, 32768);
        assert_eq!(pg.k_block(), 1);
        assert!(!kernel::pair_safe(pg.k_block()));
        let mut out = vec![0i64; m * n];
        pg.matmul(&a, m, &mut out, WorkerPool::global(), 1);
        assert!(out.iter().all(|&v| v == k as i64 * (1i64 << 30)), "{out:?}");
    }

    #[test]
    fn threaded_is_bit_identical() {
        // Large enough that partition() genuinely fans out.
        let (m, k, n) = (64, 129, 256);
        let a = lcg_ints(m * k, 3, 129);
        let b = lcg_ints(n * k, 4, 129);
        let mut single = vec![0i64; m * n];
        int_gemm(&a, &b, m, k, n, &mut single);
        assert!(m * k * n >= 8 * MIN_WORK_PER_TASK, "test must thread");
        let a8: Vec<i8> = a.iter().map(|&v| v as i8).collect();
        let b8: Vec<i8> = b.iter().map(|&v| v as i8).collect();
        let packed = PanelGemm::pack(&b8, n, k, 64);
        for threads in [1, 2, 3, 8, 64] {
            let mut multi = vec![i64::MIN; m * n];
            packed.matmul(&a8, m, &mut multi, WorkerPool::global(), threads);
            assert_eq!(multi, single, "threads={threads}");
        }
    }

    #[test]
    fn partition_splits_columns_for_batch_one() {
        // The historical bug: `threads.min(m)` pinned m=1 GEMMs to one
        // thread no matter how wide the layer. A batch-1 request against
        // a 4096-wide layer must fan out over columns.
        let (rc, cc) = partition(1, 512, 4096, 8);
        assert_eq!(rc, 1);
        assert!(cc > 1, "m=1 huge-n GEMM must split columns, got {cc}");
        // Small problems stay single-task regardless of thread budget.
        assert_eq!(partition(4, 16, 16, 64), (1, 1));
        // Batched problems prefer rows.
        let (rc, cc) = partition(64, 512, 512, 8);
        assert_eq!((rc, cc), (8, 1));
    }

    #[test]
    #[should_panic(expected = "output length")]
    fn rejects_bad_output_length() {
        let mut out = vec![0i64; 3];
        int_gemm(&[1, 2], &[3, 4, 5, 6], 1, 2, 2, &mut out);
    }

    /// Checks `im2row` at operand type `T` against the transpose of the
    /// f32 `im2col` the reference conv path uses, over every kernel width
    /// the dispatch names and some it does not, non-square kernels,
    /// strides 1–3 and padding 0–2 — padding ring included, and whatever
    /// the output buffer held before (the padding-0 path skips the clear,
    /// so a stale `dirty` value left anywhere fails).
    fn im2row_sweep<T: Copy + Default + PartialEq + std::fmt::Debug>(
        from_i32: impl Fn(i32) -> T,
        dirty: T,
    ) {
        let kernels = [1, 2, 3, 4, 5, 7].map(|k| (k, k));
        let mut checked = 0;
        for (kh, kw) in kernels.into_iter().chain([(3, 1), (1, 3), (2, 5)]) {
            for (c, h, w) in [(2usize, 7usize, 9usize), (1, 3, 2), (3, 5, 5)] {
                for stride in 1..=3 {
                    for padding in 0..=2 {
                        let geo = Conv2dGeometry::new(kh, kw, stride, padding).unwrap();
                        if geo.out_extent(h, kh).is_none() || geo.out_extent(w, kw).is_none() {
                            continue;
                        }
                        let ints = lcg_ints(c * h * w, (kh * 7 + kw + stride) as u32, 15);
                        let floats = ints.iter().map(|&v| v as f32).collect();
                        let sample = Tensor::from_vec(floats, &[c, h, w]).unwrap();
                        let cols = linalg::im2col(&sample, geo).unwrap(); // [k, oh*ow]
                        let k = c * kh * kw;
                        let pixels = cols.dims()[1];
                        let typed: Vec<T> = ints.iter().map(|&v| from_i32(v)).collect();
                        let mut rows = vec![dirty; pixels * k];
                        im2row(&typed, c, h, w, geo, &mut rows);
                        for p in 0..pixels {
                            for r in 0..k {
                                assert_eq!(
                                    rows[p * k + r],
                                    from_i32(cols.as_slice()[r * pixels + p] as i32),
                                    "{kh}x{kw} s={stride} pad={padding} c={c} h={h} w={w} \
                                     pixel={p} row={r}"
                                );
                            }
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked >= 100, "sweep covered only {checked} geometries");
    }

    #[test]
    fn im2row_is_the_transpose_of_im2col() {
        im2row_sweep(|v| v as i8, i8::MIN);
        im2row_sweep(|v| v as i16, i16::MIN);
        im2row_sweep(|v| v, i32::MIN);
    }

    #[test]
    #[should_panic(expected = "sample length")]
    fn im2row_rejects_bad_sample_length() {
        let geo = Conv2dGeometry::new(3, 3, 1, 1).unwrap();
        let mut out = vec![0i32; 9];
        im2row::<i32>(&[1, 2, 3], 1, 3, 3, geo, &mut out);
    }
}
