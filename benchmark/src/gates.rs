//! Correctness gates: every workload proves its outputs before any
//! timing. A mismatch fails the run (`correct: false`, exit code 1).

use crate::report::Outcome;
use crate::BenchError;
use ant_nn::model::Sequential;
use ant_runtime::CompiledPlan;
use ant_tensor::Tensor;

/// Packed execution must match the fake-quant reference within this
/// relative tolerance (`|a − b| ≤ tol · (1 + |b|)`, the repo's own
/// conformance rule).
pub const REF_TOL: f64 = 1e-4;

/// Largest `|got − want| / (1 + |want|)` over two equally long slices;
/// infinity when the lengths differ.
pub fn max_rel_err(got: &[f32], want: &[f32]) -> f64 {
    if got.len() != want.len() {
        return f64::INFINITY;
    }
    got.iter()
        .zip(want)
        .map(|(a, b)| f64::from((a - b).abs()) / (1.0 + f64::from(b.abs())))
        .fold(0.0, f64::max)
}

/// Bit-for-bit equality (`NaN`s with equal payloads compare equal).
pub fn bit_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Rows checked against the (slow, f32) fake-quant reference forward.
const REF_ROWS: usize = 16;
/// Share of those rows that may miss [`REF_TOL`]. The two paths round
/// each layer's input onto the same low-bit lattice from values that
/// differ in the last float bit, so now and then one activation lands
/// on the other side of a rounding boundary and that row comes out a
/// whole quantization step (percent, not 1e-4) apart. A wrong kernel
/// misses on every row; a rounding flip on one or two.
const REF_ROWS_OFF: f64 = 0.25;

/// How the packed plan's rows compare with the reference's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefErr {
    /// The median row's largest relative error.
    pub median_row: f64,
    /// Rows beyond [`REF_TOL`].
    pub rows_off: usize,
}

/// Per-row comparison of `got` with `want` (`rows` rows each).
pub fn ref_err(got: &[f32], want: &[f32], rows: usize) -> RefErr {
    if got.len() != want.len() || rows == 0 {
        return RefErr {
            median_row: f64::INFINITY,
            rows_off: rows,
        };
    }
    let width = (got.len() / rows).max(1);
    let per_row: Vec<f64> = got
        .chunks(width)
        .zip(want.chunks(width))
        .map(|(g, w)| max_rel_err(g, w))
        .collect();
    RefErr {
        median_row: crate::stats::median(&per_row),
        rows_off: per_row.iter().filter(|e| **e > REF_TOL).count(),
    }
}

impl RefErr {
    /// Within tolerance on all but a rounding flip's worth of rows.
    pub fn passes(&self, rows: usize) -> bool {
        self.median_row <= REF_TOL && self.rows_off as f64 <= REF_ROWS_OFF * rows as f64
    }

    /// Records the comparison as `plan.ref_*` and gates on it.
    pub fn gate(&self, what: &str, rows: usize, out: &mut Outcome) {
        out.set("plan.ref_max_rel_err", self.median_row);
        out.set("plan.ref_rows_off", self.rows_off as f64);
        out.check(self.passes(rows), || {
            format!(
                "{what}: median row {:.3e} (relative), {} of {rows} rows beyond {REF_TOL:e}",
                self.median_row, self.rows_off
            )
        });
    }
}

/// The gates of a stateless plan over `rows` (`[n, in]`):
///
/// 1. packed batch-1 output vs `Sequential::forward` on the quantized
///    model, within [`REF_TOL`] (first [`REF_ROWS`] rows, of which
///    [`REF_ROWS_OFF`] may be a rounding flip apart);
/// 2. batch-`batch` rows vs batch-1 rows, bit-equal (all rows).
///
/// Failures and the reference comparison (`plan.ref_*`) go to `out`.
/// Returns the batch-1 outputs (`[n, out]`, flat): what every later
/// answer is compared against.
pub fn plan_agrees(
    plan: &mut CompiledPlan,
    reference: &mut Sequential,
    rows: &Tensor,
    batch: usize,
    out: &mut Outcome,
) -> Result<Vec<f32>, BenchError> {
    let (n, in_f) = (rows.dims()[0], rows.dims()[1]);
    let x = rows.as_slice();
    let mut expected = Vec::new();
    let mut got = Vec::new();
    for r in 0..n {
        plan.forward_rows(&x[r * in_f..(r + 1) * in_f], 1, &mut got)?;
        expected.extend_from_slice(&got);
    }
    let out_f = expected.len() / n;

    let ref_n = n.min(REF_ROWS);
    let head = Tensor::from_vec(x[..ref_n * in_f].to_vec(), &[ref_n, in_f])?;
    let want = reference.forward(&head)?;
    ref_err(&expected[..ref_n * out_f], want.as_slice(), ref_n).gate(
        "packed output vs the fake-quant reference",
        ref_n,
        out,
    );

    for (c, chunk) in x.chunks(batch * in_f).enumerate() {
        let b = chunk.len() / in_f;
        plan.forward_rows(chunk, b, &mut got)?;
        let want = &expected[c * batch * out_f..][..b * out_f];
        out.check(bit_equal(&got, want), || {
            format!("batch-{b} rows differ from batch-1 rows (chunk {c})")
        });
    }
    Ok(expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_uses_the_conformance_rule() {
        assert_eq!(max_rel_err(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((max_rel_err(&[3.0], &[1.0]) - 1.0).abs() < 1e-12);
        assert_eq!(max_rel_err(&[1.0], &[1.0, 2.0]), f64::INFINITY);
    }

    #[test]
    fn one_flipped_row_is_tolerated_but_a_wrong_plan_is_not() {
        let want = vec![1.0f32; 16 * 4];
        let mut got = want.clone();
        assert_eq!(ref_err(&got, &want, 16).rows_off, 0);
        got[5] = 1.1; // row 1 a quantization step apart
        let flip = ref_err(&got, &want, 16);
        assert_eq!((flip.median_row, flip.rows_off), (0.0, 1));
        assert!(flip.passes(16));
        got.iter_mut().for_each(|v| *v *= 1.01);
        let wrong = ref_err(&got, &want, 16);
        assert_eq!(wrong.rows_off, 16);
        assert!(!wrong.passes(16));
        assert!(!ref_err(&got[1..], &want, 16).passes(16));
    }

    #[test]
    fn bit_equality_is_stricter_than_float_equality() {
        assert!(bit_equal(&[0.5, f32::NAN], &[0.5, f32::NAN]));
        assert!(!bit_equal(&[0.0], &[-0.0]));
        assert!(!bit_equal(&[1.0], &[1.0, 1.0]));
    }
}
