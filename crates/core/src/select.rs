//! ANT's inter-tensor data-type selection (paper Algorithm 2, Sec. IV-B/C).
//!
//! For each tensor, every candidate primitive type is calibrated with
//! min-MSE range clipping and the type achieving the lowest MSE wins. The
//! paper's evaluated combinations (Sec. VII-B) are provided as
//! [`PrimitiveCombo`] values: `Int`, `IP` (int+PoT), `FIP` (float+int+PoT),
//! `IP-F` (int+PoT+flint — the shipped ANT configuration) and `FIP-F`.

use crate::dtype::{DataType, PrimitiveType};
use crate::quantizer::{ClipSearch, Granularity, TensorQuantizer};
use crate::QuantError;
use ant_tensor::Tensor;

/// The primitive-type combinations evaluated in the paper's Fig. 10–12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimitiveCombo {
    /// `int` only — the conventional fixed-point baseline.
    Int,
    /// `int` + `PoT` (inter-tensor adaptivity only).
    IntPot,
    /// `float` + `int` + `PoT` (inter-tensor adaptivity only).
    FloatIntPot,
    /// `int` + `PoT` + `flint` — the final ANT configuration ("IP-F"),
    /// chosen because it only needs the int-based PE (Sec. VII-B).
    IntPotFlint,
    /// All four primitives ("FIP-F"); needs the float-based PE.
    FloatIntPotFlint,
}

impl PrimitiveCombo {
    /// The paper's abbreviation for this combination.
    pub fn label(&self) -> &'static str {
        match self {
            PrimitiveCombo::Int => "Int",
            PrimitiveCombo::IntPot => "IP",
            PrimitiveCombo::FloatIntPot => "FIP",
            PrimitiveCombo::IntPotFlint => "IP-F",
            PrimitiveCombo::FloatIntPotFlint => "FIP-F",
        }
    }

    /// All combinations in the order of the paper's figures.
    pub fn all() -> [PrimitiveCombo; 5] {
        [
            PrimitiveCombo::Int,
            PrimitiveCombo::IntPot,
            PrimitiveCombo::FloatIntPot,
            PrimitiveCombo::IntPotFlint,
            PrimitiveCombo::FloatIntPotFlint,
        ]
    }

    /// The member primitives, in candidate order.
    pub fn members(&self) -> &'static [PrimitiveType] {
        use PrimitiveType::{Flint, Float, Int, Pot};
        match self {
            PrimitiveCombo::Int => &[Int],
            PrimitiveCombo::IntPot => &[Int, Pot],
            PrimitiveCombo::FloatIntPot => &[Float, Int, Pot],
            PrimitiveCombo::IntPotFlint => &[Int, Pot, Flint],
            PrimitiveCombo::FloatIntPotFlint => &[Float, Int, Pot, Flint],
        }
    }

    /// Materialises the candidate list at a bit width and signedness.
    ///
    /// Signed 4-bit `float` is value-identical to signed PoT (paper
    /// Sec. VII-E), so it is still included — selection simply never
    /// prefers it strictly.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedBitWidth`] when `bits` is invalid
    /// for any member primitive.
    pub fn candidates(&self, bits: u32, signed: bool) -> Result<Vec<DataType>, QuantError> {
        // Only this combination's members are constructed: e.g. the Int
        // combo must stay valid at widths PoT does not support (8-bit
        // promotion in mixed precision).
        self.members()
            .iter()
            .map(|&p| DataType::new(p, bits, signed))
            .collect()
    }
}

impl std::fmt::Display for PrimitiveCombo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The outcome of Algorithm 2 on one tensor.
#[derive(Debug, Clone)]
pub struct TypeSelection {
    /// The winning data type.
    pub dtype: DataType,
    /// Its calibrated quantizer.
    pub quantizer: TensorQuantizer,
    /// The winning (minimum) MSE.
    pub mse: f64,
    /// MSE of every candidate, in candidate order, for analysis (Fig. 14).
    pub per_candidate: Vec<(DataType, f64)>,
}

/// Runs Algorithm 2: calibrates every candidate on `tensor` and returns the
/// minimum-MSE choice.
///
/// # Errors
///
/// * [`QuantError::NoCandidates`] when `candidates` is empty,
/// * calibration errors from [`TensorQuantizer::fit`].
///
/// # Example
///
/// ```
/// use ant_core::select::{select_type, PrimitiveCombo};
/// use ant_core::{Granularity, ClipSearch, PrimitiveType};
/// use ant_tensor::dist::{sample_tensor, Distribution};
///
/// // Gaussian-like weights with a long tail: flint should win (Sec. IV-B).
/// let w = sample_tensor(
///     Distribution::OutlierGaussian { std: 0.5, outlier_frac: 0.01, outlier_scale: 4.0 },
///     &[4096],
///     7,
/// );
/// let cands = PrimitiveCombo::IntPotFlint.candidates(4, true)?;
/// let sel = select_type(&w, &cands, Granularity::PerTensor, ClipSearch::default())?;
/// assert_eq!(sel.dtype.primitive(), PrimitiveType::Flint);
/// # Ok::<(), ant_core::QuantError>(())
/// ```
pub fn select_type(
    tensor: &Tensor,
    candidates: &[DataType],
    granularity: Granularity,
    search: ClipSearch,
) -> Result<TypeSelection, QuantError> {
    if candidates.is_empty() {
        return Err(QuantError::NoCandidates);
    }
    let mut per_candidate = Vec::with_capacity(candidates.len());
    let mut best: Option<(DataType, TensorQuantizer, f64)> = None;
    for &dt in candidates {
        let (q, mse) = TensorQuantizer::fit(dt, tensor, granularity, search)?;
        per_candidate.push((dt, mse));
        let better = match &best {
            None => true,
            Some((_, _, best_mse)) => mse < *best_mse,
        };
        if better {
            best = Some((dt, q, mse));
        }
    }
    let (dtype, quantizer, mse) = best.expect("candidates non-empty");
    Ok(TypeSelection {
        dtype,
        quantizer,
        mse,
        per_candidate,
    })
}

/// Convenience: Algorithm 2 with signedness inferred from the data (the
/// paper uses unsigned types for post-ReLU activations, Sec. II-B).
///
/// # Errors
///
/// Same conditions as [`select_type`].
pub fn select_type_auto(
    tensor: &Tensor,
    combo: PrimitiveCombo,
    bits: u32,
    granularity: Granularity,
    search: ClipSearch,
) -> Result<TypeSelection, QuantError> {
    let signed = tensor.min().is_none_or(|m| m < 0.0);
    let candidates = combo.candidates(bits, signed)?;
    select_type(tensor, &candidates, granularity, search)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ant_tensor::dist::{sample_tensor, Distribution};

    fn run(dist: Distribution, combo: PrimitiveCombo, signed: bool) -> TypeSelection {
        let t = sample_tensor(dist, &[4096], 101);
        let cands = combo.candidates(4, signed).unwrap();
        select_type(&t, &cands, Granularity::PerTensor, ClipSearch::default()).unwrap()
    }

    #[test]
    fn empty_candidates_rejected() {
        let t = Tensor::ones(&[4]);
        assert!(matches!(
            select_type(&t, &[], Granularity::PerTensor, ClipSearch::default()),
            Err(QuantError::NoCandidates)
        ));
    }

    #[test]
    fn gaussian_weights_prefer_flint() {
        // Paper Sec. IV-B: flint is most suitable for Gaussian-like tensors.
        // Real weight tensors are Gaussian with a long tail (Sec. I: "the
        // Gaussian-like distribution also has a long tail"), modelled here
        // as a 1% × 4σ contamination.
        let sel = run(
            Distribution::OutlierGaussian {
                std: 1.0,
                outlier_frac: 0.01,
                outlier_scale: 4.0,
            },
            PrimitiveCombo::IntPotFlint,
            true,
        );
        assert_eq!(
            sel.dtype.primitive(),
            PrimitiveType::Flint,
            "{:?}",
            sel.per_candidate
        );
    }

    #[test]
    fn pure_gaussian_narrow_range_prefers_int() {
        // Without the long tail, a 4-bit int's uniform lattice is optimal —
        // the inter-tensor adaptivity ANT exploits.
        let sel = run(
            Distribution::Gaussian {
                mean: 0.0,
                std: 1.0,
            },
            PrimitiveCombo::IntPotFlint,
            true,
        );
        assert_eq!(
            sel.dtype.primitive(),
            PrimitiveType::Int,
            "{:?}",
            sel.per_candidate
        );
    }

    #[test]
    fn uniform_tensors_prefer_int() {
        // Paper Fig. 1 left: int fits uniform-like narrow-range tensors.
        let sel = run(
            Distribution::Uniform { lo: 0.0, hi: 1.0 },
            PrimitiveCombo::IntPotFlint,
            false,
        );
        assert_eq!(
            sel.dtype.primitive(),
            PrimitiveType::Int,
            "{:?}",
            sel.per_candidate
        );
    }

    #[test]
    fn heavy_outlier_activations_prefer_pot() {
        // Paper Sec. VII-E: activation tensors with significant outliers
        // prefer PoT (or float).
        let sel = run(
            Distribution::OutlierGaussian {
                std: 1.0,
                outlier_frac: 0.002,
                outlier_scale: 60.0,
            },
            PrimitiveCombo::IntPotFlint,
            true,
        );
        assert_eq!(
            sel.dtype.primitive(),
            PrimitiveType::Pot,
            "{:?}",
            sel.per_candidate
        );
    }

    #[test]
    fn winner_has_minimum_mse_of_candidates() {
        let sel = run(
            Distribution::Laplace { mu: 0.0, b: 1.0 },
            PrimitiveCombo::FloatIntPotFlint,
            true,
        );
        for (dt, mse) in &sel.per_candidate {
            assert!(sel.mse <= *mse + 1e-12, "{dt} beat the winner");
        }
        assert_eq!(sel.per_candidate.len(), 4);
    }

    #[test]
    fn richer_combos_never_increase_mse() {
        // Adding candidates can only help (Fig. 10's monotone trend).
        let t = sample_tensor(Distribution::Laplace { mu: 0.0, b: 1.0 }, &[4096], 202);
        let mut prev = f64::INFINITY;
        for combo in [
            PrimitiveCombo::Int,
            PrimitiveCombo::IntPot,
            PrimitiveCombo::IntPotFlint,
            PrimitiveCombo::FloatIntPotFlint,
        ] {
            let cands = combo.candidates(4, true).unwrap();
            let sel =
                select_type(&t, &cands, Granularity::PerTensor, ClipSearch::default()).unwrap();
            assert!(sel.mse <= prev + 1e-12, "{combo}: {} > {prev}", sel.mse);
            prev = sel.mse;
        }
    }

    #[test]
    fn auto_signedness_detection() {
        let relu = sample_tensor(Distribution::HalfGaussian { std: 1.0 }, &[2048], 303);
        let sel = select_type_auto(
            &relu,
            PrimitiveCombo::IntPotFlint,
            4,
            Granularity::PerTensor,
            ClipSearch::default(),
        )
        .unwrap();
        assert!(!sel.dtype.is_signed());
        let signed = sample_tensor(
            Distribution::Gaussian {
                mean: 0.0,
                std: 1.0,
            },
            &[2048],
            304,
        );
        let sel2 = select_type_auto(
            &signed,
            PrimitiveCombo::IntPotFlint,
            4,
            Granularity::PerTensor,
            ClipSearch::default(),
        )
        .unwrap();
        assert!(sel2.dtype.is_signed());
    }

    #[test]
    fn combo_labels_and_candidate_counts() {
        assert_eq!(PrimitiveCombo::IntPotFlint.label(), "IP-F");
        assert_eq!(PrimitiveCombo::all().len(), 5);
        for combo in PrimitiveCombo::all() {
            let n = combo.candidates(4, true).unwrap().len();
            let expect = match combo {
                PrimitiveCombo::Int => 1,
                PrimitiveCombo::IntPot => 2,
                PrimitiveCombo::FloatIntPot | PrimitiveCombo::IntPotFlint => 3,
                PrimitiveCombo::FloatIntPotFlint => 4,
            };
            assert_eq!(n, expect, "{combo}");
        }
    }
}
