//! A minimal Posit codec for the paper's related-work comparison
//! (Sec. VIII): "Posit ... uses variable length encoding for the regime
//! bits to extend the exponent range. Our proposed flint is different from
//! Posit in the aspect that flint has no regime bit and an efficient
//! encoding/decoding process based on float or int type."
//!
//! This module implements standard `posit<n, es>` decoding (sign, regime,
//! exponent, fraction) so the claim can be made quantitative: the
//! `antc repro posit` report compares 4-bit posit lattices against
//! flint on the paper's tensor families, and tests verify the structural
//! difference (posit's regime is unbounded-length; flint's exponent field
//! is delimited by the first one).

use crate::QuantError;

/// A `posit<n, es>` format (Gustafson & Yonemoto, 2017).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Posit {
    n: u32,
    es: u32,
}

impl Posit {
    /// Creates a posit format with `n` total bits and `es` exponent bits.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedBitWidth`] unless `2 ≤ n ≤ 16` and
    /// `es < n - 1`.
    pub fn new(n: u32, es: u32) -> Result<Self, QuantError> {
        if !(2..=16).contains(&n) || es >= n - 1 {
            return Err(QuantError::UnsupportedBitWidth { bits: n });
        }
        Ok(Posit { n, es })
    }

    /// Total width in bits.
    pub fn bits(&self) -> u32 {
        self.n
    }

    /// Exponent field width (the posit `es` parameter).
    pub fn es(&self) -> u32 {
        self.es
    }

    /// `useed = 2^(2^es)`, the regime step factor.
    pub fn useed(&self) -> f64 {
        2f64.powi(1 << self.es)
    }

    /// Decodes a posit code to its real value. Code 0 is zero; the
    /// "NaR" pattern (sign bit only) decodes to `f64::NAN`.
    ///
    /// # Panics
    ///
    /// Panics if `code >= 2^n`.
    pub fn decode(&self, code: u32) -> f64 {
        let n = self.n;
        assert!(code < (1u32 << n), "code exceeds {n} bits");
        if code == 0 {
            return 0.0;
        }
        if code == 1 << (n - 1) {
            return f64::NAN; // NaR
        }
        let negative = (code >> (n - 1)) & 1 == 1;
        // Two's complement negation for negative posits.
        let body = if negative {
            ((!code).wrapping_add(1)) & ((1 << n) - 1)
        } else {
            code
        };
        let bits = body & ((1 << (n - 1)) - 1); // drop the (now 0) sign bit
                                                // Regime: run of identical bits after the sign.
        let width = n - 1;
        let first = (bits >> (width - 1)) & 1;
        let mut run = 1u32;
        while run < width && (bits >> (width - 1 - run)) & 1 == first {
            run += 1;
        }
        let k: i32 = if first == 1 {
            run as i32 - 1
        } else {
            -(run as i32)
        };
        // Remaining bits after the regime and its terminating bit.
        let consumed = (run + 1).min(width);
        let rest_width = width - consumed;
        let rest = bits & ((1u32 << rest_width).wrapping_sub(1));
        // Exponent: next es bits (zero-padded on the right).
        let e_width = self.es.min(rest_width);
        let e = if self.es == 0 {
            0
        } else {
            let e_partial = rest >> (rest_width - e_width);
            e_partial << (self.es - e_width)
        };
        let f_width = rest_width - e_width;
        let f = rest & ((1u32 << f_width).wrapping_sub(1));
        let fraction = 1.0 + f as f64 / 2f64.powi(f_width as i32);
        let mag = self.useed().powi(k) * 2f64.powi(e as i32) * fraction;
        if negative {
            -mag
        } else {
            mag
        }
    }

    /// The sorted finite value lattice (NaR excluded).
    pub fn lattice(&self) -> Vec<f64> {
        let mut v: Vec<f64> = (0..(1u32 << self.n))
            .map(|c| self.decode(c))
            .filter(|x| x.is_finite())
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
        v.dedup();
        v
    }

    /// Length of the regime field (including the terminating bit when
    /// present) for a code — posit's *variable-length* component, which is
    /// what costs hardware relative to flint's first-one coding.
    ///
    /// # Panics
    ///
    /// Panics if `code >= 2^n` or the code is 0 / NaR (no regime).
    pub fn regime_length(&self, code: u32) -> u32 {
        let n = self.n;
        assert!(code < (1u32 << n), "code exceeds {n} bits");
        assert!(code != 0 && code != 1 << (n - 1), "zero/NaR has no regime");
        let negative = (code >> (n - 1)) & 1 == 1;
        let body = if negative {
            ((!code).wrapping_add(1)) & ((1 << n) - 1)
        } else {
            code
        };
        let bits = body & ((1 << (n - 1)) - 1);
        let width = n - 1;
        let first = (bits >> (width - 1)) & 1;
        let mut run = 1u32;
        while run < width && (bits >> (width - 1 - run)) & 1 == first {
            run += 1;
        }
        (run + 1).min(width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(Posit::new(1, 0).is_err());
        assert!(Posit::new(4, 3).is_err());
        assert!(Posit::new(4, 1).is_ok());
        assert!(Posit::new(17, 2).is_err());
    }

    #[test]
    fn posit4_es0_known_values() {
        // posit<4,0>: useed 2. Positive codes 0001..0111:
        // 0001=1/4? Standard table: p<4,0> positives are
        // 0001=0.25, 0010=0.5, 0011=0.75, 0100=1, 0101=1.5, 0110=2, 0111=4.
        let p = Posit::new(4, 0).unwrap();
        let expect = [
            (1u32, 0.25),
            (2, 0.5),
            (3, 0.75),
            (4, 1.0),
            (5, 1.5),
            (6, 2.0),
            (7, 4.0),
        ];
        for (code, v) in expect {
            assert_eq!(p.decode(code), v, "code {code:04b}");
        }
        assert_eq!(p.decode(0), 0.0);
        assert!(p.decode(0b1000).is_nan());
    }

    #[test]
    fn negation_is_twos_complement() {
        let p = Posit::new(4, 0).unwrap();
        for code in 1..8u32 {
            let neg = ((!code).wrapping_add(1)) & 0xF;
            assert_eq!(p.decode(neg), -p.decode(code), "code {code:04b}");
        }
    }

    #[test]
    fn posit8_lattice_is_symmetric_and_monotone_by_magnitude() {
        let p = Posit::new(8, 1).unwrap();
        let lat = p.lattice();
        assert_eq!(lat.len(), 255); // 256 codes − NaR, ±0 collapse... 0 unique
        for &v in &lat {
            assert!(lat.contains(&-v), "missing -{v}");
        }
        assert!(lat.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn useed_and_max_value() {
        let p = Posit::new(8, 1).unwrap();
        assert_eq!(p.useed(), 4.0);
        // Max posit<8,1> = useed^(n-2) = 4^6 = 4096.
        let max = p.lattice().last().copied().unwrap();
        assert_eq!(max, 4096.0);
        assert_eq!(p.bits(), 8);
        assert_eq!(p.es(), 1);
    }

    #[test]
    fn regime_is_variable_length_unlike_flint() {
        // The structural contrast the paper draws (Sec. VIII): posit codes
        // of the same width have different regime lengths, so field
        // boundaries move with the value; flint's exponent code never
        // exceeds its fixed budget and is delimited by the first one.
        let p = Posit::new(8, 1).unwrap();
        let lengths: std::collections::BTreeSet<u32> =
            (1..128u32).map(|c| p.regime_length(c)).collect();
        assert!(lengths.len() >= 4, "regime lengths {lengths:?}");
        assert!(lengths.contains(&2) && lengths.contains(&7));
    }

    #[test]
    fn tapered_precision_near_one() {
        // Posit's signature: more fraction bits near 1.0, fewer at the
        // extremes — the same "important middle" idea as flint, achieved
        // with a variable-length regime.
        let p = Posit::new(8, 0).unwrap();
        let lat = p.lattice();
        let gap_near = |target: f64| {
            let pos = lat.partition_point(|&v| v < target);
            lat[pos.min(lat.len() - 1)] - lat[pos.saturating_sub(1)]
        };
        let near_one = gap_near(1.0);
        let near_max = gap_near(lat.last().unwrap() * 0.9);
        assert!(near_max > near_one * 8.0, "{near_one} vs {near_max}");
    }
}
