//! The unified data-type abstraction over ANT's primitive types
//! (paper Sec. IV-B): `int`, `PoT`, `float` and `flint`.
//!
//! Every primitive is *fixed-length*: a tensor quantized with any of them
//! stores exactly `bits` (+ sign) per element, which is what keeps ANT's
//! memory accesses aligned (paper Table I). A [`DataType`] names a
//! primitive at a width and signedness; a [`Codec`] materialises its
//! normalized value lattice and performs the hardware-faithful snap
//! (quantize-to-lattice) operation.

use crate::flint::Flint;
use crate::minifloat::FloatFormat;
use crate::QuantError;

/// The primitive numeric families ANT composes (paper Fig. 3 and Sec. IV-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimitiveType {
    /// Fixed-point integer: uniform resolution, narrow range.
    Int,
    /// Power-of-two: exponent only, extreme dynamic range.
    Pot,
    /// Miniature float: exponential spacing, rigid resolution near zero.
    Float,
    /// ANT's composite primitive: int-like in the middle, PoT-like at the
    /// extremes (Sec. IV-A).
    Flint,
}

impl std::fmt::Display for PrimitiveType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PrimitiveType::Int => "int",
            PrimitiveType::Pot => "pot",
            PrimitiveType::Float => "float",
            PrimitiveType::Flint => "flint",
        };
        f.write_str(s)
    }
}

/// A concrete numeric data type: primitive × bit width × signedness.
///
/// Signed variants spend their most significant bit on a sign and encode a
/// `(bits − 1)`-wide magnitude (sign-magnitude, paper Sec. V-C), so signed
/// and unsigned variants of a primitive have the same total width.
///
/// # Example
///
/// ```
/// use ant_core::{DataType, Codec};
///
/// let dt = DataType::flint(4, false)?;
/// let codec = Codec::new(dt)?;
/// assert_eq!(codec.max_value(), 64.0);
/// assert_eq!(codec.snap(11.0), 12.0); // Algorithm 1's worked example
/// # Ok::<(), ant_core::QuantError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DataType {
    primitive: PrimitiveType,
    bits: u32,
    signed: bool,
    /// Explicit float format (only for `PrimitiveType::Float`).
    float_format: Option<FloatFormat>,
}

impl DataType {
    /// A `bits`-wide two's-complement-style integer type. Signed variants
    /// use the symmetric range `[−(2^(b−1)−1), 2^(b−1)−1]` as is standard
    /// for weight quantization.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedBitWidth`] outside `2..=16`.
    pub fn int(bits: u32, signed: bool) -> Result<Self, QuantError> {
        if !(2..=16).contains(&bits) {
            return Err(QuantError::UnsupportedBitWidth { bits });
        }
        Ok(DataType {
            primitive: PrimitiveType::Int,
            bits,
            signed,
            float_format: None,
        })
    }

    /// A `bits`-wide power-of-two type: code 0 is zero, code `c ≥ 1` is
    /// `2^(c−1)` (per magnitude for signed variants).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedBitWidth`] outside `2..=6` (wider
    /// PoT lattices overflow `f32` dynamic range to no benefit).
    pub fn pot(bits: u32, signed: bool) -> Result<Self, QuantError> {
        if !(2..=6).contains(&bits) {
            return Err(QuantError::UnsupportedBitWidth { bits });
        }
        Ok(DataType {
            primitive: PrimitiveType::Pot,
            bits,
            signed,
            float_format: None,
        })
    }

    /// A `bits`-wide miniature float using the paper's default field split
    /// (see [`FloatFormat::default_for_bits`]).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedBitWidth`] when `bits < 3`.
    pub fn float(bits: u32, signed: bool) -> Result<Self, QuantError> {
        let fmt = FloatFormat::default_for_bits(bits, signed)?;
        Ok(DataType {
            primitive: PrimitiveType::Float,
            bits,
            signed,
            float_format: Some(fmt),
        })
    }

    /// A float type with an explicit [`FloatFormat`].
    pub fn float_with_format(fmt: FloatFormat) -> Self {
        DataType {
            primitive: PrimitiveType::Float,
            bits: fmt.total_bits(),
            signed: fmt.is_signed(),
            float_format: Some(fmt),
        }
    }

    /// A `bits`-wide flint type (paper Sec. IV-A).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedBitWidth`] when the (magnitude)
    /// width falls outside the supported flint range: unsigned `3..=8`,
    /// signed `4..=9`.
    pub fn flint(bits: u32, signed: bool) -> Result<Self, QuantError> {
        let mag_bits = if signed { bits.saturating_sub(1) } else { bits };
        Flint::new(mag_bits)?;
        Ok(DataType {
            primitive: PrimitiveType::Flint,
            bits,
            signed,
            float_format: None,
        })
    }

    /// The `bits`-wide type of `primitive` (a float takes the default
    /// field split).
    ///
    /// # Errors
    ///
    /// The error of that primitive's constructor above.
    pub fn new(primitive: PrimitiveType, bits: u32, signed: bool) -> Result<Self, QuantError> {
        match primitive {
            PrimitiveType::Int => DataType::int(bits, signed),
            PrimitiveType::Pot => DataType::pot(bits, signed),
            PrimitiveType::Float => DataType::float(bits, signed),
            PrimitiveType::Flint => DataType::flint(bits, signed),
        }
    }

    /// The primitive family.
    pub fn primitive(&self) -> PrimitiveType {
        self.primitive
    }

    /// Total encoded bits per element, including any sign bit.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Whether the type represents negative values.
    pub fn is_signed(&self) -> bool {
        self.signed
    }

    /// The float format, when this is a float type.
    pub fn float_format(&self) -> Option<FloatFormat> {
        self.float_format
    }

    /// Magnitude width: `bits` for unsigned types, `bits − 1` for signed.
    pub fn magnitude_bits(&self) -> u32 {
        if self.signed {
            self.bits - 1
        } else {
            self.bits
        }
    }
}

impl std::fmt::Display for DataType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}{}{}",
            self.primitive,
            self.bits,
            if self.signed { "s" } else { "u" }
        )
    }
}

/// How a codec snaps a real value onto its lattice.
#[derive(Debug, Clone)]
enum SnapKind {
    /// Round-to-nearest integer with clamping.
    IntRound { lo: f32, hi: f32 },
    /// The hardware flint path (Algorithm 1) on the magnitude.
    FlintHw(Flint),
    /// Nearest lattice value by binary search over magnitudes.
    NearestMagnitude,
}

/// The encoder [`Codec::new`] compiles from [`Codec::snap`]: every
/// magnitude step of the lattice with the input range it covers and its
/// wire code.
#[derive(Debug, Clone)]
enum Steps {
    /// `int`: the steps sit at `k + ½`, so round, then clamp.
    Int { lo: f32, hi: f32 },
    /// Every other primitive: magnitude step `i` (value `magnitudes[i]`,
    /// magnitude code `codes[i]`) covers `|x|` in
    /// `[thresholds[i − 1], thresholds[i])`; NaN reads as magnitude `nan`.
    Table {
        thresholds: Vec<f32>,
        codes: Vec<u32>,
        nan: f32,
    },
}

/// A materialised codec for a [`DataType`]: the sorted normalized value
/// lattice, the snap operation and the step table that encodes onto it.
///
/// The lattice is in *normalized units*; a quantizer maps real data onto it
/// with a scale factor `s` such that `x ≈ s · snap(x / s)` (paper Eq. (2)).
///
/// Encoding NaN gives code 0 for `int`, `PoT`, `float` and unsigned
/// `flint`, and the largest positive code (value [`Codec::max_value`]) for
/// signed `flint`, whose snap rounds `|NaN|` to the largest magnitude.
#[derive(Debug, Clone)]
pub struct Codec {
    dtype: DataType,
    /// Sorted non-negative magnitudes (excluding sign mirroring).
    magnitudes: Vec<f32>,
    max: f32,
    snap: SnapKind,
    steps: Steps,
}

impl Codec {
    /// Builds the codec for `dtype`, compiling its step table: one
    /// threshold on `|x|` per magnitude step, found by bisection over f32
    /// bit patterns against [`Codec::snap`] (which is monotone on
    /// non-negative inputs), so the table encodes exactly what snap
    /// rounds to.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError::UnsupportedBitWidth`] if the type's parameters
    /// are invalid (cannot happen for types built via `DataType`
    /// constructors, but guards hand-rolled values).
    pub fn new(dtype: DataType) -> Result<Self, QuantError> {
        let mag_bits = dtype.magnitude_bits();
        let (magnitudes, snap) = match dtype.primitive {
            PrimitiveType::Int => {
                let hi = ((1u64 << mag_bits) - 1) as f32;
                let lo = if dtype.signed { -hi } else { 0.0 };
                let magnitudes = (0..=(hi as u32)).map(|v| v as f32).collect();
                (magnitudes, SnapKind::IntRound { lo, hi })
            }
            PrimitiveType::Pot => {
                let powers = (1..1u32 << mag_bits).map(|c| 2f32.powi(c as i32 - 1));
                let magnitudes = std::iter::once(0.0).chain(powers).collect();
                (magnitudes, SnapKind::NearestMagnitude)
            }
            PrimitiveType::Float => {
                let fmt = dtype
                    .float_format
                    .unwrap_or(FloatFormat::default_for_bits(dtype.bits, dtype.signed)?);
                let mut magnitudes: Vec<f32> = fmt
                    .lattice()
                    .into_iter()
                    .filter(|&v| v >= 0.0)
                    .map(|v| v as f32)
                    .collect();
                magnitudes.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
                magnitudes.dedup();
                (magnitudes, SnapKind::NearestMagnitude)
            }
            PrimitiveType::Flint => {
                let flint = Flint::new(mag_bits)?;
                let magnitudes = flint.lattice().into_iter().map(|v| v as f32).collect();
                (magnitudes, SnapKind::FlintHw(flint))
            }
        };
        let max = *magnitudes.last().expect("non-empty");
        let placeholder = Steps::Int { lo: 0.0, hi: 0.0 };
        let mut codec = Codec {
            dtype,
            magnitudes,
            max,
            snap,
            steps: placeholder,
        };
        codec.steps = codec.compile_steps();
        Ok(codec)
    }

    /// The step table: `int`'s round-and-clamp, or else step `i`'s
    /// threshold — the least non-negative `x` that snaps to
    /// `magnitudes[i]` or above, bisected between the bit patterns of the
    /// two magnitudes it separates — and its magnitude code (the index,
    /// or flint's Algorithm 1 code); NaN takes the magnitude snap gives
    /// it.
    fn compile_steps(&self) -> Steps {
        if let SnapKind::IntRound { lo, hi } = self.snap {
            return Steps::Int { lo, hi };
        }
        let thresholds = self
            .magnitudes
            .windows(2)
            .map(|pair| {
                let (mut below, mut at) = (pair[0].to_bits(), pair[1].to_bits());
                while at - below > 1 {
                    let mid = below + (at - below) / 2;
                    if self.snap(f32::from_bits(mid)) >= pair[1] {
                        at = mid;
                    } else {
                        below = mid;
                    }
                }
                f32::from_bits(at)
            })
            .collect();
        let codes = self
            .magnitudes
            .iter()
            .enumerate()
            .map(|(i, &m)| match &self.snap {
                SnapKind::FlintHw(flint) => flint.encode_int(m as u64),
                _ => i as u32,
            })
            .collect();
        let nan = self.snap(f32::NAN).abs();
        Steps::Table {
            thresholds,
            codes,
            nan,
        }
    }

    /// The data type this codec implements.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Largest representable normalized magnitude.
    pub fn max_value(&self) -> f32 {
        self.max
    }

    /// Sorted non-negative magnitude lattice.
    pub fn magnitudes(&self) -> &[f32] {
        &self.magnitudes
    }

    /// The full signed lattice (mirrored magnitudes for signed types).
    pub fn lattice(&self) -> Vec<f32> {
        if self.dtype.signed {
            let mut v: Vec<f32> = self
                .magnitudes
                .iter()
                .rev()
                .filter(|&&m| m > 0.0)
                .map(|&m| -m)
                .chain(self.magnitudes.iter().copied())
                .collect();
            v.dedup();
            v
        } else {
            self.magnitudes.clone()
        }
    }

    /// The wire code space size, `2^bits`.
    pub fn num_codes(&self) -> usize {
        1usize << self.dtype.bits
    }

    /// Decode lookup table over the wire code space: entry `c` is the
    /// normalized value of code `c` under the hardware decoder semantics of
    /// `ant-hw` (Fig. 9's boundary decoders):
    ///
    /// * `int` — two's complement (sign-extended when signed),
    /// * `PoT` — sign bit above a magnitude code `m`, value `2^(m−1)`
    ///   (`m = 0` is zero),
    /// * `flint` — sign bit above an unsigned flint magnitude (Table III),
    /// * `float` — sign bit above an index into the sorted magnitude
    ///   lattice (a pure LUT decoder; indices past the lattice saturate to
    ///   the maximum and are never produced by [`Codec::encode`]).
    ///
    /// The table has [`Codec::num_codes`] entries (16 for the paper's 4-bit
    /// types), which is what makes bulk decoding a single indexed load per
    /// element.
    pub fn decode_lut(&self) -> Vec<f32> {
        let bits = self.dtype.bits;
        let mag_bits = self.dtype.magnitude_bits();
        (0..self.num_codes() as u32)
            .map(|code| {
                if let SnapKind::IntRound { .. } = self.snap {
                    return if self.dtype.signed {
                        let shift = 32 - bits;
                        (((code << shift) as i32) >> shift) as f32
                    } else {
                        code as f32
                    };
                }
                let (neg, mag_code) = if self.dtype.signed {
                    ((code >> mag_bits) & 1 == 1, code & ((1 << mag_bits) - 1))
                } else {
                    (false, code)
                };
                let mag = match &self.snap {
                    SnapKind::IntRound { .. } => unreachable!("handled above"),
                    SnapKind::FlintHw(flint) => flint.decode(mag_code) as f32,
                    SnapKind::NearestMagnitude => {
                        let idx = (mag_code as usize).min(self.magnitudes.len() - 1);
                        self.magnitudes[idx]
                    }
                };
                if neg {
                    -mag
                } else {
                    mag
                }
            })
            .collect()
    }

    /// Integer decode LUT: [`Codec::decode_lut`] with every entry as the
    /// exact lattice integer it is, or `None` when any entry is
    /// non-integral (the `float` primitive's fractional mantissas) or
    /// falls outside `i32`. This is the table the packed runtime's integer
    /// GEMM consumes — after the boundary decode every ANT operand *is* a
    /// small integer (paper Sec. VI-A), so the MAC array never needs the
    /// f32 image at all.
    pub fn decode_lut_int(&self) -> Option<Vec<i32>> {
        self.decode_lut()
            .into_iter()
            .map(|v| {
                if v.fract() != 0.0 {
                    return None;
                }
                let wide = v as i64;
                if wide < i32::MIN as i64 || wide > i32::MAX as i64 {
                    return None;
                }
                Some(wide as i32)
            })
            .collect()
    }

    /// Encodes a normalized value to its wire code: the inverse of
    /// [`Codec::decode_lut`] composed with [`Codec::snap`], so that for
    /// every non-NaN `x`, `decode_lut()[encode(x) as usize] == snap(x)`
    /// (NaN: see [`Codec`]). This is the software side of the paper's
    /// fixed-length encoding: what [`crate::pack::PackedTensor`] stores
    /// and what the `ant-hw` decoders consume.
    pub fn encode(&self, x: f32) -> u32 {
        let mut code = [0];
        self.encode_body(&[x], 1.0, &mut code, |c, _| c);
        code[0]
    }

    /// Encodes `x[i] / scale` for every element, storing
    /// `put(code, value)` in `out[i]`, where `value` is the lattice point
    /// of `code` (what [`Codec::snap`] gives): the bulk form of
    /// [`Codec::encode`] that quantizes activation rows and KV groups.
    /// The step table's arm is chosen once per call, and the loop is
    /// compiled for AVX2 where the CPU has it, which is what vectorizes
    /// `int`'s divide/round/clamp stream.
    pub fn encode_into<T, F: Fn(u32, f32) -> T>(
        &self,
        x: &[f32],
        scale: f32,
        out: &mut [T],
        put: F,
    ) {
        #[cfg(target_arch = "x86_64")]
        {
            #[target_feature(enable = "avx2")]
            unsafe fn wide<T, F: Fn(u32, f32) -> T>(
                c: &Codec,
                x: &[f32],
                scale: f32,
                out: &mut [T],
                put: F,
            ) {
                c.encode_body(x, scale, out, put)
            }
            if std::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 was detected on this CPU just above.
                return unsafe { wide(self, x, scale, out, put) };
            }
        }
        self.encode_body(x, scale, out, put)
    }

    /// [`Codec::encode_into`]'s loop, one per step-table arm.
    #[inline(always)]
    fn encode_body<T, F: Fn(u32, f32) -> T>(&self, x: &[f32], scale: f32, out: &mut [T], put: F) {
        let signed = self.dtype.signed;
        match &self.steps {
            Steps::Int { lo, hi } => {
                let mask = (1u32 << self.dtype.bits) - 1;
                for (o, &v) in out.iter_mut().zip(x) {
                    let q = (v / scale).round().clamp(*lo, *hi);
                    *o = put((q as i32 as u32) & mask, q);
                }
            }
            Steps::Table {
                thresholds,
                codes,
                nan,
            } => {
                let sign_bit = 1u32 << self.dtype.magnitude_bits();
                for (o, &v) in out.iter_mut().zip(x) {
                    let v = v / scale;
                    let mag = if signed { v.abs() } else { v.max(0.0) };
                    let mag = if mag.is_nan() { *nan } else { mag };
                    let i = thresholds.partition_point(|&t| t <= mag);
                    let (code, value) = (codes[i], self.magnitudes[i]);
                    // A sign bit only above a nonzero magnitude.
                    *o = if signed && v < 0.0 && i > 0 {
                        put(code | sign_bit, -value)
                    } else {
                        put(code, value)
                    };
                }
            }
        }
    }

    /// Snaps a normalized value to the nearest representable lattice point,
    /// using the hardware-faithful path for each primitive: integer rounding
    /// for `int`, Algorithm 1 (with its double rounding) for `flint`, and
    /// nearest-value for `PoT`/`float`. Unsigned codecs clamp negatives to
    /// zero; magnitudes beyond the range clamp to the maximum.
    pub fn snap(&self, x: f32) -> f32 {
        match &self.snap {
            SnapKind::IntRound { lo, hi } => x.round().clamp(*lo, *hi),
            SnapKind::FlintHw(flint) => {
                if self.dtype.signed {
                    let mag = x.abs().round().min(flint.max_value() as f32) as u64;
                    let q = flint.decode(flint.encode_int(mag)) as f32;
                    if x < 0.0 {
                        -q
                    } else {
                        q
                    }
                } else {
                    let e = x.round().max(0.0).min(flint.max_value() as f32) as u64;
                    flint.decode(flint.encode_int(e)) as f32
                }
            }
            SnapKind::NearestMagnitude => {
                let mag = if self.dtype.signed {
                    x.abs()
                } else {
                    x.max(0.0)
                };
                let q = nearest(&self.magnitudes, mag);
                if self.dtype.signed && x < 0.0 {
                    -q
                } else {
                    q
                }
            }
        }
    }
}

/// Index of the nearest value in a sorted slice (ties go to the lower
/// value).
fn nearest_index(sorted: &[f32], x: f32) -> usize {
    debug_assert!(!sorted.is_empty());
    let pos = sorted.partition_point(|&v| v < x);
    if pos == 0 {
        0
    } else if pos >= sorted.len() {
        sorted.len() - 1
    } else if x - sorted[pos - 1] <= sorted[pos] - x {
        pos - 1
    } else {
        pos
    }
}

/// Nearest value in a sorted slice (ties go to the lower value).
fn nearest(sorted: &[f32], x: f32) -> f32 {
    sorted[nearest_index(sorted, x)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::select::PrimitiveCombo;

    #[test]
    fn dtype_display() {
        assert_eq!(DataType::flint(4, true).unwrap().to_string(), "flint4s");
        assert_eq!(DataType::int(8, false).unwrap().to_string(), "int8u");
        assert_eq!(DataType::pot(4, false).unwrap().to_string(), "pot4u");
    }

    #[test]
    fn dtype_width_validation() {
        assert!(DataType::int(1, false).is_err());
        assert!(DataType::int(17, true).is_err());
        assert!(DataType::pot(7, false).is_err());
        assert!(DataType::flint(3, true).is_err()); // magnitude would be 2 bits
        assert!(DataType::flint(3, false).is_ok());
        assert!(DataType::float(2, false).is_err());
    }

    #[test]
    fn int_codec_signed_symmetric() {
        let c = Codec::new(DataType::int(4, true).unwrap()).unwrap();
        assert_eq!(c.max_value(), 7.0);
        assert_eq!(c.snap(9.3), 7.0);
        assert_eq!(c.snap(-9.3), -7.0);
        assert_eq!(c.snap(2.4), 2.0);
        assert_eq!(c.snap(-2.6), -3.0);
        let lat = c.lattice();
        assert_eq!(lat.len(), 15);
        assert_eq!(lat[0], -7.0);
    }

    #[test]
    fn int_codec_unsigned_clamps_negative() {
        let c = Codec::new(DataType::int(4, false).unwrap()).unwrap();
        assert_eq!(c.max_value(), 15.0);
        assert_eq!(c.snap(-3.0), 0.0);
        assert_eq!(c.snap(15.6), 15.0);
    }

    #[test]
    fn pot_codec_lattice() {
        let c = Codec::new(DataType::pot(4, false).unwrap()).unwrap();
        assert_eq!(c.magnitudes()[0], 0.0);
        assert_eq!(c.magnitudes()[1], 1.0);
        assert_eq!(c.max_value(), 2f32.powi(14));
        // Nearest: 3.0 is closer to 4 than to 2 (equidistant ties to lower);
        // 2.9 → 2, 3.1 → 4.
        assert_eq!(c.snap(2.9), 2.0);
        assert_eq!(c.snap(3.1), 4.0);
    }

    #[test]
    fn signed_pot_is_4bit_float_shaped() {
        // Paper Sec. VII-E: signed 4-bit float and PoT are identical.
        let pot = Codec::new(DataType::pot(4, true).unwrap()).unwrap();
        let flt = Codec::new(DataType::float(4, true).unwrap()).unwrap();
        let pm = pot.magnitudes();
        let fm = flt.magnitudes();
        assert_eq!(pm.len(), fm.len());
        // Same lattice up to a constant scale factor.
        let ratio = pm[1] / fm[1];
        for (p, f) in pm.iter().zip(fm.iter()).skip(1) {
            assert!((p / f - ratio).abs() < 1e-6, "pot {p} float {f}");
        }
    }

    #[test]
    fn flint_codec_matches_table_ii() {
        let c = Codec::new(DataType::flint(4, false).unwrap()).unwrap();
        assert_eq!(
            c.magnitudes(),
            &[
                0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 10.0, 12.0, 14.0, 16.0, 24.0, 32.0,
                64.0
            ]
        );
        assert_eq!(c.snap(11.0), 12.0);
        assert_eq!(c.snap(100.0), 64.0);
        assert_eq!(c.snap(-5.0), 0.0);
    }

    #[test]
    fn signed_flint_uses_three_bit_magnitude() {
        let c = Codec::new(DataType::flint(4, true).unwrap()).unwrap();
        assert_eq!(c.magnitudes(), &[0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0]);
        assert_eq!(c.snap(-5.2), -6.0);
        assert_eq!(c.snap(5.2), 6.0);
        assert_eq!(c.snap(-100.0), -16.0);
        let lat = c.lattice();
        assert_eq!(lat.len(), 15); // ±7 magnitudes + 0
    }

    #[test]
    fn float_codec_snap_nearest() {
        let c = Codec::new(DataType::float(4, false).unwrap()).unwrap();
        // E2M2 max is 7.0
        assert_eq!(c.max_value(), 7.0);
        assert_eq!(c.snap(100.0), 7.0);
        // Between 6 and 7 → nearest
        assert_eq!(c.snap(6.6), 7.0);
    }

    #[test]
    fn snap_is_idempotent_for_all_types() {
        for dt in [
            DataType::int(4, true).unwrap(),
            DataType::int(4, false).unwrap(),
            DataType::pot(4, true).unwrap(),
            DataType::float(4, false).unwrap(),
            DataType::flint(4, true).unwrap(),
            DataType::flint(5, false).unwrap(),
        ] {
            let c = Codec::new(dt).unwrap();
            for &v in &c.lattice() {
                assert_eq!(c.snap(v), v, "{dt}: snap({v})");
            }
        }
    }

    #[test]
    fn snap_never_exceeds_lattice_gap() {
        for dt in [
            DataType::flint(4, false).unwrap(),
            DataType::pot(4, false).unwrap(),
            DataType::float(4, false).unwrap(),
        ] {
            let c = Codec::new(dt).unwrap();
            let lat = c.lattice();
            let mut x = 0.0f32;
            while x <= c.max_value() {
                let q = c.snap(x);
                let pos = lat.partition_point(|&v| v < x);
                let gap = if pos == 0 || pos >= lat.len() {
                    f32::INFINITY
                } else {
                    lat[pos] - lat[pos - 1]
                };
                assert!((q - x).abs() <= gap.max(1.0), "{dt}: snap({x}) = {q}");
                x += 0.37;
            }
        }
    }

    #[test]
    fn encode_decode_lut_inverts_snap_for_all_types() {
        for dt in [
            DataType::int(4, true).unwrap(),
            DataType::int(4, false).unwrap(),
            DataType::int(8, true).unwrap(),
            DataType::pot(4, true).unwrap(),
            DataType::pot(4, false).unwrap(),
            DataType::float(4, true).unwrap(),
            DataType::float(5, false).unwrap(),
            DataType::flint(4, true).unwrap(),
            DataType::flint(4, false).unwrap(),
            DataType::flint(6, true).unwrap(),
        ] {
            let c = Codec::new(dt).unwrap();
            let lut = c.decode_lut();
            assert_eq!(lut.len(), c.num_codes(), "{dt}");
            let mut x = -(c.max_value() * 1.5);
            let step = c.max_value() / 37.0;
            while x <= c.max_value() * 1.5 {
                let code = c.encode(x);
                assert!(code < c.num_codes() as u32, "{dt}: code {code}");
                let decoded = lut[code as usize];
                let snapped = c.snap(x);
                assert_eq!(decoded, snapped, "{dt}: x={x} code={code:b}");
                x += step;
            }
        }
    }

    #[test]
    fn decode_lut_int_matches_f32_lut_exactly() {
        for dt in [
            DataType::int(4, true).unwrap(),
            DataType::int(8, true).unwrap(),
            DataType::int(8, false).unwrap(),
            DataType::pot(4, true).unwrap(),
            DataType::pot(4, false).unwrap(),
            DataType::flint(4, true).unwrap(),
            DataType::flint(8, false).unwrap(),
            DataType::flint(9, true).unwrap(),
        ] {
            let c = Codec::new(dt).unwrap();
            let lut = c.decode_lut();
            let int = c
                .decode_lut_int()
                .unwrap_or_else(|| panic!("{dt} is integral"));
            assert_eq!(int.len(), c.num_codes(), "{dt}");
            for (i, (&f, &v)) in lut.iter().zip(&int).enumerate() {
                assert_eq!(f, v as f32, "{dt}: code {i}");
            }
        }
    }

    #[test]
    fn decode_lut_int_rejects_fractional_lattices() {
        // E2M2 floats have fractional lattice points (0.25 steps).
        let c = Codec::new(DataType::float(5, true).unwrap()).unwrap();
        assert!(c.decode_lut_int().is_none());
        // pot6u magnitudes reach 2^62, far past i32.
        let c = Codec::new(DataType::pot(6, false).unwrap()).unwrap();
        assert!(c.decode_lut_int().is_none());
    }

    #[test]
    fn decode_lut_int_is_twos_complement() {
        let c = Codec::new(DataType::int(4, true).unwrap()).unwrap();
        let lut = c.decode_lut();
        assert_eq!(lut[0b0111], 7.0);
        assert_eq!(lut[0b1000], -8.0); // hw range; never produced by encode
        assert_eq!(lut[0b1111], -1.0);
        assert_eq!(c.encode(-7.0), 0b1001);
    }

    #[test]
    fn decode_lut_flint_matches_table_ii_order() {
        let c = Codec::new(DataType::flint(4, false).unwrap()).unwrap();
        let lut = c.decode_lut();
        // Codes in Table III order: int region 0..7, then 64, 16, 24, 8,
        // 10, 12, 14 per the first-one encoding.
        assert_eq!(lut[0b1110], 12.0);
        assert_eq!(lut[0b1000], 64.0);
        assert_eq!(c.encode(11.0), 0b1110);
    }

    #[test]
    fn encode_negative_zero_magnitude_has_no_sign_bit() {
        for dt in [
            DataType::flint(4, true).unwrap(),
            DataType::pot(4, true).unwrap(),
        ] {
            let c = Codec::new(dt).unwrap();
            assert_eq!(c.encode(-0.2), 0, "{dt}");
        }
    }

    /// Every type of 2–8 bits that [`Codec::new`] accepts.
    fn narrow_types() -> Vec<DataType> {
        let mut types = Vec::new();
        for bits in 2..=8 {
            for signed in [false, true] {
                for primitive in PrimitiveCombo::FloatIntPotFlint.members() {
                    let dt = DataType::new(*primitive, bits, signed).ok();
                    types.extend(dt.filter(|&dt| Codec::new(dt).is_ok()));
                }
            }
        }
        types
    }

    /// Asserts that `x` encodes to the code snap defines — the first code
    /// that decodes to `snap(x)`, so zero never carries a sign bit — and
    /// that the bulk encoder hands back snap's value with it.
    fn assert_encodes_as_snap(c: &Codec, lut: &[f32], x: f32) {
        let want = c.snap(x);
        let first = lut.iter().position(|&v| v == want);
        let mut got = [(0, 0.0)];
        c.encode_into(&[x], 1.0, &mut got, |code, value| (code, value));
        let what = format!("{}: x = {x:e} ({:#010x})", c.dtype(), x.to_bits());
        assert_eq!(Some(c.encode(x) as usize), first, "{what}");
        assert_eq!(Some(got[0].0 as usize), first, "{what}: bulk code");
        assert_eq!(got[0].1, want, "{what}: bulk value");
    }

    #[test]
    fn step_tables_encode_as_snap_at_every_threshold_and_over_a_sweep() {
        let types = narrow_types();
        assert_eq!(types.len(), 47, "{types:?}");
        for dt in types {
            let c = Codec::new(dt).unwrap();
            let lut = c.decode_lut();
            let thresholds = match &c.steps {
                Steps::Int { hi, .. } => (0..*hi as u32).map(|k| k as f32 + 0.5).collect(),
                Steps::Table { thresholds, .. } => thresholds.clone(),
            };
            assert_eq!(thresholds.len() + 1, c.magnitudes().len(), "{dt}");
            for t in thresholds {
                for x in [t.next_down(), t, t.next_up()] {
                    assert_encodes_as_snap(&c, &lut, x);
                    assert_encodes_as_snap(&c, &lut, -x);
                }
            }
            let step = c.max_value() / 1009.0;
            for k in -1500..=1500 {
                assert_encodes_as_snap(&c, &lut, k as f32 * step);
            }
        }
    }

    #[test]
    fn step_tables_pin_nan_infinities_zeros_and_extremes() {
        for dt in narrow_types() {
            let c = Codec::new(dt).unwrap();
            let lut = c.decode_lut();
            for x in [
                f32::INFINITY,
                f32::NEG_INFINITY,
                0.0,
                -0.0,
                f32::MAX,
                -f32::MAX,
            ] {
                assert_encodes_as_snap(&c, &lut, x);
            }
            // NaN: code 0, except signed flint's largest positive code.
            let top = lut.iter().position(|&v| v == c.max_value()).unwrap() as u32;
            let signed_flint = dt.primitive() == PrimitiveType::Flint && dt.is_signed();
            let nan_code = if signed_flint { top } else { 0 };
            for nan in [f32::NAN, -f32::NAN, f32::from_bits(0x7f80_0001)] {
                let mut got = [(0, 0.0)];
                c.encode_into(&[nan], 1.0, &mut got, |code, value| (code, value));
                assert_eq!(c.encode(nan), nan_code, "{dt}: NaN");
                assert_eq!(got[0].0, nan_code, "{dt}: bulk NaN");
                // The value is snap's: NaN itself for int, the code's
                // lattice point otherwise.
                let value = got[0].1;
                if dt.primitive() == PrimitiveType::Int {
                    assert!(value.is_nan() && c.snap(nan).is_nan(), "{dt}: {value}");
                } else {
                    assert_eq!(value, lut[nan_code as usize], "{dt}: NaN value");
                    assert_eq!(value, c.snap(nan), "{dt}: NaN value");
                }
            }
        }
    }

    /// All 2³² bit patterns for the six 4-bit types and the KV cache's
    /// default pair (int8s, flint8s), through the bulk encoder, on two
    /// threads. Minutes in release; CI runs it as "Lattice tables
    /// (release)".
    #[test]
    #[ignore]
    fn step_tables_encode_as_snap_for_every_f32() {
        let types = [
            DataType::int(4, true),
            DataType::int(4, false),
            DataType::pot(4, true),
            DataType::pot(4, false),
            DataType::flint(4, true),
            DataType::flint(4, false),
            DataType::int(8, true),
            DataType::flint(8, true),
        ];
        for dt in types.map(Result::unwrap) {
            let c = Codec::new(dt).unwrap();
            let lut = c.decode_lut();
            let nan_code = c.encode(f32::NAN);
            std::thread::scope(|s| {
                for half in 0..2u64 {
                    let (c, lut) = (&c, &lut);
                    s.spawn(move || {
                        let mut xs = vec![0f32; 1 << 16];
                        let mut got = vec![(0u32, 0f32); 1 << 16];
                        for block in half << 15..(half + 1) << 15 {
                            for (i, x) in xs.iter_mut().enumerate() {
                                *x = f32::from_bits((block as u32) << 16 | i as u32);
                            }
                            c.encode_into(&xs, 1.0, &mut got, |code, value| (code, value));
                            for (&x, &(code, value)) in xs.iter().zip(&got) {
                                let ok = if x.is_nan() {
                                    code == nan_code
                                } else {
                                    let want = c.snap(x);
                                    lut[code as usize] == want
                                        && value == want
                                        && (want != 0.0 || code == 0)
                                };
                                assert!(ok, "{dt}: x = {x:e} ({:#010x}) code {code}", x.to_bits());
                            }
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn nearest_helper_edges() {
        let v = [1.0f32, 2.0, 4.0];
        assert_eq!(nearest(&v, 0.0), 1.0);
        assert_eq!(nearest(&v, 10.0), 4.0);
        assert_eq!(nearest(&v, 1.5), 1.0); // tie goes low
        assert_eq!(nearest(&v, 1.6), 2.0);
        assert_eq!(nearest(&v, 2.0), 2.0);
    }
}
