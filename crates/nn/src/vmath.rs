//! The f32 boundary at vector width: the one `exp` behind GELU and
//! softmax, the one `dot`/`axpy` behind the attention core, shared by
//! the fake-quant reference ([`crate::gelu`], [`crate::attention`]) and the
//! packed runtime (Sec. IV-C / Fig. 4: softmax and GELU "require
//! high-precision numbers" between the quantized GEMMs), and the panel
//! walk that runs attention's output projection on its integer image.
//!
//! Everything here is plain IEEE `+ − × ÷`, `clamp`, a select and
//! `to_bits`/`from_bits` — no FMA, no intrinsics, no libm — so one Rust
//! source compiled for the baseline target and again under
//! `#[target_feature(enable = "avx2")]` gives the same bits lane for lane.
//! The contract, each clause asserted by this module's tests in debug and
//! release:
//!
//! * **`exp`** is within 2 ULP of the real exponential on `[-87, 88]`
//!   (measured worst: 0.99 ULP against f64 over every third f32 of the
//!   range). Outside, it saturates:
//!   exactly `0.0` below −87 (so `-inf`, a causal row's masked score,
//!   weighs exactly zero), `exp(88)` ≈ 1.65e38 above 88 (`+inf`
//!   included, never `inf`); NaN stays NaN.
//! * **`gelu`** is the tanh-form GELU written as `x / (1 + exp(−2u))`,
//!   `u = √(2/π)·(x + 0.044715·x³)`: within 4e-6 relative (1e-6 absolute
//!   floor) of the f64 tanh form on `[-12, 12]` (measured worst: 2.4e-6
//!   relative), `gelu(0) = 0`, finite for every finite input and inside
//!   `[-0.1701, 0]` for every negative input down to −1e30. Below that the
//!   saturating `exp` leaves `x / 1.65e38`, which leaves that range only
//!   past `|x|` ≈ 2.8e37 (−2.06 at `f32::MIN`): that edge is pinned by a
//!   test, not clamped.
//! * **ISA independence:** every entry point equals its single-lane
//!   definition bit for bit at any length and alignment, whichever arm
//!   the dispatch picks. An element's value depends on neither its
//!   position in the slice nor the batch around it.
//! * **`dot`** sums lane `i mod 8` in ascending `i`, then reduces the
//!   eight lanes by one fixed tree; **`axpy`** is element-wise, so a
//!   chain of them keeps each output's additions in call order.
//! * **`panel_matvec`** adds each output's products in ascending `d`
//!   from `+0.0`: bit for bit the chain of `axpy`s over the transposed
//!   f32 matrix, `-0.0` lattice entries included (an accumulator that
//!   starts at `+0.0` never holds `-0.0`, so a signed zero adds nothing).

const LOG2E: f32 = std::f32::consts::LOG2_E;
/// `ln 2` split so `n · LN2_HI` is exact for `|n| ≤ 128` (Cody–Waite).
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -2.121_944_4e-4;
/// `1.5 · 2²³`: adding it rounds to the nearest integer, which lands in
/// the low mantissa bits.
const MAGIC: f32 = 12_582_912.0;
/// Cephes' degree-5 minimax for `(eʳ − 1 − r) / r²` on `|r| ≤ ln2/2`,
/// highest power first.
const POLY: [f32; 6] = [
    1.987_569_1e-4,
    1.398_199_9e-3,
    8.333_452e-3,
    4.166_579_6e-2,
    0.166_666_66,
    0.5,
];
/// √(2/π) and the cubic coefficient of the tanh-form GELU.
const C: f32 = 0.797_884_6;
const A: f32 = 0.044_715;

/// `eˣ`, branch-free (see the module contract).
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    let xc = x.clamp(-87.0, 88.0);
    let t = xc * LOG2E + MAGIC;
    let n = t - MAGIC;
    let r = xc - n * LN2_HI - n * LN2_LO;
    let mut p = POLY[0];
    for c in &POLY[1..] {
        p = p * r + c;
    }
    // 2ⁿ: the magic's own bits shift out, leaving the biased exponent.
    let pow2 = f32::from_bits(t.to_bits().wrapping_add(127) << 23);
    let y = (p * r * r + r + 1.0) * pow2;
    if x < -87.0 {
        0.0
    } else {
        y
    }
}

#[inline(always)]
fn neg_2u(x: f32) -> f32 {
    -2.0 * C * (x + A * x * x * x)
}

/// Tanh-form GELU, `0.5·x·(1 + tanh u)` as `x / (1 + e^(−2u))`.
#[inline(always)]
pub fn gelu(x: f32) -> f32 {
    x / (1.0 + exp(neg_2u(x)))
}

/// `d/dx` of [`gelu`] through the same `exp`: with `s = 1 / (1 + e^(−2u))`,
/// `gelu' = s + x·s·(1 − s)·2·u'`.
pub fn gelu_grad(x: f32) -> f32 {
    let s = 1.0 / (1.0 + exp(neg_2u(x)));
    let du = C * (1.0 + 3.0 * A * x * x);
    s + x * s * (1.0 - s) * 2.0 * du
}

#[inline(always)]
fn gelu_body(v: &mut [f32]) {
    for x in v {
        *x = gelu(*x);
    }
}

#[inline(always)]
fn exp_sub_body(v: &mut [f32], max: f32) {
    for x in v {
        *x = exp(*x - max);
    }
}

#[inline(always)]
fn dot_body(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot operands");
    let (ca, cb) = (a.chunks_exact(8), b.chunks_exact(8));
    let (ta, tb) = (ca.remainder(), cb.remainder());
    let mut acc = [0f32; 8];
    for (x, y) in ca.zip(cb) {
        for l in 0..8 {
            acc[l] += x[l] * y[l];
        }
    }
    if !ta.is_empty() {
        // A ragged tail is one more step, zero-padded: the idle lanes add
        // `+0.0`, which changes no bit of a sum that started at `+0.0`.
        let (mut x, mut y) = ([0f32; 8], [0f32; 8]);
        for l in 0..ta.len() {
            (x[l], y[l]) = (ta[l], tb[l]);
        }
        for l in 0..8 {
            acc[l] += x[l] * y[l];
        }
    }
    ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]))
}

#[inline(always)]
fn axpy_body(y: &mut [f32], a: f32, x: &[f32]) {
    assert_eq!(y.len(), x.len(), "axpy operands");
    for (y, x) in y.iter_mut().zip(x) {
        *y += a * x;
    }
}

#[inline(always)]
fn panel_matvec_body<T: Copy + Into<f32>>(x: &[f32], panels: &[T], out: &mut [f32]) {
    let (k, groups) = (x.len(), out.len().div_ceil(8));
    assert_eq!(panels.len(), groups * k * 8, "panel_matvec operands");
    let (rows, _) = panels.as_chunks::<8>();
    for (p, out) in out.chunks_mut(8).enumerate() {
        let mut acc = [0f32; 8];
        for (&a, w) in x.iter().zip(&rows[p * k..]) {
            for l in 0..8 {
                let wl: f32 = w[l].into();
                acc[l] += a * wl;
            }
        }
        // A ragged last group computes its padded lanes and drops them.
        out.copy_from_slice(&acc[..out.len()]);
    }
}

/// Defines `$name` as `$body` compiled for AVX2 where the CPU has it and
/// for the baseline target otherwise — the same source, hence the same bits.
macro_rules! isa_dispatch {
    ($(#[$doc:meta])* $name:ident $(<$t:ident: $b0:ident + $b1:path>)?
        ($($arg:ident: $ty:ty),*) $(-> $ret:ty)? => $body:ident) => {
        $(#[$doc])*
        pub fn $name $(<$t: $b0 + $b1>)? ($($arg: $ty),*) $(-> $ret)? {
            #[cfg(target_arch = "x86_64")]
            {
                #[target_feature(enable = "avx2")]
                unsafe fn wide $(<$t: $b0 + $b1>)? ($($arg: $ty),*) $(-> $ret)? {
                    $body($($arg),*)
                }
                if std::is_x86_feature_detected!("avx2") {
                    // SAFETY: AVX2 was detected on this CPU just above.
                    return unsafe { wide($($arg),*) };
                }
            }
            $body($($arg),*)
        }
    };
}

isa_dispatch! {
    /// `v[i] = gelu(v[i])`.
    gelu_slice(v: &mut [f32]) => gelu_body
}
isa_dispatch! {
    /// `v[i] = exp(v[i] − max)`: the softmax numerator.
    exp_sub_slice(v: &mut [f32], max: f32) => exp_sub_body
}
isa_dispatch! {
    /// `Σ a[i]·b[i]` over eight lane accumulators (lane `i mod 8`,
    /// ascending `i`) reduced as `((0+4)+(2+6)) + ((1+5)+(3+7))`.
    dot(a: &[f32], b: &[f32]) -> f32 => dot_body
}
isa_dispatch! {
    /// `y[i] += a·x[i]`.
    axpy(y: &mut [f32], a: f32, x: &[f32]) => axpy_body
}
isa_dispatch! {
    /// `out[8p + l] = Σ_d x[d]·panels[p][d][l]` over `⌈out.len()/8⌉`
    /// `[x.len()][8]` integer panels (`PanelGemm`'s weight layout): each
    /// output sums `x[d]·(w as f32)` from `+0.0` in ascending `d`.
    panel_matvec<T: Copy + Into<f32>>(x: &[f32], panels: &[T], out: &mut [f32]) => panel_matvec_body
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Error of `got` in units of the f32 spacing at `want`.
    fn ulps(got: f32, want: f64) -> f64 {
        let w = want as f32;
        let spacing = f64::from(f32::from_bits(w.to_bits() + 1)) - f64::from(w);
        (f64::from(got) - want).abs() / spacing
    }

    /// Deterministic values in [-4, 4), spread by a multiplicative hash.
    fn ramp(n: usize, salt: u32) -> Vec<f32> {
        (0..n as u32)
            .map(|i| (i.wrapping_add(salt).wrapping_mul(2_654_435_761) >> 19) as f32 / 1024.0 - 4.0)
            .collect()
    }

    #[test]
    fn exp_is_within_two_ulp_of_f64_on_the_clamp_range() {
        let mut xs: Vec<f32> = Vec::new();
        // A strided walk over every f32 in [0, 88] and [-87, -0].
        for (sign, top) in [(0u32, 88f32), (1 << 31, 87f32)] {
            xs.extend(
                (0..=top.to_bits())
                    .step_by(1021)
                    .map(|b| f32::from_bits(sign | b)),
            );
        }
        // Each side of every input exponent boundary (subnormals included),
        // of every output exponent boundary, and of the clamp edges.
        let around = |x: f32| [x.to_bits() - 1, x.to_bits(), x.to_bits() + 1].map(f32::from_bits);
        for e in 1..=133u32 {
            let p = f32::from_bits(e << 23);
            xs.extend(around(p).into_iter().chain(around(-p)));
        }
        for n in (-125..=126).filter(|&n| n != 0) {
            xs.extend(around((f64::from(n) * std::f64::consts::LN_2) as f32));
        }
        xs.extend(around(88.0).into_iter().chain(around(-87.0)));
        xs.extend([0.0, -0.0, f32::MIN_POSITIVE / 4.0, -f32::MIN_POSITIVE / 4.0]);
        let (mut worst, mut at) = (0f64, 0f32);
        for x in xs.into_iter().filter(|x| (-87.0..=88.0).contains(x)) {
            let err = ulps(exp(x), f64::from(x).exp());
            if err > worst {
                (worst, at) = (err, x);
            }
        }
        println!("exp: worst {worst:.3} ULP at x = {at:e}");
        assert!(worst <= 2.0, "exp({at:e}) is {worst} ULP off");
    }

    #[test]
    fn exp_saturates_outside_the_clamp_range() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        for x in [
            f32::NEG_INFINITY,
            f32::MIN,
            -1e4,
            -88.0,
            f32::from_bits((-87f32).to_bits() + 1),
        ] {
            assert_eq!(exp(x).to_bits(), 0, "exp({x:e}) must be exactly +0.0");
        }
        assert!(exp(-87.0) >= f32::MIN_POSITIVE);
        for x in [88.5, 1e4, f32::MAX, f32::INFINITY] {
            assert_eq!(
                exp(x).to_bits(),
                exp(88.0).to_bits(),
                "exp({x:e}) saturates"
            );
        }
        assert!(exp(88.0).is_finite() && exp(88.0) > 1.65e38);
        assert!(exp(f32::NAN).is_nan());
    }

    fn gelu_f64(x: f32) -> f64 {
        let x = f64::from(x);
        0.5 * x * (1.0 + ((2.0 / std::f64::consts::PI).sqrt() * (x + 0.044715 * x * x * x)).tanh())
    }

    #[test]
    fn gelu_tracks_the_f64_tanh_form() {
        let (mut worst, mut at) = (0f64, 0f32);
        for i in -240_000..=240_000 {
            let x = i as f32 * 5e-5;
            let (got, want) = (f64::from(gelu(x)), gelu_f64(x));
            let err = (got - want).abs();
            assert!(
                err <= (4e-6 * want.abs()).max(1e-6),
                "gelu({x}) = {got}, want {want}"
            );
            if want.abs() > 1e-6 && err / want.abs() > worst {
                (worst, at) = (err / want.abs(), x);
            }
        }
        println!("gelu: worst relative error {worst:.3e} at x = {at}");
        assert_eq!(gelu(0.0), 0.0);
    }

    #[test]
    fn gelu_is_finite_and_bounded_below() {
        // One value per 2¹⁴ floats of each sign, plus the extremes.
        for b in (0..=f32::MAX.to_bits())
            .step_by(1 << 14)
            .chain([f32::MAX.to_bits()])
        {
            let (pos, neg) = (f32::from_bits(b), -f32::from_bits(b));
            assert!(gelu(pos).is_finite() && gelu(pos) >= 0.0, "gelu({pos:e})");
            let g = gelu(neg);
            assert!(g.is_finite() && g <= 0.0, "gelu({neg:e}) = {g}");
            if neg >= -1e30 {
                assert!(g >= -0.1701, "gelu({neg:e}) = {g}");
            }
        }
        // The pinned edge: where x³ overflows, exp saturates at exp(88).
        assert_eq!(gelu(-1e30), -1e30 / (1.0 + exp(88.0)));
        assert_eq!(gelu(f32::MIN), f32::MIN / (1.0 + exp(88.0)));
        assert!(gelu(f32::MIN) > -2.07);
        assert_eq!(gelu(f32::MAX), f32::MAX);
    }

    #[test]
    fn gelu_grad_differentiates_gelu() {
        for i in -60..=60 {
            let x = i as f32 * 0.1;
            let numeric = (gelu_f64(x + 1e-3) - gelu_f64(x - 1e-3)) / 2e-3;
            assert!(
                (f64::from(gelu_grad(x)) - numeric).abs() < 1e-4,
                "gelu'({x})"
            );
        }
    }

    /// Bit patterns, so a NaN compares equal to itself.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn entry_points_equal_the_single_lane_definition_at_any_length_and_offset() {
        let mut base = ramp(48, 7);
        // Both clamp sides, the masked score and a NaN ride along.
        base[3] = f32::NEG_INFINITY;
        base[11] = -95.0;
        base[17] = 120.0;
        base[29] = f32::NAN;
        let other = ramp(48, 99);
        for off in 0..8 {
            for len in 0..=40 {
                let (x, y) = (&base[off..off + len], &other[off..off + len]);

                let lane: Vec<f32> = x.iter().map(|&v| gelu(v)).collect();
                let (mut d, mut p) = (x.to_vec(), x.to_vec());
                gelu_slice(&mut d);
                gelu_body(&mut p);
                assert_eq!(
                    (bits(&d), bits(&p)),
                    (bits(&lane), bits(&lane)),
                    "gelu {off}+{len}"
                );

                let lane: Vec<f32> = x.iter().map(|&v| exp(v - 0.75)).collect();
                let (mut d, mut p) = (x.to_vec(), x.to_vec());
                exp_sub_slice(&mut d, 0.75);
                exp_sub_body(&mut p, 0.75);
                assert_eq!(
                    (bits(&d), bits(&p)),
                    (bits(&lane), bits(&lane)),
                    "exp {off}+{len}"
                );

                let lane: Vec<f32> = y.iter().zip(x).map(|(&yi, &xi)| yi + 1.25 * xi).collect();
                let (mut d, mut p) = (y.to_vec(), y.to_vec());
                axpy(&mut d, 1.25, x);
                axpy_body(&mut p, 1.25, x);
                assert_eq!(
                    (bits(&d), bits(&p)),
                    (bits(&lane), bits(&lane)),
                    "axpy {off}+{len}"
                );

                let tree = dot_tree(y, &other[8 - off..8 - off + len]);
                assert_eq!(
                    dot(y, &other[8 - off..8 - off + len]).to_bits(),
                    tree.to_bits()
                );
                assert_eq!(
                    dot_body(y, &other[8 - off..8 - off + len]).to_bits(),
                    tree.to_bits()
                );
            }
        }
    }

    /// `dot`'s documented order, one scalar at a time.
    fn dot_tree(a: &[f32], b: &[f32]) -> f32 {
        let mut l = [0f32; 8];
        for i in 0..a.len() {
            l[i % 8] += a[i] * b[i];
        }
        ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
    }

    #[test]
    fn dot_is_its_written_out_tree_on_a_ragged_length() {
        let (a, b) = (ramp(21, 3), ramp(21, 5));
        let p = |i: usize| a[i] * b[i];
        let lanes = [
            (p(0) + p(8)) + p(16),
            (p(1) + p(9)) + p(17),
            (p(2) + p(10)) + p(18),
            (p(3) + p(11)) + p(19),
            (p(4) + p(12)) + p(20),
            p(5) + p(13),
            p(6) + p(14),
            p(7) + p(15),
        ];
        let want = ((lanes[0] + lanes[4]) + (lanes[2] + lanes[6]))
            + ((lanes[1] + lanes[5]) + (lanes[3] + lanes[7]));
        assert_eq!(dot(&a, &b).to_bits(), want.to_bits());
        // Sequential summation gives another value: the order is the contract.
        let seq = (0..21).fold(0f32, |s, i| s + p(i));
        assert_ne!(dot(&a, &b).to_bits(), seq.to_bits());
        assert_eq!(dot(&[], &[]), 0.0);
    }

    /// `panel_matvec` on `[n, k]` weights over the lattice `min..=max`
    /// (every seventh weight zero, both extremes present) against its
    /// single-lane definition, its portable body, and the chain of
    /// `axpy`s over the transposed f32 matrix whose zeros are `-0.0`.
    fn panel_matvec_agrees<T: Copy + Into<f32> + TryFrom<i32>>(min: i32, max: i32) {
        let of = |v: i32| T::try_from(v).ok().expect("in the lattice");
        for n in 1..=17 {
            for k in 0..=40 {
                let x = ramp(k, (n * 41 + k) as u32);
                let w: Vec<i32> = (0..n * k)
                    .map(|i| match i % 7 {
                        0 => 0,
                        1 => min,
                        2 => max,
                        _ => {
                            let h = (i as u32).wrapping_mul(2_654_435_761) >> 8;
                            min + (i64::from(h) % (i64::from(max) - i64::from(min) + 1)) as i32
                        }
                    })
                    .collect();
                // Padded lanes hold garbage: a ragged group must drop them.
                let mut panels = vec![of(max); n.div_ceil(8) * k * 8];
                let mut wt = vec![0f32; k * n];
                for o in 0..n {
                    for d in 0..k {
                        let v = w[o * k + d];
                        panels[((o / 8) * k + d) * 8 + o % 8] = of(v);
                        wt[d * n + o] = if v == 0 { -0.0 } else { v as f32 };
                    }
                }
                let lane: Vec<f32> = (0..n)
                    .map(|o| (0..k).fold(0f32, |s, d| s + x[d] * w[o * k + d] as f32))
                    .collect();
                let mut chain = vec![0f32; n];
                for (d, &a) in x.iter().enumerate() {
                    axpy(&mut chain, a, &wt[d * n..(d + 1) * n]);
                }
                let (mut got, mut body) = (vec![f32::NAN; n], vec![f32::NAN; n]);
                panel_matvec(&x, &panels, &mut got);
                panel_matvec_body(&x, &panels, &mut body);
                assert_eq!(
                    (bits(&got), bits(&body), bits(&chain)),
                    (bits(&lane), bits(&lane), bits(&lane)),
                    "n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn panel_matvec_is_the_axpy_chain_over_the_transposed_matrix() {
        panel_matvec_agrees::<i8>(i8::MIN.into(), i8::MAX.into());
        panel_matvec_agrees::<i16>(i16::MIN.into(), i16::MAX.into());
    }
}
