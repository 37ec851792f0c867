//! The crate's own f32 `exp`, `tanh` and `ln`.
//!
//! The platform libm leaves the last bits of these functions unspecified,
//! so a training run's bits (and `CKPT_CKSUM`) used to hold only for one
//! libm; libm `tanh` was also the single most expensive operation of the
//! training step. Each function here is a range reduction plus a fixed
//! polynomial (the Cephes single-precision coefficients), written as plain
//! IEEE-754 `+ − × ÷` in a fixed order: no fused multiply-add, no libm,
//! no table. The result is therefore the same on every IEEE platform, and
//! the same whether a call runs scalar or as one lane of an auto-vectorized
//! loop (the functions are branch-free selects, so loops over slices
//! vectorize).
//!
//! Accuracy, measured against f64 over a dense sweep of f32 inputs (see
//! the tests): `exp` and `ln` are within [`MAX_ULP_EXP_LN`] ulp, `tanh`
//! within [`MAX_ULP_TANH`] ulp, subnormal results included.
//!
//! Special values follow IEEE conventions: NaN in gives NaN out;
//! `exp(+∞) = +∞`, `exp(−∞) = +0`, and `exp` overflows to `+∞` above
//! `ln(f32::MAX)`; `tanh(±∞) = ±1` and `tanh(±0) = ±0`; `ln(+∞) = +∞`,
//! `ln(±0) = −∞` and `ln` of a negative number is NaN.

/// Below this, [`exp`] returns exactly `+0.0`: `e^−120 ≈ 7.7e−53` is far
/// under half the smallest subnormal (`≈ 7.0e−46`). The fused attention
/// kernel's causal-tail skip relies on it.
pub const EXP_UNDERFLOW: f32 = -120.0;

/// Ulp bound of [`exp`] and [`ln`] against the exact result.
pub const MAX_ULP_EXP_LN: f64 = 1.0;

/// Ulp bound of [`tanh`] against the exact result.
pub const MAX_ULP_TANH: f64 = 2.0;

/// The largest `x` with a finite `e^x` (`0x42B1_7217`).
const EXP_MAX: f32 = 88.722_83;
/// Inputs below this all give `+0.0`; clamping keeps the exponent
/// arithmetic in range.
const EXP_MIN: f32 = -127.0;
const LOG2_E: f32 = 1.442_695;
/// `ln 2` split Cody–Waite style: `k·LN2_HI` is exact for every `k` this
/// module produces.
const LN2_HI: f32 = 0.693_359_375;
const LN2_LO: f32 = -2.121_944_4e-4;
/// Adding and subtracting `1.5·2²³` rounds an f32 of magnitude below 2²²
/// to the nearest integer (ties to even). In between, the sum's bits are
/// this constant's bits plus that integer, so the integer needs no
/// float-to-int conversion (whose saturating form does not vectorize).
const ROUND_SHIFT: f32 = 12_582_912.0;

/// `2^k` for `−126 ≤ k ≤ 127`, built from its bits.
#[inline(always)]
fn pow2(k: i32) -> f32 {
    f32::from_bits((k.wrapping_add(127) as u32) << 23)
}

/// `e^x`.
#[inline]
pub fn exp(x: f32) -> f32 {
    // NaN fails both tests and passes through.
    let xc = if x > EXP_MAX {
        EXP_MAX
    } else if x < EXP_MIN {
        EXP_MIN
    } else {
        x
    };
    // x = k·ln2 + r with |r| ≤ ln2/2.
    let shifted = xc * LOG2_E + ROUND_SHIFT;
    let k = shifted - ROUND_SHIFT;
    let r = (xc - k * LN2_HI) - k * LN2_LO;
    let p = ((((1.987_569_1e-4 * r + 1.398_199_9e-3) * r + 8.333_452e-3) * r + 4.166_579_6e-2) * r
        + 1.666_666_5e-1)
        * r
        + 5.000_000_1e-1;
    let er = p * (r * r) + r + 1.0;
    // Scale by 2^k in two exact-range steps, so a subnormal result is
    // rounded once and k = 128 still reaches the top of the range.
    // For a NaN input `k` is arbitrary, and so is the scale; `er` is NaN.
    let k = (shifted.to_bits() as i32).wrapping_sub(ROUND_SHIFT.to_bits() as i32);
    let k1 = k >> 1;
    let y = er * pow2(k1) * pow2(k - k1);
    if x > EXP_MAX {
        f32::INFINITY
    } else {
        y
    }
}

/// Below this magnitude `tanh(x)` rounds to `x` (`x³/3` is under half an
/// ulp of `x`).
const TANH_IDENTITY: f32 = 1.0 / 4096.0;

/// `tanh(x)`.
#[inline]
pub fn tanh(x: f32) -> f32 {
    let a = x.abs();
    // |x| < 0.625: odd polynomial, no cancellation.
    let z = x * x;
    let small = ((((-5.704_988_7e-3 * z + 2.063_908_9e-2) * z - 5.373_971_6e-2) * z + 1.333_144_2e-1) * z
        - 3.333_328_2e-1)
        * z
        * x
        + x;
    // Otherwise 1 − 2/(e^{2|x|} + 1): saturates to 1 once e^{2|x|} is
    // large or infinite; NaN stays NaN.
    let large = 1.0 - 2.0 / (exp(a + a) + 1.0);
    if a < TANH_IDENTITY {
        // tanh(x) rounds to x here, signed zeros and subnormals included.
        x
    } else if a < 0.625 {
        small
    } else if x < 0.0 {
        -large
    } else {
        large
    }
}

/// Natural logarithm `ln(x)`.
#[inline]
pub fn ln(x: f32) -> f32 {
    // Subnormals scale into the normal range first (exact).
    let sub = x < f32::MIN_POSITIVE;
    let xs = if sub { x * 8_388_608.0 } else { x };
    let bits = xs.to_bits();
    let e = ((bits >> 23) & 0xff) as i32 - 126 - if sub { 23 } else { 0 };
    // x = m·2^e with m in [0.5, 1); fold m into [√½, √2) − 1.
    let m = f32::from_bits((bits & 0x007f_ffff) | 0x3f00_0000);
    let low = m < std::f32::consts::FRAC_1_SQRT_2;
    let f = if low { m + m - 1.0 } else { m - 1.0 };
    let e = (if low { e - 1 } else { e }) as f32;
    let z = f * f;
    let p = (((((((7.037_683_6e-2 * f - 1.151_461e-1) * f + 1.167_699_9e-1) * f - 1.242_014_1e-1) * f
        + 1.424_932_3e-1)
        * f
        - 1.666_805_8e-1)
        * f
        + 2.000_071_5e-1)
        * f
        - 2.499_999_4e-1)
        * f
        + 3.333_333_1e-1;
    let y = p * f * z + LN2_LO * e + -0.5 * z;
    let r = f + y + LN2_HI * e;
    if x == f32::INFINITY {
        x
    } else if x > 0.0 {
        r
    } else if x == 0.0 {
        f32::NEG_INFINITY
    } else {
        f32::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distance from `y` to the exact value `want`, in units of the f32 ulp
    /// at `want` (subnormal spacing below `f32::MIN_POSITIVE`).
    fn ulps(y: f32, want: f64) -> f64 {
        if want.is_nan() {
            return if y.is_nan() { 0.0 } else { f64::INFINITY };
        }
        if want.is_infinite() || y.is_infinite() {
            return if f64::from(y) == want { 0.0 } else { f64::INFINITY };
        }
        let e = (((want.abs().to_bits() >> 52) & 0x7ff) as i32 - 1023).max(-126);
        (f64::from(y) - want).abs() / 2f64.powi(e - 23)
    }

    /// Every `stride`-th f32 whose bits lie in `[lo, hi]`, plus `hi`.
    fn sweep(lo: u32, hi: u32, stride: u32) -> impl Iterator<Item = f32> {
        (lo..hi).step_by(stride as usize).chain(std::iter::once(hi)).map(f32::from_bits)
    }

    /// The worst ulp error of `f` against `exact` over `xs`, with its input.
    fn worst(xs: impl Iterator<Item = f32>, f: fn(f32) -> f32, exact: fn(f64) -> f64) -> (f64, f32) {
        xs.map(|x| (ulps(f(x), exact(f64::from(x))), x)).fold((0.0, 0.0), |a, b| if b.0 > a.0 { b } else { a })
    }

    #[test]
    fn exp_is_within_its_ulp_bound() {
        // Positive inputs up to the overflow edge, negatives down to where
        // the result is zero: about 1.6M inputs.
        let pos = sweep(0, EXP_MAX.to_bits(), 1 << 11);
        let neg = sweep(0x8000_0000, (-104.0f32).to_bits(), 1 << 11);
        let (err, at) = worst(pos.chain(neg), exp, f64::exp);
        assert!(err <= MAX_ULP_EXP_LN, "exp: {err} ulp at {at}");
    }

    #[test]
    fn tanh_is_within_its_ulp_bound() {
        let pos = sweep(0, 10.0f32.to_bits(), 1 << 10);
        let neg = sweep(0x8000_0000, (-10.0f32).to_bits(), 1 << 10);
        let (err, at) = worst(pos.chain(neg), tanh, f64::tanh);
        assert!(err <= MAX_ULP_TANH, "tanh: {err} ulp at {at}");
    }

    #[test]
    fn ln_is_within_its_ulp_bound() {
        // Every positive finite f32 class, subnormals included.
        let (err, at) = worst(sweep(1, f32::MAX.to_bits(), 1 << 11), ln, f64::ln);
        assert!(err <= MAX_ULP_EXP_LN, "ln: {err} ulp at {at}");
    }

    #[test]
    fn special_values() {
        let bits = |v: f32| v.to_bits();
        assert!(exp(f32::NAN).is_nan() && tanh(f32::NAN).is_nan() && ln(f32::NAN).is_nan());
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(bits(exp(f32::NEG_INFINITY)), bits(0.0));
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(EXP_MAX.to_bits(), 0x42b1_7217);
        assert_eq!(exp(f32::from_bits(0x42b1_7218)), f32::INFINITY, "overflow");
        assert_eq!(exp(1000.0), f32::INFINITY);
        assert!(exp(EXP_MAX).is_finite());
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        assert_eq!(bits(tanh(0.0)), bits(0.0));
        assert_eq!(bits(tanh(-0.0)), bits(-0.0));
        assert_eq!(tanh(30.0), 1.0);
        assert_eq!(ln(f32::INFINITY), f32::INFINITY);
        assert_eq!(ln(0.0), f32::NEG_INFINITY);
        assert_eq!(ln(-0.0), f32::NEG_INFINITY);
        assert_eq!(ln(1.0), 0.0);
        assert!(ln(-1.0).is_nan() && ln(-f32::MIN_POSITIVE).is_nan() && ln(f32::NEG_INFINITY).is_nan());
        assert!(ln(f32::from_bits(1)).is_finite(), "smallest subnormal");
    }

    #[test]
    fn exp_is_exactly_positive_zero_below_the_underflow_bound() {
        for x in sweep(EXP_UNDERFLOW.to_bits() + 1, f32::MAX.to_bits() | 0x8000_0000, 1 << 12) {
            assert!(x < EXP_UNDERFLOW);
            assert_eq!(exp(x).to_bits(), 0, "exp({x})");
        }
        assert_eq!(exp(f32::MIN).to_bits(), 0);
    }

    /// The dense inputs of the ulp sweeps, plus every special value.
    fn mixed_inputs() -> Vec<f32> {
        let specials = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY, f32::MIN_POSITIVE, f32::MAX];
        sweep(0, 0xffff_ffff, 1 << 15).chain(specials).collect()
    }

    #[test]
    fn slice_maps_agree_bitwise_with_scalar_calls() {
        // The slice loop inlines and vectorizes in optimized builds; the
        // scalar reference goes through an opaque function pointer.
        let xs = mixed_inputs();
        for (name, f) in [("exp", exp as fn(f32) -> f32), ("tanh", tanh), ("ln", ln)] {
            let mapped: Vec<f32> = match name {
                "exp" => xs.iter().map(|&x| exp(x)).collect(),
                "tanh" => xs.iter().map(|&x| tanh(x)).collect(),
                _ => xs.iter().map(|&x| ln(x)).collect(),
            };
            let scalar = std::hint::black_box(f);
            for (&x, &m) in xs.iter().zip(&mapped) {
                let s = scalar(x);
                assert!(s.to_bits() == m.to_bits() || (s.is_nan() && m.is_nan()), "{name}({x}): {s} vs {m}");
            }
        }
    }
}
