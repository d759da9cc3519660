//! The owned elementwise transcendentals: one [`exp`] and one [`tanh`]
//! for every tensor kernel, plan and training step.
//!
//! Both are portable `f64` code built only from IEEE-754 basic
//! operations (add, subtract, multiply, divide, compare) and bit moves,
//! each rounded once and never contracted into an FMA. They take no
//! data-dependent branch: special inputs are clamped or chosen with
//! selects, so a loop over them vectorizes, and the SIMD backend's AVX2
//! instantiation runs the same operations four lanes at a time. The
//! result is the same bits on every backend, every CPU and every C
//! library — which the host's libm does not give (glibc picks FMA or
//! SSE2 variants of `exp` and `tanh` by CPU, and they disagree by up to
//! 1 and 3 ulp).
//!
//! No rounding helper from `std` appears here: `f64::round` and
//! `f64::floor` are libm calls on the x86-64 baseline target, and
//! `mul_add` is an FMA. Rounding to an integer uses the 1.5·2⁵² shift;
//! `abs`, `copysign` and `clamp` are bit operations and compares.
//!
//! Accuracy (`crates/nn/tests/transcendental.rs`, EXPERIMENTS.md): both
//! stay within 1 ulp of a correctly rounded result on dense sweeps; the
//! bounds asserted against the host libm are 2 ulp for `exp` and 4 for
//! `tanh`.

use crate::Elem;

/// 1.5·2⁵²: for `|v| < 2⁵¹`, `v + ROUND_SHIFT` lands in `[2⁵², 2⁵³)`,
/// where the spacing is 1, so the sum rounds `v` to the nearest integer
/// (ties to even) and its low mantissa bits hold that integer.
const ROUND_SHIFT: Elem = 6_755_399_441_055_744.0;

/// `ln 2` split Cody–Waite style: the high part has 21 trailing zero
/// bits, so `k · LN2_HI` is exact for every `|k| ≤ 2¹¹`.
const LN2_HI: Elem = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: Elem = f64::from_bits(0x3dea_39ef_3579_3c76);

/// Clamp range of [`exp`]'s argument. Below `EXP_MIN` the result rounds
/// to `+0`, above `EXP_MAX` it overflows to `+∞`; both follow from the
/// arithmetic, and the clamp keeps the scale exponent in range.
const EXP_MIN: Elem = -746.0;
const EXP_MAX: Elem = 710.0;

/// `(eʳ − 1 − r) / r²` on `|r| ≤ ln2/2`: a Chebyshev fit of degree 10,
/// coefficients in ascending powers of `r`. Its error is below 0.01 ulp
/// of `eʳ`.
const EXP_POLY: [Elem; 11] = [
    0.5,
    0.1666666666666667,
    0.04166666666666667,
    0.00833333333332612,
    0.0013888888888883737,
    0.00019841269874873975,
    2.480158732558584e-05,
    2.755725533255441e-06,
    2.7557273594799413e-07,
    2.510524515390137e-08,
    2.0914707069612355e-09,
];

/// [`tanh`] evaluates the odd polynomial below this magnitude and
/// `1 − 2/(e^{2a} + 1)` at and above it.
const TANH_SMALL: Elem = 0.75;

/// `(tanh(a)/a − 1) / a²` as a polynomial in `t = a²` on
/// `0 ≤ t ≤ TANH_SMALL²`: a Chebyshev fit of degree 12, ascending powers
/// of `t`.
const TANH_POLY: [Elem; 13] = [
    -0.3333333333333333,
    0.13333333333332661,
    -0.05396825396758207,
    0.021869488509710808,
    -0.008863234987434897,
    0.003592121388461067,
    -0.0014557818250270323,
    0.000589746997346021,
    -0.00023809406538489468,
    9.424762200906174e-05,
    -3.4494715146391554e-05,
    1.00480471803359e-05,
    -1.6408578830524267e-06,
];

/// Horner evaluation of `Σ c[i]·xⁱ`, highest power first.
#[inline(always)]
fn horner<const N: usize>(x: Elem, c: &[Elem; N]) -> Elem {
    c[..N - 1].iter().rev().fold(c[N - 1], |p, &ci| p * x + ci)
}

/// `2ᵏ` for `k` in the normal exponent range `[-1022, 1023]`.
#[inline(always)]
fn pow2(k: i64) -> Elem {
    f64::from_bits((k.wrapping_add(1023) as u64) << 52)
}

/// `eˣ`.
///
/// `x = k·ln2 + r` with `k` the nearest integer to `x·log₂e` and
/// `|r| ≤ ln2/2`; `eʳ = 1 + r + r²·P(r)` keeps the reduction's exact
/// high part apart from its rounded low part until the last addition;
/// `2ᵏ` is applied as two factors `2^⌊k/2⌋ · 2^(k−⌊k/2⌋)`, so the
/// gradual-underflow range rounds once, at the last multiply.
///
/// Exact at the edges: `exp(±0) = 1`, `exp(−∞) = +0`, `exp(+∞) = +∞`;
/// a NaN argument gives a NaN (payload unspecified).
#[inline(always)]
pub fn exp(x: Elem) -> Elem {
    // Two compare-and-selects; a NaN passes through.
    let x = x.clamp(EXP_MIN, EXP_MAX);
    let shifted = x * std::f64::consts::LOG2_E + ROUND_SHIFT;
    let k = (shifted.to_bits() as i64).wrapping_sub(ROUND_SHIFT.to_bits() as i64);
    let kf = shifted - ROUND_SHIFT;
    // `x − k·LN2_HI` is exact (Sterbenz), `k·LN2_LO` carries the rest.
    let hi = x - kf * LN2_HI;
    let lo = kf * LN2_LO;
    let r = hi - lo;
    let tail = (r * r) * horner(r, &EXP_POLY);
    let er = 1.0 + (hi - (lo - tail));
    let k1 = k >> 1;
    (er * pow2(k1)) * pow2(k.wrapping_sub(k1))
}

/// `tanh x`.
///
/// On `a = |x|`: below 0.75, `a + a·t·R(t)` with `t = a²`;
/// above it, `1 − 2/(e^{2a} + 1)` through [`exp`]. Both forms are
/// evaluated and one is selected, and the sign of `x` is copied onto the
/// result, so `tanh(−x) = −tanh(x)` bit for bit.
///
/// Exact at the edges: `tanh(±0) = ±0`, `tanh(x) = x` for subnormal
/// `x`, `tanh(±∞) = ±1`; a NaN argument gives a NaN (payload
/// unspecified).
#[inline(always)]
pub fn tanh(x: Elem) -> Elem {
    let a = x.abs();
    let t = a * a;
    let small = a + a * (t * horner(t, &TANH_POLY));
    let large = 1.0 - 2.0 / (exp(a + a) + 1.0);
    let y = if a < TANH_SMALL { small } else { large };
    y.copysign(x)
}
