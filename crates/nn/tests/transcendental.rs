//! Error bounds and edge cases of the owned `exp` and `tanh`
//! (`metadse_nn::prims::{exp, tanh}`).
//!
//! Dense sweeps compare every result against the host's libm in ulps
//! (distance in the ordered bit space of `f64`). The bounds, 2 ulp for
//! `exp` and 4 for `tanh`, leave room for libm's own error: glibc's FMA
//! and SSE2 variants already differ by 1 and 3 ulp on these functions.
//! The errors against a correctly rounded reference are recorded in
//! EXPERIMENTS.md. Edge cases are asserted exactly; a NaN result is
//! checked as a NaN, its payload is not pinned.
//!
//! Run with `--nocapture` to print each sweep's maximum and the share of
//! results bit-identical to libm.

use metadse_nn::prims::{exp, tanh};

/// Distance between `a` and `b` in units in the last place: the number
/// of representable `f64` values between them (`±0` are one point).
fn ulps(a: f64, b: f64) -> u64 {
    fn ordered(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN - bits
        } else {
            bits
        }
    }
    ordered(a).abs_diff(ordered(b))
}

/// Worst ulp distance and share of bit-identical results.
#[derive(Default)]
struct Sweep {
    max: u64,
    worst_at: f64,
    same: usize,
    n: usize,
}

impl Sweep {
    fn check(&mut self, x: f64, ours: f64, libm: f64) {
        if ours.is_nan() || libm.is_nan() {
            assert!(
                ours.is_nan() && libm.is_nan(),
                "x = {x:e}: {ours:e} vs libm {libm:e}"
            );
            self.same += 1;
        } else {
            let d = ulps(ours, libm);
            if d > self.max {
                self.max = d;
                self.worst_at = x;
            }
            self.same += usize::from(d == 0);
        }
        self.n += 1;
    }

    fn report(&self, name: &str, bound: u64) {
        println!(
            "{name}: {} points, max {} ulp (at {:e}), {:.2}% bit-identical to libm",
            self.n,
            self.max,
            self.worst_at,
            100.0 * self.same as f64 / self.n as f64
        );
        assert!(
            self.max <= bound,
            "{name}: {} ulp at x = {:e} exceeds the {bound}-ulp bound",
            self.max,
            self.worst_at
        );
    }
}

/// `n` evenly spaced points on `[lo, hi]`.
fn linspace(lo: f64, hi: f64, n: usize) -> impl Iterator<Item = f64> {
    (0..n).map(move |i| lo + (hi - lo) * (i as f64 / (n - 1) as f64))
}

/// Every `stride`-th positive `f64` from the smallest subnormal up to
/// `max`: log-spaced magnitudes across every binade.
fn bit_stride(max: f64, stride: u64) -> impl Iterator<Item = f64> {
    (1..=max.to_bits())
        .step_by(stride as usize)
        .map(f64::from_bits)
}

#[test]
fn exp_stays_within_two_ulp_of_libm() {
    let mut whole = Sweep::default();
    // The whole finite domain, both signs, every binade.
    for m in bit_stride(f64::MAX, 1 << 42) {
        for x in [m, -m] {
            whole.check(x, exp(x), x.exp());
        }
    }
    // The range where the result is neither 0, 1 nor ∞ to rounding.
    for x in linspace(-746.0, 710.0, 1_000_000) {
        whole.check(x, exp(x), x.exp());
    }
    whole.report("exp, finite domain", 2);

    let mut softmax = Sweep::default();
    for x in linspace(-50.0, 0.0, 1_000_000) {
        softmax.check(x, exp(x), x.exp());
    }
    softmax.report("exp, softmax domain [-50, 0]", 2);
}

#[test]
fn tanh_stays_within_four_ulp_of_libm() {
    let mut linear = Sweep::default();
    for x in linspace(-20.0, 20.0, 1_000_000) {
        linear.check(x, tanh(x), x.tanh());
    }
    linear.report("tanh, [-20, 20]", 4);

    let mut logspaced = Sweep::default();
    for m in bit_stride(32.0, 1 << 40) {
        for x in [m, -m] {
            logspaced.check(x, tanh(x), x.tanh());
        }
    }
    logspaced.report("tanh, |x| from 2^-1074 to 2^5", 4);
}

#[test]
fn exp_edge_cases_are_exact() {
    assert_eq!(exp(0.0).to_bits(), 1.0f64.to_bits());
    assert_eq!(exp(-0.0).to_bits(), 1.0f64.to_bits());
    assert_eq!(exp(f64::NEG_INFINITY).to_bits(), 0.0f64.to_bits());
    assert_eq!(exp(f64::INFINITY), f64::INFINITY);
    assert_eq!(exp(f64::MAX), f64::INFINITY);
    assert_eq!(exp(f64::MIN).to_bits(), 0.0f64.to_bits());
    // A subnormal argument is 1 to rounding.
    assert_eq!(exp(f64::from_bits(1)), 1.0);
    assert_eq!(exp(-f64::from_bits(1)), 1.0);

    // Overflow threshold: ln(MAX) ≈ 709.7827128933840; the last finite
    // result sits just below it, +∞ just above.
    let ln_max = 709.782_712_893_384;
    assert!(exp(ln_max).is_finite());
    assert_eq!(exp(ln_max).to_bits(), ln_max.exp().to_bits());
    let above = f64::from_bits(ln_max.to_bits() + 1);
    assert_eq!(exp(above), f64::INFINITY);
    assert_eq!(above.exp(), f64::INFINITY);
    assert_eq!(exp(709.79), f64::INFINITY);
    assert_eq!(exp(1000.0), f64::INFINITY);

    // Gradual underflow: results are subnormal below ln(MIN_POSITIVE) ≈
    // −708.396 and round to +0 below ln(2^-1075) ≈ −745.1332.
    assert!(exp(-708.0) >= f64::MIN_POSITIVE);
    let sub = exp(-720.0);
    assert!(sub > 0.0 && sub < f64::MIN_POSITIVE);
    assert!(ulps(sub, (-720.0f64).exp()) <= 2);
    assert_eq!(exp(-745.13).to_bits(), 1, "the smallest subnormal");
    assert_eq!(exp(-745.14).to_bits(), 0, "rounds to +0");
    assert_eq!(exp(-746.0).to_bits(), 0);
    assert_eq!(exp(-1e300).to_bits(), 0);
    for x in linspace(-746.0, -700.0, 20_001) {
        let (ours, libm) = (exp(x), x.exp());
        assert!(ulps(ours, libm) <= 2, "x = {x}: {ours:e} vs libm {libm:e}");
    }

    for nan in [f64::NAN, -f64::NAN, f64::from_bits(0x7ff0_0000_0000_0001)] {
        assert!(exp(nan).is_nan());
    }
}

#[test]
fn tanh_edge_cases_are_exact() {
    assert_eq!(tanh(0.0).to_bits(), 0.0f64.to_bits());
    assert_eq!(tanh(-0.0).to_bits(), (-0.0f64).to_bits());
    assert_eq!(tanh(f64::INFINITY), 1.0);
    assert_eq!(tanh(f64::NEG_INFINITY), -1.0);
    assert_eq!(tanh(f64::MAX), 1.0);
    assert_eq!(tanh(f64::MIN), -1.0);
    assert_eq!(tanh(40.0), 1.0);
    // tanh(x) = x for every subnormal x (and just above).
    for bits in [1u64, 2, 3, 0x000f_ffff_ffff_ffff, 0x0010_0000_0000_0000] {
        let x = f64::from_bits(bits);
        assert_eq!(tanh(x).to_bits(), x.to_bits());
        assert_eq!(tanh(-x).to_bits(), (-x).to_bits());
    }
    for nan in [f64::NAN, -f64::NAN, f64::from_bits(0x7ff0_0000_0000_0001)] {
        assert!(tanh(nan).is_nan());
    }
}

#[test]
fn tanh_is_odd_bit_for_bit() {
    let points = linspace(0.0, 20.0, 200_001).chain(bit_stride(32.0, 1 << 42));
    for x in points {
        assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "x = {x:e}");
    }
}

/// The owned functions are built from basic IEEE operations only. No
/// `f64` method that lowers to a libm call (`round` and `floor` do on
/// the x86-64 baseline target) or to an FMA (`mul_add`) may appear.
#[test]
fn owned_math_calls_no_libm_or_fma() {
    let source = include_str!("../src/tensor/math.rs");
    let code: String = source
        .lines()
        .map(|line| line.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n");
    for method in [
        ".round(",
        ".floor(",
        ".ceil(",
        ".trunc(",
        ".mul_add(",
        ".exp(",
        ".exp2(",
        ".exp_m1(",
        ".ln(",
        ".tanh(",
        ".powf(",
        ".powi(",
    ] {
        assert!(!code.contains(method), "math.rs calls `{method}`");
    }
}
