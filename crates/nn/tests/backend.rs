//! Per-backend numerics verification.
//!
//! Three layers of guarantees, mirroring DESIGN.md §3.6:
//!
//! 1. **Pinned digests** — each backend's exact bit patterns over two
//!    op batteries are pinned to literal FNV-1a digests, so an
//!    unintended numerics change in *either* backend fails loudly. The
//!    first battery uses only IEEE-754 correctly rounded operations
//!    (matmuls, layernorm with its `sqrt`, reductions, ReLU); its pins
//!    predate the owned transcendentals and prove no other kernel moved
//!    with them. The second covers the `exp`/`tanh` ops — softmax,
//!    GELU, sigmoid, `Tensor::exp`/`tanh` — which run the repository's
//!    own branch-free `exp` and `tanh` (`metadse_nn::prims`), the same
//!    bits on every host and C library.
//! 2. **Cross-backend tolerance** — SIMD reduces in 8-lane chunks, so
//!    its sums reassociate relative to the scalar backend. Every
//!    reduction is bounded by the standard recursive-summation error
//!    model: `|simd − scalar| ≤ (n/8 + 3)·ε·Σ|terms|`. The suite
//!    asserts that bound on remainder-heavy sizes (n % 8 ≠ 0), and
//!    checks NaN and subnormal propagation parity.
//! 3. **Gradient correctness under SIMD** — numerical gradient checks
//!    and the fused-vs-composite bit-equality invariant re-run with the
//!    SIMD backend forced, proving the backward paths route through the
//!    same primitives as the forwards.

use metadse_nn::autograd::grad;
use metadse_nn::gradcheck::check_gradients;
use metadse_nn::{Activation, BackendKind, BackendModeGuard, Elem, Tensor};

// ---------------------------------------------------------------------
// Deterministic inputs
// ---------------------------------------------------------------------

/// Minimal LCG (Knuth MMIX constants); avoids any RNG dependency so the
/// digest battery is self-contained and identical on every platform.
fn lcg(seed: &mut u64) -> Elem {
    *seed = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*seed >> 11) as Elem / (1u64 << 53) as Elem) * 2.0 - 1.0
}

fn lcg_vec(n: usize, seed: &mut u64) -> Vec<Elem> {
    (0..n).map(|_| lcg(seed)).collect()
}

fn lcg_param(shape: &[usize], seed: &mut u64) -> Tensor {
    Tensor::param_from_vec(lcg_vec(shape.iter().product(), seed), shape)
}

// ---------------------------------------------------------------------
// 1. Pinned per-backend digests
// ---------------------------------------------------------------------

/// FNV-1a over the exact bit patterns of every tensor fed to it — the
/// same construction the core determinism tests pin their run digests
/// with.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf29ce484222325)
    }

    fn eat(&mut self, t: &Tensor) {
        for v in t.to_vec() {
            for b in v.to_bits().to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x100000001b3);
            }
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Runs the libm-free op battery under the active backend and digests
/// every forward value and gradient. Shapes are chosen so reductions
/// hit remainder lanes (k = 13, 11, 9) as well as full chunks (8, 16).
fn battery_digest() -> String {
    let mut d = Digest::new();
    let mut seed = 0x5eed_cafe;

    // matmul forward + both gradients (k = 13: five remainder lanes).
    let a = lcg_param(&[5, 13], &mut seed);
    let b = lcg_param(&[13, 9], &mut seed);
    let y = a.matmul(&b);
    let loss = y.mul(&y).sum_all();
    let gs = grad(&loss, &[a, b], false);
    d.eat(&y);
    d.eat(&gs[0]);
    d.eat(&gs[1]);

    // matmul_nt (shared-k layout) forward + gradients.
    let c = lcg_param(&[6, 11], &mut seed);
    let e = lcg_param(&[7, 11], &mut seed);
    let y = c.matmul_nt(&e);
    let loss = y.mul(&y).sum_all();
    let gs = grad(&loss, &[c, e], false);
    d.eat(&y);
    d.eat(&gs[0]);
    d.eat(&gs[1]);

    // layernorm_affine: mean/variance reductions plus sqrt (exact).
    let x = lcg_param(&[4, 9], &mut seed);
    let gamma = lcg_param(&[9], &mut seed);
    let beta = lcg_param(&[9], &mut seed);
    let y = x.layernorm_affine(&gamma, &beta, 1e-5);
    let loss = y.mul(&y).sum_all();
    let gs = grad(&loss, &[x, gamma, beta], false);
    d.eat(&y);
    d.eat(&gs[0]);
    d.eat(&gs[1]);
    d.eat(&gs[2]);

    // sum_to: trailing reduce, leading reduce, and the strided walker
    // fallback, each with gradients (broadcast backward).
    let x = lcg_param(&[3, 5, 7], &mut seed);
    for target in [&[3, 5, 1][..], &[7][..], &[1, 5, 1][..]] {
        let s = x.sum_to(target);
        let loss = s.mul(&s).sum_all();
        let gs = grad(&loss, std::slice::from_ref(&x), false);
        d.eat(&s);
        d.eat(&gs[0]);
    }

    // sq_err_mean: the fused loss reduction.
    let p = lcg_param(&[3, 8], &mut seed);
    let t = Tensor::from_vec(lcg_vec(24, &mut seed), &[3, 8]);
    let loss = p.sq_err_mean(&t);
    let gs = grad(&loss, std::slice::from_ref(&p), false);
    d.eat(&loss);
    d.eat(&gs[0]);

    // bias_add_activation with ReLU (max is exact; GELU and sigmoid are
    // in the transcendental battery).
    let x = lcg_param(&[3, 5], &mut seed);
    let bias = lcg_param(&[5], &mut seed);
    let y = x.bias_add_activation(&bias, Activation::Relu);
    let loss = y.mul(&y).sum_all();
    let gs = grad(&loss, &[x, bias], false);
    d.eat(&y);
    d.eat(&gs[0]);
    d.eat(&gs[1]);

    d.hex()
}

/// Runs the `exp`/`tanh` op battery under the active backend and
/// digests every forward value and first-order gradient. Softmax rows of
/// 3 take the sequential path, rows of 11 and 21 the backend's
/// `exp_shifted` pass (21 is the AVX2 path); the inputs reach the
/// saturated tails of `tanh` and sigmoid and `exp`'s underflow.
fn transcendental_battery_digest() -> String {
    let mut d = Digest::new();
    let mut seed = 0x7a4c_e11e;

    // softmax_fused along the trailing axis and a leading axis, inputs
    // scaled so some exponentials underflow toward zero.
    for (shape, axis, scale) in [
        (&[4, 3][..], 1, 4.0),
        (&[3, 11][..], 1, 30.0),
        (&[2, 21][..], 1, 8.0),
        (&[5, 4][..], 0, 6.0),
    ] {
        let n = shape.iter().product();
        let x = Tensor::param_from_vec(
            lcg_vec(n, &mut seed).iter().map(|v| v * scale).collect(),
            shape,
        );
        let y = x.softmax_fused(axis);
        let loss = y.mul(&y).sum_all();
        let gs = grad(&loss, std::slice::from_ref(&x), false);
        d.eat(&y);
        d.eat(&gs[0]);
    }

    // bias_add_activation with GELU and sigmoid over rows of 21.
    for act in [Activation::Gelu, Activation::Sigmoid] {
        let x = Tensor::param_from_vec(
            lcg_vec(3 * 21, &mut seed).iter().map(|v| v * 9.0).collect(),
            &[3, 21],
        );
        let bias = lcg_param(&[21], &mut seed);
        let y = x.bias_add_activation(&bias, act);
        let loss = y.mul(&y).sum_all();
        let gs = grad(&loss, &[x, bias], false);
        d.eat(&y);
        d.eat(&gs[0]);
        d.eat(&gs[1]);
    }

    // The elementwise tensor ops.
    let x = Tensor::param_from_vec(
        lcg_vec(40, &mut seed).iter().map(|v| v * 12.0).collect(),
        &[40],
    );
    for y in [x.exp(), x.tanh(), x.sigmoid()] {
        let loss = y.mul(&y).sum_all();
        let gs = grad(&loss, std::slice::from_ref(&x), false);
        d.eat(&y);
        d.eat(&gs[0]);
    }

    d.hex()
}

/// The scalar backend must keep reproducing the exact bit patterns of
/// the historical (pre-backend-abstraction) implementation.
#[test]
fn scalar_backend_digest_is_pinned() {
    let _g = BackendModeGuard::set(BackendKind::Scalar);
    assert_eq!(
        battery_digest(),
        "623d037a5fe32266",
        "scalar backend numerics changed — this breaks bit-compatibility \
         with previously recorded runs and checkpoints"
    );
}

/// The SIMD backend has its own pin: its chunked reductions reassociate
/// relative to scalar, but must do so *identically* on every machine
/// (the AVX2 and portable kernel paths are bit-equal by construction —
/// no FMA contraction, fixed reduction tree).
#[test]
fn simd_backend_digest_is_pinned() {
    let _g = BackendModeGuard::set(BackendKind::Simd);
    assert_eq!(
        battery_digest(),
        "f1b1f1d7e3701f7f",
        "SIMD backend numerics changed — update the pin only for an \
         intentional kernel change, and re-record the .simd run digests"
    );
}

/// The transcendental battery's pin under the scalar backend.
#[test]
fn scalar_transcendental_digest_is_pinned() {
    let _g = BackendModeGuard::set(BackendKind::Scalar);
    assert_eq!(
        transcendental_battery_digest(),
        "6e7bfa0974827416",
        "scalar exp/tanh numerics changed"
    );
}

/// The transcendental battery's pin under the SIMD backend. It differs
/// from the scalar pin only through the reductions (softmax denominators,
/// gradient sums): the elementwise `exp`/`tanh` bits are the same.
#[test]
fn simd_transcendental_digest_is_pinned() {
    let _g = BackendModeGuard::set(BackendKind::Simd);
    assert_eq!(
        transcendental_battery_digest(),
        "23da86e4741c9e28",
        "SIMD exp/tanh numerics changed"
    );
}

// ---------------------------------------------------------------------
// 2. Cross-backend tolerance
// ---------------------------------------------------------------------

/// Evaluates `f` under both backends and returns (scalar, simd) values.
fn both_backends(f: impl Fn() -> Tensor) -> (Vec<Elem>, Vec<Elem>) {
    let s = {
        let _g = BackendModeGuard::set(BackendKind::Scalar);
        f().to_vec()
    };
    let v = {
        let _g = BackendModeGuard::set(BackendKind::Simd);
        f().to_vec()
    };
    assert_eq!(s.len(), v.len());
    (s, v)
}

/// Asserts the recursive-summation bound `|simd − scalar| ≤
/// (n/8 + 3)·ε·magnitude` element-wise, where `magnitude` is the sum of
/// absolute term magnitudes of the reduction that produced the element.
fn assert_within_reduction_bound(s: &[Elem], v: &[Elem], n: usize, magnitude: &[Elem]) {
    let factor = (n as Elem / 8.0 + 3.0) * Elem::EPSILON;
    for (i, (a, b)) in s.iter().zip(v).enumerate() {
        let bound = factor * magnitude[i].max(1e-300);
        assert!(
            (a - b).abs() <= bound,
            "element {i}: scalar {a:e} vs simd {b:e} differ by {:e} \
             (bound {bound:e}, n = {n})",
            (a - b).abs()
        );
    }
}

/// Dot-product reassociation stays inside the error model at every
/// remainder size, including n < 8 (pure tail) and n = 0 adjacent
/// shapes.
#[test]
fn matmul_cross_backend_error_is_bounded() {
    for k in [1usize, 5, 7, 8, 9, 15, 16, 23, 64, 101] {
        let mut seed = k as u64 + 7;
        let a_data = lcg_vec(3 * k, &mut seed);
        let b_data = lcg_vec(k * 2, &mut seed);
        let a = Tensor::from_vec(a_data.clone(), &[3, k]);
        let b = Tensor::from_vec(b_data.clone(), &[k, 2]);
        let (s, v) = both_backends(|| a.matmul(&b));
        // Magnitude of each output element's reduction terms.
        let mut mag = vec![0.0; 6];
        for i in 0..3 {
            for j in 0..2 {
                mag[i * 2 + j] = (0..k)
                    .map(|kk| (a_data[i * k + kk] * b_data[kk * 2 + j]).abs())
                    .sum();
            }
        }
        assert_within_reduction_bound(&s, &v, k, &mag);
    }
}

/// The fused ops built on `exp` and `tanh` (softmax, GELU) compute the
/// same elementwise bits in both backends — one owned `exp` and `tanh`,
/// and the backend unit tests assert their passes agree bitwise — so
/// only the surrounding reductions differ, and the cross-backend error
/// obeys the reduction bound scaled by the row magnitude.
#[test]
fn fused_ops_cross_backend_error_is_bounded() {
    let mut seed = 99;
    let x = Tensor::from_vec(lcg_vec(4 * 11, &mut seed), &[4, 11]);
    let bias = Tensor::from_vec(lcg_vec(11, &mut seed), &[11]);
    let gamma = Tensor::from_vec(lcg_vec(11, &mut seed), &[11]);
    let beta = Tensor::from_vec(lcg_vec(11, &mut seed), &[11]);

    for (name, f) in [
        (
            "softmax",
            Box::new(|| x.softmax_fused(1)) as Box<dyn Fn() -> Tensor>,
        ),
        (
            "layernorm",
            Box::new(|| x.layernorm_affine(&gamma, &beta, 1e-5)),
        ),
        (
            "gelu",
            Box::new(|| x.bias_add_activation(&bias, Activation::Gelu)),
        ),
    ] {
        let (s, v) = both_backends(&f);
        // Row-level softmax/layernorm reductions are length 11; outputs
        // are O(1), so a conservative magnitude of Σ|row| per element.
        let factor = (11.0 / 8.0 + 3.0) * Elem::EPSILON;
        for (i, (a, b)) in s.iter().zip(&v).enumerate() {
            let scale = s.iter().map(|e| e.abs()).fold(1.0, Elem::max) * 11.0;
            assert!(
                (a - b).abs() <= factor * scale * 4.0,
                "{name} element {i}: scalar {a:e} vs simd {b:e}"
            );
        }
    }
}

/// A NaN planted in one input poisons exactly the outputs it reaches,
/// under both backends alike (SIMD lane shuffles must not drop it).
#[test]
fn nan_propagation_matches_across_backends() {
    let mut seed = 3;
    let mut a_data = lcg_vec(3 * 13, &mut seed);
    a_data[17] = Elem::NAN; // row 1, k-index 4: inside a SIMD tail.
    let a = Tensor::from_vec(a_data, &[3, 13]);
    let b = Tensor::from_vec(lcg_vec(13 * 2, &mut seed), &[13, 2]);
    let (s, v) = both_backends(|| a.matmul(&b));
    let nan_pattern: Vec<bool> = s.iter().map(|e| e.is_nan()).collect();
    assert_eq!(
        nan_pattern,
        v.iter().map(|e| e.is_nan()).collect::<Vec<_>>(),
        "NaN must reach the same outputs under both backends"
    );
    // Row 1 (both columns) is poisoned, rows 0 and 2 are clean.
    assert_eq!(nan_pattern, [false, false, true, true, false, false]);
}

/// Sums of subnormals are exact in both association orders (every
/// partial sum is representable), so the backends must agree bitwise —
/// a backend that flushes subnormals to zero would fail here.
#[test]
fn subnormal_sums_are_bit_equal_across_backends() {
    let tiny = Elem::from_bits(3); // 3 × 2⁻¹⁰⁷⁴, deeply subnormal
    let data: Vec<Elem> = (0..27).map(|i| tiny * (i % 5) as Elem).collect();
    let x = Tensor::from_vec(data.clone(), &[27]);
    let (s, v) = both_backends(|| x.sum_all());
    assert_eq!(s[0].to_bits(), v[0].to_bits());
    assert!(s[0] > 0.0, "sum of subnormals must not flush to zero");
}

// ---------------------------------------------------------------------
// 3. Gradients and fused-vs-composite equality under SIMD
// ---------------------------------------------------------------------

/// Numerical gradient checks with the SIMD backend forced: the backward
/// kernels (dot_block accumulation, axpy, fold_rows) must implement the
/// true adjoints of the SIMD forwards.
#[test]
fn simd_backward_paths_pass_gradcheck() {
    let _g = BackendModeGuard::set(BackendKind::Simd);
    let mut seed = 41;

    let a = lcg_param(&[3, 13], &mut seed);
    let b = lcg_param(&[13, 2], &mut seed);
    let r = check_gradients(
        |t| t[0].matmul(&t[1]).mul(&t[0].matmul(&t[1])).sum_all(),
        &[a, b],
        1e-5,
    );
    assert!(r.iter().all(|r| r.passes(1e-5)), "{r:?}");

    let c = lcg_param(&[3, 11], &mut seed);
    let e = lcg_param(&[4, 11], &mut seed);
    let r = check_gradients(
        |t| t[0].matmul_nt(&t[1]).mul(&t[0].matmul_nt(&t[1])).sum_all(),
        &[c, e],
        1e-5,
    );
    assert!(r.iter().all(|r| r.passes(1e-5)), "{r:?}");

    let x = lcg_param(&[2, 9], &mut seed);
    let gamma = lcg_param(&[9], &mut seed);
    let beta = lcg_param(&[9], &mut seed);
    let r = check_gradients(
        |t| {
            t[0].layernorm_affine(&t[1], &t[2], 1e-5)
                .mul(&t[0].layernorm_affine(&t[1], &t[2], 1e-5))
                .sum_all()
        },
        &[x, gamma, beta],
        1e-5,
    );
    assert!(r.iter().all(|r| r.passes(1e-4)), "{r:?}");

    let x = lcg_param(&[2, 11], &mut seed);
    let bias = lcg_param(&[11], &mut seed);
    let r = check_gradients(
        |t| {
            t[0].bias_add_activation(&t[1], Activation::Gelu)
                .mul(&t[0].bias_add_activation(&t[1], Activation::Gelu))
                .sum_all()
        },
        &[x, bias],
        1e-5,
    );
    assert!(r.iter().all(|r| r.passes(1e-5)), "{r:?}");

    let x = lcg_param(&[3, 7], &mut seed);
    let r = check_gradients(
        |t| t[0].softmax_fused(1).squared_norm(),
        std::slice::from_ref(&x),
        1e-5,
    );
    assert!(r.iter().all(|r| r.passes(1e-5)), "{r:?}");

    let r = check_gradients(|t| t[0].sum_to(&[7]).squared_norm(), &[x], 1e-5);
    assert!(r.iter().all(|r| r.passes(1e-6)), "{r:?}");
}

/// The canonical-primitive invariant, per backend: a fused kernel and
/// its composite expansion route through the same backend primitives,
/// so forward values and gradients agree bit-for-bit *within* each
/// backend (the fused-mode toggle is tested in tests/fused.rs; here we
/// pin that the property survives the backend dimension).
#[test]
fn fused_matches_composite_bitwise_under_each_backend() {
    use metadse_nn::tensor::fused::FusedModeGuard;

    // The trailing dims straddle both row-kernel thresholds: 2–3 take the
    // fused sequential-accumulation path (`SEQ_EQUIV_MAX`), 4–5 the
    // backend reduction below one lane-width, 8–9 the chunked kernels.
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        let _b = BackendModeGuard::set(kind);
        for dim in [2usize, 3, 4, 5, 8, 9] {
            let mut seed = 77 + dim as u64;
            let x = lcg_param(&[3, dim], &mut seed);
            let gamma = lcg_param(&[dim], &mut seed);
            let beta = lcg_param(&[dim], &mut seed);
            let f = |t: &[Tensor]| {
                t[0].layernorm_affine(&t[1], &t[2], 1e-5)
                    .softmax_fused(1)
                    .squared_norm()
            };
            let inputs = [x, gamma, beta];
            let (fused_loss, fused_grads) = {
                let _f = FusedModeGuard::set(true);
                let loss = f(&inputs);
                let g = grad(&loss, &inputs, false);
                (
                    loss.to_vec(),
                    g.iter().map(Tensor::to_vec).collect::<Vec<_>>(),
                )
            };
            let (plain_loss, plain_grads) = {
                let _f = FusedModeGuard::set(false);
                let loss = f(&inputs);
                let g = grad(&loss, &inputs, false);
                (
                    loss.to_vec(),
                    g.iter().map(Tensor::to_vec).collect::<Vec<_>>(),
                )
            };
            assert_eq!(
                fused_loss, plain_loss,
                "forward bit-equality under {kind:?}, dim {dim}"
            );
            assert_eq!(
                fused_grads, plain_grads,
                "gradient bit-equality under {kind:?}, dim {dim}"
            );
        }
    }
}

/// `METADSE_BACKEND` unset defaults to SIMD; the guard restores the
/// surrounding mode on drop (exercised here because every other test in
/// this file leans on that contract).
#[test]
fn backend_guard_nests_and_restores() {
    let outer = metadse_nn::backend::kind();
    {
        let _g = BackendModeGuard::set(BackendKind::Scalar);
        assert_eq!(metadse_nn::backend::kind(), BackendKind::Scalar);
        {
            let _h = BackendModeGuard::set(BackendKind::Simd);
            assert_eq!(metadse_nn::backend::kind(), BackendKind::Simd);
        }
        assert_eq!(metadse_nn::backend::kind(), BackendKind::Scalar);
    }
    assert_eq!(metadse_nn::backend::kind(), outer);
}
