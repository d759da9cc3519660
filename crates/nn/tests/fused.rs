//! Fused-kernel verification: bit-exact agreement with the primitive
//! compositions (on poison, every non-NaN bit, and NaN as a class),
//! numerical gradient checks, and second-order (double backward)
//! behaviour through every fused node.

use metadse_nn::autograd::grad;
use metadse_nn::gradcheck::check_gradients;
use metadse_nn::tensor::fused::FusedModeGuard;
use metadse_nn::tensor::pool::PoolModeGuard;
use metadse_nn::{Activation, Elem, Tensor};

fn param(data: &[Elem], shape: &[usize]) -> Tensor {
    Tensor::param_from_vec(data.to_vec(), shape)
}

const X23: [Elem; 6] = [0.31, -1.2, 0.77, 2.05, -0.44, 0.9];
const X24: [Elem; 8] = [0.5, -0.25, 1.3, -1.7, 0.12, 0.88, -0.6, 2.1];

/// Runs `f` twice — fused on and fused off — and asserts that the scalar
/// loss and every input gradient agree bit-for-bit.
fn assert_paths_bitwise_equal(f: impl Fn(&[Tensor]) -> Tensor, inputs: &[Tensor]) {
    let (fused_loss, fused_grads) = {
        let _fuse = FusedModeGuard::set(true);
        let loss = f(inputs);
        let grads = grad(&loss, inputs, false);
        (loss.to_vec(), grads)
    };
    let (plain_loss, plain_grads) = {
        let _fuse = FusedModeGuard::set(false);
        let loss = f(inputs);
        let grads = grad(&loss, inputs, false);
        (loss.to_vec(), grads)
    };
    assert_eq!(fused_loss, plain_loss, "forward values must be bit-equal");
    for (i, (fg, pg)) in fused_grads.iter().zip(&plain_grads).enumerate() {
        assert_eq!(
            fg.to_vec(),
            pg.to_vec(),
            "gradient {i} must be bit-equal between fused and composite"
        );
    }
}

// ---------------------------------------------------------------------
// Fused vs composite: bit-exact forward and first-order gradients
// ---------------------------------------------------------------------

#[test]
fn softmax_fused_matches_composite_bitwise() {
    let x = param(&X23, &[2, 3]);
    let w = Tensor::from_vec(vec![3.0, -1.0, 2.0, 0.5, 1.5, -2.0], &[2, 3]);
    assert_paths_bitwise_equal(|t| t[0].softmax_fused(1).mul(&w).sum_all(), &[x]);
}

#[test]
fn softmax_fused_middle_axis_matches_composite_bitwise() {
    let x = param(&X24, &[2, 2, 2]);
    assert_paths_bitwise_equal(|t| t[0].softmax_fused(1).squared_norm(), &[x]);
}

#[test]
fn layernorm_affine_matches_composite_bitwise() {
    let x = param(&X24, &[2, 4]);
    let gamma = param(&[1.1, 0.9, 1.3, 0.7], &[4]);
    let beta = param(&[0.05, -0.1, 0.2, 0.0], &[4]);
    assert_paths_bitwise_equal(
        |t| t[0].layernorm_affine(&t[1], &t[2], 1e-5).squared_norm(),
        &[x, gamma, beta],
    );
}

#[test]
fn bias_add_activation_matches_composite_bitwise() {
    for act in [Activation::Relu, Activation::Sigmoid, Activation::Gelu] {
        let x = param(&X24, &[2, 4]);
        let b = param(&[0.3, -0.2, 0.15, -0.5], &[4]);
        assert_paths_bitwise_equal(
            move |t| t[0].bias_add_activation(&t[1], act).squared_norm(),
            &[x, b],
        );
    }
}

#[test]
fn sq_err_mean_matches_composite_bitwise() {
    let pred = param(&X23, &[2, 3]);
    let target = param(&[0.1, -0.9, 1.1, 1.8, 0.0, 0.4], &[2, 3]);
    assert_paths_bitwise_equal(|t| t[0].sq_err_mean(&t[1]), &[pred, target]);
}

#[test]
fn matmul_nt_matches_composite_bitwise() {
    // Batched operands with equal batch dims — the fused fast path.
    let a = param(&[X23.as_slice(), &X24[..6]].concat(), &[2, 2, 3]);
    let b = param(
        &[
            0.2, -0.7, 1.4, 0.9, -0.3, 0.6, 1.1, -1.5, 0.05, 0.8, -0.9, 2.2, 0.4, -0.1, 1.7, -2.0,
            0.33, 0.66,
        ],
        &[2, 3, 3],
    );
    assert_paths_bitwise_equal(|t| t[0].matmul_nt(&t[1]).squared_norm(), &[a, b]);
}

#[test]
fn matmul_nt_sparse_lhs_matches_composite_bitwise() {
    // A zero-heavy LHS takes the sparse per-batch path on both sides.
    let a = param(&[0.0, 1.2, 0.0, 0.0, -0.8, 0.0, 0.0, 0.5, 0.0], &[1, 3, 3]);
    let b = param(&X23, &[1, 2, 3]);
    assert_paths_bitwise_equal(|t| t[0].matmul_nt(&t[1]).squared_norm(), &[a, b]);
}

// ---------------------------------------------------------------------
// Fused vs composite on poison: non-NaN bits exact, NaNs as a class
// ---------------------------------------------------------------------

/// Seven rows of four: a poisoned lane in each of the first five — NaN,
/// +inf, −inf, −0.0 and a subnormal — then a row of signed zeros and an
/// ordinary row.
#[rustfmt::skip]
const POISON: [Elem; 28] = [
    Elem::NAN, 0.5, -0.25, 1.0,
    Elem::INFINITY, 0.3, -1.0, 0.2,
    Elem::NEG_INFINITY, 0.7, 0.1, -0.6,
    -0.0, 0.4, 1.2, -0.9,
    1e-310, -0.8, 0.05, 0.6,
    -0.0, 0.0, -0.0, 0.0,
    0.31, -1.2, 0.77, 2.05,
];

/// The contract on poison: the same bits, or NaN on both sides — which
/// NaN payload survives an add is not fixed by source order.
fn agree(a: &[Elem], b: &[Elem]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

/// Runs `f` fused and composite on poisoned inputs and compares its
/// output, and every input's first-order gradient of the output summed
/// with fixed weights, under [`agree`]. The first input's gradient must
/// hold both NaNs and other values, so both halves of the contract are
/// exercised.
fn assert_paths_agree_on_poison(f: impl Fn(&[Tensor]) -> Tensor, inputs: &[Tensor]) {
    let run = |fused: bool| {
        let _fuse = FusedModeGuard::set(fused);
        let out = f(inputs);
        let weights: Vec<Elem> = (0..out.numel())
            .map(|i| 0.5 + 0.25 * (i % 5) as Elem)
            .collect();
        let loss = out.mul(&Tensor::from_vec(weights, out.shape())).sum_all();
        let grads = grad(&loss, inputs, false);
        (
            out.to_vec(),
            grads.iter().map(Tensor::to_vec).collect::<Vec<_>>(),
        )
    };
    let (fused_out, fused_grads) = run(true);
    let (plain_out, plain_grads) = run(false);
    assert!(
        agree(&fused_out, &plain_out),
        "forward: fused {fused_out:?} vs composite {plain_out:?}"
    );
    let first = &fused_grads[0];
    assert!(first.iter().any(|v| v.is_nan()) && first.iter().any(|v| !v.is_nan()));
    for (i, (fg, pg)) in fused_grads.iter().zip(&plain_grads).enumerate() {
        assert!(
            agree(fg, pg),
            "gradient {i}: fused {fg:?} vs composite {pg:?}"
        );
    }
}

#[test]
fn softmax_paths_agree_on_poison() {
    assert_paths_agree_on_poison(|t| t[0].softmax_fused(1), &[param(&POISON, &[7, 4])]);
}

#[test]
fn layernorm_affine_paths_agree_on_poison() {
    let gamma = param(&[1.1, 0.9, 1.3, 0.7], &[4]);
    let beta = param(&[0.05, -0.1, 0.2, 0.0], &[4]);
    assert_paths_agree_on_poison(
        |t| t[0].layernorm_affine(&t[1], &t[2], 1e-5),
        &[param(&POISON, &[7, 4]), gamma, beta],
    );
}

#[test]
fn bias_gelu_paths_agree_on_poison() {
    let b = param(&[0.3, -0.2, 0.15, -0.5], &[4]);
    assert_paths_agree_on_poison(
        |t| t[0].bias_add_activation(&t[1], Activation::Gelu),
        &[param(&POISON, &[7, 4]), b],
    );
}

#[test]
fn sq_err_mean_paths_agree_on_poison() {
    let target: Vec<Elem> = (0..28).map(|i| (i as Elem * 0.37).sin()).collect();
    assert_paths_agree_on_poison(
        |t| t[0].sq_err_mean(&t[1]),
        &[param(&POISON, &[7, 4]), param(&target, &[7, 4])],
    );
}

/// The pool never changes values: a small forward/backward is bit-equal
/// with recycling on and off (the in-process half of the cross-build
/// determinism digest requirement).
#[test]
fn pool_on_off_is_bitwise_identical() {
    let run = || {
        let x = param(&X24, &[2, 4]);
        let w = param(&X24, &[4, 2]);
        let y = x.matmul(&w).softmax_fused(1).squared_norm();
        let g = grad(&y, &[x, w], false);
        (y.to_vec(), g[0].to_vec(), g[1].to_vec())
    };
    let pooled = {
        let _p = PoolModeGuard::set(true);
        run()
    };
    let unpooled = {
        let _p = PoolModeGuard::set(false);
        run()
    };
    assert_eq!(pooled, unpooled);
}

// ---------------------------------------------------------------------
// Numerical gradient checks (fused kernels active)
// ---------------------------------------------------------------------

#[test]
fn gradcheck_softmax_fused() {
    let _fuse = FusedModeGuard::set(true);
    let x = param(&X23, &[2, 3]);
    let reports = check_gradients(|t| t[0].softmax_fused(1).squared_norm(), &[x], 1e-5);
    assert!(reports[0].passes(1e-6), "{:?}", reports[0]);
}

#[test]
fn gradcheck_layernorm_affine() {
    let _fuse = FusedModeGuard::set(true);
    let x = param(&X24, &[2, 4]);
    let gamma = param(&[1.1, 0.9, 1.3, 0.7], &[4]);
    let beta = param(&[0.05, -0.1, 0.2, 0.0], &[4]);
    let reports = check_gradients(
        |t| t[0].layernorm_affine(&t[1], &t[2], 1e-5).squared_norm(),
        &[x, gamma, beta],
        1e-5,
    );
    for r in &reports {
        assert!(r.passes(1e-6), "{r:?}");
    }
}

#[test]
fn gradcheck_bias_add_activation() {
    let _fuse = FusedModeGuard::set(true);
    for act in [Activation::Relu, Activation::Sigmoid, Activation::Gelu] {
        // Values chosen away from the ReLU kink so central differences are
        // valid for every activation.
        let x = param(&X24, &[2, 4]);
        let b = param(&[0.3, -0.2, 0.15, -0.5], &[4]);
        let reports = check_gradients(
            move |t| t[0].bias_add_activation(&t[1], act).squared_norm(),
            &[x, b],
            1e-5,
        );
        for r in &reports {
            assert!(r.passes(1e-6), "{act:?}: {r:?}");
        }
    }
}

#[test]
fn gradcheck_matmul_nt() {
    let _fuse = FusedModeGuard::set(true);
    let a = param(&[X23.as_slice(), &X24[..6]].concat(), &[2, 2, 3]);
    let b = param(
        &[
            0.2, -0.7, 1.4, 0.9, -0.3, 0.6, 1.1, -1.5, 0.05, 0.8, -0.9, 2.2, 0.4, -0.1, 1.7, -2.0,
            0.33, 0.66,
        ],
        &[2, 3, 3],
    );
    let reports = check_gradients(|t| t[0].matmul_nt(&t[1]).squared_norm(), &[a, b], 1e-5);
    assert!(reports[0].passes(1e-6), "{:?}", reports[0]);
    assert!(reports[1].passes(1e-6), "{:?}", reports[1]);
}

#[test]
fn second_order_through_matmul_nt() {
    // f(x) = (x ·ᵀ x).sum() for 1x1 x is x^2; second derivative is 2.
    let _fuse = FusedModeGuard::set(true);
    let x = param(&[3.0], &[1, 1]);
    let y = x.matmul_nt(&x).sum_all();
    let d1 = grad(&y, std::slice::from_ref(&x), true);
    assert!((d1[0].to_vec()[0] - 6.0).abs() < 1e-12);
    let d2 = grad(&d1[0].sum_all(), std::slice::from_ref(&x), false);
    assert!((d2[0].to_vec()[0] - 2.0).abs() < 1e-12);
}

#[test]
fn gradcheck_sq_err_mean() {
    let _fuse = FusedModeGuard::set(true);
    let pred = param(&X23, &[2, 3]);
    let target = param(&[0.1, -0.9, 1.1, 1.8, 0.0, 0.4], &[2, 3]);
    let reports = check_gradients(|t| t[0].sq_err_mean(&t[1]), &[pred, target], 1e-5);
    assert!(reports[0].passes(1e-6), "{:?}", reports[0]);
    assert!(reports[1].passes(1e-6), "{:?}", reports[1]);
}

// ---------------------------------------------------------------------
// Second order: double backward through the fused kernels
// ---------------------------------------------------------------------

/// One attention-style step: logits through a fused softmax, context
/// matmul, fused squared-error loss.
fn attention_step_loss(w: &Tensor, x: &Tensor, target: &Tensor) -> Tensor {
    let logits = x.matmul(w);
    let probs = logits.softmax_fused(1);
    probs.matmul(x).sq_err_mean(target)
}

/// Mirrors `second_order_gradient_of_cubic`: gradients created with
/// `create_graph = true` through a fused-softmax attention step must
/// themselves be differentiable, and the resulting second-order gradient
/// must match a central-difference estimate of the first-order gradient.
#[test]
fn second_order_through_fused_softmax_attention_step() {
    let _fuse = FusedModeGuard::set(true);
    let wv: [Elem; 9] = [0.4, -0.3, 0.8, 0.1, 0.9, -0.6, -0.2, 0.5, 0.3];
    let xv: [Elem; 9] = [1.0, 0.2, -0.5, 0.7, -1.1, 0.4, 0.3, 0.6, -0.8];
    let tv: [Elem; 9] = [0.2, 0.1, -0.3, 0.5, -0.4, 0.0, 0.1, 0.3, -0.2];
    let x = Tensor::from_vec(xv.to_vec(), &[3, 3]);
    let target = Tensor::from_vec(tv.to_vec(), &[3, 3]);

    let w = param(&wv, &[3, 3]);
    let l1 = attention_step_loss(&w, &x, &target);
    let g1 = grad(&l1, std::slice::from_ref(&w), true);
    assert!(
        g1[0].requires_grad(),
        "create_graph must keep fused-kernel gradients differentiable"
    );
    // h_i = d/dw_i sum_j(dl/dw_j): one Hessian row-sum per parameter.
    let h = grad(&g1[0].sum_all(), std::slice::from_ref(&w), false);
    let hv = h[0].to_vec();
    assert!(hv.iter().any(|&v| v != 0.0), "Hessian must not vanish");

    // Central-difference check of the same quantity via the first-order path.
    let grad_sum = |values: &[Elem]| -> Elem {
        let wp = param(values, &[3, 3]);
        let l = attention_step_loss(&wp, &x, &target);
        let g = grad(&l, std::slice::from_ref(&wp), false);
        g[0].to_vec().iter().sum()
    };
    let eps = 1e-5;
    for i in 0..wv.len() {
        let mut plus = wv;
        plus[i] += eps;
        let mut minus = wv;
        minus[i] -= eps;
        let numeric = (grad_sum(&plus) - grad_sum(&minus)) / (2.0 * eps);
        let abs = (hv[i] - numeric).abs();
        let rel = abs / numeric.abs().max(hv[i].abs()).max(1.0);
        assert!(
            rel < 1e-6,
            "w[{i}]: analytic {} vs numeric {numeric}",
            hv[i]
        );
    }
}

/// The fused second-order gradients must agree with the composite ones
/// (the differentiable backward re-emits the composite op sequence, so the
/// agreement is exact up to rounding).
#[test]
fn second_order_fused_matches_composite() {
    let wv: [Elem; 9] = [0.4, -0.3, 0.8, 0.1, 0.9, -0.6, -0.2, 0.5, 0.3];
    let xv: [Elem; 9] = [1.0, 0.2, -0.5, 0.7, -1.1, 0.4, 0.3, 0.6, -0.8];
    let tv: [Elem; 9] = [0.2, 0.1, -0.3, 0.5, -0.4, 0.0, 0.1, 0.3, -0.2];
    let x = Tensor::from_vec(xv.to_vec(), &[3, 3]);
    let target = Tensor::from_vec(tv.to_vec(), &[3, 3]);
    let meta = |fused: bool| -> Vec<Elem> {
        let _fuse = FusedModeGuard::set(fused);
        let w = param(&wv, &[3, 3]);
        let l1 = attention_step_loss(&w, &x, &target);
        let g1 = grad(&l1, std::slice::from_ref(&w), true);
        let h = grad(&g1[0].sum_all(), std::slice::from_ref(&w), false);
        h[0].to_vec()
    };
    for (i, (f, c)) in meta(true).iter().zip(meta(false)).enumerate() {
        assert!((f - c).abs() < 1e-9, "w[{i}]: fused {f} vs composite {c}");
    }
}

/// Second-order through the remaining fused kernels (layernorm and
/// bias+GELU) composed into one loss.
#[test]
fn second_order_through_layernorm_and_gelu() {
    let _fuse = FusedModeGuard::set(true);
    let x = Tensor::from_vec(X24.to_vec(), &[2, 4]);
    let gamma = param(&[1.1, 0.9, 1.3, 0.7], &[4]);
    let b = param(&[0.3, -0.2, 0.15, -0.5], &[4]);
    let beta = Tensor::from_vec(vec![0.0; 4], &[4]);
    let loss = x
        .bias_add_activation(&b, Activation::Gelu)
        .layernorm_affine(&gamma, &beta, 1e-5)
        .squared_norm();
    let g1 = grad(&loss, &[gamma.clone(), b.clone()], true);
    assert!(g1.iter().all(Tensor::requires_grad));
    let joint = g1[0].sum_all().add(&g1[1].sum_all());
    let h = grad(&joint, &[gamma, b], false);
    assert!(h[0].to_vec().iter().any(|&v| v != 0.0));
    assert!(h[1].to_vec().iter().any(|&v| v != 0.0));
}
