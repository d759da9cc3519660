//! Fused graph nodes for the transformer hot path.
//!
//! Each kernel here replaces a chain of primitive nodes (softmax is five,
//! layernorm is ten, gelu is eight) with a *single* graph node whose forward
//! is one or two tight loops over pooled buffers. The hand-written backward
//! is expressed with ordinary tensor operations, so `create_graph = true`
//! still yields differentiable gradients — double-backward (full
//! second-order MAML) keeps working through every fused kernel.
//!
//! Bit-identity contract: with fusion enabled, forward values **and**
//! first-order gradient values are bit-for-bit identical to the unfused
//! composite that runs when [`FusedModeGuard`] disables fusion on the
//! current thread. Every result that is not a NaN keeps its bits; a NaN
//! result is a NaN on both paths, but its payload is not pinned — which
//! NaN operand's payload survives an add is not fixed by source order,
//! since the compiler may commute the add. That holds because
//!
//! 1. the fused forward loops replicate the composite's per-element
//!    floating-point expression trees in the same order (Rust never
//!    contracts `a * b + c` into an FMA, so `h * gamma + beta` in a loop is
//!    the same two rounding steps as separate `mul`/`add` nodes) and call
//!    the same owned `exp` and `tanh` (`tensor/math.rs`) the tensor ops
//!    do, and
//! 2. the fused backward emits exactly the tensor-op sequence the autograd
//!    engine would have produced for the composite, including the left-
//!    associated accumulation order of reused parents; when gradients are
//!    *not* being recorded (`create_graph = false`, the first-order MAML
//!    hot path), an equivalent raw loop computes the same per-element
//!    expression trees without materialising the intermediate tensors.
//!
//! Gradients built with `create_graph = true` carry the same values, but
//! differentiating them again (the double backward of second-order MAML)
//! walks the fused backward's own tensor-op graph, which rounds
//! differently from the composite's: second-order results agree to
//! rounding, not bit for bit.
//!
//! The cross-build determinism digest and the fused-vs-composite tests in
//! `crates/nn/tests/fused.rs` (finite and poison inputs) enforce this
//! contract.

use std::cell::Cell;
use std::rc::Rc;

use super::backend;
use super::math;
use super::ops::{axis_blocks, is_suffix_shape, pow_elem};
use super::pool;
use crate::autograd;
use crate::tensor::{BackwardFn, Tensor};
use crate::Elem;
use metadse_obs as obs;

thread_local! {
    static FUSED: Cell<bool> = const { Cell::new(true) };
}

/// Whether fused kernels are active on this thread (default yes;
/// [`FusedModeGuard`] falls back to the primitive compositions).
pub fn is_enabled() -> bool {
    FUSED.with(|c| c.get())
}

/// RAII toggle for kernel fusion on the current thread; restores the
/// previous mode on drop. Used by the equality tests that assert fused and
/// composite paths agree bit-for-bit.
pub struct FusedModeGuard {
    prev: bool,
}

impl FusedModeGuard {
    pub fn set(enabled: bool) -> Self {
        let prev = FUSED.with(|c| c.replace(enabled));
        FusedModeGuard { prev }
    }
}

impl Drop for FusedModeGuard {
    fn drop(&mut self) {
        FUSED.with(|c| c.set(self.prev));
    }
}

/// Activation applied by [`Tensor::bias_add_activation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    Identity,
    Relu,
    Sigmoid,
    Gelu,
}

impl Activation {
    /// Applies the activation as (composed) primitive tensor ops.
    pub fn apply(self, t: &Tensor) -> Tensor {
        match self {
            Activation::Identity => t.clone(),
            Activation::Relu => t.relu(),
            Activation::Sigmoid => t.sigmoid(),
            Activation::Gelu => t.gelu(),
        }
    }

    /// Scalar forward, replicating the corresponding tensor op's
    /// per-element expression tree exactly.
    #[inline]
    fn eval(self, s: Elem) -> Elem {
        match self {
            Activation::Identity => s,
            Activation::Relu => {
                if s > 0.0 {
                    s
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => {
                // Same stable two-branch form as `Tensor::sigmoid`.
                if s >= 0.0 {
                    1.0 / (1.0 + math::exp(-s))
                } else {
                    let e = math::exp(s);
                    e / (1.0 + e)
                }
            }
            Activation::Gelu => {
                // Mirrors `Tensor::gelu` op by op (the cube through the
                // same `pow_elem` form the `powf` op uses).
                let c = (2.0 / std::f64::consts::PI).sqrt();
                let p = pow_elem(s, 3.0);
                let pm = p * 0.044715;
                let i1 = s + pm;
                let i2 = i1 * c;
                let t = math::tanh(i2);
                let t1 = t + 1.0;
                let m = s * t1;
                m * 0.5
            }
        }
    }
}

impl Tensor {
    /// Numerically stable softmax along `axis` as a single graph node.
    ///
    /// Values and gradients are bit-identical to [`Tensor::softmax`], which
    /// is used as the fallback when fusion is disabled.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn softmax_fused(&self, axis: usize) -> Tensor {
        if !is_enabled() {
            return self.softmax(axis);
        }
        obs::counter("nn/fused_calls", 1);
        let shape = self.shape().to_vec();
        let (outer, dim, inner) = axis_blocks(&shape, axis);
        let lanes = outer * inner;
        let n = self.numel();
        let src = self.data();
        let mut maxv = pool::take_filled(lanes, Elem::NEG_INFINITY);
        for o in 0..outer {
            for d in 0..dim {
                for i in 0..inner {
                    let v = src[(o * dim + d) * inner + i];
                    let slot = &mut maxv[o * inner + i];
                    if v > *slot {
                        *slot = v;
                    }
                }
            }
        }
        let mut out = pool::take_zeroed(n);
        // The backward needs the raw exponentials and lane denominators;
        // keeping the forward's values (instead of recomputing them from
        // `x`) changes no bits and skips an `exp` per element.
        let mut exp_cache: Vec<Elem> = Vec::with_capacity(n);
        let mut denom: Vec<Elem> = vec![0.0; lanes];
        if inner == 1 && dim > backend::SEQ_EQUIV_MAX {
            // Trailing-axis softmax (the attention pattern): each lane's
            // exponentials are a contiguous row, computed by the backend's
            // `exp_shifted` pass, so the denominator is one backend `sum`
            // — the same reduction the composite's `sum_to` fast path
            // performs on the materialized exponentials. Rows of at most
            // `SEQ_EQUIV_MAX` elements skip this: there the chunked sum
            // degenerates to the sequential accumulation the plain loop
            // below already performs, with identical bits on every backend.
            let be = backend::active();
            for o in 0..outer {
                let row = &mut out[o * dim..(o + 1) * dim];
                row.copy_from_slice(&src[o * dim..(o + 1) * dim]);
                be.exp_shifted(row, maxv[o]);
                denom[o] = be.sum(row);
            }
        } else {
            for o in 0..outer {
                for d in 0..dim {
                    for i in 0..inner {
                        let idx = (o * dim + d) * inner + i;
                        let lane = o * inner + i;
                        let e = math::exp(src[idx] - maxv[lane]);
                        out[idx] = e;
                        denom[lane] += e;
                    }
                }
            }
        }
        exp_cache.extend_from_slice(&out);
        for o in 0..outer {
            for d in 0..dim {
                for i in 0..inner {
                    out[(o * dim + d) * inner + i] /= denom[o * inner + i];
                }
            }
        }
        drop(src);
        pool::recycle(maxv);

        let keep = {
            let mut k = shape.clone();
            k[axis] = 1;
            k
        };
        let backward: BackwardFn = Rc::new(move |g, ps, _out| {
            let x = &ps[0];
            if autograd::is_grad_enabled() {
                // Differentiable path: re-emit the composite's backward op
                // sequence (the shift constant is detached, exactly as in
                // the composite, because softmax is shift-invariant).
                let ev = x.sub(&x.max_axis_detached(axis)).exp();
                let dv = ev.sum_to(&keep);
                let ge1 = g.div(&dv);
                let gd = g.mul(&ev).neg().div(&dv.mul(&dv)).sum_to(&keep);
                let gx = ge1.add(&gd.broadcast_to(x.shape())).mul(&ev);
                return vec![Some(gx)];
            }
            // First-order fast path: same per-element expression trees as
            // the composite, reusing the forward's exponentials and lane
            // denominators instead of recomputing them.
            let (_, dim, inner) = axis_blocks(x.shape(), axis);
            let mut gx = pool::take_zeroed(exp_cache.len());
            let mut terms = pool::take_zeroed(dim);
            softmax_backward_raw(
                backend::active(),
                &g.data(),
                &exp_cache,
                &denom,
                dim,
                inner,
                &mut gx,
                &mut terms,
            );
            pool::recycle(terms);
            vec![Some(Tensor::from_buf(gx, x.shape()))]
        });
        Tensor::from_op(out, shape, vec![self.clone()], backward)
    }

    /// Layer normalisation over the trailing axis with an affine transform,
    /// `gamma * (x - mean) / sqrt(var + eps) + beta`, as one graph node.
    ///
    /// # Panics
    ///
    /// Panics if `gamma`/`beta` do not have shape `[last_dim]`.
    pub fn layernorm_affine(&self, gamma: &Tensor, beta: &Tensor, eps: Elem) -> Tensor {
        let dim = *self
            .shape()
            .last()
            .expect("layernorm_affine requires at least one axis");
        assert_eq!(gamma.shape(), [dim], "gamma must have shape [{dim}]");
        assert_eq!(beta.shape(), [dim], "beta must have shape [{dim}]");
        let inv = 1.0 / dim as Elem;
        if !is_enabled() {
            return layernorm_affine_composite(self, gamma, beta, eps, inv);
        }
        obs::counter("nn/fused_calls", 1);
        let be = backend::active();
        let n = self.numel();
        let rows = n / dim;
        let src = self.data();
        let gm = gamma.data();
        let bt = beta.data();
        let mut out = pool::take_zeroed(n);
        for r in 0..rows {
            let base = r * dim;
            let mean = be.sum(&src[base..base + dim]) * inv;
            // One rounded square per element, then the backend's sum order:
            // the same bits as the composite's materialized `c * c` row fed
            // through `sum_to`. For rows of at most `SEQ_EQUIV_MAX` elements
            // the chunked sum degenerates to sequential accumulation on
            // every backend, so the square-accumulate fuses into the
            // centering pass with identical bits and one fewer row pass.
            let s2 = if dim <= backend::SEQ_EQUIV_MAX {
                let mut s2 = 0.0;
                for j in 0..dim {
                    let c = src[base + j] - mean;
                    out[base + j] = c;
                    s2 += c * c;
                }
                s2
            } else {
                for j in 0..dim {
                    out[base + j] = src[base + j] - mean;
                }
                be.sum_sq(&out[base..base + dim])
            };
            let sd = (s2 * inv + eps).sqrt();
            for j in 0..dim {
                let h = out[base + j] / sd;
                out[base + j] = h * gm[j] + bt[j];
            }
        }
        drop(src);
        drop(gm);
        drop(bt);

        let keep = {
            let mut k = self.shape().to_vec();
            *k.last_mut().unwrap() = 1;
            k
        };
        let backward: BackwardFn = Rc::new(move |g, ps, _out| {
            let (x, gamma, beta) = (&ps[0], &ps[1], &ps[2]);
            if autograd::is_grad_enabled() {
                // Re-emit the composite decomposition and its exact
                // gradient sequence (including the two separately computed
                // `gq * c` terms from the reused `c` parent of `c * c`).
                let s1 = x.sum_to(&keep);
                let mean = s1.mul_scalar(inv);
                let c = x.sub(&mean);
                let q = c.mul(&c);
                let v = q.sum_to(&keep).mul_scalar(inv);
                let sd = v.add_scalar(eps).sqrt();
                let h = c.div(&sd);
                let gbeta = g.sum_to(beta.shape());
                let gh = g.mul(gamma);
                let ggamma = g.mul(&h).sum_to(gamma.shape());
                let gc1 = gh.div(&sd);
                let gsd = gh.mul(&c).neg().div(&sd.mul(&sd)).sum_to(&keep);
                let ga = gsd.mul_scalar(0.5).div(&sd);
                let gs2 = ga.mul_scalar(inv);
                let gq = gs2.broadcast_to(x.shape());
                let gc = gc1.add(&gq.mul(&c)).add(&gq.mul(&c));
                let gmean = gc.neg().sum_to(&keep);
                let gs1 = gmean.mul_scalar(inv);
                let gx = gc.add(&gs1.broadcast_to(x.shape()));
                return vec![Some(gx), Some(ggamma), Some(gbeta)];
            }
            let dim = *x.shape().last().unwrap();
            let mut gx = pool::take_zeroed(x.numel());
            let mut ggamma = pool::take_zeroed(dim);
            let mut gbeta = pool::take_zeroed(dim);
            let mut scratch = pool::take_zeroed(3 * dim);
            layernorm_backward_raw(
                backend::active(),
                &x.data(),
                &gamma.data(),
                &g.data(),
                eps,
                &mut gx,
                &mut ggamma,
                &mut gbeta,
                &mut scratch,
            );
            pool::recycle(scratch);
            vec![
                Some(Tensor::from_buf(gx, x.shape())),
                Some(Tensor::from_buf(ggamma, &[dim])),
                Some(Tensor::from_buf(gbeta, &[dim])),
            ]
        });
        Tensor::from_op(
            out,
            self.shape().to_vec(),
            vec![self.clone(), gamma.clone(), beta.clone()],
            backward,
        )
    }

    /// `activation(self + bias)` as a single graph node, for the common
    /// case where `bias` is a trailing-suffix shape of `self` (the linear
    /// layer bias pattern). Falls back to the primitive composition when
    /// fusion is off, the shapes don't fit the pattern, or the activation
    /// is [`Activation::Identity`] (a plain `add` is already one node).
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible (from the
    /// fallback `add`).
    pub fn bias_add_activation(&self, bias: &Tensor, act: Activation) -> Tensor {
        let fusable = is_enabled()
            && !matches!(act, Activation::Identity)
            && bias.numel() > 0
            && is_suffix_shape(bias.shape(), self.shape());
        if !fusable {
            return act.apply(&self.add(bias));
        }
        obs::counter("nn/fused_calls", 1);
        let sx = self.data();
        let sb = bias.data();
        let mut out = pool::take(sx.len());
        // GELU keeps its per-element tanh for the backward (the composite's
        // tanh node does the same through its stored output, so reusing it
        // here changes no bits — it just skips the recompute).
        let mut tanh_cache: Vec<Elem> = Vec::new();
        if matches!(act, Activation::Gelu) {
            let n = sx.len();
            tanh_cache.resize(n, 0.0);
            out.resize(n, 0.0);
            backend::active().bias_gelu_forward(&sx, &sb, &mut out, &mut tanh_cache);
        } else {
            let nb = sb.len();
            out.extend(
                sx.iter()
                    .enumerate()
                    .map(|(i, &x)| act.eval(x + sb[i % nb])),
            );
        }
        drop(sx);
        drop(sb);

        let bshape = bias.shape().to_vec();
        let backward: BackwardFn = Rc::new(move |g, ps, out| {
            if autograd::is_grad_enabled() {
                let gsum = match act {
                    Activation::Identity => unreachable!("identity is never fused"),
                    // `out > 0` iff the pre-activation is > 0, so the mask
                    // matches `relu`'s backward on the composite sum.
                    Activation::Relu => g.mul(&out.step_mask()),
                    Activation::Sigmoid => {
                        let d = out.mul(&out.neg().add_scalar(1.0));
                        g.mul(&d)
                    }
                    Activation::Gelu => {
                        let c = (2.0 / std::f64::consts::PI).sqrt();
                        let sv = ps[0].add(&ps[1]);
                        let tv = sv
                            .add(&sv.powf(3.0).mul_scalar(0.044715))
                            .mul_scalar(c)
                            .tanh();
                        let gm = g.mul_scalar(0.5);
                        let gs1 = gm.mul(&tv.add_scalar(1.0));
                        let gi2 = gm.mul(&sv).mul(&tv.mul(&tv).neg().add_scalar(1.0));
                        let gi1 = gi2.mul_scalar(c);
                        let gs3 = gi1.mul_scalar(0.044715).mul(&sv.powf(2.0).mul_scalar(3.0));
                        gs1.add(&gi1).add(&gs3)
                    }
                };
                let gb = gsum.sum_to(&bshape);
                return vec![Some(gsum), Some(gb)];
            }
            let sg = g.data();
            let so = out.data();
            let n = sg.len();
            let mut gsum = pool::take(n);
            match act {
                Activation::Identity => unreachable!("identity is never fused"),
                Activation::Relu => {
                    gsum.extend(sg.iter().zip(so.iter()).map(|(&gv, &ov)| {
                        let mask = if ov > 0.0 { 1.0 } else { 0.0 };
                        gv * mask
                    }));
                }
                Activation::Sigmoid => {
                    gsum.extend(sg.iter().zip(so.iter()).map(|(&gv, &ov)| {
                        let d = ov * (-ov + 1.0);
                        gv * d
                    }));
                }
                Activation::Gelu => {
                    let sx = ps[0].data();
                    let sb = ps[1].data();
                    gsum.resize(n, 0.0);
                    backend::active().bias_gelu_backward(&sg, &sx, &sb, &tanh_cache, &mut gsum);
                }
            }
            drop(sg);
            drop(so);
            let nb = ps[1].numel();
            let mut gb = pool::take_zeroed(nb);
            backend::active().fold_rows(&gsum, &mut gb);
            vec![
                Some(Tensor::from_buf(gsum, ps[0].shape())),
                Some(Tensor::from_buf(gb, ps[1].shape())),
            ]
        });
        Tensor::from_op(
            out,
            self.shape().to_vec(),
            vec![self.clone(), bias.clone()],
            backward,
        )
    }

    /// Mean squared error `mean((self - target)^2)` as one graph node
    /// (scalar output). Falls back to the primitive composition when fusion
    /// is off or the shapes differ (broadcasting case).
    pub fn sq_err_mean(&self, target: &Tensor) -> Tensor {
        if !is_enabled() || self.shape() != target.shape() {
            let diff = self.sub(target);
            return diff.mul(&diff).mean_all();
        }
        obs::counter("nn/fused_calls", 1);
        let inv = 1.0 / self.numel() as Elem;
        let sp = self.data();
        let st = target.data();
        let acc = backend::active().sum_sq_diff(&sp, &st);
        drop(sp);
        drop(st);

        let backward: BackwardFn = Rc::new(move |g, ps, _out| {
            let (pred, target) = (&ps[0], &ps[1]);
            if autograd::is_grad_enabled() {
                let diffv = pred.sub(target);
                let gsq = g.mul_scalar(inv).broadcast_to(pred.shape());
                // Two separately computed equal terms: `sq = diff * diff`
                // feeds `diff` twice, so the engine adds `gsq * diff` to
                // itself rather than scaling by two.
                let gdiff = gsq.mul(&diffv).add(&gsq.mul(&diffv));
                let gt = gdiff.neg();
                return vec![Some(gdiff), Some(gt)];
            }
            let n = pred.numel();
            let mut gpred = pool::take_zeroed(n);
            let mut gtarget = pool::take_zeroed(n);
            sq_err_mean_backward_raw(
                g.data()[0] * inv,
                &pred.data(),
                &target.data(),
                &mut gpred,
                Some(&mut gtarget),
            );
            vec![
                Some(Tensor::from_buf(gpred, pred.shape())),
                Some(Tensor::from_buf(gtarget, target.shape())),
            ]
        });
        Tensor::from_op(
            vec![acc * inv],
            Vec::new(),
            vec![self.clone(), target.clone()],
            backward,
        )
    }
}

/// First-order softmax backward over `[outer, dim, inner]` blocks from
/// the forward's exponentials `ev` and lane denominators `dv`: the
/// composite's per-element expression trees, writing `gx` (same length
/// as `ev`). `terms` is `dim` elements of scratch for the trailing-axis
/// chunked reduction. Shared by the fused graph node and the compiled
/// training step.
#[allow(clippy::too_many_arguments)] // raw kernel: slices + block geometry
pub(crate) fn softmax_backward_raw(
    be: backend::ActiveBackend,
    sg: &[Elem],
    ev: &[Elem],
    dv: &[Elem],
    dim: usize,
    inner: usize,
    gx: &mut [Elem],
    terms: &mut [Elem],
) {
    let outer = ev.len() / (dim * inner);
    if inner == 1 && dim > backend::SEQ_EQUIV_MAX {
        let terms = &mut terms[..dim];
        for (o, &dvo) in dv.iter().enumerate().take(outer) {
            let dvsq = dvo * dvo;
            for (d, slot) in terms.iter_mut().enumerate() {
                let idx = o * dim + d;
                let t = sg[idx] * ev[idx];
                *slot = -t / dvsq;
            }
            let gd = be.sum(terms);
            for d in 0..dim {
                let idx = o * dim + d;
                gx[idx] = (sg[idx] / dvo + gd) * ev[idx];
            }
        }
        return;
    }
    // Each lane's reduction runs in ascending `d`, one sequential
    // accumulator per lane.
    for o in 0..outer {
        for i in 0..inner {
            let lane = o * inner + i;
            let mut gd = 0.0;
            for d in 0..dim {
                let idx = (o * dim + d) * inner + i;
                let t = sg[idx] * ev[idx];
                gd += -t / (dv[lane] * dv[lane]);
            }
            for d in 0..dim {
                let idx = (o * dim + d) * inner + i;
                gx[idx] = (sg[idx] / dv[lane] + gd) * ev[idx];
            }
        }
    }
}

/// First-order affine-layernorm backward over rows of `gamma.len()`
/// elements: recomputes each row's centering and deviation from the
/// input `sx`, writes `gx` and overwrites `ggamma`/`gbeta` with the
/// gradients summed over rows (ascending). `scratch` holds `3 · dim`
/// elements. Shared by the fused graph node and the compiled training
/// step.
#[allow(clippy::too_many_arguments)] // raw kernel: slices + row geometry
pub(crate) fn layernorm_backward_raw(
    be: backend::ActiveBackend,
    sx: &[Elem],
    sgm: &[Elem],
    sg: &[Elem],
    eps: Elem,
    gx: &mut [Elem],
    ggamma: &mut [Elem],
    gbeta: &mut [Elem],
    scratch: &mut [Elem],
) {
    let dim = sgm.len();
    let inv = 1.0 / dim as Elem;
    let rows = sx.len() / dim;
    ggamma.fill(0.0);
    gbeta.fill(0.0);
    let (cbuf, rest) = scratch.split_at_mut(dim);
    let (ghbuf, terms) = rest.split_at_mut(dim);
    let terms = &mut terms[..dim];
    // Rows of at most `SEQ_EQUIV_MAX` elements: same bit-preserving
    // fusion as the forward — chunked reductions degenerate to the
    // sequential accumulation the inline loops perform, on every backend.
    let small = dim <= backend::SEQ_EQUIV_MAX;
    for r in 0..rows {
        let base = r * dim;
        let mean = be.sum(&sx[base..base + dim]) * inv;
        let s2 = if small {
            let mut s2 = 0.0;
            for j in 0..dim {
                let c = sx[base + j] - mean;
                cbuf[j] = c;
                s2 += c * c;
            }
            s2
        } else {
            for j in 0..dim {
                cbuf[j] = sx[base + j] - mean;
            }
            be.sum_sq(cbuf)
        };
        let sd = (s2 * inv + eps).sqrt();
        for j in 0..dim {
            let gj = sg[base + j];
            let h = cbuf[j] / sd;
            ggamma[j] += gj * h;
            gbeta[j] += gj;
            ghbuf[j] = gj * sgm[j];
        }
        let sd2 = sd * sd;
        let gsd = if small {
            let mut gsd = 0.0;
            for j in 0..dim {
                gsd += -(ghbuf[j] * cbuf[j]) / sd2;
            }
            gsd
        } else {
            for j in 0..dim {
                terms[j] = -(ghbuf[j] * cbuf[j]) / sd2;
            }
            be.sum(terms)
        };
        let ga = gsd * 0.5 / sd;
        let gs2 = ga * inv;
        let gmean = if small {
            let mut gmean = 0.0;
            for j in 0..dim {
                let t = gs2 * cbuf[j];
                let gc = ghbuf[j] / sd + t + t;
                gx[base + j] = gc;
                gmean += -gc;
            }
            gmean
        } else {
            for j in 0..dim {
                let t = gs2 * cbuf[j];
                let gc = ghbuf[j] / sd + t + t;
                gx[base + j] = gc;
                terms[j] = -gc;
            }
            be.sum(terms)
        };
        let gs1 = gmean * inv;
        for j in 0..dim {
            gx[base + j] += gs1;
        }
    }
}

/// First-order backward of `mean((pred − target)²)` given `gq`, the
/// output gradient times `1/n`: writes `gpred` and, when asked, `gtarget`
/// (its negation). The square's two reads of the difference contribute
/// two separately computed equal terms, as the composite graph adds them.
pub(crate) fn sq_err_mean_backward_raw(
    gq: Elem,
    sp: &[Elem],
    st: &[Elem],
    gpred: &mut [Elem],
    mut gtarget: Option<&mut [Elem]>,
) {
    for (i, (&p, &t)) in sp.iter().zip(st).enumerate() {
        let d = p - t;
        let term = gq * d;
        let gd = term + term;
        gpred[i] = gd;
        if let Some(gt) = gtarget.as_deref_mut() {
            gt[i] = -gd;
        }
    }
}

/// The unfused layernorm decomposition: shares one `mean`/`centered`
/// subgraph between the variance and the normaliser, so the fused backward
/// can mirror its gradient op sequence exactly. Forward values match the
/// textbook `mean_axis`/`var_axis` formulation bit-for-bit.
fn layernorm_affine_composite(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: Elem,
    inv: Elem,
) -> Tensor {
    let mut keep = x.shape().to_vec();
    *keep.last_mut().unwrap() = 1;
    // Pass-through barrier: `x` is read by both the mean and the centering,
    // which would hand its gradient slot two separate contributions. The
    // fused node hands it exactly one (`gc + broadcast(gs1)`), and when `x`
    // has other consumers (a residual connection) the accumulation
    // association would differ by an ulp. Funnelling both reads through a
    // same-shape reshape makes the composite contribute once too.
    let x = &x.reshape(x.shape());
    let mean = x.sum_to(&keep).mul_scalar(inv);
    let centered = x.sub(&mean);
    let var = centered.mul(&centered).sum_to(&keep).mul_scalar(inv);
    let sd = var.add_scalar(eps).sqrt();
    centered.div(&sd).mul(gamma).add(beta)
}
