//! Public handles to the resolved kernel backend for out-of-graph
//! executors.
//!
//! The tensor graph keeps [`super::backend`]'s dispatch machinery
//! crate-private so in-graph ops can never observe a half-configured
//! backend. External executors that bypass the graph entirely — the
//! compiled plans and training steps in `metadse` — still need the
//! *same* kernels, because the repository's bit-exactness contracts
//! (scalar ≡ simd digests, fused ≡ composite) are stated per kernel: any
//! executor that reproduces an op's accumulation order on these
//! primitives inherits the guarantees for free.
//!
//! [`kernels`] resolves the calling thread's active backend once and
//! returns a [`Kernels`] handle — a `Copy` token that pins the choice
//! for a whole pass, exactly as `backend::active()` does inside each
//! tensor op. Beside the forward primitives, the module exports the
//! first-order backward kernels the graph's own backward closures run
//! ([`matmul_backward`], [`matmul_nt_backward`], [`softmax_backward`],
//! [`layernorm_backward`], [`sq_err_mean_backward`],
//! [`Kernels::bias_gelu_backward`]): one implementation per gradient, so
//! a compiled backward lands on the graph's bits by construction. The
//! owned [`exp`] and [`tanh`] every elementwise kernel runs are
//! re-exported here too.

use super::backend::{self, ActiveBackend};
use crate::Elem;

/// Fraction of exact zeros at which the in-graph matmul switches a
/// batch to the zero-skipping sparse kernel. Exported so out-of-graph
/// executors reproduce the *data-dependent* dense/sparse choice — the
/// path decision is part of the bit-exactness contract, not just the
/// arithmetic inside each path.
pub const SPARSE_ZERO_FRACTION: f64 = super::matmul::SPARSE_ZERO_FRACTION;

/// Row lengths at or below this bound make the backends' chunked
/// reductions degenerate to sequential accumulation (re-exported from
/// [`backend::SEQ_EQUIV_MAX`]).
pub use super::backend::SEQ_EQUIV_MAX;

/// The one `exp` and `tanh` of every tensor kernel, plan and step:
/// portable, branch-free, no FMA, the same bits on every backend and
/// host.
pub use super::math::{exp, tanh};

/// The calling thread's resolved kernel set.
///
/// Copies of this handle all dispatch to the same backend; resolve one
/// per forward pass so a concurrent [`crate::BackendModeGuard`] on
/// another thread can never split a single pass across kernel sets.
#[derive(Clone, Copy)]
pub struct Kernels {
    be: ActiveBackend,
}

impl std::fmt::Debug for Kernels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Kernels(..)")
    }
}

/// Resolves the active backend (`METADSE_BACKEND`, process override,
/// or thread-local guard) for the calling thread.
pub fn kernels() -> Kernels {
    Kernels {
        be: backend::active(),
    }
}

impl Kernels {
    /// `out[j] = dot(a, bt_row_j)` over a packed `[n, k]` panel `bt` —
    /// the dense matmul microkernel.
    #[inline(always)]
    pub fn dot_block(self, a: &[Elem], bt: &[Elem], k: usize, out: &mut [Elem]) {
        self.be.dot_block(a, bt, k, out)
    }

    /// `dst[i] += scale * src[i]` — the sparse matmul accumulation.
    #[inline(always)]
    pub fn axpy(self, scale: Elem, src: &[Elem], dst: &mut [Elem]) {
        self.be.axpy(scale, src, dst)
    }

    /// Chunked row sum — the reduction order `sum_to`'s trailing-axis
    /// fast path produces.
    #[inline(always)]
    pub fn sum(self, xs: &[Elem]) -> Elem {
        self.be.sum(xs)
    }

    /// Chunked sum of squares — the layernorm variance reduction.
    #[inline(always)]
    pub fn sum_sq(self, xs: &[Elem]) -> Elem {
        self.be.sum_sq(xs)
    }

    /// `xs[i] = exp(xs[i] − shift)` in place: a softmax row's
    /// exponentials, vectorized by the SIMD backend.
    #[inline(always)]
    pub fn exp_shifted(self, xs: &mut [Elem], shift: Elem) {
        self.be.exp_shifted(xs, shift)
    }

    /// Folds `src`'s rows (row length `out.len()`) into `out` by
    /// addition, rows in ascending order.
    #[inline(always)]
    pub fn fold_rows(self, src: &[Elem], out: &mut [Elem]) {
        self.be.fold_rows(src, out)
    }

    /// Fused `gelu(x + bias)` over a flat buffer with a suffix-broadcast
    /// bias; `tanh` receives the per-element tanh values (`out.len()`
    /// scratch the caller provides).
    #[inline(always)]
    pub fn bias_gelu_forward(self, sx: &[Elem], sb: &[Elem], out: &mut [Elem], tanh: &mut [Elem]) {
        self.be.bias_gelu_forward(sx, sb, out, tanh)
    }

    /// Backward of [`Kernels::bias_gelu_forward`] with respect to the sum
    /// `x + bias`: `gsum` from the output gradient `sg`, the pre-bias
    /// input `sx` and the forward's `tanh` values.
    #[inline(always)]
    pub fn bias_gelu_backward(
        self,
        sg: &[Elem],
        sx: &[Elem],
        sb: &[Elem],
        tanh: &[Elem],
        gsum: &mut [Elem],
    ) {
        self.be.bias_gelu_backward(sg, sx, sb, tanh, gsum)
    }

    /// `Σ (a[i] − b[i])²` — the fused mean-squared-error reduction.
    #[inline(always)]
    pub fn sum_sq_diff(self, a: &[Elem], b: &[Elem]) -> Elem {
        self.be.sum_sq_diff(a, b)
    }
}

/// First-order gradients of one `[m, k] · [k, n]` block, accumulated
/// into `ga` (`[m, k]`) and `gb` (`[k, n]`): the kernel behind
/// [`crate::Tensor::matmul`]'s backward.
#[allow(clippy::too_many_arguments)] // raw kernel: slices + block geometry
pub fn matmul_backward(
    kb: Kernels,
    g: &[Elem],
    a: &[Elem],
    b: &[Elem],
    (m, k, n): (usize, usize, usize),
    ga: Option<&mut [Elem]>,
    gb: Option<&mut [Elem]>,
) {
    super::matmul::matmul_backward_block(kb.be, g, a, b, m, k, n, ga, gb)
}

/// First-order gradients of one `[m, k] · [n, k]ᵀ` block, accumulated
/// into `ga` (`[m, k]`) and `gb` (`[n, k]`), with `panel` (`k · n`
/// elements) as scratch: the kernel behind
/// [`crate::Tensor::matmul_nt`]'s backward.
#[allow(clippy::too_many_arguments)] // raw kernel: slices + block geometry
pub fn matmul_nt_backward(
    kb: Kernels,
    g: &[Elem],
    a: &[Elem],
    b: &[Elem],
    (m, k, n): (usize, usize, usize),
    ga: Option<&mut [Elem]>,
    gb: Option<&mut [Elem]>,
    panel: &mut [Elem],
) {
    super::matmul::matmul_nt_backward_block(kb.be, g, a, b, m, k, n, ga, gb, panel)
}

/// First-order softmax backward along an axis of `dim` elements with
/// `inner` trailing elements per step, from the forward's exponentials
/// and lane denominators; `terms` is `dim` elements of scratch. The
/// kernel behind [`crate::Tensor::softmax_fused`]'s backward.
pub fn softmax_backward(
    kb: Kernels,
    g: &[Elem],
    exps: &[Elem],
    denom: &[Elem],
    (dim, inner): (usize, usize),
    gx: &mut [Elem],
    terms: &mut [Elem],
) {
    super::fused::softmax_backward_raw(kb.be, g, exps, denom, dim, inner, gx, terms)
}

/// First-order affine-layernorm backward over rows of `gamma.len()`
/// elements; overwrites `gx`, `ggamma` and `gbeta`, with `scratch`
/// holding `3 · gamma.len()` elements. The kernel behind
/// [`crate::Tensor::layernorm_affine`]'s backward.
#[allow(clippy::too_many_arguments)] // raw kernel: slices
pub fn layernorm_backward(
    kb: Kernels,
    x: &[Elem],
    gamma: &[Elem],
    g: &[Elem],
    eps: Elem,
    gx: &mut [Elem],
    (ggamma, gbeta): (&mut [Elem], &mut [Elem]),
    scratch: &mut [Elem],
) {
    super::fused::layernorm_backward_raw(kb.be, x, gamma, g, eps, gx, ggamma, gbeta, scratch)
}

/// First-order backward of `mean((pred − target)²)` with respect to
/// `pred`, given `gq` (the output gradient times `1/n`). The kernel
/// behind [`crate::Tensor::sq_err_mean`]'s backward.
pub fn sq_err_mean_backward(gq: Elem, pred: &[Elem], target: &[Elem], gpred: &mut [Elem]) {
    super::fused::sq_err_mean_backward_raw(gq, pred, target, gpred, None)
}
