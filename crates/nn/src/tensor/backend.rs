//! The numeric backend abstraction: one place where every dense kernel's
//! contractions and reductions are implemented, in two interchangeable
//! flavours.
//!
//! ## Why a backend trait
//!
//! The packed matmul, the fused transformer kernels, and the `sum_to`
//! reductions all bottom out in a handful of primitive loops: dot products,
//! row-block dot products, plain/squared sums, and a few fusable
//! elementwise passes. Routing those primitives through a `Backend`
//! object gives two properties at once:
//!
//! * **per-backend bit-determinism** — each backend fixes its accumulation
//!   orders once, and both the fused kernels *and* the composite tensor-op
//!   paths call the same primitives, so the fused-vs-composite and
//!   thread-count bit-identity contracts hold under either backend;
//! * **a real SIMD speed path** — `SimdBackend` evaluates every
//!   reduction in 8 independent lanes (element `i` feeds lane `i % 8`)
//!   with a fixed horizontal combine tree, written as plain per-lane
//!   array arithmetic that LLVM lowers to vector instructions. On x86-64
//!   the same bodies are additionally compiled under
//!   `#[target_feature(enable = "avx2")]` and selected by runtime CPU
//!   detection — AVX2 widens the registers but computes the *same*
//!   per-lane `mul`+`add` sequences (Rust never contracts them to FMA),
//!   so the SIMD backend's bits are identical on every machine, with or
//!   without AVX2.
//!
//! ## Selection
//!
//! The process-wide backend is chosen on first use from `METADSE_BACKEND`
//! (`simd`, the default, or `scalar`; unrecognised values fall back to
//! `scalar`). [`set_process_kind`] overrides it for a whole process —
//! worker threads spawned afterwards inherit the choice, which is what the
//! bench binaries use to measure both backends in one run.
//! [`BackendModeGuard`] overrides it on the current thread only, for
//! single-threaded tests.
//!
//! ## Numerics policy
//!
//! `ScalarBackend` reproduces the historical kernels exactly: every
//! reduction is one accumulator filled in ascending index order, so the
//! scalar backend is bit-for-bit the pre-backend implementation and keeps
//! its original pinned digest. `SimdBackend` changes only the
//! *association* of sums (8 partial accumulators + a fixed combine tree),
//! never the set of rounded operations per term, so scalar-vs-SIMD
//! differences obey the standard reassociation bound
//! `|Δ| ≤ (n/8 + 3) · ε · Σ|terms|` — asserted per-op by the
//! cross-backend tolerance suite in `crates/nn/tests/backend.rs` and
//! reported in EXPERIMENTS.md. NaNs propagate identically (every input
//! element still enters exactly one accumulator). The elementwise passes
//! (`exp_shifted`, the GELU passes) run the owned `exp` and `tanh`
//! (`tensor/math.rs`), so their bits are the same on both backends, both
//! SIMD instantiations and every host.

use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};

use super::math;
use crate::Elem;

/// Lanes in the SIMD backend's virtual vector: 8 × f64 (two AVX2
/// registers), chosen so the remainder handling is exercised by every
/// odd-sized layer in the test models.
pub const SIMD_LANES: usize = 8;

/// Largest reduction length for which the 8-lane chunked sum and a plain
/// sequential left-fold produce identical bits. Below [`SIMD_LANES`] every
/// element occupies its own lane, so the fixed combine tree
/// `((l0+l1)+(l2+l3)) + …` only pads with `+0.0` until a fourth term
/// participates — at four terms it reassociates `(t0+t1)+(t2+t3)` against
/// the fold's `((t0+t1)+t2)+t3`. Row kernels may fuse a sequential
/// accumulation into another pass for rows at most this long without
/// changing any backend's bits.
pub const SEQ_EQUIV_MAX: usize = 3;

/// Which backend implementation is active.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendKind {
    /// Single-accumulator ascending-order kernels (the historical bits).
    Scalar,
    /// 8-lane chunked kernels with a fixed horizontal combine tree.
    Simd,
}

impl BackendKind {
    /// Stable lowercase name, used for digest-file suffixes and bench row
    /// labels.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Simd => "simd",
        }
    }
}

/// The primitive kernels every dense op routes through.
///
/// Order-sensitive reductions (`dot*`, `sum*`) define each backend's
/// numeric identity. The remaining methods (`axpy`, `fold_rows`, the
/// softmax exponentials, the GELU passes) are elementwise or
/// independent-accumulator loops whose bits cannot depend on
/// vectorization — they are on the trait so the SIMD implementations
/// compile under the widest available instruction set.
pub(crate) trait Backend: Sync {
    /// `dot(a, b) = Σ a[i]·b[i]` over `min` of the lengths (callers pass
    /// equal-length rows).
    fn dot(&self, a: &[Elem], b: &[Elem]) -> Elem;

    /// `out[j] = dot(a, bt[j·k .. (j+1)·k])` for every `j`: one output row
    /// of a packed matmul, `bt` holding `out.len()` rows of length `k`.
    fn dot_block(&self, a: &[Elem], bt: &[Elem], k: usize, out: &mut [Elem]);

    /// As [`Backend::dot_block`] but accumulating: `out[j] += dot(…)`.
    fn dot_block_acc(&self, a: &[Elem], bt: &[Elem], k: usize, out: &mut [Elem]);

    /// `dst[i] += scale · src[i]` (independent slots; bit-identical across
    /// backends).
    fn axpy(&self, scale: Elem, src: &[Elem], dst: &mut [Elem]);

    /// Row-fold: `out[j] += src[r·d + j]` for every full row `r`, rows
    /// ascending (independent per-`j` accumulators; bit-identical across
    /// backends). `d = out.len()`.
    fn fold_rows(&self, src: &[Elem], out: &mut [Elem]);

    /// `Σ xs[i]`.
    fn sum(&self, xs: &[Elem]) -> Elem;

    /// `Σ xs[i]²`, each square rounded once before accumulation (the same
    /// bits as materialising `x·x` and summing).
    fn sum_sq(&self, xs: &[Elem]) -> Elem;

    /// `Σ (a[i] − b[i])²`, difference and square each rounded once.
    fn sum_sq_diff(&self, a: &[Elem], b: &[Elem]) -> Elem;

    /// `xs[i] = exp(xs[i] − shift)` in place — a softmax row's
    /// exponentials, difference rounded once, then [`math::exp`].
    /// Elementwise — bit-identical across backends.
    fn exp_shifted(&self, xs: &mut [Elem], shift: Elem);

    /// Fused `gelu(x + bias)` forward: writes the activation to `out` and
    /// the inner `tanh` values to `tanh_cache` (both length `sx.len()`,
    /// with `sb.len()` dividing it). Elementwise — bit-identical across
    /// backends.
    fn bias_gelu_forward(&self, sx: &[Elem], sb: &[Elem], out: &mut [Elem], tanh: &mut [Elem]);

    /// Backward of [`Backend::bias_gelu_forward`] w.r.t. the sum `x + bias`,
    /// reusing the cached `tanh` values. Elementwise — bit-identical across
    /// backends.
    fn bias_gelu_backward(
        &self,
        sg: &[Elem],
        sx: &[Elem],
        sb: &[Elem],
        tanh: &[Elem],
        gsum: &mut [Elem],
    );
}

// ---------------------------------------------------------------------
// Scalar backend: the historical kernels, verbatim.
// ---------------------------------------------------------------------

/// The pre-backend kernels: one accumulator per output, ascending index
/// order. Bit-for-bit the implementation every pinned digest was recorded
/// against.
pub(crate) struct ScalarBackend;

impl Backend for ScalarBackend {
    fn dot(&self, a: &[Elem], b: &[Elem]) -> Elem {
        let mut s = 0.0;
        for (&av, &bv) in a.iter().zip(b) {
            s += av * bv;
        }
        s
    }

    fn dot_block(&self, a: &[Elem], bt: &[Elem], k: usize, out: &mut [Elem]) {
        // Four outputs per pass over `a` (the historical packed-matmul
        // microkernel). Each accumulator is independent and ascending, so
        // the bits match the one-column dot exactly.
        let n = out.len();
        let mut j = 0;
        while j + 4 <= n {
            let b0 = &bt[j * k..(j + 1) * k];
            let b1 = &bt[(j + 1) * k..(j + 2) * k];
            let b2 = &bt[(j + 2) * k..(j + 3) * k];
            let b3 = &bt[(j + 3) * k..(j + 4) * k];
            let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
            for (kk, &av) in a.iter().enumerate() {
                s0 += av * b0[kk];
                s1 += av * b1[kk];
                s2 += av * b2[kk];
                s3 += av * b3[kk];
            }
            out[j] = s0;
            out[j + 1] = s1;
            out[j + 2] = s2;
            out[j + 3] = s3;
            j += 4;
        }
        while j < n {
            out[j] = self.dot(a, &bt[j * k..(j + 1) * k]);
            j += 1;
        }
    }

    fn dot_block_acc(&self, a: &[Elem], bt: &[Elem], k: usize, out: &mut [Elem]) {
        for (j, o) in out.iter_mut().enumerate() {
            *o += self.dot(a, &bt[j * k..(j + 1) * k]);
        }
    }

    fn axpy(&self, scale: Elem, src: &[Elem], dst: &mut [Elem]) {
        for (o, &v) in dst.iter_mut().zip(src) {
            *o += scale * v;
        }
    }

    fn fold_rows(&self, src: &[Elem], out: &mut [Elem]) {
        let d = out.len();
        for row in src.chunks_exact(d) {
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
    }

    fn sum(&self, xs: &[Elem]) -> Elem {
        let mut s = 0.0;
        for &v in xs {
            s += v;
        }
        s
    }

    fn sum_sq(&self, xs: &[Elem]) -> Elem {
        let mut s = 0.0;
        for &v in xs {
            s += v * v;
        }
        s
    }

    fn sum_sq_diff(&self, a: &[Elem], b: &[Elem]) -> Elem {
        let mut s = 0.0;
        for (&av, &bv) in a.iter().zip(b) {
            let d = av - bv;
            s += d * d;
        }
        s
    }

    fn exp_shifted(&self, xs: &mut [Elem], shift: Elem) {
        for v in xs.iter_mut() {
            *v = math::exp(*v - shift);
        }
    }

    fn bias_gelu_forward(&self, sx: &[Elem], sb: &[Elem], out: &mut [Elem], tanh: &mut [Elem]) {
        // The historical single loop, expression tree per element exactly
        // as `Tensor::gelu`'s op-by-op composition.
        let nb = sb.len();
        let c = (2.0 / std::f64::consts::PI).sqrt();
        for (i, &x) in sx.iter().enumerate() {
            let s = x + sb[i % nb];
            let p = (s * s) * s;
            let pm = p * 0.044715;
            let i1 = s + pm;
            let i2 = i1 * c;
            let t = math::tanh(i2);
            tanh[i] = t;
            let t1 = t + 1.0;
            let m = s * t1;
            out[i] = m * 0.5;
        }
    }

    fn bias_gelu_backward(
        &self,
        sg: &[Elem],
        sx: &[Elem],
        sb: &[Elem],
        tanh: &[Elem],
        gsum: &mut [Elem],
    ) {
        let nb = sb.len();
        let c = (2.0 / std::f64::consts::PI).sqrt();
        for (i, &gv) in sg.iter().enumerate() {
            let s = sx[i] + sb[i % nb];
            let t = tanh[i];
            let gm = gv * 0.5;
            let gs1 = gm * (t + 1.0);
            let gi2 = (gm * s) * (-(t * t) + 1.0);
            let gi1 = gi2 * c;
            let gs3 = (gi1 * 0.044715) * ((s * s) * 3.0);
            gsum[i] = gs1 + gi1 + gs3;
        }
    }
}

// ---------------------------------------------------------------------
// SIMD kernel bodies (shared by the portable and AVX2 instantiations).
// ---------------------------------------------------------------------

/// The chunked kernel bodies. Everything here is `#[inline(always)]` so the
/// wrappers in [`portable`] and [`avx2`] compile the same source under
/// different target features; because no operation is ever contracted to an
/// FMA, both instantiations produce identical bits.
mod kernels {
    use super::{math, Elem, SEQ_EQUIV_MAX, SIMD_LANES as W};

    /// Fixed combine tree for the 8 partial accumulators:
    /// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`.
    #[inline(always)]
    fn hadd(acc: [Elem; W]) -> Elem {
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    }

    /// Folds the tail (fewer than `W` elements starting at `base`) into the
    /// low lanes: element `base + l` enters lane `l`, preserving the
    /// "element `i` feeds lane `i % W`" scheme.
    #[inline(always)]
    fn tail<const SQ: bool>(acc: &mut [Elem; W], a: &[Elem], b: &[Elem], base: usize) {
        for l in 0..(a.len() - base) {
            let (av, bv) = (a[base + l], b[base + l]);
            if SQ {
                let d = av - bv;
                acc[l] += d * d;
            } else {
                acc[l] += av * bv;
            }
        }
    }

    #[inline(always)]
    pub(super) fn dot(a: &[Elem], b: &[Elem]) -> Elem {
        let n = a.len().min(b.len());
        if n <= SEQ_EQUIV_MAX {
            // Sequential fold — identical bits to the lane/tree form for
            // at most `SEQ_EQUIV_MAX` terms (see the constant's docs), at
            // a fraction of the accumulator traffic.
            let mut s = 0.0;
            for i in 0..n {
                s += a[i] * b[i];
            }
            return s;
        }
        let n8 = n - n % W;
        let mut acc = [0.0; W];
        let mut i = 0;
        while i < n8 {
            let xa: &[Elem; W] = a[i..i + W].try_into().unwrap();
            let xb: &[Elem; W] = b[i..i + W].try_into().unwrap();
            for l in 0..W {
                acc[l] += xa[l] * xb[l];
            }
            i += W;
        }
        tail::<false>(&mut acc, &a[..n], &b[..n], n8);
        hadd(acc)
    }

    /// `ACC = false` writes `out[j] = dot`, `ACC = true` does `out[j] +=`.
    /// Four columns per pass share each loaded `a` chunk (4 × 8 lanes of
    /// accumulator state = 8 AVX2 registers).
    #[inline(always)]
    pub(super) fn dot_block<const ACC: bool>(a: &[Elem], bt: &[Elem], k: usize, out: &mut [Elem]) {
        let n = out.len();
        if k <= SEQ_EQUIV_MAX {
            // Per-column sequential dots: the 4-wide unroll is a pure
            // scheduling change, so skipping it for sub-`SEQ_EQUIV_MAX`
            // contractions keeps the bits while dropping the 4 × 8-lane
            // accumulator state the unroll would zero and fold per pass.
            for (j, o) in out.iter_mut().enumerate() {
                let d = dot(a, &bt[j * k..(j + 1) * k]);
                if ACC {
                    *o += d;
                } else {
                    *o = d;
                }
            }
            return;
        }
        let k8 = k - k % W;
        let mut j = 0;
        while j + 4 <= n {
            let b0 = &bt[j * k..(j + 1) * k];
            let b1 = &bt[(j + 1) * k..(j + 2) * k];
            let b2 = &bt[(j + 2) * k..(j + 3) * k];
            let b3 = &bt[(j + 3) * k..(j + 4) * k];
            let mut acc0 = [0.0; W];
            let mut acc1 = [0.0; W];
            let mut acc2 = [0.0; W];
            let mut acc3 = [0.0; W];
            let mut i = 0;
            while i < k8 {
                let xa: &[Elem; W] = a[i..i + W].try_into().unwrap();
                let x0: &[Elem; W] = b0[i..i + W].try_into().unwrap();
                let x1: &[Elem; W] = b1[i..i + W].try_into().unwrap();
                let x2: &[Elem; W] = b2[i..i + W].try_into().unwrap();
                let x3: &[Elem; W] = b3[i..i + W].try_into().unwrap();
                for l in 0..W {
                    let av = xa[l];
                    acc0[l] += av * x0[l];
                    acc1[l] += av * x1[l];
                    acc2[l] += av * x2[l];
                    acc3[l] += av * x3[l];
                }
                i += W;
            }
            tail::<false>(&mut acc0, a, b0, k8);
            tail::<false>(&mut acc1, a, b1, k8);
            tail::<false>(&mut acc2, a, b2, k8);
            tail::<false>(&mut acc3, a, b3, k8);
            if ACC {
                out[j] += hadd(acc0);
                out[j + 1] += hadd(acc1);
                out[j + 2] += hadd(acc2);
                out[j + 3] += hadd(acc3);
            } else {
                out[j] = hadd(acc0);
                out[j + 1] = hadd(acc1);
                out[j + 2] = hadd(acc2);
                out[j + 3] = hadd(acc3);
            }
            j += 4;
        }
        while j < n {
            let d = dot(a, &bt[j * k..(j + 1) * k]);
            if ACC {
                out[j] += d;
            } else {
                out[j] = d;
            }
            j += 1;
        }
    }

    #[inline(always)]
    pub(super) fn axpy(scale: Elem, src: &[Elem], dst: &mut [Elem]) {
        for (o, &v) in dst.iter_mut().zip(src) {
            *o += scale * v;
        }
    }

    #[inline(always)]
    pub(super) fn fold_rows(src: &[Elem], out: &mut [Elem]) {
        let d = out.len();
        for row in src.chunks_exact(d) {
            for (o, &v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
    }

    #[inline(always)]
    pub(super) fn sum(xs: &[Elem]) -> Elem {
        if xs.len() <= SEQ_EQUIV_MAX {
            let mut s = 0.0;
            for &v in xs {
                s += v;
            }
            return s;
        }
        let n8 = xs.len() - xs.len() % W;
        let mut acc = [0.0; W];
        let mut i = 0;
        while i < n8 {
            let x: &[Elem; W] = xs[i..i + W].try_into().unwrap();
            for l in 0..W {
                acc[l] += x[l];
            }
            i += W;
        }
        for l in 0..(xs.len() - n8) {
            acc[l] += xs[n8 + l];
        }
        hadd(acc)
    }

    #[inline(always)]
    pub(super) fn sum_sq(xs: &[Elem]) -> Elem {
        if xs.len() <= SEQ_EQUIV_MAX {
            let mut s = 0.0;
            for &v in xs {
                s += v * v;
            }
            return s;
        }
        let n8 = xs.len() - xs.len() % W;
        let mut acc = [0.0; W];
        let mut i = 0;
        while i < n8 {
            let x: &[Elem; W] = xs[i..i + W].try_into().unwrap();
            for l in 0..W {
                acc[l] += x[l] * x[l];
            }
            i += W;
        }
        for l in 0..(xs.len() - n8) {
            let v = xs[n8 + l];
            acc[l] += v * v;
        }
        hadd(acc)
    }

    #[inline(always)]
    pub(super) fn sum_sq_diff(a: &[Elem], b: &[Elem]) -> Elem {
        let n = a.len().min(b.len());
        if n <= SEQ_EQUIV_MAX {
            let mut s = 0.0;
            for i in 0..n {
                let d = a[i] - b[i];
                s += d * d;
            }
            return s;
        }
        let n8 = n - n % W;
        let mut acc = [0.0; W];
        let mut i = 0;
        while i < n8 {
            let xa: &[Elem; W] = a[i..i + W].try_into().unwrap();
            let xb: &[Elem; W] = b[i..i + W].try_into().unwrap();
            for l in 0..W {
                let d = xa[l] - xb[l];
                acc[l] += d * d;
            }
            i += W;
        }
        tail::<true>(&mut acc, &a[..n], &b[..n], n8);
        hadd(acc)
    }

    #[inline(always)]
    pub(super) fn exp_shifted(xs: &mut [Elem], shift: Elem) {
        for v in xs.iter_mut() {
            *v = math::exp(*v - shift);
        }
    }

    /// Row-tiled GELU forward (the bias broadcasts along each row, so
    /// the inner loop vectorizes, [`math::tanh`] included). Expression
    /// tree per element is identical to the scalar backend's loop, so the
    /// bits agree exactly.
    #[inline(always)]
    pub(super) fn bias_gelu_forward(sx: &[Elem], sb: &[Elem], out: &mut [Elem], tanh: &mut [Elem]) {
        let nb = sb.len();
        let c = (2.0 / std::f64::consts::PI).sqrt();
        for ((row_x, row_t), row_o) in sx
            .chunks_exact(nb)
            .zip(tanh.chunks_exact_mut(nb))
            .zip(out.chunks_exact_mut(nb))
        {
            for (((&x, &b), t), o) in row_x.iter().zip(sb).zip(row_t).zip(row_o) {
                let s = x + b;
                let p = (s * s) * s;
                let pm = p * 0.044715;
                let i1 = s + pm;
                *t = math::tanh(i1 * c);
                let t1 = *t + 1.0;
                let m = s * t1;
                *o = m * 0.5;
            }
        }
    }

    #[inline(always)]
    pub(super) fn bias_gelu_backward(
        sg: &[Elem],
        sx: &[Elem],
        sb: &[Elem],
        tanh: &[Elem],
        gsum: &mut [Elem],
    ) {
        let nb = sb.len();
        let c = (2.0 / std::f64::consts::PI).sqrt();
        for (((row_g, row_x), row_t), row_o) in sg
            .chunks_exact(nb)
            .zip(sx.chunks_exact(nb))
            .zip(tanh.chunks_exact(nb))
            .zip(gsum.chunks_exact_mut(nb))
        {
            for ((((&gv, &x), &b), &t), o) in row_g
                .iter()
                .zip(row_x)
                .zip(sb)
                .zip(row_t)
                .zip(row_o.iter_mut())
            {
                let s = x + b;
                let gm = gv * 0.5;
                let gs1 = gm * (t + 1.0);
                let gi2 = (gm * s) * (-(t * t) + 1.0);
                let gi1 = gi2 * c;
                let gs3 = (gi1 * 0.044715) * ((s * s) * 3.0);
                *o = gs1 + gi1 + gs3;
            }
        }
    }
}

/// Baseline-ISA instantiation of the SIMD kernels (whatever vector width
/// the default target provides — SSE2 on x86-64).
mod portable {
    use super::Elem;

    pub(super) fn dot(a: &[Elem], b: &[Elem]) -> Elem {
        super::kernels::dot(a, b)
    }
    pub(super) fn dot_block<const ACC: bool>(a: &[Elem], bt: &[Elem], k: usize, out: &mut [Elem]) {
        super::kernels::dot_block::<ACC>(a, bt, k, out)
    }
    pub(super) fn axpy(scale: Elem, src: &[Elem], dst: &mut [Elem]) {
        super::kernels::axpy(scale, src, dst)
    }
    pub(super) fn fold_rows(src: &[Elem], out: &mut [Elem]) {
        super::kernels::fold_rows(src, out)
    }
    pub(super) fn sum(xs: &[Elem]) -> Elem {
        super::kernels::sum(xs)
    }
    pub(super) fn sum_sq(xs: &[Elem]) -> Elem {
        super::kernels::sum_sq(xs)
    }
    pub(super) fn sum_sq_diff(a: &[Elem], b: &[Elem]) -> Elem {
        super::kernels::sum_sq_diff(a, b)
    }
    pub(super) fn exp_shifted(xs: &mut [Elem], shift: Elem) {
        super::kernels::exp_shifted(xs, shift)
    }
    pub(super) fn bias_gelu_forward(sx: &[Elem], sb: &[Elem], out: &mut [Elem], tanh: &mut [Elem]) {
        super::kernels::bias_gelu_forward(sx, sb, out, tanh)
    }
    pub(super) fn bias_gelu_backward(
        sg: &[Elem],
        sx: &[Elem],
        sb: &[Elem],
        tanh: &[Elem],
        gsum: &mut [Elem],
    ) {
        super::kernels::bias_gelu_backward(sg, sx, sb, tanh, gsum)
    }
}

/// AVX2 instantiation: the same `#[inline(always)]` bodies compiled with
/// 256-bit registers. Same rounded operations in the same order — AVX2
/// only changes how many lanes execute per instruction — so the bits are
/// identical to [`portable`].
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::Elem;

    #[target_feature(enable = "avx2")]
    pub(super) fn dot(a: &[Elem], b: &[Elem]) -> Elem {
        super::kernels::dot(a, b)
    }
    #[target_feature(enable = "avx2")]
    pub(super) fn dot_block<const ACC: bool>(a: &[Elem], bt: &[Elem], k: usize, out: &mut [Elem]) {
        super::kernels::dot_block::<ACC>(a, bt, k, out)
    }
    #[target_feature(enable = "avx2")]
    pub(super) fn axpy(scale: Elem, src: &[Elem], dst: &mut [Elem]) {
        super::kernels::axpy(scale, src, dst)
    }
    #[target_feature(enable = "avx2")]
    pub(super) fn fold_rows(src: &[Elem], out: &mut [Elem]) {
        super::kernels::fold_rows(src, out)
    }
    #[target_feature(enable = "avx2")]
    pub(super) fn sum(xs: &[Elem]) -> Elem {
        super::kernels::sum(xs)
    }
    #[target_feature(enable = "avx2")]
    pub(super) fn sum_sq(xs: &[Elem]) -> Elem {
        super::kernels::sum_sq(xs)
    }
    #[target_feature(enable = "avx2")]
    pub(super) fn sum_sq_diff(a: &[Elem], b: &[Elem]) -> Elem {
        super::kernels::sum_sq_diff(a, b)
    }
    #[target_feature(enable = "avx2")]
    pub(super) fn exp_shifted(xs: &mut [Elem], shift: Elem) {
        super::kernels::exp_shifted(xs, shift)
    }
    #[target_feature(enable = "avx2")]
    pub(super) fn bias_gelu_forward(sx: &[Elem], sb: &[Elem], out: &mut [Elem], tanh: &mut [Elem]) {
        super::kernels::bias_gelu_forward(sx, sb, out, tanh)
    }
    #[target_feature(enable = "avx2")]
    pub(super) fn bias_gelu_backward(
        sg: &[Elem],
        sx: &[Elem],
        sb: &[Elem],
        tanh: &[Elem],
        gsum: &mut [Elem],
    ) {
        super::kernels::bias_gelu_backward(sg, sx, sb, tanh, gsum)
    }
}

/// The 8-lane chunked backend. `avx2 = true` dispatches to the
/// `#[target_feature(enable = "avx2")]` instantiation (requires runtime
/// detection — see [`active`]); both instantiations produce the same bits.
#[derive(Clone, Copy)]
pub(crate) struct SimdBackend {
    avx2: bool,
}

/// `#[target_feature]` functions cannot be inlined into callers compiled
/// without the feature, so every `avx2::` call is a genuine function
/// call. Below two lane-widths along the vectorised axis that call
/// overhead outweighs any vector win, and the portable instantiation —
/// bit-identical and fully inlinable — is used instead.
const AVX2_MIN_LEN: usize = 2 * SIMD_LANES;

macro_rules! simd_dispatch {
    ($self:ident, $len:expr, $name:ident :: < $acc:literal > ( $($arg:expr),* )) => {{
        #[cfg(target_arch = "x86_64")]
        if $self.avx2 && $len >= AVX2_MIN_LEN {
            // SAFETY: `avx2` is only ever set by `active()` after
            // `is_x86_feature_detected!("avx2")` returned true.
            return unsafe { avx2::$name::<$acc>($($arg),*) };
        }
        portable::$name::<$acc>($($arg),*)
    }};
    ($self:ident, $len:expr, $name:ident ( $($arg:expr),* )) => {{
        #[cfg(target_arch = "x86_64")]
        if $self.avx2 && $len >= AVX2_MIN_LEN {
            // SAFETY: `avx2` is only ever set by `active()` after
            // `is_x86_feature_detected!("avx2")` returned true.
            return unsafe { avx2::$name($($arg),*) };
        }
        portable::$name($($arg),*)
    }};
}

impl Backend for SimdBackend {
    fn dot(&self, a: &[Elem], b: &[Elem]) -> Elem {
        simd_dispatch!(self, a.len(), dot(a, b))
    }
    fn dot_block(&self, a: &[Elem], bt: &[Elem], k: usize, out: &mut [Elem]) {
        simd_dispatch!(self, k, dot_block::<false>(a, bt, k, out))
    }
    fn dot_block_acc(&self, a: &[Elem], bt: &[Elem], k: usize, out: &mut [Elem]) {
        simd_dispatch!(self, k, dot_block::<true>(a, bt, k, out))
    }
    fn axpy(&self, scale: Elem, src: &[Elem], dst: &mut [Elem]) {
        simd_dispatch!(self, src.len(), axpy(scale, src, dst))
    }
    fn fold_rows(&self, src: &[Elem], out: &mut [Elem]) {
        simd_dispatch!(self, out.len(), fold_rows(src, out))
    }
    fn sum(&self, xs: &[Elem]) -> Elem {
        simd_dispatch!(self, xs.len(), sum(xs))
    }
    fn sum_sq(&self, xs: &[Elem]) -> Elem {
        simd_dispatch!(self, xs.len(), sum_sq(xs))
    }
    fn sum_sq_diff(&self, a: &[Elem], b: &[Elem]) -> Elem {
        simd_dispatch!(self, a.len(), sum_sq_diff(a, b))
    }
    fn exp_shifted(&self, xs: &mut [Elem], shift: Elem) {
        simd_dispatch!(self, xs.len(), exp_shifted(xs, shift))
    }
    fn bias_gelu_forward(&self, sx: &[Elem], sb: &[Elem], out: &mut [Elem], tanh: &mut [Elem]) {
        simd_dispatch!(self, sx.len(), bias_gelu_forward(sx, sb, out, tanh))
    }
    fn bias_gelu_backward(
        &self,
        sg: &[Elem],
        sx: &[Elem],
        sb: &[Elem],
        tanh: &[Elem],
        gsum: &mut [Elem],
    ) {
        simd_dispatch!(self, sg.len(), bias_gelu_backward(sg, sx, sb, tanh, gsum))
    }
}

// ---------------------------------------------------------------------
// Selection
// ---------------------------------------------------------------------

/// Process-wide backend choice: 0 = undecided, 1 = scalar, 2 = simd.
static PROCESS_KIND: AtomicU8 = AtomicU8::new(0);

thread_local! {
    /// Per-thread override installed by [`BackendModeGuard`].
    static OVERRIDE: Cell<Option<BackendKind>> = const { Cell::new(None) };
}

fn kind_code(kind: BackendKind) -> u8 {
    match kind {
        BackendKind::Scalar => 1,
        BackendKind::Simd => 2,
    }
}

/// The `METADSE_BACKEND` policy: `simd` unless the variable selects
/// `scalar` (unrecognised values also fall back to `scalar`, the
/// conservative choice).
fn detect() -> BackendKind {
    match std::env::var("METADSE_BACKEND") {
        Ok(v) if v == "simd" => BackendKind::Simd,
        Ok(_) => BackendKind::Scalar,
        Err(_) => BackendKind::Simd,
    }
}

fn process_kind() -> BackendKind {
    loop {
        match PROCESS_KIND.load(Ordering::Relaxed) {
            1 => return BackendKind::Scalar,
            2 => return BackendKind::Simd,
            _ => {
                let detected = detect();
                let _ = PROCESS_KIND.compare_exchange(
                    0,
                    kind_code(detected),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                );
                // Re-read: if another thread won the race, honour its
                // choice so the whole process agrees.
            }
        }
    }
}

/// Overrides the process-wide backend (bench binaries measuring both
/// backends in one process; threads spawned afterwards inherit it). Tests
/// that need a scoped, single-thread override should use
/// [`BackendModeGuard`] instead.
pub fn set_process_kind(kind: BackendKind) {
    PROCESS_KIND.store(kind_code(kind), Ordering::Relaxed);
}

/// The backend kind active on the current thread.
pub fn kind() -> BackendKind {
    OVERRIDE.with(|c| c.get()).unwrap_or_else(process_kind)
}

#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    static AVX2: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
}

/// The resolved kernel set for the current thread, as a `Copy` value.
///
/// Deliberately an enum rather than a `&dyn Backend`: the hot callers
/// (packed matmul, fused kernels) invoke a primitive *per output row*,
/// and on the dispatch-bound geometries (rows of 2–8 elements) a
/// virtual call costs more than the row's arithmetic. An inlinable
/// match lets LLVM hoist the branch out of the row loops and inline
/// the kernel bodies, restoring the pre-abstraction code shape.
#[derive(Clone, Copy)]
pub(crate) enum ActiveBackend {
    Scalar,
    Simd(SimdBackend),
}

macro_rules! active_dispatch {
    ($self:ident . $method:ident ( $($arg:expr),* )) => {
        match $self {
            ActiveBackend::Scalar => Backend::$method(&ScalarBackend, $($arg),*),
            ActiveBackend::Simd(s) => Backend::$method(&s, $($arg),*),
        }
    };
}

impl ActiveBackend {
    #[inline(always)]
    pub(crate) fn dot_block(self, a: &[Elem], bt: &[Elem], k: usize, out: &mut [Elem]) {
        active_dispatch!(self.dot_block(a, bt, k, out))
    }
    #[inline(always)]
    pub(crate) fn dot_block_acc(self, a: &[Elem], bt: &[Elem], k: usize, out: &mut [Elem]) {
        active_dispatch!(self.dot_block_acc(a, bt, k, out))
    }
    #[inline(always)]
    pub(crate) fn axpy(self, scale: Elem, src: &[Elem], dst: &mut [Elem]) {
        active_dispatch!(self.axpy(scale, src, dst))
    }
    #[inline(always)]
    pub(crate) fn fold_rows(self, src: &[Elem], out: &mut [Elem]) {
        active_dispatch!(self.fold_rows(src, out))
    }
    #[inline(always)]
    pub(crate) fn sum(self, xs: &[Elem]) -> Elem {
        active_dispatch!(self.sum(xs))
    }
    #[inline(always)]
    pub(crate) fn sum_sq(self, xs: &[Elem]) -> Elem {
        active_dispatch!(self.sum_sq(xs))
    }
    #[inline(always)]
    pub(crate) fn sum_sq_diff(self, a: &[Elem], b: &[Elem]) -> Elem {
        active_dispatch!(self.sum_sq_diff(a, b))
    }
    #[inline(always)]
    pub(crate) fn exp_shifted(self, xs: &mut [Elem], shift: Elem) {
        active_dispatch!(self.exp_shifted(xs, shift))
    }
    #[inline(always)]
    pub(crate) fn bias_gelu_forward(
        self,
        sx: &[Elem],
        sb: &[Elem],
        out: &mut [Elem],
        tanh: &mut [Elem],
    ) {
        active_dispatch!(self.bias_gelu_forward(sx, sb, out, tanh))
    }
    #[inline(always)]
    pub(crate) fn bias_gelu_backward(
        self,
        sg: &[Elem],
        sx: &[Elem],
        sb: &[Elem],
        tanh: &[Elem],
        gsum: &mut [Elem],
    ) {
        active_dispatch!(self.bias_gelu_backward(sg, sx, sb, tanh, gsum))
    }
}

/// The active backend kernels for the current thread.
pub(crate) fn active() -> ActiveBackend {
    match kind() {
        BackendKind::Scalar => ActiveBackend::Scalar,
        BackendKind::Simd => {
            #[cfg(target_arch = "x86_64")]
            let avx2 = avx2_available();
            #[cfg(not(target_arch = "x86_64"))]
            let avx2 = false;
            ActiveBackend::Simd(SimdBackend { avx2 })
        }
    }
}

/// RAII override of the backend on the current thread; restores the
/// previous state on drop. Does **not** propagate to worker threads — use
/// [`set_process_kind`] when spawned work must follow.
pub struct BackendModeGuard {
    prev: Option<BackendKind>,
}

impl BackendModeGuard {
    pub fn set(kind: BackendKind) -> Self {
        let prev = OVERRIDE.with(|c| c.replace(Some(kind)));
        BackendModeGuard { prev }
    }
}

impl Drop for BackendModeGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        let _ = OVERRIDE.try_with(|c| c.set(prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reassociation bound for an n-term reduction split into 8 lanes:
    /// each lane does ≤ n/8 sequential adds, the combine tree adds 3
    /// levels, and every partial is bounded by Σ|terms|.
    fn tolerance(terms: &[Elem]) -> Elem {
        let mag: Elem = terms.iter().map(|t| t.abs()).sum();
        (terms.len() as Elem / 8.0 + 3.0) * Elem::EPSILON * mag
    }

    /// The lane/tree evaluation the chunked kernels perform: element `i`
    /// feeds lane `i % W`, partials combine through the fixed `hadd` tree.
    fn lane_tree(terms: &[Elem]) -> Elem {
        let mut acc = [0.0; SIMD_LANES];
        for (i, &t) in terms.iter().enumerate() {
            acc[i % SIMD_LANES] += t;
        }
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    }

    /// The kernels' small-`n` fast paths replace the lane/tree form with a
    /// sequential fold for `n <= SEQ_EQUIV_MAX`. Exhaustively verify the
    /// bit-equivalence over adversarial values (signed zeros, subnormals,
    /// infinities, cancellation) — and that it genuinely stops at 4 terms,
    /// so the threshold cannot be raised.
    #[test]
    fn seq_equiv_threshold_is_exact_and_tight() {
        let vals: [Elem; 8] = [0.0, -0.0, 1.0, -1.0, 0.1, 1e308, 5e-324, -0.1];
        for n in 0..=SEQ_EQUIV_MAX {
            for combo in 0..vals.len().pow(n as u32) {
                let mut c = combo;
                let terms: Vec<Elem> = (0..n)
                    .map(|_| {
                        let v = vals[c % vals.len()];
                        c /= vals.len();
                        v
                    })
                    .collect();
                let fold: Elem = terms.iter().fold(0.0, |s, &t| s + t);
                assert_eq!(
                    fold.to_bits(),
                    lane_tree(&terms).to_bits(),
                    "terms {terms:?}"
                );
            }
        }
        // At 4 terms the tree computes `(t0+t1)+(t2+t3)` against the
        // fold's `((t0+t1)+t2)+t3`: three below-half-ulp increments are
        // each absorbed sequentially but pair up inside the tree.
        let t4 = [1.0, 1e-16, 1e-16, 1e-16];
        let fold: Elem = t4.iter().fold(0.0, |s, &t| s + t);
        assert_ne!(fold.to_bits(), lane_tree(&t4).to_bits());
    }

    #[test]
    fn simd_dot_matches_scalar_within_bound_all_remainders() {
        for n in [0, 1, 5, 7, 8, 9, 15, 16, 23, 64, 101] {
            let a: Vec<Elem> = (0..n).map(|i| ((i * 37 + 11) % 19) as Elem - 9.0).collect();
            let b: Vec<Elem> = (0..n)
                .map(|i| ((i * 53 + 3) % 17) as Elem * 0.25 - 2.0)
                .collect();
            let terms: Vec<Elem> = a.iter().zip(&b).map(|(x, y)| x * y).collect();
            let s = ScalarBackend.dot(&a, &b);
            let v = SimdBackend { avx2: false }.dot(&a, &b);
            assert!(
                (s - v).abs() <= tolerance(&terms),
                "n={n}: scalar {s} vs simd {v}"
            );
        }
    }

    #[test]
    fn avx2_and_portable_simd_agree_bitwise() {
        #[cfg(target_arch = "x86_64")]
        {
            if !avx2_available() {
                return;
            }
            let a: Vec<Elem> = (0..77).map(|i| (i as Elem).sin()).collect();
            let b: Vec<Elem> = (0..77).map(|i| (i as Elem * 0.7).cos()).collect();
            let portable = SimdBackend { avx2: false };
            let wide = SimdBackend { avx2: true };
            assert_eq!(portable.dot(&a, &b).to_bits(), wide.dot(&a, &b).to_bits());
            assert_eq!(portable.sum(&a).to_bits(), wide.sum(&a).to_bits());
            assert_eq!(portable.sum_sq(&a).to_bits(), wide.sum_sq(&a).to_bits());
            assert_eq!(
                portable.sum_sq_diff(&a, &b).to_bits(),
                wide.sum_sq_diff(&a, &b).to_bits()
            );
            // k must clear AVX2_MIN_LEN or `wide` silently takes the
            // portable path and the comparison is vacuous.
            let mut o1 = vec![0.0; 4];
            let mut o2 = vec![0.0; 4];
            portable.dot_block(&a[..19], &b[..76], 19, &mut o1);
            wide.dot_block(&a[..19], &b[..76], 19, &mut o2);
            for (x, y) in o1.iter().zip(&o2) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
            // The elementwise transcendental passes, on sweep inputs long
            // enough for the AVX2 path.
            for xs in sweeps() {
                assert_eq!(bits(&exp_pass(&portable, &xs)), bits(&exp_pass(&wide, &xs)));
                assert_eq!(gelu_pass(&portable, &xs), gelu_pass(&wide, &xs));
            }
        }
    }

    /// Sweep inputs for the elementwise passes: the softmax domain, the
    /// GELU pre-activation range, and poison (±0, ±∞, NaN, subnormals,
    /// overflow and underflow arguments). Every length clears
    /// `AVX2_MIN_LEN` and leaves a remainder.
    fn sweeps() -> Vec<Vec<Elem>> {
        let lin = |lo: Elem, hi: Elem, n: usize| -> Vec<Elem> {
            (0..n)
                .map(|i| lo + (hi - lo) * (i as Elem / (n - 1) as Elem))
                .collect()
        };
        let poison = vec![
            0.0,
            -0.0,
            Elem::INFINITY,
            Elem::NEG_INFINITY,
            Elem::NAN,
            Elem::from_bits(1),
            -Elem::from_bits(1),
            Elem::MIN_POSITIVE,
            709.78,
            709.79,
            -745.13,
            -745.14,
            -800.0,
            800.0,
            0.75,
            -0.75,
            1e-200,
            -3.0,
        ];
        vec![lin(-50.0, 0.0, 1001), lin(-12.0, 12.0, 1003), poison]
    }

    /// Result bits, every NaN as one class (payloads are not pinned).
    fn bits(xs: &[Elem]) -> Vec<u64> {
        xs.iter()
            .map(|v| if v.is_nan() { u64::MAX } else { v.to_bits() })
            .collect()
    }

    /// `exp(x − 0.5)` over `xs` through the backend's `exp_shifted`.
    fn exp_pass(be: &dyn Backend, xs: &[Elem]) -> Vec<Elem> {
        let mut out = xs.to_vec();
        be.exp_shifted(&mut out, 0.5);
        out
    }

    /// Bits of the fused bias+GELU outputs and cached `tanh` values, bias
    /// broadcast over rows of `xs.len()` (one row).
    fn gelu_pass(be: &dyn Backend, xs: &[Elem]) -> (Vec<u64>, Vec<u64>) {
        let bias: Vec<Elem> = (0..xs.len()).map(|i| (i % 7) as Elem * 0.125).collect();
        let mut out = vec![0.0; xs.len()];
        let mut tanh = vec![0.0; xs.len()];
        be.bias_gelu_forward(xs, &bias, &mut out, &mut tanh);
        (bits(&out), bits(&tanh))
    }

    /// Only the reductions may tell the backends apart: every backend and
    /// instantiation returns the same `exp` and `tanh` bits elementwise,
    /// and those are [`math::exp`] and [`math::tanh`].
    #[test]
    fn elementwise_transcendentals_are_identical_across_backends() {
        let backends: Vec<SimdBackend> = {
            #[cfg(target_arch = "x86_64")]
            let wide = avx2_available();
            #[cfg(not(target_arch = "x86_64"))]
            let wide = false;
            let mut v = vec![SimdBackend { avx2: false }];
            if wide {
                v.push(SimdBackend { avx2: true });
            }
            v
        };
        for xs in sweeps() {
            let want_exp = bits(&xs.iter().map(|&x| math::exp(x - 0.5)).collect::<Vec<_>>());
            assert_eq!(bits(&exp_pass(&ScalarBackend, &xs)), want_exp);
            let scalar_gelu = gelu_pass(&ScalarBackend, &xs);
            for simd in &backends {
                assert_eq!(bits(&exp_pass(simd, &xs)), want_exp);
                assert_eq!(gelu_pass(simd, &xs), scalar_gelu);
            }
        }
    }

    #[test]
    fn dot_block_matches_per_column_dot_exactly() {
        // The 4-wide column unroll must be a pure scheduling change.
        for be in [&SimdBackend { avx2: false } as &dyn Backend, &ScalarBackend] {
            let k = 13;
            let cols = 9;
            let a: Vec<Elem> = (0..k).map(|i| (i as Elem) * 0.5 - 3.0).collect();
            let bt: Vec<Elem> = (0..cols * k).map(|i| ((i % 7) as Elem) - 3.0).collect();
            let mut block = vec![0.0; cols];
            be.dot_block(&a, &bt, k, &mut block);
            for j in 0..cols {
                let want = be.dot(&a, &bt[j * k..(j + 1) * k]);
                assert_eq!(block[j].to_bits(), want.to_bits(), "col {j}");
            }
            // The accumulating variant adds on top.
            let mut acc = block.clone();
            be.dot_block_acc(&a, &bt, k, &mut acc);
            for j in 0..cols {
                assert_eq!(acc[j], block[j] + block[j]);
            }
        }
    }

    #[test]
    fn nan_propagates_through_both_backends() {
        let mut xs = vec![1.0; 20];
        xs[13] = Elem::NAN;
        for be in [&ScalarBackend as &dyn Backend, &SimdBackend { avx2: false }] {
            assert!(be.sum(&xs).is_nan());
            assert!(be.sum_sq(&xs).is_nan());
            assert!(be.dot(&xs, &xs).is_nan());
        }
    }

    #[test]
    fn selection_guard_overrides_and_restores() {
        let ambient = kind();
        {
            let _g = BackendModeGuard::set(BackendKind::Scalar);
            assert_eq!(kind(), BackendKind::Scalar);
            assert_eq!(active().sum(&[2.0, 4.0]), 6.0);
            {
                let _inner = BackendModeGuard::set(BackendKind::Simd);
                assert_eq!(kind(), BackendKind::Simd);
            }
            assert_eq!(kind(), BackendKind::Scalar);
        }
        assert_eq!(kind(), ambient);
    }
}
