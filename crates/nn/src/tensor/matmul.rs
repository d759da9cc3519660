//! Batched matrix multiplication.
//!
//! The forward kernel packs each distinct B block transposed once per call
//! (a broadcast 2-D weight is packed exactly once and reused by every
//! batch), then runs a dot-product microkernel with contiguous access to
//! both operands. Batches whose A block is mostly zeros — masked attention
//! rows — instead take an axpy path that skips zero multiplicands
//! entirely. The choice is data-dependent, so it is identical across
//! thread counts.
//!
//! The backward pass never materializes a transposed operand: when the
//! gradient itself needs no graph (`create_graph = false`, the common
//! first-order case), both parent gradients are accumulated directly into
//! buffers of the parents' shapes, with broadcast batch reduction folded
//! into the accumulation. Only double-backward (second-order MAML) falls
//! back to the tensor-op composition.

use std::rc::Rc;

use metadse_obs as obs;

use crate::autograd;
use crate::fasthash::IdHashMap;
use crate::tensor::backend::{self, ActiveBackend};
use crate::tensor::fused;
use crate::tensor::pool::{self, Buf};
use crate::tensor::shape::{broadcast_shapes, broadcast_strides, numel, OffsetWalker};
use crate::tensor::{BackwardFn, Tensor};
use crate::Elem;

/// A batch's A block is "sparse" when at least this fraction of it is
/// exactly zero; the axpy kernel then skips whole zero terms.
pub(crate) const SPARSE_ZERO_FRACTION: f64 = 0.25;

/// Packs the `k x n` block of `db` at `base` transposed (as `n x k`) onto
/// the end of `packed`, returning the block's start within `packed`.
fn pack_transposed(db: &[Elem], base: usize, k: usize, n: usize, packed: &mut Buf) -> usize {
    let start = packed.len();
    packed.resize(start + n * k, 0.0);
    let block = &mut packed[start..];
    for kk in 0..k {
        let row = &db[base + kk * n..base + (kk + 1) * n];
        for (j, &v) in row.iter().enumerate() {
            block[j * k + kk] = v;
        }
    }
    start
}

/// Dense microkernel: `out[i, j] = dot(a_row_i, bt_row_j)`, each output row
/// one `dot_block` call over the packed panel.
#[allow(clippy::too_many_arguments)] // raw kernel: slices + block geometry
fn dense_block(
    be: ActiveBackend,
    da: &[Elem],
    a_base: usize,
    bt: &[Elem],
    out: &mut [Elem],
    m: usize,
    k: usize,
    n: usize,
) {
    for i in 0..m {
        let a_row = &da[a_base + i * k..a_base + (i + 1) * k];
        let o_row = &mut out[i * n..(i + 1) * n];
        be.dot_block(a_row, bt, k, o_row);
    }
}

/// Sparse microkernel: row-major axpy accumulation that skips zero A
/// entries — each zero avoids an entire length-`n` pass.
#[allow(clippy::too_many_arguments)] // raw kernel: slices + block geometry
fn sparse_block(
    be: ActiveBackend,
    da: &[Elem],
    a_base: usize,
    db: &[Elem],
    b_base: usize,
    out: &mut [Elem],
    m: usize,
    k: usize,
    n: usize,
) {
    for i in 0..m {
        for kk in 0..k {
            let a_ik = da[a_base + i * k + kk];
            if a_ik == 0.0 {
                continue;
            }
            let b_row = &db[b_base + kk * n..b_base + (kk + 1) * n];
            let o_row = &mut out[i * n..(i + 1) * n];
            be.axpy(a_ik, b_row, o_row);
        }
    }
}

/// The full forward kernel over all (possibly broadcast) batches.
fn matmul_forward(
    da: &[Elem],
    db: &[Elem],
    offsets_a: &[usize],
    offsets_b: &[usize],
    m: usize,
    k: usize,
    n: usize,
) -> Buf {
    let be = backend::active();
    let batch_count = offsets_a.len();
    let mut out = pool::take_zeroed(batch_count * m * n);
    // Distinct B blocks packed transposed, keyed by their buffer offset. A
    // broadcast weight has one distinct offset: packed once, reused.
    let mut packed: Buf = pool::take(k * n);
    let mut slots: IdHashMap<usize, usize> = IdHashMap::default();
    // Path counts accumulate locally and flush as three counter bumps per
    // call, so instrumentation cost stays off the per-batch inner loop.
    let (mut sparse_batches, mut dense_batches, mut packs) = (0u64, 0u64, 0u64);
    for bi in 0..batch_count {
        let a_base = offsets_a[bi];
        let b_base = offsets_b[bi];
        let out_block = &mut out[bi * m * n..(bi + 1) * m * n];
        let zeros = da[a_base..a_base + m * k]
            .iter()
            .filter(|v| **v == 0.0)
            .count();
        if (zeros as f64) >= SPARSE_ZERO_FRACTION * (m * k) as f64 {
            sparse_batches += 1;
            sparse_block(be, da, a_base, db, b_base, out_block, m, k, n);
        } else {
            dense_batches += 1;
            let slot = *slots.entry(b_base).or_insert_with(|| {
                packs += 1;
                pack_transposed(db, b_base, k, n, &mut packed)
            });
            dense_block(
                be,
                da,
                a_base,
                &packed[slot..slot + n * k],
                out_block,
                m,
                k,
                n,
            );
        }
    }
    obs::counter("nn/matmul_sparse_batches", sparse_batches);
    obs::counter("nn/matmul_dense_batches", dense_batches);
    obs::counter("nn/matmul_packs", packs);
    pool::recycle(packed);
    out
}

/// First-order gradients of one `[m, k] · [k, n]` block, accumulated
/// (`+=`) into `ga` (`[m, k]`) and `gb` (`[k, n]`).
///
/// `dL/dA[i, kk] = dot_j(g[i, ·], B[kk, ·])` — both rows contiguous in the
/// original layouts, so no transpose is ever materialized: B's `k` rows of
/// length `n` already form a `dot_block` panel for the gradient row.
/// `dL/dB` uses the axpy form with zero-skip on A (zero attention weights
/// contribute no gradient term). The graph's backward and the compiled
/// training step both run this kernel, so they share its bits.
#[allow(clippy::too_many_arguments)] // raw kernel: slices + block geometry
pub(crate) fn matmul_backward_block(
    be: ActiveBackend,
    dg: &[Elem],
    da: &[Elem],
    db: &[Elem],
    m: usize,
    k: usize,
    n: usize,
    ga: Option<&mut [Elem]>,
    gb: Option<&mut [Elem]>,
) {
    if let Some(ga) = ga {
        let b_panel = &db[..k * n];
        for i in 0..m {
            let g_row = &dg[i * n..(i + 1) * n];
            be.dot_block_acc(g_row, b_panel, n, &mut ga[i * k..(i + 1) * k]);
        }
    }
    if let Some(gb) = gb {
        for i in 0..m {
            let g_row = &dg[i * n..(i + 1) * n];
            for kk in 0..k {
                let a_ik = da[i * k + kk];
                if a_ik == 0.0 {
                    continue;
                }
                be.axpy(a_ik, g_row, &mut gb[kk * n..(kk + 1) * n]);
            }
        }
    }
}

/// Raw first-order gradients for both operands, with the broadcast batch
/// reduction folded into the accumulation (replacing `sum_to`): each
/// batch runs [`matmul_backward_block`] into its parents' blocks, in
/// ascending order, so broadcast parents see the same summation order as
/// the serial tensor-op path.
#[allow(clippy::too_many_arguments)] // raw kernel: slices + block geometry
fn matmul_backward_raw(
    dg: &[Elem],
    da: &[Elem],
    db: &[Elem],
    offsets_a: &[usize],
    offsets_b: &[usize],
    m: usize,
    k: usize,
    n: usize,
    want_ga: bool,
    want_gb: bool,
) -> (Option<Buf>, Option<Buf>) {
    let be = backend::active();
    let mut ga = want_ga.then(|| pool::take_zeroed(da.len()));
    let mut gb = want_gb.then(|| pool::take_zeroed(db.len()));
    for bi in 0..offsets_a.len() {
        let (a_block, b_block) = (
            offsets_a[bi]..offsets_a[bi] + m * k,
            offsets_b[bi]..offsets_b[bi] + k * n,
        );
        matmul_backward_block(
            be,
            &dg[bi * m * n..(bi + 1) * m * n],
            &da[a_block.clone()],
            &db[b_block.clone()],
            m,
            k,
            n,
            ga.as_mut().map(|ga| &mut ga[a_block]),
            gb.as_mut().map(|gb| &mut gb[b_block]),
        );
    }
    (ga, gb)
}

/// Forward kernel for `A · Bᵀ` over equal batch layouts: both operands
/// store the contraction axis contiguously, so every output element is one
/// dot product of two rows — no packing, no transpose.
///
/// Per-batch path choice mirrors [`matmul_forward`]: an A block at or above
/// [`SPARSE_ZERO_FRACTION`] zeros takes the zero-skipping dot. Either way
/// each output element sums its `a[i, kk] * b[j, kk]` terms in ascending
/// `kk` order — the same per-element sequence the packed dense kernel and
/// the sparse axpy kernel produce — so the bits match the composite
/// `a.matmul(&b.transpose_last2())` exactly.
fn matmul_nt_forward(
    da: &[Elem],
    db: &[Elem],
    batch_count: usize,
    m: usize,
    k: usize,
    n: usize,
) -> Buf {
    let be = backend::active();
    let mut out = pool::take_zeroed(batch_count * m * n);
    let (mut sparse_batches, mut dense_batches) = (0u64, 0u64);
    for bi in 0..batch_count {
        let a_block = &da[bi * m * k..(bi + 1) * m * k];
        let b_block = &db[bi * n * k..(bi + 1) * n * k];
        let out_block = &mut out[bi * m * n..(bi + 1) * m * n];
        let zeros = a_block.iter().filter(|v| **v == 0.0).count();
        let sparse = (zeros as f64) >= SPARSE_ZERO_FRACTION * (m * k) as f64;
        if sparse {
            sparse_batches += 1;
        } else {
            dense_batches += 1;
        }
        for i in 0..m {
            let a_row = &a_block[i * k..(i + 1) * k];
            let o_row = &mut out_block[i * n..(i + 1) * n];
            if sparse {
                // Zero-skipping dot: same ascending-k accumulation the
                // sparse axpy kernel produces per output element.
                for (j, o) in o_row.iter_mut().enumerate() {
                    let b_row = &b_block[j * k..(j + 1) * k];
                    let mut s = 0.0;
                    for (&av, &bv) in a_row.iter().zip(b_row) {
                        if av == 0.0 {
                            continue;
                        }
                        s += av * bv;
                    }
                    *o = s;
                }
            } else {
                // B's rows already store the contraction axis contiguously:
                // the block *is* a packed panel.
                be.dot_block(a_row, b_block, k, o_row);
            }
        }
    }
    obs::counter("nn/matmul_sparse_batches", sparse_batches);
    obs::counter("nn/matmul_dense_batches", dense_batches);
    out
}

/// First-order gradients of one `[m, k] · [n, k]ᵀ` block, accumulated
/// (`+=`) into `ga` (`[m, k]`) and `gb` (`[n, k]`). Mirrors the composite
/// chain's bits: `dL/dA[i, kk] = dot_j(g[i, ·], Bᵀ[kk, ·])` — B's
/// contraction rows are transposed into `panel` (`k × n` scratch) so the
/// dot runs contiguously (products `g[i, j] * b[j, kk]` in ascending `j`,
/// exactly the strided order) — and `dL/dB` is the axpy form with the same
/// zero-skip on A, summed over `i` in ascending order — the order the
/// transpose node would have forwarded unchanged.
#[allow(clippy::too_many_arguments)] // raw kernel: slices + block geometry
pub(crate) fn matmul_nt_backward_block(
    be: ActiveBackend,
    dg: &[Elem],
    da: &[Elem],
    db: &[Elem],
    m: usize,
    k: usize,
    n: usize,
    ga: Option<&mut [Elem]>,
    gb: Option<&mut [Elem]>,
    panel: &mut [Elem],
) {
    if let Some(ga) = ga {
        let panel = &mut panel[..k * n];
        for j in 0..n {
            for kk in 0..k {
                panel[kk * n + j] = db[j * k + kk];
            }
        }
        for i in 0..m {
            let g_row = &dg[i * n..(i + 1) * n];
            be.dot_block_acc(g_row, panel, n, &mut ga[i * k..(i + 1) * k]);
        }
    }
    if let Some(gb) = gb {
        for i in 0..m {
            let g_row = &dg[i * n..(i + 1) * n];
            let a_row = &da[i * k..(i + 1) * k];
            for (j, &gv) in g_row.iter().enumerate() {
                let gb_row = &mut gb[j * k..(j + 1) * k];
                for (&av, o) in a_row.iter().zip(gb_row.iter_mut()) {
                    if av == 0.0 {
                        continue;
                    }
                    *o += av * gv;
                }
            }
        }
    }
}

/// Raw first-order gradients for `A · Bᵀ` over equal batch layouts: one
/// [`matmul_nt_backward_block`] per batch.
#[allow(clippy::too_many_arguments)] // raw kernel: slices + block geometry
fn matmul_nt_backward_raw(
    dg: &[Elem],
    da: &[Elem],
    db: &[Elem],
    batch_count: usize,
    m: usize,
    k: usize,
    n: usize,
    want_ga: bool,
    want_gb: bool,
) -> (Option<Buf>, Option<Buf>) {
    let be = backend::active();
    let mut ga = want_ga.then(|| pool::take_zeroed(da.len()));
    let mut gb = want_gb.then(|| pool::take_zeroed(db.len()));
    let mut panel = pool::take_zeroed(if want_ga { k * n } else { 0 });
    for bi in 0..batch_count {
        let (a_block, b_block) = (bi * m * k..(bi + 1) * m * k, bi * n * k..(bi + 1) * n * k);
        matmul_nt_backward_block(
            be,
            &dg[bi * m * n..(bi + 1) * m * n],
            &da[a_block.clone()],
            &db[b_block.clone()],
            m,
            k,
            n,
            ga.as_mut().map(|ga| &mut ga[a_block]),
            gb.as_mut().map(|gb| &mut gb[b_block]),
            &mut panel,
        );
    }
    pool::recycle(panel);
    (ga, gb)
}

impl Tensor {
    /// Matrix product over the last two axes, broadcasting leading (batch)
    /// axes NumPy-style.
    ///
    /// For operands of shape `[.., m, k]` and `[.., k, n]`, the result has
    /// shape `[broadcast(..), m, n]`. A plain 2-D weight matrix therefore
    /// applies to every batch of a higher-rank input.
    ///
    /// # Panics
    ///
    /// Panics if either operand has fewer than two dimensions, if the inner
    /// dimensions disagree, or if the batch dimensions cannot broadcast.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert!(
            self.ndim() >= 2 && other.ndim() >= 2,
            "matmul requires rank >= 2 operands (got {:?} and {:?})",
            self.shape(),
            other.shape()
        );
        let (m, ka) = (self.shape()[self.ndim() - 2], self.shape()[self.ndim() - 1]);
        let (kb, n) = (
            other.shape()[other.ndim() - 2],
            other.shape()[other.ndim() - 1],
        );
        assert_eq!(
            ka,
            kb,
            "matmul inner dimensions disagree: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        let batch_a = &self.shape()[..self.ndim() - 2];
        let batch_b = &other.shape()[..other.ndim() - 2];
        let batch = broadcast_shapes(batch_a, batch_b).unwrap_or_else(|| {
            panic!(
                "matmul batch dimensions do not broadcast: {:?} x {:?}",
                self.shape(),
                other.shape()
            )
        });
        let batch_count = numel(&batch);

        // Offsets of each batch's matrix within the (possibly broadcast)
        // operand buffers.
        let offsets_a: Vec<usize> = if batch_a.is_empty() {
            vec![0; batch_count]
        } else {
            let strides = broadcast_strides(batch_a, &batch);
            OffsetWalker::new(&batch, strides)
                .map(|o| o * (m * ka))
                .collect()
        };
        let offsets_b: Vec<usize> = if batch_b.is_empty() {
            vec![0; batch_count]
        } else {
            let strides = broadcast_strides(batch_b, &batch);
            OffsetWalker::new(&batch, strides)
                .map(|o| o * (kb * n))
                .collect()
        };

        obs::counter("nn/matmul_calls", 1);
        obs::counter("nn/matmul_flops", (2 * batch_count * m * ka * n) as u64);

        let da = self.data();
        let db = other.data();
        let out = matmul_forward(&da, &db, &offsets_a, &offsets_b, m, ka, n);
        drop(da);
        drop(db);

        let mut out_shape = batch;
        out_shape.push(m);
        out_shape.push(n);
        let backward: BackwardFn = Rc::new(move |g, ps, _out| {
            let a = &ps[0];
            let b = &ps[1];
            if autograd::is_grad_enabled() {
                // Double-backward (create_graph): stay on tensor ops so
                // the gradients remain differentiable.
                // dL/dA = g · Bᵀ, reduced back over broadcast batch dims.
                let ga = g.matmul(&b.transpose_last2()).sum_to(a.shape());
                // dL/dB = Aᵀ · g, reduced back over broadcast batch dims.
                let gb = a.transpose_last2().matmul(g).sum_to(b.shape());
                return vec![Some(ga), Some(gb)];
            }
            let (ga, gb) = matmul_backward_raw(
                &g.data(),
                &a.data(),
                &b.data(),
                &offsets_a,
                &offsets_b,
                m,
                ka,
                n,
                a.requires_grad(),
                b.requires_grad(),
            );
            vec![
                ga.map(|v| Tensor::from_buf(v, a.shape())),
                gb.map(|v| Tensor::from_buf(v, b.shape())),
            ]
        });
        Tensor::from_op(out, out_shape, vec![self.clone(), other.clone()], backward)
    }

    /// `self · otherᵀ` over the last two axes: `[.., m, k] x [.., n, k]`
    /// -> `[.., m, n]`, without materializing the transpose.
    ///
    /// For operands with identical batch dimensions (attention's
    /// `Q · Kᵀ`), this runs as a single fused graph node whose kernel dots
    /// contiguous rows of both operands — no transposed copy, no B-panel
    /// packing — and whose first-order backward accumulates both parent
    /// gradients directly. Results are bit-identical to the composite
    /// `self.matmul(&other.transpose_last2())`, which is also the fallback
    /// when fusion is disabled, the batch layouts differ, or the backward
    /// itself needs a graph (double backward).
    ///
    /// # Panics
    ///
    /// Panics as [`Tensor::matmul`] does on rank/shape mismatches.
    pub fn matmul_nt(&self, other: &Tensor) -> Tensor {
        if !fused::is_enabled()
            || self.ndim() != other.ndim()
            || self.shape()[..self.ndim() - 2] != other.shape()[..other.ndim() - 2]
        {
            return self.matmul(&other.transpose_last2());
        }
        let nd = self.ndim();
        let (m, ka) = (self.shape()[nd - 2], self.shape()[nd - 1]);
        let (n, kb) = (other.shape()[nd - 2], other.shape()[nd - 1]);
        assert_eq!(
            ka,
            kb,
            "matmul_nt contraction dimensions disagree: {:?} x {:?}ᵀ",
            self.shape(),
            other.shape()
        );
        let batch = &self.shape()[..nd - 2];
        let batch_count = numel(batch);

        obs::counter("nn/matmul_calls", 1);
        obs::counter("nn/matmul_flops", (2 * batch_count * m * ka * n) as u64);
        obs::counter("nn/fused_calls", 1);

        let out = matmul_nt_forward(&self.data(), &other.data(), batch_count, m, ka, n);
        let mut out_shape = batch.to_vec();
        out_shape.push(m);
        out_shape.push(n);
        let backward: BackwardFn = Rc::new(move |g, ps, _out| {
            let a = &ps[0];
            let b = &ps[1];
            if autograd::is_grad_enabled() {
                // Double-backward: stay on tensor ops. dL/dA = g · B,
                // dL/dB = gᵀ · A (batch dims are equal, so no reduction).
                let ga = g.matmul(b);
                let gb = g.transpose_last2().matmul(a);
                return vec![Some(ga), Some(gb)];
            }
            let (ga, gb) = matmul_nt_backward_raw(
                &g.data(),
                &a.data(),
                &b.data(),
                batch_count,
                m,
                ka,
                n,
                a.requires_grad(),
                b.requires_grad(),
            );
            vec![
                ga.map(|v| Tensor::from_buf(v, a.shape())),
                gb.map(|v| Tensor::from_buf(v, b.shape())),
            ]
        });
        Tensor::from_op(out, out_shape, vec![self.clone(), other.clone()], backward)
    }

    /// Swaps the last two axes (`transpose(ndim-2, ndim-1)`).
    ///
    /// # Panics
    ///
    /// Panics if the tensor has fewer than two dimensions.
    pub fn transpose_last2(&self) -> Tensor {
        assert!(self.ndim() >= 2, "transpose_last2 requires rank >= 2");
        self.transpose(self.ndim() - 2, self.ndim() - 1)
    }
}

#[cfg(test)]
mod tests {
    use crate::autograd::grad;
    use crate::gradcheck::check_gradients;
    use crate::Tensor;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn matmul_2d() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.to_vec(), vec![58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_batched_equal_batches() {
        // Two independent 1x2 @ 2x1 products.
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 1, 2]);
        let b = Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2, 1]);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), &[2, 1, 1]);
        assert_eq!(c.to_vec(), vec![17.0, 53.0]);
    }

    #[test]
    fn matmul_broadcasts_2d_weight_over_batch() {
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 2.0, 2.0], &[3, 1, 2]);
        let w = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let y = x.matmul(&w);
        assert_eq!(y.shape(), &[3, 1, 2]);
        assert_eq!(y.to_vec(), vec![1.0, 2.0, 3.0, 4.0, 8.0, 12.0]);
    }

    #[test]
    fn matmul_gradients_2d() {
        let a = Tensor::param_from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let b = Tensor::param_from_vec(vec![5.0, 6.0, 7.0, 8.0], &[2, 2]);
        let loss = a.matmul(&b).sum_all();
        let g = grad(&loss, &[a, b], false);
        // dL/dA = ones @ B^T
        assert_eq!(g[0].to_vec(), vec![11.0, 15.0, 11.0, 15.0]);
        // dL/dB = A^T @ ones
        assert_eq!(g[1].to_vec(), vec![4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    fn matmul_gradient_reduces_broadcast_weight() {
        // Shared 2-D weight across a batch: the weight gradient must sum
        // over the batch.
        let x = Tensor::param_from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 1, 2]);
        let w = Tensor::param_from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        let loss = x.matmul(&w).sum_all();
        let g = grad(&loss, &[x.clone(), w.clone()], false);
        assert_eq!(g[0].shape(), &[2, 1, 2]);
        assert_eq!(g[1].shape(), &[2, 2]);
        // dL/dW = sum over batch of x^T @ ones = [[1+3],[2+4]] per column.
        assert_eq!(g[1].to_vec(), vec![4.0, 4.0, 6.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "inner dimensions disagree")]
    fn matmul_rejects_bad_inner_dims() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 2]);
        let _ = a.matmul(&b);
    }

    #[test]
    fn second_order_through_matmul() {
        // f(x) = (x @ x).sum() for 1x1 x is x^2; second derivative is 2.
        let x = Tensor::param_from_vec(vec![3.0], &[1, 1]);
        let y = x.matmul(&x).sum_all();
        let d1 = grad(&y, std::slice::from_ref(&x), true);
        assert!((d1[0].to_vec()[0] - 6.0).abs() < 1e-12);
        let d2 = grad(&d1[0].sum_all(), std::slice::from_ref(&x), false);
        assert!((d2[0].to_vec()[0] - 2.0).abs() < 1e-12);
    }

    /// Dense wide-enough shapes to exercise both the unrolled and tail
    /// columns of the packed microkernel.
    #[test]
    fn dense_kernel_matches_naive_reference() {
        let mut rng = StdRng::seed_from_u64(11);
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (4, 8, 4), (5, 3, 6), (2, 16, 9)] {
            let a: Vec<f64> = (0..m * k).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let b: Vec<f64> = (0..k * n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let out = Tensor::from_vec(a.clone(), &[m, k])
                .matmul(&Tensor::from_vec(b.clone(), &[k, n]))
                .to_vec();
            for i in 0..m {
                for j in 0..n {
                    let want: f64 = (0..k).map(|kk| a[i * k + kk] * b[kk * n + j]).sum();
                    assert!(
                        (out[i * n + j] - want).abs() < 1e-12,
                        "({m},{k},{n})[{i},{j}]: {} vs {want}",
                        out[i * n + j]
                    );
                }
            }
        }
    }

    /// Sparse (zero-heavy) A blocks take the axpy path; the result must be
    /// identical to the dense answer.
    #[test]
    fn sparse_path_matches_dense_answer() {
        let mut rng = StdRng::seed_from_u64(12);
        let (m, k, n) = (6, 8, 5);
        // ~60% zeros: safely above the sparse threshold.
        let a: Vec<f64> = (0..m * k)
            .map(|_| {
                if rng.gen_range(0.0..1.0) < 0.6 {
                    0.0
                } else {
                    rng.gen_range(-2.0..2.0)
                }
            })
            .collect();
        let b: Vec<f64> = (0..k * n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let out = Tensor::from_vec(a.clone(), &[m, k])
            .matmul(&Tensor::from_vec(b.clone(), &[k, n]))
            .to_vec();
        for i in 0..m {
            for j in 0..n {
                let want: f64 = (0..k).map(|kk| a[i * k + kk] * b[kk * n + j]).sum();
                assert!((out[i * n + j] - want).abs() < 1e-12);
            }
        }
    }

    /// Numerical gradient check of the fast (non-differentiable) backward
    /// over plain 2-D operands.
    #[test]
    fn gradcheck_matmul_2d() {
        let mut rng = StdRng::seed_from_u64(13);
        let a =
            Tensor::param_from_vec((0..12).map(|_| rng.gen_range(-1.0..1.0)).collect(), &[3, 4]);
        let b =
            Tensor::param_from_vec((0..20).map(|_| rng.gen_range(-1.0..1.0)).collect(), &[4, 5]);
        let reports = check_gradients(
            |t| t[0].matmul(&t[1]).mul(&t[0].matmul(&t[1])).sum_all(),
            &[a, b],
            1e-5,
        );
        assert!(reports[0].passes(1e-6), "{:?}", reports[0]);
        assert!(reports[1].passes(1e-6), "{:?}", reports[1]);
    }

    /// Gradient check across broadcast (non-contiguous) batch offsets: a
    /// batched LHS against a shared 2-D weight, and a 1-batch LHS
    /// broadcast against a batched RHS.
    #[test]
    fn gradcheck_matmul_broadcast_batches() {
        let mut rng = StdRng::seed_from_u64(14);
        // [2, 3, 2] @ [2, 4] — the weight gradient reduces over the batch.
        let x = Tensor::param_from_vec(
            (0..12).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            &[2, 3, 2],
        );
        let w = Tensor::param_from_vec((0..8).map(|_| rng.gen_range(-1.0..1.0)).collect(), &[2, 4]);
        let reports = check_gradients(|t| t[0].matmul(&t[1]).squared_norm(), &[x, w], 1e-5);
        assert!(reports[0].passes(1e-6), "{:?}", reports[0]);
        assert!(reports[1].passes(1e-6), "{:?}", reports[1]);

        // [1, 2, 3] @ [4, 3, 2] — the LHS gradient reduces over the batch.
        let a = Tensor::param_from_vec(
            (0..6).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            &[1, 2, 3],
        );
        let b = Tensor::param_from_vec(
            (0..24).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            &[4, 3, 2],
        );
        let reports = check_gradients(|t| t[0].matmul(&t[1]).squared_norm(), &[a, b], 1e-5);
        assert!(reports[0].passes(1e-6), "{:?}", reports[0]);
        assert!(reports[1].passes(1e-6), "{:?}", reports[1]);
    }

    /// Gradient check through a zero-heavy (sparse-path) operand.
    #[test]
    fn gradcheck_matmul_sparse_path() {
        let mut rng = StdRng::seed_from_u64(15);
        let a = Tensor::param_from_vec(
            (0..24)
                .map(|i| {
                    if i % 2 == 0 {
                        0.0
                    } else {
                        rng.gen_range(-1.0..1.0)
                    }
                })
                .collect(),
            &[4, 6],
        );
        let b =
            Tensor::param_from_vec((0..18).map(|_| rng.gen_range(-1.0..1.0)).collect(), &[6, 3]);
        let reports = check_gradients(|t| t[0].matmul(&t[1]).squared_norm(), &[a, b], 1e-5);
        assert!(reports[0].passes(1e-6), "{:?}", reports[0]);
        assert!(reports[1].passes(1e-6), "{:?}", reports[1]);
    }

    /// The fast backward and the tensor-op (double-backward) composition
    /// must agree to rounding on identical inputs.
    #[test]
    fn fast_and_differentiable_backwards_agree() {
        let mut rng = StdRng::seed_from_u64(16);
        let x = Tensor::param_from_vec(
            (0..30).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            &[2, 3, 5],
        );
        let w =
            Tensor::param_from_vec((0..20).map(|_| rng.gen_range(-1.0..1.0)).collect(), &[5, 4]);
        let loss = x.matmul(&w).sum_all();
        let fast = grad(&loss, &[x.clone(), w.clone()], false);
        let slow = grad(&loss, &[x.clone(), w.clone()], true);
        for (f, s) in fast.iter().zip(&slow) {
            for (fv, sv) in f.to_vec().iter().zip(s.to_vec()) {
                assert!((fv - sv).abs() < 1e-12, "{fv} vs {sv}");
            }
        }
    }
}
