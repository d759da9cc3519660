//! Block kernels: whole attention blocks and weight gradients with a
//! tile of output columns in vector registers.
//!
//! A compiled plan or step used to run attention one query row at a
//! time, one `dot_block` call per row, and each output paid its own
//! horizontal combine tree; the linear weight gradient made one `axpy`
//! call per (row, input feature). The kernels here take a whole
//! `(batch, head)` block, or a whole weight, per call and keep
//! [`TILE`] output columns per register. They replay the per-element
//! operations of the kernels they replace, bit for bit:
//!
//! * **Block products** (`a · b`, `a · bᵀ`): output `(r, t)` reduces
//!   `a[r, c]·b(c, t)` over the contraction `c` in the backend's
//!   order. The sequential order is one accumulator from `0.0`, `c`
//!   ascending: the scalar backend, and every contraction of at most
//!   [`SEQ_EQUIV_MAX`] elements. The 8-lane order is the SIMD `dot`'s:
//!   term `c` feeds lane `c % 8` (so full chunks go in ascending order
//!   and the tail lands in the low lanes), each lane starts from `0.0`,
//!   and the fixed tree `((l0+l1)+(l2+l3))+((l4+l5)+(l6+l7))` finishes
//!   the output. Here a lane is a vector over the tile's columns, so
//!   the tree runs vertically, once per tile instead of once per
//!   output. A sparse block (the matmul kernels' data-dependent
//!   [`SPARSE_ZERO_FRACTION`] test) runs the sequential order and
//!   skips zero `a` terms, as the sparse matmul paths do.
//! * **Row accumulations** (the weight side of a matmul backward): `out[r,
//!   t] += x[i, ·]·y[i, ·]` over rows `i` ascending, a zero factor
//!   skipped — the per-element sequence of one `axpy` per (row, input
//!   feature). Independent accumulators, so the bits are the same on
//!   every backend; the tile stays in registers across the whole row
//!   loop.
//!
//! The bodies are `#[inline(always)]`: `backend.rs` instantiates them
//! per backend (the sequential order for the scalar backend, the 8-lane
//! order for the SIMD backend, built portable and under AVX2), and no
//! kernel allocates — the transposed operand of an `a · bᵀ` product is
//! staged tile by tile in a fixed stack panel.

use super::backend::{SEQ_EQUIV_MAX, SIMD_LANES as W};
use super::matmul::SPARSE_ZERO_FRACTION;
use crate::Elem;

/// Output columns of a block product's register tile: four `f64`, one
/// AVX2 register per lane.
const TILE: usize = 4;

/// Output columns of a row accumulation's register tile: two AVX2
/// registers per output row.
const WIDE: usize = 8;

/// Rows of the stack panel that stages a tile of a transposed operand.
/// A longer contraction reads the operand in place instead (correct,
/// slower; no geometry in the repository comes close).
const PANEL_ROWS: usize = 32;

/// Output rows of a row accumulation kept in registers at once, sharing
/// each load of the other operand's row.
const ROW_BLOCK: usize = 4;

type Lane = [Elem; TILE];

/// One `(batch, head)` attention block: `seq` tokens of `dk` features,
/// each token's row `stride` elements after the previous one (the
/// projection width `d_model` when heads are read in place).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttnGeom {
    /// Tokens per block.
    pub seq: usize,
    /// Features per head.
    pub dk: usize,
    /// Elements between consecutive token rows of `q`, `k`, `v` and of
    /// the merged context and its gradients.
    pub stride: usize,
}

impl AttnGeom {
    /// Row `i`'s `dk` features.
    #[inline(always)]
    fn row(self, x: &[Elem], i: usize) -> &[Elem] {
        &x[i * self.stride..i * self.stride + self.dk]
    }
}

/// The matmul kernels' sparse test, `zeros as f64 >= SPARSE_ZERO_FRACTION
/// · len`, over `len` elements arriving in `pieces`: the same verdict as
/// the full count, with two early exits (enough zeros seen, or enough
/// nonzeros that the threshold is out of reach).
fn sparse_scan<'a>(len: usize, pieces: impl Iterator<Item = &'a [Elem]>) -> bool {
    // Smallest integer count satisfying the kernel's f64 comparison.
    let need = (SPARSE_ZERO_FRACTION * len as f64).ceil() as usize;
    if need == 0 {
        return true;
    }
    let budget = len - need; // nonzeros that rule sparse out
    let (mut zeros, mut nonzeros) = (0usize, 0usize);
    for piece in pieces {
        let z = piece.iter().filter(|v| **v == 0.0).count();
        zeros += z;
        nonzeros += piece.len() - z;
        if zeros >= need {
            return true;
        }
        if nonzeros > budget {
            return false;
        }
    }
    zeros >= need
}

/// Whether the matmul kernels take their zero-skipping path for an
/// operand block `xs` (scanned in chunks, exiting early).
pub(crate) fn is_sparse(xs: &[Elem]) -> bool {
    sparse_scan(xs.len(), xs.chunks(512))
}

/// [`is_sparse`] over `rows` rows of `cols` elements, `stride` apart.
fn is_sparse_rows(xs: &[Elem], rows: usize, cols: usize, stride: usize) -> bool {
    sparse_scan(
        rows * cols,
        (0..rows).map(|r| &xs[r * stride..r * stride + cols]),
    )
}

/// `T` elements of `src` from `at`: a full tile.
#[inline(always)]
fn full<const T: usize>(src: &[Elem], at: usize) -> [Elem; T] {
    *<&[Elem; T]>::try_from(&src[at..at + T]).unwrap()
}

/// The first `width < T` elements of a tile from `src[at ..]`, the rest
/// zero. A partial tile's padding columns are computed and never stored.
#[inline(always)]
fn partial<const T: usize>(src: &[Elem], at: usize, width: usize) -> [Elem; T] {
    let mut x = [0.0; T];
    x[..width].copy_from_slice(&src[at..at + width]);
    x
}

/// Writes the first `dst.len()` columns of a tile through `f(old, new)`.
#[inline(always)]
fn store<const T: usize>(dst: &mut [Elem], tile: [Elem; T], f: impl Fn(Elem, Elem) -> Elem) {
    for (o, &v) in dst.iter_mut().zip(&tile) {
        *o = f(*o, v);
    }
}

#[inline(always)]
fn add(x: Lane, y: Lane) -> Lane {
    let mut o = [0.0; TILE];
    for t in 0..TILE {
        o[t] = x[t] + y[t];
    }
    o
}

/// One output tile of a block product, `Σ_c a[c]·b(c)`: sequential when
/// `LANES` is off or the contraction is at most [`SEQ_EQUIV_MAX`] long,
/// else in the SIMD `dot`'s 8 lanes and combine tree; `skip` drops zero
/// `a[c]` terms from a sequential sum (the sparse matmul paths).
#[inline(always)]
fn dot_tile<const LANES: bool>(a: &[Elem], skip: bool, b: impl Fn(usize) -> Lane) -> Lane {
    if skip || !LANES || a.len() <= SEQ_EQUIV_MAX {
        let mut acc = [0.0; TILE];
        for (c, &av) in a.iter().enumerate() {
            if skip && av == 0.0 {
                continue;
            }
            let bv = b(c);
            for t in 0..TILE {
                acc[t] += av * bv[t];
            }
        }
        return acc;
    }
    // Lane `l` sums the terms `c ≡ l (mod 8)` in ascending order.
    let lane = |l: usize| {
        let mut acc = [0.0; TILE];
        for (c, &av) in a.iter().enumerate().skip(l).step_by(W) {
            let bv = b(c);
            for t in 0..TILE {
                acc[t] += av * bv[t];
            }
        }
        acc
    };
    let low = add(add(lane(0), lane(1)), add(lane(2), lane(3)));
    let high = add(add(lane(4), lane(5)), add(lane(6), lane(7)));
    add(low, high)
}

/// `a · bᵀ` over one block: for every row `i` of `a` (`a_row(i)`, the
/// contraction) and tile of rows of `b` (`b`'s rows `j` hold the same
/// contraction at `b[j·stride ..]`), calls `emit(i, j0, tile)` with the
/// tile's products for output columns `j0 ..`. Each tile of `b` is
/// transposed once into a stack panel and read by every row of `a`.
#[inline(always)]
fn nt_block<'a, const LANES: bool>(
    a_row: impl Fn(usize) -> &'a [Elem],
    rows: usize,
    b: &[Elem],
    (cols, k, stride): (usize, usize, usize),
    skip: bool,
    mut emit: impl FnMut(usize, usize, Lane),
) {
    let mut panel = [[0.0; TILE]; PANEL_ROWS];
    for j0 in (0..cols).step_by(TILE) {
        let width = TILE.min(cols - j0);
        if k <= PANEL_ROWS {
            for (c, p) in panel[..k].iter_mut().enumerate() {
                for (t, slot) in p.iter_mut().enumerate() {
                    *slot = if t < width {
                        b[(j0 + t) * stride + c]
                    } else {
                        0.0
                    };
                }
            }
            for i in 0..rows {
                emit(i, j0, dot_tile::<LANES>(a_row(i), skip, |c| panel[c]));
            }
        } else {
            let gather = |c: usize| {
                let mut x = [0.0; TILE];
                for (t, slot) in x[..width].iter_mut().enumerate() {
                    *slot = b[(j0 + t) * stride + c];
                }
                x
            };
            for i in 0..rows {
                emit(i, j0, dot_tile::<LANES>(a_row(i), skip, gather));
            }
        }
    }
}

/// `a · b` over one block: for every row `i` of `a` and tile of `b`'s
/// `cols` columns (row `c` of `b` at `b[c·stride ..]`), calls `emit(i,
/// j0, tile)`.
#[inline(always)]
fn nn_block<'a, const LANES: bool>(
    a_row: impl Fn(usize) -> &'a [Elem],
    rows: usize,
    b: &[Elem],
    (cols, stride): (usize, usize),
    skip: bool,
    mut emit: impl FnMut(usize, usize, Lane),
) {
    for j0 in (0..cols).step_by(TILE) {
        let width = TILE.min(cols - j0);
        for i in 0..rows {
            let tile = if width == TILE {
                dot_tile::<LANES>(a_row(i), skip, |c| full(b, c * stride + j0))
            } else {
                dot_tile::<LANES>(a_row(i), skip, |c| partial(b, c * stride + j0, width))
            };
            emit(i, j0, tile);
        }
    }
}

/// Attention scores of one block: `out[i, j] = dot(q_i, k_j) · scale`,
/// then `+ mask[i, j]` when a mask is given — the `q · kᵀ` matmul (its
/// per-block sparse/dense choice on `q`), then the scale and the mask
/// add, one rounding each. `out` is the `[seq, seq]` block.
#[inline(always)]
pub(super) fn attn_scores<const LANES: bool>(
    q: &[Elem],
    k: &[Elem],
    g: AttnGeom,
    scale: Elem,
    mask: Option<&[Elem]>,
    out: &mut [Elem],
) {
    let s = g.seq;
    let sparse = is_sparse_rows(q, s, g.dk, g.stride);
    nt_block::<LANES>(
        |i| g.row(q, i),
        s,
        k,
        (s, g.dk, g.stride),
        sparse,
        |i, j0, tile| {
            let end = s.min(j0 + TILE);
            let o = &mut out[i * s + j0..i * s + end];
            match mask {
                Some(m) => {
                    let m = &m[i * s + j0..i * s + end];
                    for ((o, &v), &mv) in o.iter_mut().zip(&tile).zip(m) {
                        *o = v * scale + mv;
                    }
                }
                None => store(o, tile, |_, v| v * scale),
            }
        },
    );
}

/// Attention context of one block: `out_i = Σ_c p[i, c] · v_c`, the
/// `probs · v` matmul with its per-block sparse/dense choice on the
/// `[seq, seq]` probabilities `p`. Writes `seq` rows of `dk` at
/// `out[i·stride ..]` — the merged layout.
#[inline(always)]
pub(super) fn attn_context<const LANES: bool>(
    p: &[Elem],
    v: &[Elem],
    g: AttnGeom,
    out: &mut [Elem],
) {
    let s = g.seq;
    let sparse = is_sparse_rows(p, s, s, s);
    nn_block::<LANES>(
        |i| &p[i * s..(i + 1) * s],
        s,
        v,
        (g.dk, g.stride),
        sparse,
        |i, j0, tile| {
            let at = i * g.stride + j0;
            store(&mut out[at..at + TILE.min(g.dk - j0)], tile, |_, v| v);
        },
    );
}

/// First-order gradients of [`attn_scores`]'s product from `gs`, the
/// `[seq, seq]` gradient of the products (the scale already applied),
/// accumulated into `gq` and `gk` (merged layout): `gq_i += Σ_j gs[i,
/// j]·k_j` in the backend's order, and `gk[j, c] += q[i, c]·gs[i, j]`
/// over `i` ascending with zero `q[i, c]` skipped — the `matmul_nt`
/// backward's terms.
#[inline(always)]
pub(super) fn attn_scores_backward<const LANES: bool>(
    gs: &[Elem],
    q: &[Elem],
    k: &[Elem],
    g: AttnGeom,
    gq: &mut [Elem],
    gk: &mut [Elem],
) {
    let s = g.seq;
    nn_block::<LANES>(
        |i| &gs[i * s..(i + 1) * s],
        s,
        k,
        (g.dk, g.stride),
        false,
        |i, j0, tile| {
            let at = i * g.stride + j0;
            store(&mut gq[at..at + TILE.min(g.dk - j0)], tile, |o, v| o + v);
        },
    );
    // The zero test is per element of the `q` tile.
    accumulate_rows(
        (s, s, g.dk),
        (gk, g.stride),
        (q, g.stride),
        (gs, s),
        |acc: &mut [Elem; WIDE], qv: &[Elem; WIDE], gv: Elem| {
            for t in 0..WIDE {
                if qv[t] != 0.0 {
                    acc[t] += qv[t] * gv;
                }
            }
        },
    );
}

/// First-order gradients of [`attn_context`] from `gc`, the context's
/// gradient (merged layout): `gp[i, c] += dot(gc_i, v_c)` in the
/// backend's order into the `[seq, seq]` block `gp`, and `gv_c +=
/// p[i, c]·gc_i` over `i` ascending with zero `p[i, c]` skipped — the
/// matmul backward's terms.
#[inline(always)]
pub(super) fn attn_context_backward<const LANES: bool>(
    gc: &[Elem],
    p: &[Elem],
    v: &[Elem],
    g: AttnGeom,
    gp: &mut [Elem],
    gv: &mut [Elem],
) {
    let s = g.seq;
    nt_block::<LANES>(
        |i| g.row(gc, i),
        s,
        v,
        (s, g.dk, g.stride),
        false,
        |i, j0, tile| {
            let end = s.min(j0 + TILE);
            store(&mut gp[i * s + j0..i * s + end], tile, |o, v| o + v);
        },
    );
    weight_grad((p, s), (gc, g.stride), (s, s, g.dk), (gv, g.stride));
}

/// The weight side of a `[m, k] · [k, n]` backward: `gb[kk, j] += a[i,
/// kk]·g[i, j]` over rows `i` ascending, a zero `a[i, kk]` skipped —
/// one `axpy` per (row, input feature), with the `gb` tile in registers
/// across the row loop. Each operand is `(data, row stride)`.
#[inline(always)]
pub(super) fn weight_grad(
    a: (&[Elem], usize),
    g: (&[Elem], usize),
    (m, k, n): (usize, usize, usize),
    gb: (&mut [Elem], usize),
) {
    accumulate_rows(
        (m, k, n),
        gb,
        g,
        a,
        |acc: &mut [Elem; WIDE], gv: &[Elem; WIDE], av: Elem| {
            if av != 0.0 {
                for t in 0..WIDE {
                    acc[t] += av * gv[t];
                }
            }
        },
    );
}

/// `term(&mut out[r, c..], x[i, c..], y[i, r])` over rows `i < rows`
/// ascending, for every row `r < out_rows` and column `c < cols` of
/// `out`, [`WIDE`] columns at a time; every operand is `(data, row
/// stride)`. Blocks of [`ROW_BLOCK`] output rows stay in registers
/// across the row loop, sharing each load of `x`'s row.
#[inline(always)]
fn accumulate_rows(
    (rows, out_rows, cols): (usize, usize, usize),
    (out, stride): (&mut [Elem], usize),
    x: (&[Elem], usize),
    y: (&[Elem], usize),
    term: impl Fn(&mut [Elem; WIDE], &[Elem; WIDE], Elem),
) {
    let full_rows = out_rows - out_rows % ROW_BLOCK;
    for c0 in (0..cols).step_by(WIDE) {
        let width = WIDE.min(cols - c0);
        for r0 in (0..full_rows).step_by(ROW_BLOCK) {
            accumulate_block::<ROW_BLOCK>((r0, c0, width), rows, (out, stride), x, y, &term);
        }
        for r0 in full_rows..out_rows {
            accumulate_block::<1>((r0, c0, width), rows, (out, stride), x, y, &term);
        }
    }
}

/// [`accumulate_rows`] for output rows `r0 .. r0 + R`, columns `c0 ..
/// c0 + width`.
#[inline(always)]
fn accumulate_block<const R: usize>(
    (r0, c0, width): (usize, usize, usize),
    rows: usize,
    (out, stride): (&mut [Elem], usize),
    (x, x_stride): (&[Elem], usize),
    (y, y_stride): (&[Elem], usize),
    term: &impl Fn(&mut [Elem; WIDE], &[Elem; WIDE], Elem),
) {
    let mut acc = [[0.0; WIDE]; R];
    for (rr, a) in acc.iter_mut().enumerate() {
        *a = partial_or_full(out, (r0 + rr) * stride + c0, width);
    }
    for i in 0..rows {
        let xv = partial_or_full(x, i * x_stride + c0, width);
        let ys: &[Elem; R] = y[i * y_stride + r0..i * y_stride + r0 + R]
            .try_into()
            .unwrap();
        for (a, &yv) in acc.iter_mut().zip(ys) {
            term(a, &xv, yv);
        }
    }
    for (rr, a) in acc.iter().enumerate() {
        let at = (r0 + rr) * stride + c0;
        store(&mut out[at..at + width], *a, |_, v| v);
    }
}

/// A [`WIDE`] tile of `src` from `at`, `width` columns of it real.
#[inline(always)]
fn partial_or_full(src: &[Elem], at: usize, width: usize) -> [Elem; WIDE] {
    if width == WIDE {
        full(src, at)
    } else {
        partial(src, at, width)
    }
}

#[cfg(test)]
mod tests {
    //! Each block kernel against a naive loop that spells out the
    //! per-element order it must replay, on every kernel set of the
    //! host, at odd sizes and on both sides of every branch (the
    //! `SEQ_EQUIV_MAX` short contractions, the stack panel and the
    //! in-place fallback, the sparse paths), over values with zeros,
    //! −0.0, ±∞, subnormals and NaN (compared as a class).

    use super::*;
    use crate::tensor::backend::{kernel_sets, Backend};

    /// Bits, every NaN one class (no kernel pins a NaN's payload).
    fn bits(xs: &[Elem]) -> Vec<u64> {
        xs.iter()
            .map(|v| if v.is_nan() { u64::MAX } else { v.to_bits() })
            .collect()
    }

    fn assert_same(got: &[Elem], want: &[Elem], ctx: &str) {
        let (g, w) = (bits(got), bits(want));
        for (i, (a, b)) in g.iter().zip(&w).enumerate() {
            assert_eq!(
                a, b,
                "{ctx}: element {i} is {:?}, the naive loop gives {:?}",
                got[i], want[i]
            );
        }
        assert_eq!(g.len(), w.len(), "{ctx}: length");
    }

    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }

        fn unit(&mut self) -> Elem {
            self.next() as Elem / (1u64 << 53) as Elem
        }

        /// A value of varied sign and magnitude; `zeros` of every draw
        /// is ±0.0 and, with `poison`, a few are ±∞, NaN or subnormal.
        fn value(&mut self, zeros: Elem, poison: bool) -> Elem {
            let u = self.unit();
            if u < zeros * 0.7 {
                return 0.0;
            }
            if u < zeros {
                return -0.0;
            }
            if poison {
                let p = self.unit();
                if p < 0.03 {
                    return Elem::INFINITY;
                }
                if p < 0.06 {
                    return Elem::NEG_INFINITY;
                }
                if p < 0.09 {
                    return Elem::NAN;
                }
                if p < 0.12 {
                    return Elem::from_bits(1 + self.next() % 1000)
                        * if p < 0.105 { 1.0 } else { -1.0 };
                }
            }
            let mag = [1e-3, 0.1, 1.0, 7.0, 1e3][(self.next() % 5) as usize];
            (self.unit() * 2.0 - 1.0) * mag
        }

        fn fill(&mut self, n: usize, zeros: Elem, poison: bool) -> Vec<Elem> {
            (0..n).map(|_| self.value(zeros, poison)).collect()
        }
    }

    /// The reduction a kernel set must replay for a dense contraction.
    fn naive_dot(lanes: bool, a: &[Elem], b: &[Elem]) -> Elem {
        if !lanes || a.len() <= SEQ_EQUIV_MAX {
            let mut s = 0.0;
            for (&x, &y) in a.iter().zip(b) {
                s += x * y;
            }
            return s;
        }
        let mut l = [0.0; W];
        for (c, (&x, &y)) in a.iter().zip(b).enumerate() {
            l[c % W] += x * y;
        }
        ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
    }

    /// The sparse matmul paths' sum: sequential, zero `a` skipped.
    fn naive_skip_dot(a: &[Elem], b: &[Elem]) -> Elem {
        let mut s = 0.0;
        for (&x, &y) in a.iter().zip(b) {
            if x == 0.0 {
                continue;
            }
            s += x * y;
        }
        s
    }

    /// The matmul kernels' sparse test by the full count.
    fn naive_sparse(xs: &[Elem]) -> bool {
        let zeros = xs.iter().filter(|v| **v == 0.0).count();
        (zeros as f64) >= SPARSE_ZERO_FRACTION * xs.len() as f64
    }

    /// A `[seq, heads·dk]` buffer whose head `head` is `block` (row-major
    /// `[seq, dk]`) and whose other heads hold `fill`.
    fn embed(block: &[Elem], g: AttnGeom, head: usize, fill: Elem) -> Vec<Elem> {
        let mut out = vec![fill; g.seq * g.stride];
        for i in 0..g.seq {
            let at = i * g.stride + head * g.dk;
            out[at..at + g.dk].copy_from_slice(&block[i * g.dk..(i + 1) * g.dk]);
        }
        out
    }

    /// `(seq, dk, heads)`: one token and one feature, contractions at and
    /// past `SEQ_EQUIV_MAX`, odd sizes with partial tiles, the default
    /// geometry, wide heads, a long sequence, and a head wider than the
    /// stack panel.
    const GEOMETRIES: [(usize, usize, usize); 10] = [
        (1, 1, 1),
        (3, 2, 2),
        (2, 3, 3),
        (5, 4, 1),
        (7, 5, 3),
        (21, 8, 4),
        (6, 16, 2),
        (37, 16, 2),
        (9, 33, 2),
        (4, 40, 1),
    ];

    /// Value regimes: `(zero fraction, poison)`. Below, near and above
    /// the sparse threshold, with and without poison (a zero factor
    /// against an infinite one is a term only a skip drops).
    const REGIMES: [(Elem, bool); 5] = [
        (0.0, false),
        (0.12, false),
        (0.45, false),
        (0.15, true),
        (0.45, true),
    ];

    fn cases(mut f: impl FnMut(&str, bool, &dyn Backend, AttnGeom, usize, &mut Lcg, (Elem, bool))) {
        for (name, lanes, be) in kernel_sets() {
            for (gi, &(seq, dk, heads)) in GEOMETRIES.iter().enumerate() {
                let g = AttnGeom {
                    seq,
                    dk,
                    stride: dk * heads,
                };
                for (ri, &regime) in REGIMES.iter().enumerate() {
                    let mut rng = Lcg(1 + 97 * gi as u64 + 13 * ri as u64);
                    let ctx = format!("{name} seq={seq} dk={dk} heads={heads} regime={regime:?}");
                    f(&ctx, lanes, be.as_ref(), g, heads - 1, &mut rng, regime);
                }
            }
        }
    }

    /// A first token of all −0.0 in `neg` and of positive features in
    /// `pos`: their products are all −0.0, so only the lanes' (and the
    /// sequential sum's) `0.0 +` start makes the output +0.0.
    fn negative_zero_products(pos: &mut [Elem], neg: &mut [Elem], dk: usize) {
        for v in &mut pos[..dk] {
            *v = v.abs() + 0.5;
        }
        neg[..dk].fill(-0.0);
    }

    #[test]
    fn attn_scores_replays_the_matmul_nt_order() {
        cases(|ctx, lanes, be, g, head, rng, (zeros, poison)| {
            let (s, dk) = (g.seq, g.dk);
            let mut qb = rng.fill(s * dk, zeros, poison);
            let mut kblk = rng.fill(s * dk, zeros, poison);
            negative_zero_products(&mut qb, &mut kblk, dk);
            let mask: Vec<Elem> = (0..s * s)
                .map(|i| {
                    if i % 3 == 0 {
                        -1e9
                    } else {
                        -0.25 * (i % 5) as Elem
                    }
                })
                .collect();
            let scale = 1.0 / (dk as Elem).sqrt();
            let (q, k) = (
                embed(&qb, g, head, Elem::NAN),
                embed(&kblk, g, head, Elem::NAN),
            );
            let at = head * dk;
            let sparse = naive_sparse(&qb);
            for m in [None, Some(&mask[..])] {
                let mut got = vec![7.0; s * s];
                be.attn_scores(&q[at..], &k[at..], g, scale, m, &mut got);
                let want: Vec<Elem> = (0..s * s)
                    .map(|o| {
                        let (i, j) = (o / s, o % s);
                        let (qr, kr) = (&qb[i * dk..(i + 1) * dk], &kblk[j * dk..(j + 1) * dk]);
                        let d = if sparse {
                            naive_skip_dot(qr, kr)
                        } else {
                            naive_dot(lanes, qr, kr)
                        };
                        match m {
                            Some(m) => d * scale + m[o],
                            None => d * scale,
                        }
                    })
                    .collect();
                assert_same(&got, &want, &format!("{ctx} masked={}", m.is_some()));
            }
        });
    }

    #[test]
    fn attn_context_replays_the_matmul_order() {
        cases(|ctx, lanes, be, g, head, rng, (zeros, poison)| {
            let (s, dk) = (g.seq, g.dk);
            // Probabilities are not negative: against a −0.0 value
            // column every product is −0.0.
            let p: Vec<Elem> = rng
                .fill(s * s, zeros, poison)
                .iter()
                .map(|v| v.abs())
                .collect();
            let mut vb = rng.fill(s * dk, zeros, poison);
            for c in 0..s {
                vb[c * dk] = -0.0;
            }
            let v = embed(&vb, g, head, Elem::NAN);
            let at = head * dk;
            let mut out = embed(&vec![3.0; s * dk], g, head, 12345.0);
            be.attn_context(&p, &v[at..], g, &mut out[at..]);
            let sparse = naive_sparse(&p);
            let mut want = vec![0.0; s * dk];
            for i in 0..s {
                for j in 0..dk {
                    let col: Vec<Elem> = (0..s).map(|c| vb[c * dk + j]).collect();
                    let pr = &p[i * s..(i + 1) * s];
                    want[i * dk + j] = if sparse {
                        naive_skip_dot(pr, &col)
                    } else {
                        naive_dot(lanes, pr, &col)
                    };
                }
            }
            assert_same(&out, &embed(&want, g, head, 12345.0), ctx);
        });
    }

    #[test]
    fn attn_scores_backward_replays_the_matmul_nt_backward() {
        cases(|ctx, lanes, be, g, head, rng, (zeros, poison)| {
            let (s, dk) = (g.seq, g.dk);
            let mut gs = rng.fill(s * s, zeros, poison);
            let qb = rng.fill(s * dk, zeros, poison);
            let mut kblk = rng.fill(s * dk, zeros, poison);
            // A positive gradient row against a −0.0 key column.
            for v in &mut gs[..s] {
                *v = v.abs() + 0.5;
            }
            for j in 0..s {
                kblk[j * dk] = -0.0;
            }
            let gq0 = rng.fill(s * dk, 0.3, false);
            let gk0 = rng.fill(s * dk, 0.3, false);
            let (q, k) = (
                embed(&qb, g, head, Elem::NAN),
                embed(&kblk, g, head, Elem::NAN),
            );
            let (mut gq, mut gk) = (embed(&gq0, g, head, 12345.0), embed(&gk0, g, head, 12345.0));
            let at = head * dk;
            be.attn_scores_backward(&gs, &q[at..], &k[at..], g, &mut gq[at..], &mut gk[at..]);
            let (mut wq, mut wk) = (gq0.clone(), gk0.clone());
            for i in 0..s {
                for c in 0..dk {
                    let col: Vec<Elem> = (0..s).map(|j| kblk[j * dk + c]).collect();
                    wq[i * dk + c] += naive_dot(lanes, &gs[i * s..(i + 1) * s], &col);
                }
            }
            for j in 0..s {
                for c in 0..dk {
                    for i in 0..s {
                        let qv = qb[i * dk + c];
                        if qv == 0.0 {
                            continue;
                        }
                        wk[j * dk + c] += qv * gs[i * s + j];
                    }
                }
            }
            assert_same(&gq, &embed(&wq, g, head, 12345.0), &format!("{ctx} dq"));
            assert_same(&gk, &embed(&wk, g, head, 12345.0), &format!("{ctx} dk"));
        });
    }

    #[test]
    fn attn_context_backward_replays_the_matmul_backward() {
        cases(|ctx, lanes, be, g, head, rng, (zeros, poison)| {
            let (s, dk) = (g.seq, g.dk);
            let mut gcb = rng.fill(s * dk, zeros, poison);
            let p = rng.fill(s * s, zeros.max(0.3), poison);
            let mut vb = rng.fill(s * dk, zeros, poison);
            negative_zero_products(&mut gcb, &mut vb, dk);
            let gp0 = rng.fill(s * s, 0.3, false);
            let gv0 = rng.fill(s * dk, 0.3, false);
            let (gc, v) = (
                embed(&gcb, g, head, Elem::NAN),
                embed(&vb, g, head, Elem::NAN),
            );
            let mut gp = gp0.clone();
            let mut gv = embed(&gv0, g, head, 12345.0);
            let at = head * dk;
            be.attn_context_backward(&gc[at..], &p, &v[at..], g, &mut gp, &mut gv[at..]);
            let (mut wp, mut wv) = (gp0.clone(), gv0.clone());
            for i in 0..s {
                for c in 0..s {
                    let (gr, vr) = (&gcb[i * dk..(i + 1) * dk], &vb[c * dk..(c + 1) * dk]);
                    wp[i * s + c] += naive_dot(lanes, gr, vr);
                }
            }
            for c in 0..s {
                for j in 0..dk {
                    for i in 0..s {
                        let pv = p[i * s + c];
                        if pv == 0.0 {
                            continue;
                        }
                        wv[c * dk + j] += pv * gcb[i * dk + j];
                    }
                }
            }
            assert_same(&gp, &wp, &format!("{ctx} dprobs"));
            assert_same(&gv, &embed(&wv, g, head, 12345.0), &format!("{ctx} dv"));
        });
    }

    #[test]
    fn weight_grad_replays_one_axpy_per_row_and_feature() {
        for (name, _, be) in kernel_sets() {
            for (ci, &(m, k, n)) in [
                (1, 1, 1),
                (3, 5, 7),
                (10, 4, 4),
                (13, 9, 3),
                (21, 32, 32),
                (45, 33, 17),
                (2, 6, 1),
            ]
            .iter()
            .enumerate()
            {
                for (ri, &(zeros, poison)) in REGIMES.iter().enumerate() {
                    let mut rng = Lcg(5 + 31 * ci as u64 + 7 * ri as u64);
                    let a = rng.fill(m * k, zeros.max(0.2), poison);
                    // Infinite output gradients behind zero activations:
                    // a term the skip must drop, or it turns NaN.
                    let mut gr = rng.fill(m * n, zeros, poison);
                    for i in 0..m {
                        if a[i * k] == 0.0 {
                            gr[i * n] = Elem::INFINITY;
                        }
                    }
                    let gb0 = rng.fill(k * n, 0.4, false);
                    let mut got = gb0.clone();
                    be.weight_grad(&a, &gr, (m, k, n), &mut got);
                    let mut want = gb0.clone();
                    for i in 0..m {
                        for kk in 0..k {
                            let av = a[i * k + kk];
                            if av == 0.0 {
                                continue;
                            }
                            for j in 0..n {
                                want[kk * n + j] += av * gr[i * n + j];
                            }
                        }
                    }
                    let ctx = format!("{name} m={m} k={k} n={n} regime={ri}");
                    assert_same(&got, &want, &ctx);
                }
            }
        }
    }

    #[test]
    fn sparse_scan_matches_the_full_count() {
        let mut rng = Lcg(9);
        for len in [0, 1, 3, 4, 5, 511, 512, 513, 1500] {
            for zeros in [0.0, 0.2, 0.25, 0.3, 1.0] {
                let xs = rng.fill(len, zeros, false);
                assert_eq!(is_sparse(&xs), naive_sparse(&xs), "len={len} zeros={zeros}");
                let g = AttnGeom {
                    seq: len / 3,
                    dk: 3,
                    stride: 3,
                };
                let rows = &xs[..g.seq * 3];
                assert_eq!(
                    is_sparse_rows(rows, g.seq, 3, 3),
                    naive_sparse(rows),
                    "rows of len={len} zeros={zeros}"
                );
            }
        }
    }
}
