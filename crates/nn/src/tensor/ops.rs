//! Primitive differentiable tensor operations.
//!
//! Every backward pass here is written with the same public operations, so
//! the gradients produced by [`crate::autograd::grad`] are themselves part of
//! the computation graph when `create_graph` is requested.

use std::rc::Rc;

use crate::tensor::backend;
use crate::tensor::math;
use crate::tensor::pool::{self, Buf};
use crate::tensor::shape::{
    broadcast_shapes, broadcast_strides, broadcastable_to, contiguous_strides, numel, OffsetWalker,
};
use crate::tensor::{BackwardFn, Tensor};
use crate::Elem;

/// `f64::powf` behind an inlining barrier.
///
/// With a literal exponent visible to LLVM, `x.powf(2.0)` is folded to
/// `x * x`, which rounds differently from the libm call (1 ulp on some
/// inputs). Generic powers go through this barrier so every call site
/// produces the same bits at every opt level.
#[inline(never)]
pub(crate) fn powf_libm(x: Elem, p: Elem) -> Elem {
    x.powf(p)
}

/// Elementwise power used by the `powf` op and the fused kernels' scalar
/// loops. Exponents 2 and 3 — the GELU hot path, where a libm `pow` call
/// is ~30x the cost of a multiply — are computed by explicit
/// multiplication; everything else stays a true libm call behind
/// [`powf_libm`]. The checks are on the *runtime* exponent, so the fused
/// and composite paths always agree bit-for-bit on which form they use.
#[inline]
pub(crate) fn pow_elem(x: Elem, p: Elem) -> Elem {
    if p == 2.0 {
        x * x
    } else if p == 3.0 {
        (x * x) * x
    } else {
        powf_libm(x, p)
    }
}

/// Splits a shape at `axis` into `(outer, dim, inner)` block sizes.
pub(crate) fn axis_blocks(shape: &[usize], axis: usize) -> (usize, usize, usize) {
    assert!(axis < shape.len(), "axis {axis} out of range for {shape:?}");
    let outer: usize = shape[..axis].iter().product();
    let dim = shape[axis];
    let inner: usize = shape[axis + 1..].iter().product();
    (outer, dim, inner)
}

fn unary(input: &Tensor, f: impl Fn(Elem) -> Elem, backward: BackwardFn) -> Tensor {
    let src = input.data();
    let mut data = pool::take(src.len());
    data.extend(src.iter().map(|&x| f(x)));
    drop(src);
    Tensor::from_op(data, input.shape().to_vec(), vec![input.clone()], backward)
}

/// Whether `small` is a trailing-suffix shape of `big` (every axis matches
/// the corresponding trailing axis of `big`), so broadcasting tiles it.
pub(crate) fn is_suffix_shape(small: &[usize], big: &[usize]) -> bool {
    small.len() <= big.len() && big[big.len() - small.len()..] == *small
}

/// Reduction fast paths for [`Tensor::sum_to`], routed through the active
/// backend so the composite graph and the fused kernels share one
/// accumulation order per backend.
///
/// Covers the two layouts every backward pass in the crate produces:
/// a *trailing* reduce (kept leading axes, reduced trailing axes — `sum_all`
/// and the keepdim row reductions), where each output is one contiguous-row
/// backend `sum`, and a *leading* reduce (reduced leading axes, kept
/// trailing axes — bias gradients, broadcast-batch reductions), which is a
/// row fold into independent per-slot accumulators. Anything else (reduced
/// axes on both sides, or interior) falls back to the stride walker, which
/// the caller runs when this returns `false`.
fn sum_to_fast(src: &[Elem], shape: &[usize], target: &[usize], data: &mut [Elem]) -> bool {
    let pad = shape.len() - target.len();
    let padded = |i: usize| if i < pad { 1 } else { target[i - pad] };
    let mut s = 0;
    while s < shape.len() && padded(s) == shape[s] {
        s += 1;
    }
    if (s..shape.len()).all(|i| padded(i) == 1) {
        let d: usize = shape[s..].iter().product();
        if d > 0 {
            let be = backend::active();
            for (slot, row) in data.iter_mut().zip(src.chunks_exact(d)) {
                *slot = be.sum(row);
            }
            return true;
        }
    }
    let mut t = 0;
    while t < shape.len() && padded(t) == 1 {
        t += 1;
    }
    if (t..shape.len()).all(|i| padded(i) == shape[i]) && !data.is_empty() {
        backend::active().fold_rows(src, data);
        return true;
    }
    false
}

fn binary_values(a: &Tensor, b: &Tensor, f: impl Fn(Elem, Elem) -> Elem) -> (Buf, Vec<usize>) {
    let out_shape = broadcast_shapes(a.shape(), b.shape()).unwrap_or_else(|| {
        panic!(
            "shapes {:?} and {:?} are not broadcast-compatible",
            a.shape(),
            b.shape()
        )
    });
    let da = a.data();
    let db = b.data();
    let mut out = pool::take(numel(&out_shape));
    if a.shape() == b.shape() {
        out.extend(da.iter().zip(db.iter()).map(|(&x, &y)| f(x, y)));
        return (out, out_shape);
    }
    // Fast path: one operand is a trailing-suffix of the other (the common
    // bias-add / per-row-scale pattern) — tile it without index math.
    if out_shape == a.shape() && is_suffix_shape(b.shape(), a.shape()) && !db.is_empty() {
        let n = db.len();
        out.extend(da.iter().enumerate().map(|(i, &x)| f(x, db[i % n])));
        return (out, out_shape);
    }
    if out_shape == b.shape() && is_suffix_shape(a.shape(), b.shape()) && !da.is_empty() {
        let n = da.len();
        out.extend(db.iter().enumerate().map(|(i, &y)| f(da[i % n], y)));
        return (out, out_shape);
    }
    let wa = OffsetWalker::new(&out_shape, broadcast_strides(a.shape(), &out_shape));
    let wb = OffsetWalker::new(&out_shape, broadcast_strides(b.shape(), &out_shape));
    out.extend(wa.zip(wb).map(|(ia, ib)| f(da[ia], db[ib])));
    (out, out_shape)
}

impl Tensor {
    // ------------------------------------------------------------------
    // Binary elementwise (broadcasting)
    // ------------------------------------------------------------------

    /// Elementwise sum with NumPy-style broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn add(&self, other: &Tensor) -> Tensor {
        let (data, shape) = binary_values(self, other, |x, y| x + y);
        let backward: BackwardFn = Rc::new(|g, ps, _out| {
            vec![Some(g.sum_to(ps[0].shape())), Some(g.sum_to(ps[1].shape()))]
        });
        Tensor::from_op(data, shape, vec![self.clone(), other.clone()], backward)
    }

    /// Elementwise difference with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn sub(&self, other: &Tensor) -> Tensor {
        let (data, shape) = binary_values(self, other, |x, y| x - y);
        let backward: BackwardFn = Rc::new(|g, ps, _out| {
            vec![
                Some(g.sum_to(ps[0].shape())),
                Some(g.neg().sum_to(ps[1].shape())),
            ]
        });
        Tensor::from_op(data, shape, vec![self.clone(), other.clone()], backward)
    }

    /// Elementwise product with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn mul(&self, other: &Tensor) -> Tensor {
        let (data, shape) = binary_values(self, other, |x, y| x * y);
        let backward: BackwardFn = Rc::new(|g, ps, _out| {
            vec![
                Some(g.mul(&ps[1]).sum_to(ps[0].shape())),
                Some(g.mul(&ps[0]).sum_to(ps[1].shape())),
            ]
        });
        Tensor::from_op(data, shape, vec![self.clone(), other.clone()], backward)
    }

    /// Elementwise quotient with broadcasting.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are not broadcast-compatible.
    pub fn div(&self, other: &Tensor) -> Tensor {
        let (data, shape) = binary_values(self, other, |x, y| x / y);
        let backward: BackwardFn = Rc::new(|g, ps, _out| {
            let ga = g.div(&ps[1]).sum_to(ps[0].shape());
            let gb = g
                .mul(&ps[0])
                .neg()
                .div(&ps[1].mul(&ps[1]))
                .sum_to(ps[1].shape());
            vec![Some(ga), Some(gb)]
        });
        Tensor::from_op(data, shape, vec![self.clone(), other.clone()], backward)
    }

    // ------------------------------------------------------------------
    // Scalar elementwise
    // ------------------------------------------------------------------

    /// Adds a scalar to every element.
    pub fn add_scalar(&self, c: Elem) -> Tensor {
        let backward: BackwardFn = Rc::new(|g, _ps, _out| vec![Some(g.clone())]);
        unary(self, |x| x + c, backward)
    }

    /// Subtracts a scalar from every element.
    pub fn sub_scalar(&self, c: Elem) -> Tensor {
        self.add_scalar(-c)
    }

    /// Multiplies every element by a scalar.
    pub fn mul_scalar(&self, c: Elem) -> Tensor {
        let backward: BackwardFn = Rc::new(move |g, _ps, _out| vec![Some(g.mul_scalar(c))]);
        unary(self, |x| x * c, backward)
    }

    /// Divides every element by a scalar.
    pub fn div_scalar(&self, c: Elem) -> Tensor {
        self.mul_scalar(1.0 / c)
    }

    // ------------------------------------------------------------------
    // Unary elementwise
    // ------------------------------------------------------------------

    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        let backward: BackwardFn = Rc::new(|g, _ps, _out| vec![Some(g.neg())]);
        unary(self, |x| -x, backward)
    }

    /// Elementwise exponential (the owned [`crate::prims::exp`]).
    pub fn exp(&self) -> Tensor {
        let backward: BackwardFn = Rc::new(|g, _ps, out| vec![Some(g.mul(out))]);
        unary(self, math::exp, backward)
    }

    /// Elementwise natural logarithm.
    ///
    /// Produces `NaN`/`-inf` for non-positive inputs, mirroring `f64::ln`.
    pub fn ln(&self) -> Tensor {
        let backward: BackwardFn = Rc::new(|g, ps, _out| vec![Some(g.div(&ps[0]))]);
        unary(self, Elem::ln, backward)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        let backward: BackwardFn = Rc::new(|g, _ps, out| vec![Some(g.mul_scalar(0.5).div(out))]);
        unary(self, Elem::sqrt, backward)
    }

    /// Elementwise hyperbolic tangent (the owned [`crate::prims::tanh`]).
    pub fn tanh(&self) -> Tensor {
        let backward: BackwardFn = Rc::new(|g, _ps, out| {
            let one_minus_sq = out.mul(out).neg().add_scalar(1.0);
            vec![Some(g.mul(&one_minus_sq))]
        });
        unary(self, math::tanh, backward)
    }

    /// Elementwise logistic sigmoid, computed in a numerically stable way.
    pub fn sigmoid(&self) -> Tensor {
        let backward: BackwardFn = Rc::new(|g, _ps, out| {
            let d = out.mul(&out.neg().add_scalar(1.0));
            vec![Some(g.mul(&d))]
        });
        unary(
            self,
            |x| {
                if x >= 0.0 {
                    1.0 / (1.0 + math::exp(-x))
                } else {
                    let e = math::exp(x);
                    e / (1.0 + e)
                }
            },
            backward,
        )
    }

    /// Elementwise rectified linear unit, `max(x, 0)`.
    pub fn relu(&self) -> Tensor {
        let backward: BackwardFn = Rc::new(|g, ps, _out| vec![Some(g.mul(&ps[0].step_mask()))]);
        unary(self, |x| if x > 0.0 { x } else { 0.0 }, backward)
    }

    /// Elementwise absolute value.
    ///
    /// The gradient at zero is taken to be zero.
    pub fn abs(&self) -> Tensor {
        let backward: BackwardFn = Rc::new(|g, ps, _out| vec![Some(g.mul(&ps[0].sign_detached()))]);
        unary(self, Elem::abs, backward)
    }

    /// Elementwise power with a constant exponent.
    ///
    /// Negative bases with fractional exponents produce `NaN`, mirroring
    /// `f64::powf`.
    pub fn powf(&self, p: Elem) -> Tensor {
        let backward: BackwardFn =
            Rc::new(move |g, ps, _out| vec![Some(g.mul(&ps[0].powf(p - 1.0).mul_scalar(p)))]);
        unary(self, |x| pow_elem(x, p), backward)
    }

    // ------------------------------------------------------------------
    // Broadcast / reduce
    // ------------------------------------------------------------------

    /// Broadcasts to a larger shape (gradient sums back over stretched
    /// axes).
    ///
    /// # Panics
    ///
    /// Panics if the current shape cannot broadcast to `target`.
    pub fn broadcast_to(&self, target: &[usize]) -> Tensor {
        assert!(
            broadcastable_to(self.shape(), target),
            "cannot broadcast {:?} to {:?}",
            self.shape(),
            target
        );
        let strides = broadcast_strides(self.shape(), target);
        let src = self.data();
        let mut data = pool::take(numel(target));
        data.extend(OffsetWalker::new(target, strides).map(|off| src[off]));
        drop(src);
        let backward: BackwardFn = Rc::new(|g, ps, _out| vec![Some(g.sum_to(ps[0].shape()))]);
        Tensor::from_op(data, target.to_vec(), vec![self.clone()], backward)
    }

    /// Sums over axes so the result has shape `target` (the inverse of a
    /// broadcast; used pervasively by backward passes).
    ///
    /// # Panics
    ///
    /// Panics if `target` cannot broadcast back to the current shape.
    pub fn sum_to(&self, target: &[usize]) -> Tensor {
        if self.shape() == target {
            return self.clone();
        }
        assert!(
            broadcastable_to(target, self.shape()),
            "cannot reduce {:?} to {:?}",
            self.shape(),
            target
        );
        let src = self.data();
        let mut data = pool::take_zeroed(numel(target));
        if !sum_to_fast(&src, self.shape(), target, &mut data) {
            let strides = broadcast_strides(target, self.shape());
            for (i, off) in OffsetWalker::new(self.shape(), strides).enumerate() {
                data[off] += src[i];
            }
        }
        drop(src);
        let backward: BackwardFn = Rc::new(|g, ps, _out| vec![Some(g.broadcast_to(ps[0].shape()))]);
        Tensor::from_op(data, target.to_vec(), vec![self.clone()], backward)
    }

    /// Sum of all elements (scalar of shape `[]`).
    pub fn sum_all(&self) -> Tensor {
        self.sum_to(&[])
    }

    /// Mean of all elements (scalar of shape `[]`).
    pub fn mean_all(&self) -> Tensor {
        self.sum_all().div_scalar(self.numel() as Elem)
    }

    /// Sum along one axis.
    ///
    /// With `keepdim` the reduced axis is retained with size 1.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        assert!(axis < self.ndim(), "axis {axis} out of range");
        let mut keep: Vec<usize> = self.shape().to_vec();
        keep[axis] = 1;
        let summed = self.sum_to(&keep);
        if keepdim {
            summed
        } else {
            let mut squeezed = keep;
            squeezed.remove(axis);
            summed.reshape(&squeezed)
        }
    }

    /// Mean along one axis.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Tensor {
        let n = self.shape()[axis] as Elem;
        self.sum_axis(axis, keepdim).div_scalar(n)
    }

    /// Maximum along `axis` (keepdim), detached from the graph.
    ///
    /// Used as the shift constant in numerically stable softmax; since
    /// softmax is invariant to constant shifts, detaching is exact.
    ///
    /// # Panics
    ///
    /// Panics if `axis` is out of range.
    pub fn max_axis_detached(&self, axis: usize) -> Tensor {
        let (outer, dim, inner) = axis_blocks(self.shape(), axis);
        let src = self.data();
        let mut out = pool::take_filled(outer * inner, Elem::NEG_INFINITY);
        for o in 0..outer {
            for d in 0..dim {
                for i in 0..inner {
                    let v = src[(o * dim + d) * inner + i];
                    let slot = &mut out[o * inner + i];
                    if v > *slot {
                        *slot = v;
                    }
                }
            }
        }
        drop(src);
        let mut shape = self.shape().to_vec();
        shape[axis] = 1;
        Tensor::from_buf(out, &shape)
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, new_shape: &[usize]) -> Tensor {
        assert_eq!(
            self.numel(),
            numel(new_shape),
            "cannot reshape {:?} ({} elems) to {:?} ({} elems)",
            self.shape(),
            self.numel(),
            new_shape,
            numel(new_shape)
        );
        let original: Vec<usize> = self.shape().to_vec();
        let backward: BackwardFn = Rc::new(move |g, _ps, _out| vec![Some(g.reshape(&original))]);
        let src = self.data();
        let mut data = pool::take(src.len());
        data.extend_from_slice(&src[..]);
        drop(src);
        Tensor::from_op(data, new_shape.to_vec(), vec![self.clone()], backward)
    }

    /// Swaps two axes (materializing the result).
    ///
    /// # Panics
    ///
    /// Panics if either axis is out of range.
    pub fn transpose(&self, a: usize, b: usize) -> Tensor {
        assert!(
            a < self.ndim() && b < self.ndim(),
            "transpose axes out of range"
        );
        if a == b {
            return self.clone();
        }
        let mut out_shape: Vec<usize> = self.shape().to_vec();
        out_shape.swap(a, b);
        let out_strides = contiguous_strides(&out_shape);
        let src = self.data();
        let mut data = pool::take_zeroed(self.numel());
        let ndim = self.ndim();
        let mut coords = vec![0usize; ndim];
        for &v in src.iter() {
            // Map input coordinates to output coordinates (swap a and b).
            let mut off = 0;
            for (axis, &c) in coords.iter().enumerate() {
                let out_axis = if axis == a {
                    b
                } else if axis == b {
                    a
                } else {
                    axis
                };
                off += c * out_strides[out_axis];
            }
            data[off] = v;
            // Advance input coordinates.
            for axis in (0..ndim).rev() {
                coords[axis] += 1;
                if coords[axis] < self.shape()[axis] {
                    break;
                }
                coords[axis] = 0;
            }
        }
        drop(src);
        let backward: BackwardFn = Rc::new(move |g, _ps, _out| vec![Some(g.transpose(a, b))]);
        Tensor::from_op(data, out_shape, vec![self.clone()], backward)
    }

    /// Slices `len` entries starting at `start` along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if the slice exceeds the axis bounds.
    pub fn slice_axis(&self, axis: usize, start: usize, len: usize) -> Tensor {
        let (outer, dim, inner) = axis_blocks(self.shape(), axis);
        assert!(
            start + len <= dim,
            "slice [{start}, {}) exceeds axis size {dim}",
            start + len
        );
        let src = self.data();
        let mut data = pool::take(outer * len * inner);
        for o in 0..outer {
            for d in start..start + len {
                let base = (o * dim + d) * inner;
                data.extend_from_slice(&src[base..base + inner]);
            }
        }
        drop(src);
        let mut out_shape: Vec<usize> = self.shape().to_vec();
        out_shape[axis] = len;
        let after = dim - start - len;
        let backward: BackwardFn =
            Rc::new(move |g, _ps, _out| vec![Some(g.pad_axis_zeros(axis, start, after))]);
        Tensor::from_op(data, out_shape, vec![self.clone()], backward)
    }

    /// Pads with zeros along `axis`: `before` entries in front, `after`
    /// behind.
    pub fn pad_axis_zeros(&self, axis: usize, before: usize, after: usize) -> Tensor {
        let (outer, dim, inner) = axis_blocks(self.shape(), axis);
        let new_dim = before + dim + after;
        let src = self.data();
        let mut data = pool::take_zeroed(outer * new_dim * inner);
        for o in 0..outer {
            for d in 0..dim {
                let src_base = (o * dim + d) * inner;
                let dst_base = (o * new_dim + before + d) * inner;
                data[dst_base..dst_base + inner].copy_from_slice(&src[src_base..src_base + inner]);
            }
        }
        drop(src);
        let mut out_shape: Vec<usize> = self.shape().to_vec();
        out_shape[axis] = new_dim;
        let backward: BackwardFn =
            Rc::new(move |g, _ps, _out| vec![Some(g.slice_axis(axis, before, dim))]);
        Tensor::from_op(data, out_shape, vec![self.clone()], backward)
    }

    /// Concatenates tensors along `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `tensors` is empty or shapes disagree outside `axis`.
    pub fn concat(tensors: &[Tensor], axis: usize) -> Tensor {
        assert!(!tensors.is_empty(), "concat of zero tensors");
        let first = &tensors[0];
        let ndim = first.ndim();
        assert!(axis < ndim, "axis {axis} out of range");
        let mut total = 0;
        for t in tensors {
            assert_eq!(t.ndim(), ndim, "concat rank mismatch");
            for d in 0..ndim {
                if d != axis {
                    assert_eq!(
                        t.shape()[d],
                        first.shape()[d],
                        "concat shape mismatch on axis {d}"
                    );
                }
            }
            total += t.shape()[axis];
        }
        let mut out_shape: Vec<usize> = first.shape().to_vec();
        out_shape[axis] = total;
        let (outer, _dim, inner) = axis_blocks(&out_shape, axis);
        let mut data = pool::take_zeroed(numel(&out_shape));
        let mut offset = 0;
        for t in tensors {
            let td = t.shape()[axis];
            let src = t.data();
            for o in 0..outer {
                for d in 0..td {
                    let src_base = (o * td + d) * inner;
                    let dst_base = (o * total + offset + d) * inner;
                    data[dst_base..dst_base + inner]
                        .copy_from_slice(&src[src_base..src_base + inner]);
                }
            }
            offset += td;
        }
        let sizes: Vec<usize> = tensors.iter().map(|t| t.shape()[axis]).collect();
        let backward: BackwardFn = Rc::new(move |g, _ps, _out| {
            let mut start = 0;
            sizes
                .iter()
                .map(|&len| {
                    let piece = g.slice_axis(axis, start, len);
                    start += len;
                    Some(piece)
                })
                .collect()
        });
        Tensor::from_op(data, out_shape, tensors.to_vec(), backward)
    }

    /// Stacks same-shaped tensors along a new leading axis.
    ///
    /// # Panics
    ///
    /// Panics if `tensors` is empty or the shapes disagree.
    pub fn stack(tensors: &[Tensor]) -> Tensor {
        assert!(!tensors.is_empty(), "stack of zero tensors");
        let mut unsqueezed = Vec::with_capacity(tensors.len());
        let mut shape = vec![1];
        shape.extend_from_slice(tensors[0].shape());
        for t in tensors {
            unsqueezed.push(t.reshape(&shape));
        }
        Tensor::concat(&unsqueezed, 0)
    }

    // ------------------------------------------------------------------
    // Gather / scatter (embedding support)
    // ------------------------------------------------------------------

    /// Selects rows of a 2-D tensor: `self[indices, :]`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 2-D or an index is out of bounds.
    pub fn index_select_rows(&self, indices: &[usize]) -> Tensor {
        assert_eq!(self.ndim(), 2, "index_select_rows requires a 2-D tensor");
        let (rows, cols) = (self.shape()[0], self.shape()[1]);
        let src = self.data();
        let mut data = pool::take(indices.len() * cols);
        for &i in indices {
            assert!(i < rows, "row index {i} out of bounds ({rows} rows)");
            data.extend_from_slice(&src[i * cols..(i + 1) * cols]);
        }
        drop(src);
        let idx: Vec<usize> = indices.to_vec();
        let backward: BackwardFn =
            Rc::new(move |g, _ps, _out| vec![Some(g.scatter_add_rows(&idx, rows))]);
        Tensor::from_op(
            data,
            vec![indices.len(), cols],
            vec![self.clone()],
            backward,
        )
    }

    /// Scatter-adds the rows of a 2-D tensor into a `[rows, cols]` result:
    /// `out[indices[i], :] += self[i, :]`.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 2-D, `indices.len()` differs from the row
    /// count, or an index is out of bounds.
    pub fn scatter_add_rows(&self, indices: &[usize], rows: usize) -> Tensor {
        assert_eq!(self.ndim(), 2, "scatter_add_rows requires a 2-D tensor");
        assert_eq!(indices.len(), self.shape()[0], "one index per row required");
        let cols = self.shape()[1];
        let src = self.data();
        let mut data = pool::take_zeroed(rows * cols);
        for (r, &i) in indices.iter().enumerate() {
            assert!(i < rows, "row index {i} out of bounds ({rows} rows)");
            for c in 0..cols {
                data[i * cols + c] += src[r * cols + c];
            }
        }
        drop(src);
        let idx: Vec<usize> = indices.to_vec();
        let backward: BackwardFn =
            Rc::new(move |g, _ps, _out| vec![Some(g.index_select_rows(&idx))]);
        Tensor::from_op(data, vec![rows, cols], vec![self.clone()], backward)
    }

    // ------------------------------------------------------------------
    // Detached helpers
    // ------------------------------------------------------------------

    /// Constant 0/1 mask of strictly positive elements (detached).
    pub fn step_mask(&self) -> Tensor {
        let src = self.data();
        let mut data = pool::take(src.len());
        data.extend(src.iter().map(|&x| if x > 0.0 { 1.0 } else { 0.0 }));
        drop(src);
        Tensor::from_buf(data, self.shape())
    }

    /// Constant sign tensor (-1, 0, +1; detached).
    pub fn sign_detached(&self) -> Tensor {
        let src = self.data();
        let mut data = pool::take(src.len());
        data.extend(src.iter().map(|&x| {
            if x > 0.0 {
                1.0
            } else if x < 0.0 {
                -1.0
            } else {
                0.0
            }
        }));
        drop(src);
        Tensor::from_buf(data, self.shape())
    }
}

#[cfg(test)]
mod tests {
    use crate::autograd::grad;
    use crate::Tensor;

    fn t(data: &[f64], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape)
    }

    fn p(data: &[f64], shape: &[usize]) -> Tensor {
        Tensor::param_from_vec(data.to_vec(), shape)
    }

    #[test]
    fn add_broadcasts_rows() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = t(&[10.0, 20.0, 30.0], &[3]);
        let c = a.add(&b);
        assert_eq!(c.to_vec(), vec![11.0, 22.0, 33.0, 14.0, 25.0, 36.0]);
    }

    #[test]
    fn add_gradient_sums_over_broadcast() {
        let a = p(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let b = p(&[10.0, 20.0, 30.0], &[3]);
        let loss = a.add(&b).sum_all();
        let g = grad(&loss, &[a, b], false);
        assert_eq!(g[0].to_vec(), vec![1.0; 6]);
        assert_eq!(g[1].to_vec(), vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn mul_gradient_is_other_operand() {
        let a = p(&[2.0, 3.0], &[2]);
        let b = p(&[5.0, 7.0], &[2]);
        let loss = a.mul(&b).sum_all();
        let g = grad(&loss, &[a, b], false);
        assert_eq!(g[0].to_vec(), vec![5.0, 7.0]);
        assert_eq!(g[1].to_vec(), vec![2.0, 3.0]);
    }

    #[test]
    fn div_values_and_gradient() {
        let a = p(&[6.0], &[1]);
        let b = p(&[3.0], &[1]);
        let y = a.div(&b);
        assert_eq!(y.to_vec(), vec![2.0]);
        let g = grad(&y.sum_all(), &[a, b], false);
        assert!((g[0].to_vec()[0] - 1.0 / 3.0).abs() < 1e-12);
        assert!((g[1].to_vec()[0] + 6.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn scalar_ops() {
        let a = t(&[1.0, -2.0], &[2]);
        assert_eq!(a.add_scalar(1.0).to_vec(), vec![2.0, -1.0]);
        assert_eq!(a.sub_scalar(1.0).to_vec(), vec![0.0, -3.0]);
        assert_eq!(a.mul_scalar(3.0).to_vec(), vec![3.0, -6.0]);
        assert_eq!(a.div_scalar(2.0).to_vec(), vec![0.5, -1.0]);
    }

    #[test]
    fn unary_values() {
        let a = t(&[1.0, -1.0, 0.5], &[3]);
        assert_eq!(a.neg().to_vec(), vec![-1.0, 1.0, -0.5]);
        assert_eq!(a.relu().to_vec(), vec![1.0, 0.0, 0.5]);
        assert_eq!(a.abs().to_vec(), vec![1.0, 1.0, 0.5]);
        let e = a.exp().to_vec();
        assert!((e[0] - 1.0_f64.exp()).abs() < 1e-12);
        let s = a.sigmoid().to_vec();
        assert!((s[0] - 1.0 / (1.0 + (-1.0_f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_is_stable_for_large_inputs() {
        let a = t(&[800.0, -800.0], &[2]);
        let s = a.sigmoid().to_vec();
        assert!((s[0] - 1.0).abs() < 1e-12);
        assert!(s[1].abs() < 1e-12);
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn relu_gradient_masks_negatives() {
        let a = p(&[2.0, -3.0, 0.0], &[3]);
        let g = grad(&a.relu().sum_all(), &[a], false);
        assert_eq!(g[0].to_vec(), vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn sum_to_and_broadcast_to_roundtrip() {
        let a = t(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let s = a.sum_to(&[2]);
        assert_eq!(s.to_vec(), vec![4.0, 6.0]);
        let b = s.broadcast_to(&[2, 2]);
        assert_eq!(b.to_vec(), vec![4.0, 6.0, 4.0, 6.0]);
    }

    #[test]
    fn sum_and_mean_axis() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(a.sum_axis(1, false).shape(), &[2]);
        assert_eq!(a.sum_axis(1, false).to_vec(), vec![6.0, 15.0]);
        assert_eq!(a.sum_axis(0, true).shape(), &[1, 3]);
        assert_eq!(a.mean_axis(1, false).to_vec(), vec![2.0, 5.0]);
        assert_eq!(a.mean_all().value(), 3.5);
    }

    #[test]
    fn max_axis_detached_values() {
        let a = t(&[1.0, 9.0, 3.0, 4.0, -5.0, 6.0], &[2, 3]);
        let m = a.max_axis_detached(1);
        assert_eq!(m.shape(), &[2, 1]);
        assert_eq!(m.to_vec(), vec![9.0, 6.0]);
        assert!(!m.requires_grad());
    }

    #[test]
    fn reshape_and_gradient() {
        let a = p(&[1.0, 2.0, 3.0, 4.0], &[2, 2]);
        let y = a.reshape(&[4]).mul_scalar(2.0).sum_all();
        let g = grad(&y, std::slice::from_ref(&a), false);
        assert_eq!(g[0].shape(), &[2, 2]);
        assert_eq!(g[0].to_vec(), vec![2.0; 4]);
    }

    #[test]
    fn transpose_2d() {
        let a = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let at = a.transpose(0, 1);
        assert_eq!(at.shape(), &[3, 2]);
        assert_eq!(at.to_vec(), vec![1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn transpose_inner_axes_of_4d() {
        // [1, 2, 2, 2] swap axes 1 and 2.
        let a = t(&[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0], &[1, 2, 2, 2]);
        let s = a.transpose(1, 2);
        assert_eq!(s.shape(), &[1, 2, 2, 2]);
        assert_eq!(s.to_vec(), vec![0.0, 1.0, 4.0, 5.0, 2.0, 3.0, 6.0, 7.0]);
    }

    #[test]
    fn slice_and_pad_roundtrip() {
        let a = p(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let s = a.slice_axis(1, 1, 2);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.to_vec(), vec![2.0, 3.0, 5.0, 6.0]);
        let g = grad(&s.sum_all(), &[a], false);
        assert_eq!(g[0].to_vec(), vec![0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn concat_values_and_gradients() {
        let a = p(&[1.0, 2.0], &[1, 2]);
        let b = p(&[3.0, 4.0], &[1, 2]);
        let c = Tensor::concat(&[a.clone(), b.clone()], 0);
        assert_eq!(c.shape(), &[2, 2]);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
        let weights = t(&[1.0, 10.0, 100.0, 1000.0], &[2, 2]);
        let g = grad(&c.mul(&weights).sum_all(), &[a, b], false);
        assert_eq!(g[0].to_vec(), vec![1.0, 10.0]);
        assert_eq!(g[1].to_vec(), vec![100.0, 1000.0]);
    }

    #[test]
    fn stack_adds_leading_axis() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[3.0, 4.0], &[2]);
        let s = Tensor::stack(&[a, b]);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.to_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn index_select_and_scatter_gradients() {
        let table = p(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let picked = table.index_select_rows(&[2, 0, 2]);
        assert_eq!(picked.to_vec(), vec![5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
        let g = grad(&picked.sum_all(), &[table], false);
        // Row 2 picked twice, row 0 once, row 1 never.
        assert_eq!(g[0].to_vec(), vec![1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn second_order_through_mul() {
        // y = (x*x) * x = x^3 via primitives; check d2y/dx2 = 6x.
        let x = p(&[2.5], &[1]);
        let y = x.mul(&x).mul(&x).sum_all();
        let d1 = grad(&y, std::slice::from_ref(&x), true);
        let d2 = grad(&d1[0].sum_all(), std::slice::from_ref(&x), false);
        assert!((d2[0].to_vec()[0] - 15.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "not broadcast-compatible")]
    fn incompatible_shapes_panic() {
        let a = t(&[1.0, 2.0], &[2]);
        let b = t(&[1.0, 2.0, 3.0], &[3]);
        let _ = a.add(&b);
    }
}
