//! Dense n-dimensional tensors with reverse-mode automatic differentiation.
//!
//! Tensors are cheap-to-clone handles (`Rc`) to immutable-shaped, row-major
//! `f64` buffers. Operations build a computation graph whose backward passes
//! are themselves expressed with tensor operations, which is what enables
//! gradients of gradients (see [`crate::autograd::grad`]).

pub mod backend;
pub mod fused;
pub mod pool;
pub mod prims;
pub mod shape;

mod blocks;
mod composite;
mod math;
mod matmul;
mod operators;
mod ops;

use std::cell::{Ref, RefCell};
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::autograd;
use crate::Elem;

use pool::Buf;

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Gradient callback: maps (output gradient, parents, output) to the
/// gradients of each parent (`None` for parents that receive no gradient).
pub(crate) type BackwardFn = Rc<dyn Fn(&Tensor, &[Tensor], &Tensor) -> Vec<Option<Tensor>>>;

pub(crate) struct Node {
    pub(crate) parents: Vec<Tensor>,
    pub(crate) backward: BackwardFn,
}

pub(crate) struct Inner {
    id: u64,
    shape: Vec<usize>,
    data: RefCell<Buf>,
    node: Option<Node>,
    requires_grad: bool,
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Return the element buffer to the thread-local pool so the next
        // op of a similar size skips the global allocator. `recycle`
        // ignores buffers the pool can't reuse (odd capacities, oversize).
        pool::recycle(std::mem::take(self.data.get_mut()));
    }
}

/// A dense, row-major tensor of `f64` values participating in an autodiff
/// graph.
///
/// Cloning a `Tensor` clones the *handle*, not the buffer: clones alias the
/// same storage and graph node.
///
/// # Example
///
/// ```
/// use metadse_nn::Tensor;
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]);
/// let b = a.add_scalar(1.0);
/// assert_eq!(b.to_vec(), vec![2.0, 3.0, 4.0, 5.0]);
/// ```
#[derive(Clone)]
pub struct Tensor {
    inner: Rc<Inner>,
}

impl Tensor {
    fn from_parts(data: Buf, shape: Vec<usize>, node: Option<Node>, requires_grad: bool) -> Tensor {
        debug_assert_eq!(data.len(), shape::numel(&shape), "data/shape mismatch");
        Tensor {
            inner: Rc::new(Inner {
                id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
                shape,
                data: RefCell::new(data),
                node,
                requires_grad,
            }),
        }
    }

    /// Creates a constant (non-differentiable) tensor from a flat buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the number of elements implied
    /// by `shape`.
    pub fn from_vec(data: Vec<Elem>, shape: &[usize]) -> Tensor {
        assert_eq!(
            data.len(),
            shape::numel(shape),
            "buffer of {} elements cannot have shape {:?}",
            data.len(),
            shape
        );
        Tensor::from_parts(Buf::from(data), shape.to_vec(), None, false)
    }

    /// Constant tensor taking ownership of an aligned (usually pooled)
    /// buffer directly, skipping the `Vec` copy of [`Tensor::from_vec`].
    pub(crate) fn from_buf(data: Buf, shape: &[usize]) -> Tensor {
        assert_eq!(
            data.len(),
            shape::numel(shape),
            "buffer of {} elements cannot have shape {:?}",
            data.len(),
            shape
        );
        Tensor::from_parts(data, shape.to_vec(), None, false)
    }

    /// Creates a trainable leaf tensor (participates in gradients).
    pub fn param_from_vec(data: Vec<Elem>, shape: &[usize]) -> Tensor {
        assert_eq!(
            data.len(),
            shape::numel(shape),
            "buffer of {} elements cannot have shape {:?}",
            data.len(),
            shape
        );
        Tensor::from_parts(Buf::from(data), shape.to_vec(), None, true)
    }

    /// Creates a scalar (shape `[]`) constant.
    pub fn scalar(value: Elem) -> Tensor {
        Tensor::from_vec(vec![value], &[])
    }

    /// Tensor of zeros with the given shape.
    pub fn zeros(shape: &[usize]) -> Tensor {
        Tensor::from_buf(pool::take_zeroed(shape::numel(shape)), shape)
    }

    /// Tensor of ones with the given shape.
    pub fn ones(shape: &[usize]) -> Tensor {
        Tensor::from_buf(pool::take_filled(shape::numel(shape), 1.0), shape)
    }

    /// Tensor filled with `value`.
    pub fn full(shape: &[usize], value: Elem) -> Tensor {
        Tensor::from_buf(pool::take_filled(shape::numel(shape), value), shape)
    }

    /// Standard-normal random tensor drawn from `rng`.
    pub fn randn<R: rand::Rng + ?Sized>(shape: &[usize], rng: &mut R) -> Tensor {
        let n = shape::numel(shape);
        let mut data = Vec::with_capacity(n);
        // Box-Muller transform; avoids an extra dependency on rand_distr.
        while data.len() < n {
            let u1: Elem = rng.gen_range(Elem::EPSILON..1.0);
            let u2: Elem = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            data.push(r * theta.cos());
            if data.len() < n {
                data.push(r * theta.sin());
            }
        }
        Tensor::from_vec(data, shape)
    }

    /// Uniform random tensor in `[lo, hi)`.
    pub fn rand_uniform<R: rand::Rng + ?Sized>(
        shape: &[usize],
        lo: Elem,
        hi: Elem,
        rng: &mut R,
    ) -> Tensor {
        let n = shape::numel(shape);
        let data = (0..n).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor::from_vec(data, shape)
    }

    /// Result of an operation; records graph edges when gradient mode is on
    /// and any parent requires gradients.
    pub(crate) fn from_op(
        data: impl Into<Buf>,
        shape: Vec<usize>,
        parents: Vec<Tensor>,
        backward: BackwardFn,
    ) -> Tensor {
        let track = autograd::is_grad_enabled() && parents.iter().any(|p| p.requires_grad());
        if track {
            Tensor::from_parts(data.into(), shape, Some(Node { parents, backward }), true)
        } else {
            Tensor::from_parts(data.into(), shape, None, false)
        }
    }

    /// Unique identity of this tensor's storage/graph node.
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.inner.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.inner.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        shape::numel(&self.inner.shape)
    }

    /// Whether this tensor participates in gradient computation.
    pub fn requires_grad(&self) -> bool {
        self.inner.requires_grad
    }

    pub(crate) fn node(&self) -> Option<&Node> {
        self.inner.node.as_ref()
    }

    /// Borrows the underlying buffer (derefs to `&[Elem]`).
    pub fn data(&self) -> Ref<'_, Buf> {
        self.inner.data.borrow()
    }

    /// Copies the underlying buffer out.
    pub fn to_vec(&self) -> Vec<Elem> {
        self.inner.data.borrow().to_vec()
    }

    /// The value of a single-element tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor has more than one element.
    pub fn value(&self) -> Elem {
        assert_eq!(self.numel(), 1, "value() requires a single-element tensor");
        self.inner.data.borrow()[0]
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if `index` has the wrong rank or is out of bounds.
    pub fn at(&self, index: &[usize]) -> Elem {
        assert_eq!(index.len(), self.ndim(), "index rank mismatch");
        let strides = shape::contiguous_strides(self.shape());
        let mut off = 0;
        for (axis, (&i, &s)) in index.iter().zip(&strides).enumerate() {
            assert!(i < self.shape()[axis], "index out of bounds on axis {axis}");
            off += i * s;
        }
        self.inner.data.borrow()[off]
    }

    /// A new leaf tensor with the same values, severed from the graph.
    pub fn detach(&self) -> Tensor {
        let src = self.data();
        let mut data = pool::take(src.len());
        data.extend_from_slice(&src[..]);
        drop(src);
        Tensor::from_buf(data, self.shape())
    }

    /// True when this tensor's storage has exactly one live handle, carries
    /// no graph node, and does not require gradients — the conditions under
    /// which the autograd engine may mutate it in place.
    pub(crate) fn is_exclusive_constant(&self) -> bool {
        Rc::strong_count(&self.inner) == 1 && self.inner.node.is_none() && !self.inner.requires_grad
    }

    /// In-place `self += other` (same shape); bitwise identical to the
    /// functional `add` for equal shapes. Autograd internals only — callers
    /// must first establish exclusivity via [`Tensor::is_exclusive_constant`].
    pub(crate) fn accumulate(&self, other: &Tensor) {
        debug_assert_eq!(self.shape(), other.shape(), "accumulate shape mismatch");
        let mut data = self.inner.data.borrow_mut();
        let rhs = other.inner.data.borrow();
        for (d, r) in data.iter_mut().zip(rhs.iter()) {
            *d += *r;
        }
    }

    /// Overwrites this tensor's buffer with `values` (in-place; used by
    /// optimizers and parameter loading — never call on tensors still
    /// referenced by a live graph you intend to differentiate).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the tensor's element count.
    pub fn assign_vec(&self, values: &[Elem]) {
        let mut data = self.inner.data.borrow_mut();
        assert_eq!(values.len(), data.len(), "assign_vec length mismatch");
        data.copy_from_slice(values);
    }

    /// In-place `self -= scale * other` (used for plain gradient-descent
    /// loops; `other` must have the same shape).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn sub_assign_scaled(&self, other: &Tensor, scale: Elem) {
        assert_eq!(
            self.shape(),
            other.shape(),
            "sub_assign_scaled shape mismatch"
        );
        let mut data = self.inner.data.borrow_mut();
        let rhs = other.inner.data.borrow();
        for (d, r) in data.iter_mut().zip(rhs.iter()) {
            *d -= scale * r;
        }
    }

    /// Applies `f` to every element in place (optimizer internals).
    pub(crate) fn map_inplace(&self, mut f: impl FnMut(usize, Elem) -> Elem) {
        let mut data = self.inner.data.borrow_mut();
        for (i, v) in data.iter_mut().enumerate() {
            *v = f(i, *v);
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let data = self.inner.data.borrow();
        let preview: Vec<Elem> = data.iter().take(8).copied().collect();
        let ellipsis = if data.len() > 8 { ", …" } else { "" };
        write!(
            f,
            "Tensor(shape={:?}, grad={}, data={:?}{})",
            self.inner.shape, self.inner.requires_grad, preview, ellipsis
        )
    }
}

impl PartialEq for Tensor {
    /// Value equality: same shape and identical buffer contents.
    fn eq(&self, other: &Self) -> bool {
        self.shape() == other.shape() && *self.data() == *other.data()
    }
}

impl From<Elem> for Tensor {
    fn from(value: Elem) -> Self {
        Tensor::scalar(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn creation_and_accessors() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        assert_eq!(t.shape(), &[2, 3]);
        assert_eq!(t.ndim(), 2);
        assert_eq!(t.numel(), 6);
        assert_eq!(t.at(&[1, 2]), 6.0);
        assert!(!t.requires_grad());
    }

    #[test]
    #[should_panic(expected = "cannot have shape")]
    fn from_vec_rejects_mismatched_shape() {
        let _ = Tensor::from_vec(vec![1.0, 2.0], &[3]);
    }

    #[test]
    fn scalar_has_empty_shape() {
        let s = Tensor::scalar(7.5);
        assert_eq!(s.shape(), &[] as &[usize]);
        assert_eq!(s.value(), 7.5);
    }

    #[test]
    fn zeros_ones_full() {
        assert_eq!(Tensor::zeros(&[2, 2]).to_vec(), vec![0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).to_vec(), vec![1.0; 3]);
        assert_eq!(Tensor::full(&[2], 4.25).to_vec(), vec![4.25, 4.25]);
    }

    #[test]
    fn randn_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(7);
        let t = Tensor::randn(&[10_000], &mut rng);
        let data = t.to_vec();
        let mean: f64 = data.iter().sum::<f64>() / data.len() as f64;
        let var: f64 =
            data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / data.len() as f64;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.1, "variance {var} too far from 1");
    }

    #[test]
    fn detach_copies_and_drops_grad() {
        let p = Tensor::param_from_vec(vec![1.0, 2.0], &[2]);
        let d = p.detach();
        assert!(!d.requires_grad());
        assert_eq!(d.to_vec(), p.to_vec());
        // Mutating the original does not affect the detached copy.
        p.assign_vec(&[9.0, 9.0]);
        assert_eq!(d.to_vec(), vec![1.0, 2.0]);
    }

    #[test]
    fn sub_assign_scaled_updates_in_place() {
        let p = Tensor::param_from_vec(vec![1.0, 2.0], &[2]);
        let g = Tensor::from_vec(vec![10.0, 20.0], &[2]);
        p.sub_assign_scaled(&g, 0.1);
        assert_eq!(p.to_vec(), vec![0.0, 0.0]);
    }

    #[test]
    fn clones_alias_storage() {
        let a = Tensor::from_vec(vec![1.0], &[1]);
        let b = a.clone();
        a.assign_vec(&[5.0]);
        assert_eq!(b.to_vec(), vec![5.0]);
        assert_eq!(a.id(), b.id());
    }

    #[test]
    fn value_equality() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let b = Tensor::from_vec(vec![1.0, 2.0], &[2]);
        let c = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
