//! Neural-network layers.
//!
//! Layers hold their weights in [`Param`] slots: a `Param` is a named,
//! shared, *swappable* handle to a tensor. Optimizers update the tensor in
//! place; MAML's inner loop instead **swaps** the handle for "fast weights"
//! computed by gradient descent, leaving the original meta-parameters intact
//! and connected to the graph (see `metadse::maml`).

mod attention;
mod dropout;
mod embedding;
mod feedforward;
mod layernorm;
mod linear;
mod mlp;
mod transformer;

pub use attention::MultiHeadAttention;
pub use dropout::Dropout;
pub use embedding::Embedding;
pub use feedforward::FeedForward;
pub use layernorm::LayerNorm;
pub use linear::Linear;
pub use mlp::Mlp;
pub use transformer::{TransformerEncoder, TransformerEncoderLayer};

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use crate::Tensor;

/// A named, shared, swappable parameter slot.
///
/// Cloning a `Param` clones the handle: all clones observe swaps and
/// in-place updates.
///
/// # Example
///
/// ```
/// use metadse_nn::layers::Param;
/// use metadse_nn::Tensor;
///
/// let p = Param::new("w", Tensor::param_from_vec(vec![1.0], &[1]));
/// let fast = p.get().mul_scalar(0.5); // derived "fast weight"
/// p.set(fast);
/// assert_eq!(p.get().to_vec(), vec![0.5]);
/// ```
#[derive(Clone)]
pub struct Param {
    name: String,
    slot: Rc<RefCell<Tensor>>,
}

impl Param {
    /// Creates a parameter slot holding `tensor`.
    pub fn new(name: impl Into<String>, tensor: Tensor) -> Param {
        Param {
            name: name.into(),
            slot: Rc::new(RefCell::new(tensor)),
        }
    }

    /// The parameter's name (used by serialization and debugging).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tensor currently held by the slot (cheap handle clone).
    pub fn get(&self) -> Tensor {
        self.slot.borrow().clone()
    }

    /// Swaps in a new tensor (e.g. MAML fast weights).
    ///
    /// # Panics
    ///
    /// Panics if the new tensor's shape differs from the current one.
    pub fn set(&self, tensor: Tensor) {
        let mut slot = self.slot.borrow_mut();
        assert_eq!(
            slot.shape(),
            tensor.shape(),
            "parameter {:?} cannot change shape",
            self.name
        );
        *slot = tensor;
    }

    /// Shape of the held tensor.
    pub fn shape(&self) -> Vec<usize> {
        self.slot.borrow().shape().to_vec()
    }

    /// Number of scalar weights in the parameter.
    pub fn numel(&self) -> usize {
        self.slot.borrow().numel()
    }

    /// Whether `self` and `other` are handles to the same slot (a set on
    /// one is visible through the other).
    pub fn shares_slot(&self, other: &Param) -> bool {
        Rc::ptr_eq(&self.slot, &other.slot)
    }
}

impl fmt::Debug for Param {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Param({:?}, shape={:?})", self.name, self.shape())
    }
}

/// Anything that exposes trainable parameters.
pub trait Module {
    /// All parameter slots, in a deterministic order.
    fn params(&self) -> Vec<Param>;

    /// Total number of scalar weights.
    fn num_weights(&self) -> usize {
        self.params().iter().map(Param::numel).sum()
    }
}

/// Snapshots the tensors currently held by `params` (handles, not copies).
pub fn snapshot(params: &[Param]) -> Vec<Tensor> {
    params.iter().map(Param::get).collect()
}

/// Restores tensors previously captured with [`snapshot`].
///
/// # Panics
///
/// Panics if lengths or shapes disagree.
pub fn restore(params: &[Param], tensors: &[Tensor]) {
    assert_eq!(params.len(), tensors.len(), "snapshot length mismatch");
    for (p, t) in params.iter().zip(tensors) {
        p.set(t.clone());
    }
}

/// Deep-copies the current parameter values into fresh trainable leaves.
pub fn clone_values(params: &[Param]) -> Vec<Tensor> {
    params
        .iter()
        .map(|p| {
            let t = p.get();
            Tensor::param_from_vec(t.to_vec(), t.shape())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_swap_is_visible_through_clones() {
        let p = Param::new("w", Tensor::param_from_vec(vec![1.0, 2.0], &[2]));
        let alias = p.clone();
        p.set(Tensor::param_from_vec(vec![3.0, 4.0], &[2]));
        assert_eq!(alias.get().to_vec(), vec![3.0, 4.0]);
        assert!(p.shares_slot(&alias));
        let twin = Param::new("w", Tensor::param_from_vec(vec![3.0, 4.0], &[2]));
        assert!(!p.shares_slot(&twin));
    }

    #[test]
    #[should_panic(expected = "cannot change shape")]
    fn param_rejects_shape_changes() {
        let p = Param::new("w", Tensor::param_from_vec(vec![1.0], &[1]));
        p.set(Tensor::param_from_vec(vec![1.0, 2.0], &[2]));
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let p = Param::new("w", Tensor::param_from_vec(vec![1.0], &[1]));
        let saved = snapshot(std::slice::from_ref(&p));
        p.set(Tensor::param_from_vec(vec![9.0], &[1]));
        restore(std::slice::from_ref(&p), &saved);
        assert_eq!(p.get().to_vec(), vec![1.0]);
    }

    #[test]
    fn clone_values_creates_independent_leaves() {
        let p = Param::new("w", Tensor::param_from_vec(vec![1.0], &[1]));
        let copies = clone_values(std::slice::from_ref(&p));
        p.get().assign_vec(&[5.0]);
        assert_eq!(copies[0].to_vec(), vec![1.0]);
        assert!(copies[0].requires_grad());
    }
}
