//! Reverse-mode automatic differentiation.
//!
//! The central entry point is [`grad`], which walks the computation graph
//! recorded by tensor operations. Because every backward pass is itself
//! written with ordinary tensor operations, passing `create_graph = true`
//! yields gradients that are themselves differentiable — the "double
//! backward" needed by second-order MAML.

use std::cell::{Cell, RefCell};
use std::collections::hash_map::Entry;

use crate::fasthash::{IdHashMap, IdHashSet};
use crate::Tensor;

thread_local! {
    static GRAD_ENABLED: Cell<bool> = const { Cell::new(true) };
}

/// Whether operations currently record graph edges.
pub fn is_grad_enabled() -> bool {
    GRAD_ENABLED.with(|g| g.get())
}

/// RAII guard restoring the previous gradient-recording mode on drop.
#[derive(Debug)]
pub struct GradModeGuard {
    previous: bool,
}

impl GradModeGuard {
    /// Sets gradient recording to `enabled` until the guard is dropped.
    pub fn set(enabled: bool) -> GradModeGuard {
        let previous = GRAD_ENABLED.with(|g| g.replace(enabled));
        GradModeGuard { previous }
    }
}

impl Drop for GradModeGuard {
    fn drop(&mut self) {
        GRAD_ENABLED.with(|g| g.set(self.previous));
    }
}

/// Runs `f` with graph recording disabled (like `torch.no_grad()`).
///
/// # Example
///
/// ```
/// use metadse_nn::{Tensor, autograd};
///
/// let x = Tensor::param_from_vec(vec![2.0], &[1]);
/// let y = autograd::no_grad(|| x.mul(&x));
/// assert!(!y.requires_grad());
/// ```
pub fn no_grad<T>(f: impl FnOnce() -> T) -> T {
    let _guard = GradModeGuard::set(false);
    f()
}

/// Computes `d output / d input` for each tensor in `inputs`.
///
/// `output` may have any shape; the seed gradient is a tensor of ones (so a
/// non-scalar output computes the gradient of its element sum). Inputs that
/// do not influence `output` receive a zero gradient of their own shape.
///
/// With `create_graph = false` the returned gradients are constants; with
/// `create_graph = true` they remain connected to the graph, so they can be
/// differentiated again:
///
/// ```
/// use metadse_nn::{Tensor, autograd};
///
/// let x = Tensor::param_from_vec(vec![3.0], &[1]);
/// let y = x.powf(3.0); // y = x^3
/// let dy = autograd::grad(&y, std::slice::from_ref(&x), true);
/// let d2y = autograd::grad(&dy[0], std::slice::from_ref(&x), false);
/// assert!((dy[0].value() - 27.0).abs() < 1e-9); // 3x^2
/// assert!((d2y[0].value() - 18.0).abs() < 1e-9); // 6x
/// ```
pub fn grad(output: &Tensor, inputs: &[Tensor], create_graph: bool) -> Vec<Tensor> {
    // Reuse the topo-order / visited-set / gradient-map storage across
    // calls: the MAML inner loop calls `grad` thousands of times on graphs
    // of similar size, so the hash tables and vectors stay warm. A
    // reentrant call (none exists today) would simply start from fresh
    // default scratch.
    let mut scratch = SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
    topological_order_into(output, &mut scratch);
    scratch.inputs.extend(inputs.iter().map(Tensor::id));
    scratch
        .grads
        .insert(output.id(), Tensor::ones(output.shape()));

    {
        let _guard = GradModeGuard::set(create_graph);
        for t in scratch.order.iter().rev() {
            // Reverse topological order: every consumer of `t` has already
            // run, so its gradient is final. Only a requested input's
            // gradient outlives this step (it is returned); any other is
            // dropped once passed to the parents, so peak memory holds the
            // gradient frontier rather than every gradient of the pass.
            let id = t.id();
            let g = if scratch.inputs.contains(&id) {
                scratch.grads.get(&id).cloned()
            } else {
                scratch.grads.remove(&id)
            };
            let Some(g) = g else {
                continue;
            };
            let Some(node) = t.node() else {
                continue;
            };
            let parent_grads = (node.backward)(&g, &node.parents, t);
            debug_assert_eq!(parent_grads.len(), node.parents.len());
            for (parent, pg) in node.parents.iter().zip(parent_grads) {
                if !parent.requires_grad() {
                    continue;
                }
                let Some(pg) = pg else { continue };
                debug_assert_eq!(
                    pg.shape(),
                    parent.shape(),
                    "backward produced gradient of shape {:?} for parent of shape {:?}",
                    pg.shape(),
                    parent.shape()
                );
                match scratch.grads.entry(parent.id()) {
                    Entry::Occupied(mut slot) => {
                        // First-order fast path: add into the existing
                        // buffer instead of allocating a new tensor per
                        // accumulation edge. Only safe when the slot is the
                        // gradient's sole owner and it carries no graph
                        // node — pass-through backwards (`add_scalar`,
                        // same-shape `sum_to`) alias the child's gradient,
                        // which keeps a second handle alive and routes
                        // those through the functional path.
                        let existing = slot.get();
                        if !create_graph && existing.is_exclusive_constant() {
                            existing.accumulate(&pg);
                        } else {
                            let sum = existing.add(&pg);
                            slot.insert(sum);
                        }
                    }
                    Entry::Vacant(slot) => {
                        slot.insert(pg);
                    }
                }
            }
        }
    }

    let result = inputs
        .iter()
        .map(|input| {
            scratch
                .grads
                .get(&input.id())
                .cloned()
                .unwrap_or_else(|| Tensor::zeros(input.shape()))
        })
        .collect();

    // Clear before returning the scratch so held tensors (and their graph
    // subtrees) drop now, not at the start of the next backward pass.
    scratch.order.clear();
    scratch.visited.clear();
    scratch.inputs.clear();
    scratch.grads.clear();
    SCRATCH.with(|s| *s.borrow_mut() = scratch);
    result
}

enum Visit {
    Enter(Tensor),
    Exit(Tensor),
}

/// Reusable backward-pass storage; keyed by tensor id with the in-workspace
/// multiply-mix hasher (ids are trusted sequential integers).
#[derive(Default)]
struct Scratch {
    order: Vec<Tensor>,
    visited: IdHashSet<u64>,
    stack: Vec<Visit>,
    /// Ids of the requested inputs, whose gradients stay in `grads`.
    inputs: IdHashSet<u64>,
    grads: IdHashMap<u64, Tensor>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Appends the topological order (parents before children) of the
/// differentiable subgraph reachable from `root` to `scratch.order`.
fn topological_order_into(root: &Tensor, scratch: &mut Scratch) {
    // Iterative DFS with explicit post-order marking to avoid recursion
    // limits on long chains (e.g. many unrolled inner-loop steps).
    scratch.stack.push(Visit::Enter(root.clone()));
    while let Some(visit) = scratch.stack.pop() {
        match visit {
            Visit::Enter(t) => {
                if scratch.visited.contains(&t.id()) || !t.requires_grad() {
                    continue;
                }
                scratch.visited.insert(t.id());
                scratch.stack.push(Visit::Exit(t.clone()));
                if let Some(node) = t.node() {
                    for parent in &node.parents {
                        if !scratch.visited.contains(&parent.id()) && parent.requires_grad() {
                            scratch.stack.push(Visit::Enter(parent.clone()));
                        }
                    }
                }
            }
            Visit::Exit(t) => scratch.order.push(t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grad_of_sum_is_ones() {
        let x = Tensor::param_from_vec(vec![1.0, 2.0, 3.0], &[3]);
        let y = x.sum_all();
        let g = grad(&y, std::slice::from_ref(&x), false);
        assert_eq!(g[0].to_vec(), vec![1.0, 1.0, 1.0]);
        assert!(!g[0].requires_grad());
    }

    #[test]
    fn grad_accumulates_over_reused_tensors() {
        // y = x*x + x  =>  dy/dx = 2x + 1
        let x = Tensor::param_from_vec(vec![3.0], &[1]);
        let y = x.mul(&x).add(&x).sum_all();
        let g = grad(&y, std::slice::from_ref(&x), false);
        assert!((g[0].to_vec()[0] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn unrelated_input_gets_zero_gradient() {
        let x = Tensor::param_from_vec(vec![1.0], &[1]);
        let z = Tensor::param_from_vec(vec![5.0], &[1]);
        let y = x.mul_scalar(2.0).sum_all();
        let g = grad(&y, &[z], false);
        assert_eq!(g[0].to_vec(), vec![0.0]);
    }

    #[test]
    fn no_grad_suppresses_graph_recording() {
        let x = Tensor::param_from_vec(vec![2.0], &[1]);
        let y = no_grad(|| x.mul(&x));
        assert!(!y.requires_grad());
        assert!(is_grad_enabled());
    }

    #[test]
    fn grad_mode_guard_restores_state() {
        assert!(is_grad_enabled());
        {
            let _g = GradModeGuard::set(false);
            assert!(!is_grad_enabled());
            {
                let _h = GradModeGuard::set(true);
                assert!(is_grad_enabled());
            }
            assert!(!is_grad_enabled());
        }
        assert!(is_grad_enabled());
    }

    #[test]
    fn second_order_gradient_of_cubic() {
        let x = Tensor::param_from_vec(vec![2.0], &[1]);
        let y = x.powf(3.0).sum_all();
        let dy = grad(&y, std::slice::from_ref(&x), true);
        assert!(dy[0].requires_grad(), "create_graph should keep grads live");
        let d2y = grad(&dy[0].sum_all(), std::slice::from_ref(&x), false);
        // d2/dx2 x^3 = 6x = 12
        assert!((d2y[0].to_vec()[0] - 12.0).abs() < 1e-9);
    }

    #[test]
    fn third_order_gradient_of_quartic() {
        let x = Tensor::param_from_vec(vec![1.5], &[1]);
        let y = x.powf(4.0).sum_all();
        let d1 = grad(&y, std::slice::from_ref(&x), true);
        let d2 = grad(&d1[0].sum_all(), std::slice::from_ref(&x), true);
        let d3 = grad(&d2[0].sum_all(), std::slice::from_ref(&x), false);
        // d3/dx3 x^4 = 24x = 36
        assert!((d3[0].to_vec()[0] - 36.0).abs() < 1e-9);
    }

    #[test]
    fn first_order_gradients_are_detached() {
        let x = Tensor::param_from_vec(vec![2.0], &[1]);
        let y = x.mul(&x).sum_all();
        let g = grad(&y, std::slice::from_ref(&x), false);
        assert!(!g[0].requires_grad());
    }
}
