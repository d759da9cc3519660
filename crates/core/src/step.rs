//! Compiled first-order training steps.
//!
//! Every default training path of the pipeline is first-order: WAM
//! adaptation, FOMAML's inner loop and meta-gradient, meta-validation and
//! TrEnDSE-Transformer's supervised fit all need the mean-squared error
//! on a batch and its gradient with respect to every parameter, never a
//! gradient of a gradient. A [`Step`] computes exactly that on a compiled
//! training plan ([`crate::plan`]): the same forward ops the serving plan
//! runs, the loss, and a flat backward op list, over one arena — no graph
//! nodes. Its loss and gradients are bit-identical to
//! `TransformerPredictor::mse_on` followed by
//! `autograd::grad(.., create_graph = false)` (`tests/step.rs`), and
//! [`Step::descend`] applies the plain SGD update `θ ← θ − g·rate` with
//! the functional fast-weight update's rounding, so a compiled
//! adaptation reproduces the graph loop bit for bit.
//!
//! A step owns its parameter values: it reads them from a model at
//! compile time (or takes them through [`Step::set_values`]), updates
//! them in place, and writes them back only through [`Step::store`]. A
//! fan-out compiles one step on its calling thread and hands each worker
//! a clone. Second-order MAML, which differentiates through the inner
//! updates, stays on the `Rc` graph.

use metadse_nn::{Elem, Tensor};

use crate::plan::{Plan, PlanArena, PlanProfile};
use crate::predictor::TransformerPredictor;

/// A compiled first-order training step for one model layout, for
/// batches of up to its capacity.
#[derive(Debug)]
pub struct Step {
    plan: Plan,
    arena: PlanArena,
}

/// A clone holds the same values and runs on an arena of its own, which
/// it allocates on its first run.
impl Clone for Step {
    fn clone(&self) -> Step {
        Step {
            plan: self.plan.clone(),
            arena: PlanArena::new(),
        }
    }
}

impl Step {
    /// Compiles a step for `model`'s geometry, parameters (a learnable
    /// installed mask included) and installed masks, for batches of up
    /// to `capacity` rows, starting from the model's current values.
    ///
    /// # Panics
    ///
    /// Panics if an installed mask is not `[num_params, num_params]`.
    pub fn compile(model: &TransformerPredictor, capacity: usize) -> Step {
        Step {
            plan: Plan::training(model, capacity),
            arena: PlanArena::new(),
        }
    }

    /// The parameter values, in [`metadse_nn::layers::Module::params`]
    /// order of the compiled model, concatenated.
    pub fn values(&self) -> &[Elem] {
        self.plan.values()
    }

    /// Replaces the parameter values (the layout of [`Step::values`]).
    ///
    /// # Panics
    ///
    /// Panics if `values` has the wrong length.
    pub fn set_values(&mut self, values: &[Elem]) {
        self.plan.set_values(values);
    }

    /// Writes the parameter values into `model`'s parameter slots as
    /// fresh trainable leaves — the slot behind an installed learnable
    /// mask's own handle included.
    pub fn store(&self, model: &TransformerPredictor) {
        self.plan.store(model);
    }

    /// Each parameter's name and element range in [`Step::values`] and
    /// [`Step::grads`].
    pub fn param_ranges(&self) -> impl Iterator<Item = (&str, std::ops::Range<usize>)> {
        self.plan.param_ranges()
    }

    /// The mean-squared error of the predictions on `x` against `y`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty, larger than the capacity, or its length
    /// differs from `y`'s.
    pub fn loss(&mut self, x: &[Vec<Elem>], y: &[Elem]) -> Elem {
        self.run(x, y, false, None)
    }

    /// As [`Step::loss`], then every parameter's gradient of it, which
    /// [`Step::grads`] returns until the next run.
    pub fn loss_and_grad(&mut self, x: &[Vec<Elem>], y: &[Elem]) -> Elem {
        self.run(x, y, true, None)
    }

    /// As [`Step::loss_and_grad`], accumulating per-op wall time into
    /// `profile` (forward and backward kinds apart).
    pub fn loss_and_grad_profiled(
        &mut self,
        x: &[Vec<Elem>],
        y: &[Elem],
        profile: &mut PlanProfile,
    ) -> Elem {
        self.run(x, y, true, Some(profile))
    }

    /// The gradients of the last [`Step::loss_and_grad`], laid out like
    /// [`Step::values`].
    pub fn grads(&self) -> &[Elem] {
        self.arena.head(self.plan.n_params)
    }

    /// The gradients of the last [`Step::loss_and_grad`] as one tensor
    /// per parameter, shaped like the parameters.
    pub fn grad_tensors(&self) -> Vec<Tensor> {
        let grads = self.grads();
        self.plan
            .params
            .iter()
            .map(|p| Tensor::from_vec(grads[p.offset..p.offset + p.len].to_vec(), &p.shape))
            .collect()
    }

    /// One SGD update from the last gradients: parameter `p` moves by
    /// `θ ← θ − g·rates[p]`, rounding `g·rate` first as the functional
    /// update `t.sub(&g.mul_scalar(rate))` does.
    ///
    /// # Panics
    ///
    /// Panics if `rates` does not hold one rate per parameter.
    pub fn descend(&mut self, rates: &[Elem]) {
        assert_eq!(
            rates.len(),
            self.plan.params.len(),
            "one rate per parameter"
        );
        let grads = self.arena.head(self.plan.n_params);
        let plan = &mut self.plan;
        for (p, &rate) in plan.params.iter().zip(rates) {
            let range = p.offset..p.offset + p.len;
            for (t, &g) in plan.weights[range.clone()].iter_mut().zip(&grads[range]) {
                *t -= g * rate;
            }
        }
        plan.repack();
    }

    fn run(
        &mut self,
        x: &[Vec<Elem>],
        y: &[Elem],
        backward: bool,
        profile: Option<&mut PlanProfile>,
    ) -> Elem {
        assert_eq!(x.len(), y.len(), "feature/label length mismatch");
        let (_, loss) = self.plan.target.expect("a step compiles a training plan");
        let slab = self
            .plan
            .execute(x, Some(y), backward, &mut self.arena, profile);
        slab[self.plan.range(loss, x.len()).start]
    }
}

/// `steps` SGD updates of `step` on `(x, y)` at `rate(k)` for step `k`
/// (one rate per parameter); returns the loss before the first and the
/// last update. The loop every compiled adaptation runs.
pub(crate) fn sgd(
    step: &mut Step,
    x: &[Vec<Elem>],
    y: &[Elem],
    steps: usize,
    mut rates: impl FnMut(usize) -> Vec<Elem>,
) -> (Elem, Elem) {
    let (mut first, mut last) = (0.0, 0.0);
    for k in 0..steps {
        last = step.loss_and_grad(x, y);
        if k == 0 {
            first = last;
        }
        step.descend(&rates(k));
    }
    (first, last)
}
