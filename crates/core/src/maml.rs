//! MAML-based pre-training (paper Algorithm 1).
//!
//! The inner loop adapts *fast weights* on a task's support set; the outer
//! loop updates the meta-parameters θ from the adapted model's query loss
//! with Adam.
//!
//! * With `second_order = false` (the default), inner gradients are
//!   detached and the meta-gradient is the first-order MAML approximation
//!   (FOMAML): every fast-weight update `θ̂ ← θ̂ − α ∇L` passes the query
//!   gradient through unchanged, so the meta-gradient is the gradient at
//!   the adapted weights. The inner loop, the query loss and that gradient
//!   run on a compiled first-order [`Step`].
//! * With `second_order = true`, the update is built with differentiable
//!   tensor operations and **swapped into** the model's parameter slots;
//!   inner gradients stay in the `Rc` graph and the meta-gradient
//!   differentiates *through* the inner updates — full MAML, enabled by
//!   the double-backward autodiff of `metadse-nn`.
//!
//! # Parallel execution
//!
//! The tasks of one meta-batch are independent: each starts from the same
//! meta-parameters and only its gradient flows back. [`pretrain`] exploits
//! this without making the `Rc`-based autograd graph `Send` — tasks are
//! sampled serially (so the RNG stream never depends on the thread count),
//! the calling thread compiles the meta-parameters once (a [`Step`], or
//! for second-order MAML a plan each worker rebuilds its predictor from),
//! each worker runs every task it claims from a clone of that, and the
//! gradient buffers are reduced in task order before the Adam step. One
//! worker takes the same path as many, and the result is bit-identical
//! at every thread count for the same seed.

use metadse_obs as obs;
use metadse_obs::report;
use metadse_parallel::ParallelConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

use metadse_nn::autograd::grad;
use metadse_nn::layers::{self, Module, Param};
use metadse_nn::optim::{Adam, Optimizer};
use metadse_nn::tensor::fused::{self, FusedModeGuard};
use metadse_nn::tensor::pool;
use metadse_nn::{BackendModeGuard, Elem, Tensor};
use metadse_workloads::{Dataset, Metric, Task, TaskSampler};

use crate::checkpoint::{CheckpointConfig, Checkpointer, TrainState};
use crate::plan::Plan;
use crate::predictor::TransformerPredictor;
use crate::step::{self, Step};

/// Hyperparameters of the MAML pre-training stage.
#[derive(Debug, Clone, PartialEq)]
pub struct MamlConfig {
    /// Inner-loop (task adaptation) learning rate α.
    pub inner_lr: Elem,
    /// Outer-loop (meta) learning rate β for Adam.
    pub outer_lr: Elem,
    /// Inner-loop gradient steps per task.
    pub inner_steps: usize,
    /// Meta-training epochs.
    pub epochs: usize,
    /// Meta-iterations per epoch (each draws one task per train workload).
    pub iterations_per_epoch: usize,
    /// Support-set size per task.
    pub support_size: usize,
    /// Query-set size per task.
    pub query_size: usize,
    /// Validation tasks per workload per epoch.
    pub val_tasks: usize,
    /// Use full second-order MAML instead of FOMAML.
    pub second_order: bool,
    /// RNG seed for task sampling.
    pub seed: u64,
    /// Worker threads for per-task fan-out (`Some(1)` = exact serial
    /// path; `None` = `METADSE_THREADS`, then the machine).
    pub parallel: ParallelConfig,
    /// Crash-safe checkpointing of the training state (`None` = off).
    /// Resuming from a checkpoint written by a killed run reproduces the
    /// uninterrupted run bit-for-bit; see [`crate::checkpoint`].
    pub checkpoint: Option<CheckpointConfig>,
}

impl MamlConfig {
    /// Paper-scale settings (§VI-A): 15 epochs × 200 tasks per workload,
    /// 5 support / 45 query, 5 inner SGD steps. The paper's learning rates
    /// (α = 1e−5, β = 1e−4) are tuned to their dataset scale; ours default
    /// to the values that converge on the analytical simulator's label
    /// scale (documented in EXPERIMENTS.md).
    pub fn paper() -> MamlConfig {
        MamlConfig {
            inner_lr: 0.02,
            outer_lr: 1e-3,
            inner_steps: 5,
            epochs: 15,
            iterations_per_epoch: 200,
            support_size: 5,
            query_size: 45,
            val_tasks: 20,
            second_order: false,
            seed: 17,
            parallel: ParallelConfig::default(),
            checkpoint: None,
        }
    }

    /// Reduced-scale settings for a single CPU core: same structure,
    /// fewer iterations (used by default in the harness binaries).
    pub fn scaled() -> MamlConfig {
        MamlConfig {
            inner_lr: 0.02,
            epochs: 8,
            iterations_per_epoch: 30,
            val_tasks: 5,
            ..MamlConfig::paper()
        }
    }

    /// Tiny settings for unit/integration tests.
    pub fn tiny() -> MamlConfig {
        MamlConfig {
            epochs: 2,
            iterations_per_epoch: 6,
            inner_steps: 3,
            val_tasks: 3,
            ..MamlConfig::paper()
        }
    }
}

/// Outcome of a pre-training run.
#[derive(Debug, Clone, PartialEq)]
pub struct PretrainReport {
    /// Mean post-adaptation validation loss after each epoch.
    pub val_losses: Vec<Elem>,
    /// Epoch whose parameters were kept (meta-validation selection).
    pub best_epoch: usize,
    /// Best validation loss.
    pub best_val_loss: Elem,
    /// Mean meta-training query loss per epoch.
    pub train_losses: Vec<Elem>,
}

/// Runs the inner loop: adapts the model's parameter slots to the support
/// set with `steps` of functional SGD and returns the original tensors so
/// the caller can [`layers::restore`] them.
///
/// With `create_graph = true` the returned originals remain connected to
/// the fast weights through the `Rc` graph (second-order MAML); with
/// `false` the steps run compiled ([`Step`]) and the slots receive the
/// adapted values as fresh leaves — the first-order connection, whose
/// gradient passes through every update unchanged.
pub fn inner_adapt(
    model: &TransformerPredictor,
    support_x: &[Vec<Elem>],
    support_y: &[Elem],
    steps: usize,
    lr: Elem,
    create_graph: bool,
) -> Vec<Tensor> {
    let params = model.params();
    let theta = layers::snapshot(&params);
    if !create_graph {
        let mut step = Step::compile(model, support_x.len());
        inner_steps(&mut step, support_x, support_y, steps, lr);
        if steps > 0 {
            step.store(model);
        }
        return theta;
    }
    let mut current = theta.clone();
    let mut first_loss = 0.0;
    let mut last_loss = 0.0;
    for step in 0..steps {
        let loss = model.mse_on(support_x, support_y);
        obs::with(|| {
            if step == 0 {
                first_loss = loss.value();
            }
            last_loss = loss.value();
        });
        let grads = grad(&loss, &current, true);
        let updated: Vec<Tensor> = current
            .iter()
            .zip(&grads)
            .map(|(t, g)| t.sub(&g.mul_scalar(lr)))
            .collect();
        layers::restore(&params, &updated);
        current = updated;
    }
    record_inner_loss_delta(steps, first_loss, last_loss);
    theta
}

/// The first-order inner loop on a compiled step, from the values it
/// holds.
fn inner_steps(
    step: &mut Step,
    support_x: &[Vec<Elem>],
    support_y: &[Elem],
    steps: usize,
    lr: Elem,
) {
    let rates = vec![lr; step.param_ranges().count()];
    let (first, last) = step::sgd(step, support_x, support_y, steps, |_| rates.clone());
    record_inner_loss_delta(steps, first, last);
}

fn record_inner_loss_delta(steps: usize, first_loss: Elem, last_loss: Elem) {
    obs::with(|| {
        if steps > 0 {
            // How much the support loss dropped over the inner loop —
            // the paper's "does adaptation help" signal per task.
            obs::histogram("maml/inner_loss_delta", first_loss - last_loss);
        }
    });
}

/// Evaluates `f(state, i)` for `i in 0..n`, returning results in index
/// order: the one-stage case of [`fan_out_staged`].
pub(crate) fn fan_out_tasks<'t, C, S, T>(
    template: &'t C,
    parallel: &ParallelConfig,
    n: usize,
    prepare: impl Fn(&'t C) -> S + Sync,
    f: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T>
where
    C: Sync,
    T: Send + Sync,
{
    fan_out_staged(
        template,
        parallel,
        n,
        prepare,
        |state, i| (f(state, i), 0),
        |_, _, _, _| -> () { unreachable!("one-stage fan-outs release no units") },
    )
    .into_iter()
    .map(|(value, _)| value)
    .collect()
}

/// A two-stage fan-out over `items` from state the calling thread
/// compiled ([`ParallelConfig::run_two_stage`]): `first(state, i)`
/// returns `(a, units)`, and `second(state, i, &a, u)` runs for each
/// `u in 0..units` on whichever worker is idle once item `i`'s first
/// stage has returned. Results come back per item, units in order.
///
/// Every worker — the calling thread is worker 0, and a one-worker run
/// takes the same path — enters the caller's tensor backend and builds
/// its state once with `prepare(template)` before its first stage: a
/// clone of the compiled step or plan (the `Rc`-based graph never crosses
/// threads, and a compiled template does), which it keeps for every stage
/// it runs. The backend is the one thread-local tensor mode a compiled
/// plan reads; the fused-kernel and pool modes reach only the graph, so
/// a fan-out that runs the graph carries what it needs in `prepare`. The
/// stages must be pure functions of the template, the indices and the
/// first-stage result, so results are bit-identical at every worker
/// count.
///
/// Before fanning out to other workers, the calling thread's pooled
/// buffers are freed outright: its own work then reuses that memory from
/// its allocator, rather than leaving it idle in the pool while the other
/// workers grow memory of their own.
pub(crate) fn fan_out_staged<'t, C, S, A, B>(
    template: &'t C,
    parallel: &ParallelConfig,
    items: usize,
    prepare: impl Fn(&'t C) -> S + Sync,
    first: impl Fn(&mut S, usize) -> (A, usize) + Sync,
    second: impl Fn(&mut S, usize, &A, usize) -> B + Sync,
) -> Vec<(A, Vec<B>)>
where
    C: Sync,
    A: Send + Sync,
    B: Send,
{
    let backend = metadse_nn::backend::kind();
    if parallel.workers_for(items) > 1 {
        pool::release();
    }
    parallel.run_two_stage(
        items,
        |_| (BackendModeGuard::set(backend), prepare(template)),
        |(_, state), i| first(state, i),
        |(_, state), i, a, u| second(state, i, a, u),
    )
}

/// One meta-batch member, first-order: inner-adapts the worker's step
/// (which holds the meta-parameters on entry) on the task's support set
/// and returns `(query loss, per-parameter meta-gradient buffers)`. Each
/// fast-weight update passes the gradient through unchanged, so the
/// first-order meta-gradient is the step's gradient at the adapted
/// values.
fn first_order_meta_grads(
    step: &mut Step,
    task: &Task,
    config: &MamlConfig,
) -> (Elem, Vec<Vec<Elem>>) {
    inner_steps(
        step,
        &task.support_x,
        &task.support_y,
        config.inner_steps,
        config.inner_lr,
    );
    let loss = step.loss_and_grad(&task.query_x, &task.query_y);
    let grads = step.grads();
    let meta = step
        .param_ranges()
        .map(|(_, r)| grads[r].to_vec())
        .collect();
    (loss, meta)
}

/// One meta-batch member, second-order: differentiates the query loss
/// through the inner updates on the `Rc` graph, with respect to the
/// pre-adaptation parameters, and leaves `model` exactly as found.
fn second_order_meta_grads(
    model: &TransformerPredictor,
    task: &Task,
    config: &MamlConfig,
) -> (Elem, Vec<Vec<Elem>>) {
    let params = model.params();
    let theta = inner_adapt(
        model,
        &task.support_x,
        &task.support_y,
        config.inner_steps,
        config.inner_lr,
        true,
    );
    let query_loss = model.mse_on(&task.query_x, &task.query_y);
    let value = query_loss.value();
    let meta_grads = grad(&query_loss, &theta, false);
    layers::restore(&params, &theta);
    (value, meta_grads.iter().map(|g| g.to_vec()).collect())
}

/// Post-adaptation loss of the model on one task, leaving the model's
/// parameters untouched (adapt on support, evaluate on query).
pub fn adapted_query_loss(
    model: &TransformerPredictor,
    task: &metadse_workloads::Task,
    steps: usize,
    lr: Elem,
) -> Elem {
    let mut step = Step::compile(model, task.support_x.len().max(task.query_x.len()));
    adapted_step_loss(&mut step, task, steps, lr)
}

/// [`adapted_query_loss`] on a compiled step, from the values it holds.
fn adapted_step_loss(step: &mut Step, task: &Task, steps: usize, lr: Elem) -> Elem {
    inner_steps(step, &task.support_x, &task.support_y, steps, lr);
    step.loss(&task.query_x, &task.query_y)
}

/// Fans `f(step, i)` out over `n` tasks like [`fan_out_tasks`]: one step
/// for `rows`-row batches is compiled from `model` on the calling thread,
/// each worker runs a clone of it, and every task starts from the
/// model's values.
fn fan_out_steps<T: Send + Sync>(
    model: &TransformerPredictor,
    parallel: &ParallelConfig,
    n: usize,
    rows: usize,
    f: impl Fn(&mut Step, usize) -> T + Sync,
) -> Vec<T> {
    let template = Step::compile(model, rows);
    let theta = template.values();
    fan_out_tasks(&template, parallel, n, Step::clone, |step, i| {
        step.set_values(theta);
        f(step, i)
    })
}

/// Hash of everything a checkpoint must agree on to be resumable: the
/// training configuration (with the execution-only `parallel` and
/// `checkpoint` fields canonicalized away, so a resume may change thread
/// counts or checkpoint cadence), the model's parameter geometry, and
/// the training task itself — source/validation workloads and the
/// target metric. The task matters because one binary can run several
/// pretrains with the same config into the same checkpoint directory
/// (fig5's leave-one-out splits, table2's IPC-then-power pass): without
/// it, a later pretrain would adopt an earlier one's final checkpoint.
fn config_fingerprint(
    config: &MamlConfig,
    train: &[Dataset],
    validation: &[Dataset],
    metric: Metric,
    params: &[Param],
) -> u64 {
    let canonical = MamlConfig {
        parallel: ParallelConfig::default(),
        checkpoint: None,
        ..config.clone()
    };
    let mut repr = format!("{canonical:?}|{metric:?}");
    for ds in train.iter().chain(validation) {
        repr.push_str(&format!("|{}:{}", ds.workload_name(), ds.len()));
    }
    for p in params {
        repr.push_str(&format!("|{}:{:?}", p.name(), p.shape()));
    }
    metadse_nn::format::fnv1a(repr.as_bytes())
}

/// Captures the complete training state and hands it to the
/// checkpointer. A failed write degrades gracefully: it is warned about
/// and counted (`ckpt/write_failures`), and training continues on the
/// exact same trajectory — checkpointing never touches the numerics.
#[allow(clippy::too_many_arguments)]
fn save_checkpoint(
    cp: &mut Checkpointer,
    fingerprint: u64,
    epoch: u64,
    iter: u64,
    global_iter: u64,
    rng: &StdRng,
    epoch_loss: Elem,
    epoch_count: usize,
    report: &PretrainReport,
    params: &[Param],
    best_params: &[Tensor],
    optimizer: &Adam,
) {
    let state = TrainState {
        fingerprint,
        epoch,
        iter,
        global_iter,
        rng: rng.state(),
        epoch_loss,
        epoch_count: epoch_count as u64,
        train_losses: report.train_losses.clone(),
        val_losses: report.val_losses.clone(),
        best_epoch: report.best_epoch as u64,
        best_val_loss: report.best_val_loss,
        lr: optimizer.learning_rate(),
        params: params.iter().map(|p| p.get().to_vec()).collect(),
        best_params: best_params.iter().map(Tensor::to_vec).collect(),
        adam: optimizer.export_state(),
    };
    if let Err(e) = cp.save(&state) {
        obs::counter("ckpt/write_failures", 1);
        report::warn(format!(
            "checkpoint: write failed ({e}); training continues without it"
        ));
    }
}

/// Meta-trains `model` on the training datasets, selecting the best epoch
/// by meta-validation (Algorithm 1 plus the paper's validation step).
///
/// With [`MamlConfig::checkpoint`] set, the complete training state is
/// persisted every `interval` meta-iterations and at every epoch
/// boundary, and a run that finds a compatible checkpoint resumes from
/// it — continuing the interrupted run's floating-point trajectory
/// bit-for-bit (same final parameters, same [`PretrainReport`]).
///
/// # Panics
///
/// Panics if `train` is empty or any dataset is smaller than
/// `support_size + query_size`.
pub fn pretrain(
    model: &TransformerPredictor,
    train: &[Dataset],
    validation: &[Dataset],
    metric: Metric,
    config: &MamlConfig,
) -> PretrainReport {
    assert!(!train.is_empty(), "need at least one training workload");
    let _span = obs::span("maml/pretrain");
    obs::gauge("maml/outer_lr", config.outer_lr);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let sampler = TaskSampler::new(config.support_size, config.query_size);
    let params = model.params();
    let mut optimizer = Adam::new(params.clone(), config.outer_lr);

    let mut report = PretrainReport {
        val_losses: Vec::with_capacity(config.epochs),
        best_epoch: 0,
        best_val_loss: Elem::INFINITY,
        train_losses: Vec::with_capacity(config.epochs),
    };
    let mut best_params: Vec<Tensor> = layers::clone_values(&params);

    let fingerprint = config_fingerprint(config, train, validation, metric, &params);
    let mut checkpointer = config
        .checkpoint
        .as_ref()
        .map(|c| Checkpointer::new(c.clone()));
    let mut start_epoch = 0usize;
    let mut resume_iter = 0usize;
    let mut global_iter = 0u64;
    let mut epoch_loss = 0.0;
    let mut epoch_count = 0usize;

    if let Some(cp) = checkpointer.as_mut() {
        match cp.load_latest() {
            Some((state, generation)) if state.fingerprint == fingerprint => {
                model.load_values(&state.params);
                best_params = state
                    .best_params
                    .iter()
                    .zip(&params)
                    .map(|(v, p)| Tensor::param_from_vec(v.clone(), &p.shape()))
                    .collect();
                optimizer
                    .import_state(&state.adam)
                    .expect("fingerprint-matched checkpoint has matching optimizer geometry");
                optimizer.set_learning_rate(state.lr);
                rng = StdRng::from_state(state.rng);
                report.train_losses = state.train_losses;
                report.val_losses = state.val_losses;
                report.best_epoch = state.best_epoch as usize;
                report.best_val_loss = state.best_val_loss;
                start_epoch = state.epoch as usize;
                resume_iter = state.iter as usize;
                global_iter = state.global_iter;
                epoch_loss = state.epoch_loss;
                epoch_count = state.epoch_count as usize;
                obs::counter("ckpt/resumes", 1);
                report::line(format!(
                    "checkpoint: resumed from generation {generation} \
                     (epoch {start_epoch}, iteration {resume_iter})"
                ));
            }
            Some(_) => report::warn(
                "checkpoint: configuration fingerprint mismatch; ignoring checkpoints \
                 and starting fresh",
            ),
            None => {}
        }
    }

    for epoch in start_epoch..config.epochs {
        let _epoch_span = obs::span("maml/epoch");
        // `resume_iter` applies only to the epoch the checkpoint was
        // taken in; every other epoch starts from iteration 0 with
        // fresh loss accumulators.
        let first_iter = std::mem::take(&mut resume_iter);
        if first_iter == 0 {
            epoch_loss = 0.0;
            epoch_count = 0;
        }
        for it in first_iter..config.iterations_per_epoch {
            // One task from each source workload forms the meta-batch
            // (line 3 of Algorithm 1 samples tasks across workloads).
            // Sampling stays serial so the RNG stream is the same at any
            // thread count; the per-task work then fans out.
            let tasks: Vec<Task> = train
                .iter()
                .map(|dataset| sampler.sample(dataset, metric, &mut rng))
                .collect();
            let outcomes = if config.second_order {
                // Each worker differentiates on a predictor of its own,
                // built from the plan that holds the caller's values and
                // masks, under the caller's fused mode: a double backward
                // through the fused kernels rounds differently from the
                // composite's.
                let plan = Plan::from_model(model, 1);
                let fused = fused::is_enabled();
                fan_out_tasks(
                    &plan,
                    &config.parallel,
                    tasks.len(),
                    |plan| (FusedModeGuard::set(fused), plan.to_model()),
                    |(_, m), i| second_order_meta_grads(m, &tasks[i], config),
                )
            } else {
                let rows = config.support_size.max(config.query_size);
                fan_out_steps(model, &config.parallel, tasks.len(), rows, |s, i| {
                    first_order_meta_grads(s, &tasks[i], config)
                })
            };

            // Reduce in task order — the exact summation order of the
            // serial loop, so the averaged gradient is bit-identical.
            let mut accumulated: Option<Vec<Vec<Elem>>> = None;
            for (loss, grads) in outcomes {
                epoch_loss += loss;
                epoch_count += 1;
                accumulated = Some(match accumulated {
                    None => grads,
                    Some(mut acc) => {
                        for (a, g) in acc.iter_mut().zip(&grads) {
                            for (av, gv) in a.iter_mut().zip(g) {
                                *av += gv;
                            }
                        }
                        acc
                    }
                });
            }
            let inv = 1.0 / train.len() as Elem;
            let grads: Vec<Tensor> = accumulated
                .expect("at least one train workload")
                .into_iter()
                .zip(&params)
                .map(|(mut g, p)| {
                    for v in &mut g {
                        *v *= inv;
                    }
                    Tensor::from_vec(g, &p.shape())
                })
                .collect();
            obs::with(|| {
                let sq: Elem = grads
                    .iter()
                    .map(|g| g.to_vec().iter().map(|v| v * v).sum::<Elem>())
                    .sum();
                obs::histogram("maml/grad_norm", sq.sqrt());
            });
            optimizer.step(&grads);
            // One meta-iteration's tensors have all dropped by now; trim
            // the buffer pool so retained memory tracks the working set.
            metadse_nn::tensor::pool::reclaim();
            global_iter += 1;
            if let Some(cp) = checkpointer.as_mut() {
                let interval = cp.config().interval as u64;
                if interval > 0 && global_iter.is_multiple_of(interval) {
                    save_checkpoint(
                        cp,
                        fingerprint,
                        epoch as u64,
                        (it + 1) as u64,
                        global_iter,
                        &rng,
                        epoch_loss,
                        epoch_count,
                        &report,
                        &params,
                        &best_params,
                        &optimizer,
                    );
                }
                // Fault-harness kill switch: stop dead, like a SIGKILL —
                // no final checkpoint, no best-epoch restore.
                if cp.config().halt_after.is_some_and(|h| global_iter >= h) {
                    report::warn(format!(
                        "checkpoint: halting after meta-iteration {global_iter} \
                         (injected kill)"
                    ));
                    return report;
                }
            }
        }
        let train_loss = epoch_loss / epoch_count.max(1) as Elem;
        obs::gauge("maml/train_loss", train_loss);
        report.train_losses.push(train_loss);

        // Meta-validation (step 5 of Fig. 3): post-adaptation loss on
        // held-out workloads decides which epoch's θ* ships.
        let val_loss = meta_validate(model, validation, metric, config, &mut rng);
        obs::gauge("maml/val_loss", val_loss);
        report.val_losses.push(val_loss);
        if val_loss < report.best_val_loss {
            report.best_val_loss = val_loss;
            report.best_epoch = epoch;
            best_params = layers::clone_values(&params);
        }

        // Epoch-boundary checkpoint: captures the validation result and
        // the best-epoch selection the interval saves cannot see.
        if let Some(cp) = checkpointer.as_mut() {
            save_checkpoint(
                cp,
                fingerprint,
                (epoch + 1) as u64,
                0,
                global_iter,
                &rng,
                0.0,
                0,
                &report,
                &params,
                &best_params,
                &optimizer,
            );
        }
    }

    layers::restore(&params, &best_params);
    report
}

/// Mean post-adaptation query loss over the validation workloads.
fn meta_validate(
    model: &TransformerPredictor,
    validation: &[Dataset],
    metric: Metric,
    config: &MamlConfig,
    rng: &mut StdRng,
) -> Elem {
    if validation.is_empty() {
        return Elem::INFINITY;
    }
    let _span = obs::span("maml/validate");
    let sampler = TaskSampler::new(config.support_size, config.query_size);
    // Serial sampling (RNG stream fixed), parallel per-task adaptation,
    // task-order summation: bit-identical at any thread count.
    let mut tasks: Vec<Task> = Vec::with_capacity(validation.len() * config.val_tasks);
    for dataset in validation {
        for _ in 0..config.val_tasks {
            tasks.push(sampler.sample(dataset, metric, rng));
        }
    }
    let rows = config.support_size.max(config.query_size);
    let losses = fan_out_steps(model, &config.parallel, tasks.len(), rows, |s, i| {
        adapted_step_loss(s, &tasks[i], config.inner_steps, config.inner_lr)
    });
    let mut total = 0.0;
    for loss in &losses {
        total += loss;
    }
    total / losses.len() as Elem
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictorConfig;
    use metadse_workloads::Sample;
    use rand::Rng;

    /// Synthetic task family: y = dot(w_task, x) where w_task varies by
    /// "workload" — meta-learnable structure with task variation.
    fn synthetic_dataset(seed: u64, dim: usize, n: usize, shift: f64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let samples = (0..n)
            .map(|_| {
                let features: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();
                let y: f64 = features
                    .iter()
                    .enumerate()
                    .map(|(j, v)| v * ((j as f64 * 0.7 + shift).sin() + 1.0))
                    .sum::<f64>()
                    / dim as f64;
                Sample {
                    features,
                    ipc: y,
                    power_w: y * 10.0,
                }
            })
            .collect();
        Dataset::from_samples(format!("synthetic-{seed}"), samples)
    }

    fn tiny_model(dim: usize) -> TransformerPredictor {
        TransformerPredictor::new(
            PredictorConfig {
                num_params: dim,
                d_model: 8,
                heads: 2,
                depth: 1,
                d_hidden: 16,
                head_hidden: 8,
            },
            5,
        )
    }

    #[test]
    fn inner_adapt_reduces_support_loss_and_restores() {
        let dim = 6;
        let model = tiny_model(dim);
        let ds = synthetic_dataset(1, dim, 60, 0.0);
        let sampler = TaskSampler::new(8, 8);
        let mut rng = StdRng::seed_from_u64(2);
        let task = sampler.sample(&ds, Metric::Ipc, &mut rng);

        let before = model.mse_on(&task.support_x, &task.support_y).value();
        let params = model.params();
        let theta = inner_adapt(&model, &task.support_x, &task.support_y, 20, 0.05, false);
        let after = model.mse_on(&task.support_x, &task.support_y).value();
        assert!(
            after < before,
            "adaptation should reduce loss: {before} -> {after}"
        );

        layers::restore(&params, &theta);
        let restored = model.mse_on(&task.support_x, &task.support_y).value();
        assert!((restored - before).abs() < 1e-12, "restore must be exact");
    }

    #[test]
    fn pretraining_improves_post_adaptation_loss() {
        let dim = 6;
        let model = tiny_model(dim);
        let train: Vec<Dataset> = (0..3)
            .map(|i| synthetic_dataset(10 + i, dim, 80, i as f64 * 0.5))
            .collect();
        let val = vec![synthetic_dataset(20, dim, 80, 0.25)];
        let test = synthetic_dataset(30, dim, 80, 0.8);

        let cfg = MamlConfig {
            inner_lr: 0.05,
            outer_lr: 3e-3,
            inner_steps: 3,
            epochs: 3,
            iterations_per_epoch: 10,
            support_size: 5,
            query_size: 20,
            val_tasks: 4,
            second_order: false,
            seed: 3,
            parallel: ParallelConfig::default(),
            checkpoint: None,
        };

        // Baseline: random-init model adapted on test tasks.
        let sampler = TaskSampler::new(cfg.support_size, cfg.query_size);
        let mut rng = StdRng::seed_from_u64(4);
        let tasks: Vec<_> = (0..6)
            .map(|_| sampler.sample(&test, Metric::Ipc, &mut rng))
            .collect();
        let before: f64 = tasks
            .iter()
            .map(|t| adapted_query_loss(&model, t, cfg.inner_steps, cfg.inner_lr))
            .sum::<f64>()
            / tasks.len() as f64;

        let report = pretrain(&model, &train, &val, Metric::Ipc, &cfg);
        let after: f64 = tasks
            .iter()
            .map(|t| adapted_query_loss(&model, t, cfg.inner_steps, cfg.inner_lr))
            .sum::<f64>()
            / tasks.len() as f64;

        assert!(
            after < before,
            "meta-pretraining should help unseen tasks: {before} -> {after}"
        );
        assert_eq!(report.val_losses.len(), cfg.epochs);
        assert!(report.best_val_loss.is_finite());
    }

    #[test]
    fn second_order_runs_and_differs_from_first_order() {
        let dim = 4;
        let ds = vec![synthetic_dataset(40, dim, 60, 0.1)];
        let val = vec![synthetic_dataset(41, dim, 60, 0.2)];
        let cfg_fo = MamlConfig {
            inner_lr: 0.05,
            outer_lr: 1e-3,
            inner_steps: 2,
            epochs: 1,
            iterations_per_epoch: 4,
            support_size: 5,
            query_size: 10,
            val_tasks: 2,
            second_order: false,
            seed: 5,
            parallel: ParallelConfig::default(),
            checkpoint: None,
        };
        let cfg_so = MamlConfig {
            second_order: true,
            ..cfg_fo.clone()
        };
        let m1 = tiny_model(dim);
        let m2 = tiny_model(dim);
        // Identical inits (same seed), different MAML order.
        pretrain(&m1, &ds, &val, Metric::Ipc, &cfg_fo);
        pretrain(&m2, &ds, &val, Metric::Ipc, &cfg_so);
        let probe = vec![vec![0.3; dim]];
        let p1 = m1.predict(&probe)[0];
        let p2 = m2.predict(&probe)[0];
        assert!(
            (p1 - p2).abs() > 1e-12,
            "second-order term should change the trajectory"
        );
    }

    #[test]
    fn pretrain_report_tracks_best_epoch() {
        let dim = 4;
        let model = tiny_model(dim);
        let ds = vec![synthetic_dataset(50, dim, 60, 0.0)];
        let val = vec![synthetic_dataset(51, dim, 60, 0.1)];
        let report = pretrain(
            &model,
            &ds,
            &val,
            Metric::Ipc,
            &MamlConfig {
                inner_lr: 0.05,
                outer_lr: 1e-3,
                inner_steps: 2,
                epochs: 3,
                iterations_per_epoch: 4,
                support_size: 5,
                query_size: 10,
                val_tasks: 2,
                second_order: false,
                seed: 6,
                parallel: ParallelConfig::default(),
                checkpoint: None,
            },
        );
        assert!(report.best_epoch < 3);
        let min = report
            .val_losses
            .iter()
            .cloned()
            .fold(f64::INFINITY, f64::min);
        assert_eq!(report.best_val_loss, min);
    }
}
