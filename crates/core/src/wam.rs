//! Workload-adaptive architectural mask (paper §IV-C, Fig. 4,
//! Algorithm 2).
//!
//! WAM replaces similarity-based knowledge transfer with an *architectural*
//! prior: attention weights recorded from the last self-attention layer
//! during pre-training reveal which parameter interactions matter across
//! many workloads. High-frequency interactions are kept; the rest receive a
//! negative additive logit bias. The mask is installed as a **learnable**
//! parameter and fine-tuned together with the model during adaptation, with
//! cosine-annealed SGD (§VI-A).

use metadse_nn::autograd::{grad, no_grad};
use metadse_nn::layers::{self, Module, Param};
use metadse_nn::optim::CosineAnnealing;
use metadse_nn::{Elem, Tensor};
use metadse_obs as obs;
use metadse_parallel::ParallelConfig;
use metadse_workloads::{Dataset, Sample, Task};

use crate::maml::{fan_out_staged, fan_out_tasks};
use crate::predictor::TransformerPredictor;

/// Mask-generation hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct WamConfig {
    /// How many interactions per query row count as "active" in one
    /// observation.
    pub top_k: usize,
    /// Fraction of observations in which an interaction must be active to
    /// be kept unmasked.
    pub frequency_threshold: Elem,
    /// Additive logit penalty for filtered interactions (soft mask; the
    /// adaptation stage can learn it back).
    pub penalty: Elem,
}

impl Default for WamConfig {
    fn default() -> Self {
        WamConfig {
            top_k: 6,
            frequency_threshold: 0.25,
            penalty: 2.0,
        }
    }
}

/// Accumulates attention statistics across recorded forward passes.
#[derive(Debug, Clone, PartialEq)]
pub struct AttentionStats {
    seq: usize,
    counts: Vec<Elem>,
    observations: usize,
}

impl AttentionStats {
    /// Creates empty statistics for `seq` tokens.
    pub fn new(seq: usize) -> AttentionStats {
        AttentionStats {
            seq,
            counts: vec![0.0; seq * seq],
            observations: 0,
        }
    }

    /// Records one attention tensor `[batch, heads, seq, seq]`: for every
    /// (batch, head, row), the `top_k` strongest interactions count as
    /// active (the "mask candidates" of Fig. 4).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not rank 4 with matching `seq`.
    pub fn observe(&mut self, attention: &Tensor, top_k: usize) {
        assert_eq!(attention.ndim(), 4, "attention must be [b, h, s, s]");
        let (b, h, s) = (
            attention.shape()[0],
            attention.shape()[1],
            attention.shape()[2],
        );
        assert_eq!(s, self.seq, "token count mismatch");
        assert_eq!(attention.shape()[3], s, "attention must be square");
        let data = attention.data();
        let k = top_k.min(s);
        for bh in 0..(b * h) {
            for row in 0..s {
                let base = (bh * s + row) * s;
                let row_slice = &data[base..base + s];
                // Indices of the k largest entries.
                let mut idx: Vec<usize> = (0..s).collect();
                idx.sort_by(|&i, &j| row_slice[j].total_cmp(&row_slice[i]));
                for &col in idx.iter().take(k) {
                    self.counts[row * s + col] += 1.0;
                }
            }
            self.observations += 1;
        }
    }

    /// Adds the observations recorded in `other`. Counts are whole
    /// numbers, so merging per-batch statistics in any grouping gives
    /// exactly the counts of observing every batch into one.
    ///
    /// # Panics
    ///
    /// Panics if the token counts differ.
    pub fn merge(&mut self, other: &AttentionStats) {
        assert_eq!(self.seq, other.seq, "token count mismatch");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.observations += other.observations;
    }

    /// Number of (batch × head) observations recorded.
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// Frequency matrix `[seq × seq]`: how often each interaction was among
    /// the top-k.
    pub fn frequencies(&self) -> Vec<Elem> {
        if self.observations == 0 {
            return vec![0.0; self.seq * self.seq];
        }
        self.counts
            .iter()
            .map(|c| c / self.observations as Elem)
            .collect()
    }

    /// Builds the additive mask: 0 for kept interactions (frequency at or
    /// above the threshold, and always the diagonal); filtered interactions
    /// receive a penalty graded by how far below the threshold their
    /// frequency falls (never-attended pairs get the full `-penalty`).
    pub fn build_mask(&self, config: &WamConfig) -> Tensor {
        let freq = self.frequencies();
        let s = self.seq;
        let data: Vec<Elem> = (0..s * s)
            .map(|i| {
                let (row, col) = (i / s, i % s);
                if row == col || freq[i] >= config.frequency_threshold {
                    0.0
                } else {
                    -config.penalty * (config.frequency_threshold - freq[i])
                        / config.frequency_threshold
                }
            })
            .collect();
        Tensor::from_vec(data, &[s, s])
    }
}

/// Collects attention statistics by running the pre-trained model over the
/// source datasets with recording enabled (the pre-training side of
/// Fig. 4), then builds the workload-adaptive mask as a learnable
/// parameter.
///
/// Each dataset is cut into `batch_size`-row batches, and the batches fan
/// out across the machine's workers ([`ParallelConfig::default`]; see
/// [`generate_mask_with`]).
pub fn generate_mask(
    model: &TransformerPredictor,
    sources: &[Dataset],
    config: &WamConfig,
    batch_size: usize,
) -> Param {
    generate_mask_with(
        model,
        sources,
        config,
        batch_size,
        &ParallelConfig::default(),
    )
}

/// [`generate_mask`] with its batches fanned out under `parallel`. Each
/// batch's top-k counts are whole numbers, so summing them in batch order
/// gives the serial statistics exactly: the mask is the same at every
/// thread count.
pub fn generate_mask_with(
    model: &TransformerPredictor,
    sources: &[Dataset],
    config: &WamConfig,
    batch_size: usize,
    parallel: &ParallelConfig,
) -> Param {
    let _span = obs::span("wam/generate_mask");
    let seq = model.config().num_params;
    let batches: Vec<&[Sample]> = sources
        .iter()
        .flat_map(|dataset| dataset.samples().chunks(batch_size.max(1)))
        .collect();
    let partial = fan_out_tasks(model, parallel, batches.len(), |m, i| {
        let batch: Vec<Vec<Elem>> = batches[i].iter().map(|s| s.features.clone()).collect();
        m.set_record_attention(true);
        no_grad(|| m.forward_batch(&batch));
        m.set_record_attention(false);
        let mut stats = AttentionStats::new(seq);
        if let Some(attention) = m.last_attention() {
            stats.observe(&attention, config.top_k);
        }
        stats
    });
    let mut stats = AttentionStats::new(seq);
    for part in &partial {
        stats.merge(part);
    }
    obs::with(|| {
        // Shannon entropy of the normalized interaction-frequency matrix:
        // high = attention spread evenly (mask filters little signal),
        // low = a few interactions dominate (mask is highly selective).
        let freq = stats.frequencies();
        let total: Elem = freq.iter().sum();
        if total > 0.0 {
            let entropy: Elem = freq
                .iter()
                .filter(|&&f| f > 0.0)
                .map(|&f| {
                    let p = f / total;
                    -p * p.ln()
                })
                .sum();
            obs::gauge("wam/mask_entropy", entropy);
        }
        obs::counter("wam/masks_generated", 1);
    });
    let mask = stats.build_mask(config);
    Param::new(
        "wam.mask",
        Tensor::param_from_vec(mask.to_vec(), mask.shape()),
    )
}

/// Adaptation hyperparameters (Algorithm 2 + §VI-A: ten gradient steps
/// with cosine annealing).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptConfig {
    /// Gradient steps on the target support set.
    pub steps: usize,
    /// Peak learning rate γ.
    pub lr: Elem,
    /// Anneal the rate to `lr_min` with a cosine schedule.
    pub lr_min: Elem,
    /// Learning-rate multiplier for the WAM mask itself. The mask is the
    /// *workload-adaptive* element of Algorithm 2 (`M.required_grad =
    /// True`), so it is allowed to move faster than the meta-trained
    /// weights during the few adaptation steps.
    pub mask_lr_multiplier: Elem,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            steps: 20,
            lr: 0.02,
            lr_min: 1e-3,
            mask_lr_multiplier: 4.0,
        }
    }
}

/// Fine-tunes the model (fast-weight style) on a support set with
/// cosine-annealed SGD and returns the original parameter tensors so the
/// caller can [`layers::restore`] them afterwards.
///
/// If a learnable WAM mask is installed, it is part of `model.params()` and
/// trains along with the rest — exactly Algorithm 2's
/// `M.required_grad = True`.
pub fn adapt(
    model: &TransformerPredictor,
    support_x: &[Vec<Elem>],
    support_y: &[Elem],
    config: &AdaptConfig,
) -> Vec<Tensor> {
    let _span = obs::span("wam/adapt_task");
    obs::counter("wam/adapt_steps", config.steps as u64);
    let params = model.params();
    let theta = layers::snapshot(&params);
    let schedule = CosineAnnealing::new(config.lr, config.lr_min, config.steps.max(1));
    let lr_scales: Vec<Elem> = params
        .iter()
        .map(|p| {
            if p.name() == "wam.mask" {
                config.mask_lr_multiplier
            } else {
                1.0
            }
        })
        .collect();
    let mut current = theta.clone();
    for step in 0..config.steps {
        let loss = model.mse_on(support_x, support_y);
        let grads = grad(&loss, &current, false);
        let lr = schedule.lr_at(step);
        let updated: Vec<Tensor> = current
            .iter()
            .zip(&grads)
            .zip(&lr_scales)
            .map(|((t, g), &scale)| t.sub(&g.mul_scalar(lr * scale)))
            .collect();
        layers::restore(&params, &updated);
        current = updated;
    }
    theta
}

/// Query rows per prediction unit of an adaptation sweep. Every sweep,
/// serial or parallel, and [`adapt_and_predict`] predict a task's query
/// set in these chunks, so the thread count never changes which forward
/// passes run. It matches the batch size the pipelines pass
/// [`generate_mask`].
pub const QUERY_CHUNK_ROWS: usize = 64;

/// Adapts on a task's support set (optionally through a WAM mask) and
/// returns predictions on its query set, restoring the model (values and
/// installed masks) afterwards.
pub fn adapt_and_predict(
    model: &TransformerPredictor,
    task: &Task,
    mask: Option<&Param>,
    config: &AdaptConfig,
) -> Vec<Elem> {
    let mut predictions = sweep(
        model,
        std::slice::from_ref(task),
        mask,
        config,
        &ParallelConfig::serial(),
    );
    predictions
        .pop()
        .expect("one task in, one prediction set out")
}

/// Runs [`adapt_and_predict`] over many tasks, fanning the work across
/// threads in two stages: the first adapts a task, the second predicts
/// one [`QUERY_CHUNK_ROWS`] chunk of an adapted task's query rows on
/// whichever worker is idle, so a core that runs out of tasks to adapt
/// predicts the others' queries instead of idling.
///
/// Each task adapts independently from the same pre-trained parameters
/// and the same mask prior; a worker adapts on its own predictor rebuilt
/// from a plain-buffer snapshot, captures the adapted values, and loads
/// another task's captured values when it predicts that task's chunks.
/// Predictions come back in task order and are bit-identical to the
/// serial sweep (which runs inline when one thread is effective).
pub fn adapt_sweep(
    model: &TransformerPredictor,
    tasks: &[Task],
    mask: Option<&Param>,
    config: &AdaptConfig,
    parallel: &ParallelConfig,
) -> Vec<Vec<Elem>> {
    let _span = obs::span("wam/adapt_sweep");
    obs::counter("wam/adapt_tasks", tasks.len() as u64);
    sweep(model, tasks, mask, config, parallel)
}

/// A sweep worker's view of its predictor.
struct SweepWorker {
    /// The parameter slots, a fresh learnable mask among them when the
    /// sweep has a mask prior.
    params: Vec<Param>,
    /// The pre-trained values (and the mask prior) to adapt each task
    /// from.
    theta: Vec<Tensor>,
    /// The task whose adapted values the slots hold, if any.
    holds: Option<usize>,
}

fn sweep(
    model: &TransformerPredictor,
    tasks: &[Task],
    mask: Option<&Param>,
    config: &AdaptConfig,
    parallel: &ParallelConfig,
) -> Vec<Vec<Elem>> {
    let caller_masks = model.masks();
    let caller_values = layers::snapshot(&model.params());
    let prior: Option<(Vec<Elem>, Vec<usize>)> = mask.map(|m| (m.get().to_vec(), m.shape()));
    let adapted = fan_out_staged(
        model,
        parallel,
        tasks.len(),
        |m| {
            // Each target task adapts its own learnable copy of the shared
            // architectural prior: the copy's slot is reset with the
            // weights before every task.
            if let Some((values, shape)) = &prior {
                m.install_mask(Param::new(
                    "wam.mask",
                    Tensor::param_from_vec(values.clone(), shape),
                ));
            }
            let params = m.params();
            SweepWorker {
                theta: layers::snapshot(&params),
                params,
                holds: None,
            }
        },
        |m, w: &mut SweepWorker, i| {
            if w.holds.take().is_some() {
                layers::restore(&w.params, &w.theta);
            }
            let task = &tasks[i];
            adapt(m, &task.support_x, &task.support_y, config);
            w.holds = Some(i);
            let values = m.snapshot_values();
            metadse_nn::tensor::pool::reclaim();
            (values, task.query_x.len().div_ceil(QUERY_CHUNK_ROWS))
        },
        |m, w, i, values, chunk| {
            if w.holds != Some(i) {
                m.load_values(values);
                w.holds = Some(i);
            }
            let rows = tasks[i].query_x.chunks(QUERY_CHUNK_ROWS).nth(chunk);
            let predictions = m.predict(rows.expect("chunk within the query set"));
            metadse_nn::tensor::pool::reclaim();
            predictions
        },
    );
    model.set_masks(&caller_masks);
    layers::restore(&model.params(), &caller_values);
    adapted
        .into_iter()
        .map(|(_, chunks)| chunks.concat())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::PredictorConfig;
    use metadse_workloads::{Metric, Sample, TaskSampler};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
            11,
        )
    }

    fn toy_dataset(dim: usize, n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let samples = (0..n)
            .map(|_| {
                let features: Vec<f64> = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();
                let y = features.iter().sum::<f64>() / dim as f64;
                Sample {
                    features,
                    ipc: y,
                    power_w: 10.0 * y,
                }
            })
            .collect();
        Dataset::from_samples("toy", samples)
    }

    #[test]
    fn stats_track_topk_frequencies() {
        let mut stats = AttentionStats::new(3);
        // One batch, one head: row attention concentrated on column 0.
        let attn = Tensor::from_vec(
            vec![
                0.8, 0.1, 0.1, //
                0.7, 0.2, 0.1, //
                0.9, 0.05, 0.05,
            ],
            &[1, 1, 3, 3],
        );
        stats.observe(&attn, 1);
        let freq = stats.frequencies();
        assert_eq!(stats.observations(), 1);
        assert_eq!(freq[0], 1.0); // (0,0)
        assert_eq!(freq[3], 1.0); // (1,0)
        assert_eq!(freq[6], 1.0); // (2,0)
        assert_eq!(freq[1], 0.0);
    }

    #[test]
    fn mask_keeps_diagonal_and_frequent_pairs() {
        let mut stats = AttentionStats::new(3);
        let attn = Tensor::from_vec(
            vec![
                0.8, 0.1, 0.1, //
                0.1, 0.1, 0.8, //
                0.1, 0.8, 0.1,
            ],
            &[1, 1, 3, 3],
        );
        stats.observe(&attn, 1);
        let mask = stats.build_mask(&WamConfig {
            top_k: 1,
            frequency_threshold: 0.5,
            penalty: 2.0,
        });
        let m = mask.to_vec();
        // Diagonal always kept.
        assert_eq!(m[0], 0.0);
        assert_eq!(m[4], 0.0);
        assert_eq!(m[8], 0.0);
        // (1,2) and (2,1) active -> kept; (0,1) never active -> penalized.
        assert_eq!(m[5], 0.0);
        assert_eq!(m[7], 0.0);
        assert_eq!(m[1], -2.0);
    }

    #[test]
    fn generate_mask_has_model_shape_and_is_learnable() {
        let dim = 6;
        let model = tiny_model(dim);
        let ds = vec![toy_dataset(dim, 30, 1)];
        let mask = generate_mask(&model, &ds, &WamConfig::default(), 16);
        assert_eq!(mask.shape(), vec![dim, dim]);
        assert!(mask.get().requires_grad());
        // Diagonal unmasked.
        let m = mask.get().to_vec();
        for i in 0..dim {
            assert_eq!(m[i * dim + i], 0.0);
        }
    }

    #[test]
    fn adapt_reduces_support_loss_and_restores_exactly() {
        let dim = 6;
        let model = tiny_model(dim);
        let ds = toy_dataset(dim, 60, 2);
        let mut rng = StdRng::seed_from_u64(3);
        let task = TaskSampler::new(10, 10).sample(&ds, Metric::Ipc, &mut rng);
        let before = model.mse_on(&task.support_x, &task.support_y).value();
        let params = model.params();
        let theta = adapt(
            &model,
            &task.support_x,
            &task.support_y,
            &AdaptConfig {
                steps: 20,
                lr: 0.05,
                lr_min: 1e-4,
                mask_lr_multiplier: 1.0,
            },
        );
        let after = model.mse_on(&task.support_x, &task.support_y).value();
        assert!(after < before);
        layers::restore(&params, &theta);
        assert_eq!(
            model.mse_on(&task.support_x, &task.support_y).value(),
            before
        );
    }

    #[test]
    fn adapt_and_predict_with_mask_leaves_model_clean() {
        let dim = 6;
        let model = tiny_model(dim);
        let ds = toy_dataset(dim, 60, 4);
        let mut rng = StdRng::seed_from_u64(5);
        let task = TaskSampler::new(5, 8).sample(&ds, Metric::Ipc, &mut rng);
        let mask = generate_mask(&model, &[ds], &WamConfig::default(), 16);

        let probe = vec![vec![0.5; dim]];
        let before = model.predict(&probe)[0];
        let preds = adapt_and_predict(&model, &task, Some(&mask), &AdaptConfig::default());
        assert_eq!(preds.len(), task.query_size());
        // Model fully restored: no mask, same parameters.
        assert_eq!(model.predict(&probe)[0], before);
        assert!(model.encoder().last_attention().mask().is_none());
    }

    #[test]
    fn adapt_sweep_matches_serial_adaptation() {
        let dim = 6;
        let model = tiny_model(dim);
        let ds = toy_dataset(dim, 60, 8);
        let mask = generate_mask(&model, std::slice::from_ref(&ds), &WamConfig::default(), 16);
        let mut rng = StdRng::seed_from_u64(9);
        let sampler = TaskSampler::new(5, 6);
        let tasks: Vec<Task> = (0..4)
            .map(|_| sampler.sample(&ds, Metric::Ipc, &mut rng))
            .collect();
        let cfg = AdaptConfig {
            steps: 4,
            ..AdaptConfig::default()
        };
        let serial: Vec<Vec<Elem>> = tasks
            .iter()
            .map(|t| adapt_and_predict(&model, t, Some(&mask), &cfg))
            .collect();
        let swept = adapt_sweep(
            &model,
            &tasks,
            Some(&mask),
            &cfg,
            // Oversubscribe: really fan these 4 tasks across workers even
            // on a single-core host.
            &ParallelConfig::with_threads(3).oversubscribed(),
        );
        assert_eq!(serial, swept);
    }

    #[test]
    fn masked_adaptation_trains_the_mask() {
        let dim = 6;
        let model = tiny_model(dim);
        let ds = toy_dataset(dim, 60, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let task = TaskSampler::new(10, 8).sample(&ds, Metric::Ipc, &mut rng);
        let mask = Param::new(
            "wam.mask",
            Tensor::param_from_vec(vec![0.0; dim * dim], &[dim, dim]),
        );
        model.install_mask(mask.clone());
        let params = model.params();
        // The learnable mask must be among the adapted parameters.
        assert!(params.iter().any(|p| p.name() == "wam.mask"));
        let theta = adapt(
            &model,
            &task.support_x,
            &task.support_y,
            &AdaptConfig {
                steps: 10,
                lr: 0.05,
                lr_min: 1e-3,
                mask_lr_multiplier: 1.0,
            },
        );
        // After adaptation the installed mask tensor differs from zero.
        let mask_now = model.encoder().last_attention().mask().unwrap().get();
        assert!(mask_now.to_vec().iter().any(|&v| v != 0.0));
        layers::restore(&params, &theta);
        model.clear_masks();
    }
}
