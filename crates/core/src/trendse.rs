//! TrEnDSE baseline (Wang et al., ICCAD'23) and its transformer variant.
//!
//! TrEnDSE is the state-of-the-art cross-workload framework MetaDSE is
//! compared against: for a new target workload it measures the Wasserstein
//! distance between the target's few-shot label distribution and each
//! source workload's label distribution, pulls the most similar sources'
//! data into the training pool, and fits an **ensemble** surrogate on the
//! pooled data plus the target support set.
//!
//! `TrEnDseTransformer` swaps the ensemble for a transformer predictor
//! with the same data-selection strategy (the "TrEnDSE-Transformer"
//! baseline of Fig. 5), and the plain pooled RF/GBRT baselines of Table II
//! are provided by [`fit_pooled_baseline`].

use rand::rngs::StdRng;
use rand::SeedableRng;

use metadse_mlkit::wasserstein::wasserstein_1d;
use metadse_mlkit::{GradientBoosting, RandomForest, Regressor, RidgeRegression};
use metadse_nn::layers::Module;
use metadse_nn::optim::{Adam, Optimizer};
use metadse_nn::Elem;
use metadse_parallel::ParallelConfig;
use metadse_workloads::{Dataset, Metric};

use crate::plan::{Plan, PlanArena};
use crate::predictor::{PredictorConfig, TransformerPredictor};
use crate::step::Step;

/// TrEnDSE hyperparameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrEnDseConfig {
    /// How many most-similar source workloads to pull data from.
    pub num_similar: usize,
    /// Cap on rows taken from each selected source (keeps per-task fits
    /// tractable; the paper pools entire datasets).
    pub source_cap: usize,
    /// How many times the target support set is replicated in the pool so
    /// few shots are not drowned out by source data.
    pub support_weight: usize,
    /// Seed for the ensemble members.
    pub seed: u64,
}

impl Default for TrEnDseConfig {
    fn default() -> Self {
        TrEnDseConfig {
            num_similar: 2,
            source_cap: 200,
            support_weight: 8,
            seed: 23,
        }
    }
}

/// The TrEnDSE cross-workload surrogate.
#[derive(Debug, Clone)]
pub struct TrEnDse {
    sources: Vec<Dataset>,
    metric: Metric,
    config: TrEnDseConfig,
}

impl TrEnDse {
    /// Creates the framework over the given source-workload datasets.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty.
    pub fn new(sources: Vec<Dataset>, metric: Metric, config: TrEnDseConfig) -> TrEnDse {
        assert!(!sources.is_empty(), "TrEnDSE needs source workloads");
        TrEnDse {
            sources,
            metric,
            config,
        }
    }

    /// Ranks source workloads by Wasserstein distance between their label
    /// distribution and the target support labels (ascending = most
    /// similar first). Returns `(source index, distance)`.
    pub fn rank_sources(&self, support_y: &[Elem]) -> Vec<(usize, Elem)> {
        let mut ranked: Vec<(usize, Elem)> = self
            .sources
            .iter()
            .enumerate()
            .map(|(i, ds)| (i, wasserstein_1d(support_y, &ds.labels(self.metric))))
            .collect();
        ranked.sort_by(|a, b| a.1.total_cmp(&b.1));
        ranked
    }

    /// Builds the pooled training set for one target task.
    fn pooled(&self, support_x: &[Vec<Elem>], support_y: &[Elem]) -> (Vec<Vec<Elem>>, Vec<Elem>) {
        let ranked = self.rank_sources(support_y);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for &(idx, _) in ranked.iter().take(self.config.num_similar) {
            let ds = &self.sources[idx];
            for s in ds.samples().iter().take(self.config.source_cap) {
                x.push(s.features.clone());
                y.push(s.label(self.metric));
            }
        }
        for _ in 0..self.config.support_weight.max(1) {
            x.extend(support_x.iter().cloned());
            y.extend(support_y.iter().copied());
        }
        (x, y)
    }

    /// Adapts to a target task and predicts its query points: similarity
    /// selection → pooling → ensemble fit → average prediction. The fits
    /// use the machine's workers ([`ParallelConfig::default`]; see
    /// [`TrEnDse::adapt_and_predict_with`]).
    pub fn adapt_and_predict(
        &self,
        support_x: &[Vec<Elem>],
        support_y: &[Elem],
        query_x: &[Vec<Elem>],
    ) -> Vec<Elem> {
        self.adapt_and_predict_with(support_x, support_y, query_x, &ParallelConfig::default())
    }

    /// [`TrEnDse::adapt_and_predict`] with the ensemble fit under
    /// `parallel`. The boosted trees fit one after another, so the GBRT
    /// takes one worker and fits beside the forest, whose trees share the
    /// remaining workers; with one worker everything fits inline. Every
    /// fit is deterministic, so the ensemble is the same at any thread
    /// count.
    pub fn adapt_and_predict_with(
        &self,
        support_x: &[Vec<Elem>],
        support_y: &[Elem],
        query_x: &[Vec<Elem>],
        parallel: &ParallelConfig,
    ) -> Vec<Elem> {
        let (x, y) = self.pooled(support_x, support_y);
        let forest_parallel = ParallelConfig {
            threads: Some(parallel.workers_for(usize::MAX).saturating_sub(1).max(1)),
            ..*parallel
        };
        let ((forest, ridge), gbrt) = parallel.join(
            || {
                let mut forest =
                    RandomForest::new(40, 10, 2, self.config.seed).with_parallel(forest_parallel);
                let mut ridge = RidgeRegression::new(1e-3);
                forest.fit(&x, &y);
                ridge.fit(&x, &y);
                (forest, ridge)
            },
            || {
                let mut gbrt = GradientBoosting::new(80, 0.1, 3, 2);
                gbrt.fit(&x, &y);
                gbrt
            },
        );
        query_x
            .iter()
            .map(|q| (forest.predict_one(q) + gbrt.predict_one(q) + ridge.predict_one(q)) / 3.0)
            .collect()
    }
}

/// TrEnDSE with the ensemble replaced by a transformer predictor
/// (the Fig. 5 "TrEnDSE-Transformer" baseline).
#[derive(Debug)]
pub struct TrEnDseTransformer {
    selector: TrEnDse,
    predictor_config: PredictorConfig,
    /// Supervised training epochs over the pooled data per task.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: Elem,
    /// Mini-batch size.
    pub batch: usize,
}

impl TrEnDseTransformer {
    /// Creates the variant with a given predictor geometry.
    pub fn new(
        sources: Vec<Dataset>,
        metric: Metric,
        config: TrEnDseConfig,
        predictor_config: PredictorConfig,
    ) -> TrEnDseTransformer {
        TrEnDseTransformer {
            selector: TrEnDse::new(sources, metric, config),
            predictor_config,
            epochs: 3,
            lr: 2e-3,
            batch: 32,
        }
    }

    /// Adapts to a target task and predicts its query points: similarity
    /// selection → pooling → supervised transformer fit → prediction.
    pub fn adapt_and_predict(
        &self,
        support_x: &[Vec<Elem>],
        support_y: &[Elem],
        query_x: &[Vec<Elem>],
    ) -> Vec<Elem> {
        let (x, y) = self.selector.pooled(support_x, support_y);
        let model = TransformerPredictor::new(self.predictor_config, self.selector.config.seed);
        train_supervised(
            &model,
            &x,
            &y,
            self.epochs,
            self.lr,
            self.batch,
            self.selector.config.seed,
        );
        Plan::from_model(&model, query_x.len()).run(query_x, &mut PlanArena::new())
    }
}

/// Plain supervised mini-batch training of a transformer predictor (used
/// by TrEnDSE-Transformer and as the non-meta pre-training ablation):
/// each mini-batch's gradient comes from a compiled [`Step`], and Adam
/// updates the model's parameter slots.
pub fn train_supervised(
    model: &TransformerPredictor,
    x: &[Vec<Elem>],
    y: &[Elem],
    epochs: usize,
    lr: Elem,
    batch: usize,
    seed: u64,
) {
    assert!(!x.is_empty(), "cannot train on empty data");
    assert_eq!(x.len(), y.len(), "feature/label length mismatch");
    let mut optimizer = Adam::new(model.params(), lr);
    let mut step = Step::compile(model, batch.clamp(1, x.len()));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..x.len()).collect();
    for _ in 0..epochs {
        // Shuffle.
        for i in (1..order.len()).rev() {
            order.swap(i, rand::Rng::gen_range(&mut rng, 0..=i));
        }
        for chunk in order.chunks(batch.max(1)) {
            let bx: Vec<Vec<Elem>> = chunk.iter().map(|&i| x[i].clone()).collect();
            let by: Vec<Elem> = chunk.iter().map(|&i| y[i]).collect();
            step.set_values(&model.snapshot_values().concat());
            step.loss_and_grad(&bx, &by);
            optimizer.step(&step.grad_tensors());
        }
    }
}

/// Fits a pooled-data baseline (the Table II "RF" / "GBRT" rows): all
/// source data up to a per-source cap, plus the replicated target support
/// set, into a single regressor.
pub fn fit_pooled_baseline<M: Regressor>(
    model: &mut M,
    sources: &[Dataset],
    metric: Metric,
    support_x: &[Vec<Elem>],
    support_y: &[Elem],
    source_cap: usize,
    support_weight: usize,
) {
    let mut x = Vec::new();
    let mut y = Vec::new();
    for ds in sources {
        for s in ds.samples().iter().take(source_cap) {
            x.push(s.features.clone());
            y.push(s.label(metric));
        }
    }
    for _ in 0..support_weight.max(1) {
        x.extend(support_x.iter().cloned());
        y.extend(support_y.iter().copied());
    }
    model.fit(&x, &y);
}

#[cfg(test)]
mod tests {
    use super::*;
    use metadse_mlkit::metrics::rmse;
    use metadse_workloads::{Sample, TaskSampler};
    use rand::Rng;

    /// Source datasets with controllable label offsets: similarity
    /// selection should find the closest offset.
    fn offset_dataset(name: &str, offset: f64, n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let samples = (0..n)
            .map(|_| {
                let features: Vec<f64> = (0..4).map(|_| rng.gen_range(0.0..1.0)).collect();
                let y = features.iter().sum::<f64>() + offset;
                Sample {
                    features,
                    ipc: y,
                    power_w: y,
                }
            })
            .collect();
        Dataset::from_samples(name, samples)
    }

    #[test]
    fn similarity_ranking_finds_closest_label_distribution() {
        let sources = vec![
            offset_dataset("far", 10.0, 50, 1),
            offset_dataset("near", 0.1, 50, 2),
            offset_dataset("mid", 3.0, 50, 3),
        ];
        let t = TrEnDse::new(sources, Metric::Ipc, TrEnDseConfig::default());
        // Target labels near offset 0.
        let support_y: Vec<f64> = (0..10).map(|i| 2.0 + 0.1 * i as f64).collect();
        let ranked = t.rank_sources(&support_y);
        assert_eq!(ranked[0].0, 1, "the near source should rank first");
        assert_eq!(ranked[2].0, 0, "the far source should rank last");
        assert!(ranked[0].1 < ranked[1].1 && ranked[1].1 < ranked[2].1);
    }

    #[test]
    fn trendse_beats_support_only_mean() {
        // Target shares structure with the similar source; pooling helps.
        let sources = vec![
            offset_dataset("similar", 0.0, 150, 4),
            offset_dataset("dissimilar", 8.0, 150, 5),
        ];
        let target = offset_dataset("target", 0.05, 60, 6);
        let mut rng = StdRng::seed_from_u64(7);
        let task = TaskSampler::new(5, 30).sample(&target, Metric::Ipc, &mut rng);

        let t = TrEnDse::new(
            sources,
            Metric::Ipc,
            TrEnDseConfig {
                num_similar: 1,
                ..TrEnDseConfig::default()
            },
        );
        let preds = t.adapt_and_predict(&task.support_x, &task.support_y, &task.query_x);
        let err = rmse(&task.query_y, &preds);

        let mean = task.support_y.iter().sum::<f64>() / task.support_y.len() as f64;
        let mean_err = rmse(&task.query_y, &vec![mean; task.query_y.len()]);
        assert!(err < 0.6 * mean_err, "TrEnDSE {err} vs mean {mean_err}");
    }

    #[test]
    fn pooled_baseline_fits_and_predicts() {
        let sources = vec![offset_dataset("s", 0.0, 80, 8)];
        let target = offset_dataset("t", 0.1, 40, 9);
        let mut rng = StdRng::seed_from_u64(10);
        let task = TaskSampler::new(5, 20).sample(&target, Metric::Ipc, &mut rng);
        let mut rf = RandomForest::new(20, 8, 2, 1);
        fit_pooled_baseline(
            &mut rf,
            &sources,
            Metric::Ipc,
            &task.support_x,
            &task.support_y,
            100,
            4,
        );
        let preds = rf.predict(&task.query_x);
        assert!(rmse(&task.query_y, &preds) < 0.8);
    }

    #[test]
    fn supervised_training_reduces_loss() {
        let ds = offset_dataset("train", 0.0, 120, 11);
        let x: Vec<Vec<f64>> = ds.samples().iter().map(|s| s.features.clone()).collect();
        let y: Vec<f64> = ds.labels(Metric::Ipc);
        let cfg = PredictorConfig {
            num_params: 4,
            d_model: 8,
            heads: 2,
            depth: 1,
            d_hidden: 16,
            head_hidden: 8,
        };
        let model = TransformerPredictor::new(cfg, 12);
        let before = rmse(&y, &model.predict(&x));
        train_supervised(&model, &x, &y, 8, 3e-3, 16, 13);
        let after = rmse(&y, &model.predict(&x));
        assert!(after < 0.5 * before, "supervised fit {before} -> {after}");
    }
}
