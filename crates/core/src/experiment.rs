//! Experiment harness: one function per table/figure of the paper.
//!
//! Every experiment runs at a configurable [`Scale`]; `Scale::paper()`
//! matches the paper's counts (15 × 200 meta-tasks, 1000 evaluation tasks
//! per workload) while `Scale::scaled()` (the binaries' default) and
//! `Scale::quick()` (tests, Criterion) shrink the counts so a single CPU
//! core finishes in minutes or seconds. The *structure* of each experiment
//! is identical at every scale.

use std::collections::BTreeMap;
use std::sync::Mutex;

use metadse_obs as obs;
use metadse_obs::report;
use metadse_parallel::ParallelConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

use metadse_mlkit::metrics::{geometric_mean, mean, std_dev};
use metadse_mlkit::wasserstein::distance_matrix;
use metadse_mlkit::{GradientBoosting, RandomForest, Regressor};
use metadse_nn::format::{fnv1a, ByteWriter};
use metadse_nn::layers::Module;
use metadse_nn::serialize::params_to_bytes;
use metadse_sim::{ConfigPoint, DesignSpace, Elem, Simulator};
use metadse_workloads::{Dataset, Metric, Sample, SpecWorkload, TaskSampler, WorkloadSplit};

use crate::evaluation::{EvalSummary, TaskScores};
use crate::maml::{self, MamlConfig};
use crate::predictor::{PredictorConfig, TransformerPredictor};
use crate::trendse::{fit_pooled_baseline, TrEnDse, TrEnDseConfig, TrEnDseTransformer};
use crate::wam::{self, AdaptConfig, WamConfig};

/// Knobs controlling the cost of every experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Scale {
    /// Simulated design points per workload dataset.
    pub samples_per_workload: usize,
    /// MAML pre-training configuration.
    pub maml: MamlConfig,
    /// Evaluation tasks per test workload.
    pub eval_tasks: usize,
    /// Downstream support shots per evaluation task (paper: 10).
    pub eval_support: usize,
    /// Query points per evaluation task.
    pub eval_query: usize,
    /// Downstream adaptation settings (Algorithm 2).
    pub adapt: AdaptConfig,
    /// WAM mask generation settings.
    pub wam: WamConfig,
    /// TrEnDSE baseline settings.
    pub trendse: TrEnDseConfig,
    /// Predictor geometry.
    pub predictor: PredictorConfig,
    /// Master seed.
    pub seed: u64,
    /// Worker threads for dataset simulation and the per-task adaptation
    /// sweeps (`Some(1)` = exact serial path; `None` defers to
    /// `METADSE_THREADS`, then the machine). Meta-training threads live in
    /// [`MamlConfig::parallel`].
    pub parallel: ParallelConfig,
}

impl Scale {
    /// Paper-scale counts (hours on one core; use the binaries' default
    /// scale unless you mean it).
    pub fn paper() -> Scale {
        Scale {
            samples_per_workload: 2000,
            maml: MamlConfig::paper(),
            eval_tasks: 1000,
            eval_support: 10,
            eval_query: 45,
            adapt: AdaptConfig::default(),
            wam: WamConfig::default(),
            trendse: TrEnDseConfig::default(),
            predictor: PredictorConfig::default(),
            seed: 7,
            parallel: ParallelConfig::default(),
        }
    }

    /// Single-core default: same experiment structure, reduced counts.
    pub fn scaled() -> Scale {
        Scale {
            samples_per_workload: 300,
            maml: MamlConfig::scaled(),
            eval_tasks: 10,
            trendse: TrEnDseConfig {
                source_cap: 150,
                ..TrEnDseConfig::default()
            },
            ..Scale::paper()
        }
    }

    /// Seconds-scale settings for tests and Criterion benches.
    pub fn quick() -> Scale {
        Scale {
            samples_per_workload: 200,
            maml: MamlConfig::tiny(),
            eval_tasks: 3,
            eval_support: 8,
            eval_query: 20,
            trendse: TrEnDseConfig {
                source_cap: 40,
                ..TrEnDseConfig::default()
            },
            predictor: PredictorConfig {
                d_model: 16,
                heads: 2,
                depth: 1,
                d_hidden: 32,
                head_hidden: 16,
                ..PredictorConfig::default()
            },
            ..Scale::paper()
        }
    }
}

/// Shared experimental environment: the design space, the paper's
/// workload split, and per-workload datasets drawn uniformly from the same
/// design-space distribution (independently per workload, so no design
/// point leaks between source and target datasets; label *distributions*
/// remain directly comparable, as Fig. 2 requires).
///
/// Power labels are rescaled by the pooled training-split standard
/// deviation so IPC and power losses live on comparable scales; RMSE for
/// power is therefore reported in normalized units (MAPE and EV are
/// scale-invariant).
#[derive(Debug, Clone)]
pub struct Environment {
    /// The Table I design space.
    pub space: DesignSpace,
    /// Train/validation/test workload assignment.
    pub split: WorkloadSplit,
    /// Datasets per workload.
    pub datasets: BTreeMap<SpecWorkload, Dataset>,
    /// Divisor applied to raw power labels.
    pub power_scale: Elem,
}

impl Environment {
    /// Simulates datasets for every workload in the paper split.
    pub fn build(scale: &Scale, seed: u64) -> Environment {
        Environment::build_with_split(scale, WorkloadSplit::paper(), seed)
    }

    /// Simulates datasets for a custom split.
    ///
    /// Each workload's design points are sampled **independently** — as in
    /// separate simulation campaigns — so a target task's query
    /// configurations never appear verbatim in any source dataset.
    pub fn build_with_split(scale: &Scale, split: WorkloadSplit, seed: u64) -> Environment {
        let _span = obs::span("experiment/build_env");
        let space = DesignSpace::new();
        let simulator = Simulator::new();
        let mut rng = StdRng::seed_from_u64(seed);

        let mut raw: BTreeMap<SpecWorkload, Dataset> = BTreeMap::new();
        for &w in split
            .train
            .iter()
            .chain(&split.validation)
            .chain(&split.test)
        {
            let points: Vec<ConfigPoint> = (0..scale.samples_per_workload)
                .map(|_| space.random_point(&mut rng))
                .collect();
            raw.insert(
                w,
                Dataset::generate_at_with(&space, &simulator, w, &points, &scale.parallel),
            );
        }

        // Normalize power by the training-split standard deviation.
        let train_power: Vec<Elem> = split
            .train
            .iter()
            .flat_map(|w| raw[w].labels(Metric::Power))
            .collect();
        let power_scale = std_dev(&train_power).max(1e-9);
        let datasets = raw
            .into_iter()
            .map(|(w, ds)| {
                let samples = ds
                    .samples()
                    .iter()
                    .map(|s| Sample {
                        features: s.features.clone(),
                        ipc: s.ipc,
                        power_w: s.power_w / power_scale,
                    })
                    .collect();
                (w, Dataset::from_samples(ds.workload_name(), samples))
            })
            .collect();

        Environment {
            space,
            split,
            datasets,
            power_scale,
        }
    }

    /// Dataset of one workload.
    ///
    /// # Panics
    ///
    /// Panics if the workload is not part of the split.
    pub fn dataset(&self, workload: SpecWorkload) -> &Dataset {
        &self.datasets[&workload]
    }

    /// Clones the training datasets (source workloads).
    pub fn train_datasets(&self) -> Vec<Dataset> {
        self.split
            .train
            .iter()
            .map(|w| self.dataset(*w).clone())
            .collect()
    }

    /// Clones the validation datasets.
    pub fn validation_datasets(&self) -> Vec<Dataset> {
        self.split
            .validation
            .iter()
            .map(|w| self.dataset(*w).clone())
            .collect()
    }
}

/// The content key of a pre-training: an FNV-1a hash of everything it
/// reads — the model's initial parameters (geometry and seed), the MAML
/// settings, the metric, the workload split, and every feature and label
/// bit of every dataset. Equal keys pre-train to the same parameters, so
/// `pretrain_metadse` memoizes by it for the life of the process and
/// names its `METADSE_CACHE` checkpoint after it; a simulator change or
/// a new environment seed therefore misses both instead of reusing a
/// stale model.
fn pretrain_key(
    env: &Environment,
    model: &TransformerPredictor,
    metric: Metric,
    maml: &MamlConfig,
) -> u64 {
    // The thread count never changes the trained parameters
    // (parallelism is bit-identical), and checkpoint/resume is
    // bit-identical to an uninterrupted run, so neither may change the
    // key.
    let key_maml = MamlConfig {
        parallel: ParallelConfig::default(),
        checkpoint: None,
        ..maml.clone()
    };
    let mut key = ByteWriter::new();
    key.str(&format!("{key_maml:?}|{metric:?}|{:?}", env.split));
    key.bytes(&params_to_bytes(&model.params()));
    for dataset in env.datasets.values() {
        for sample in dataset.samples() {
            key.f64_slice(&sample.features);
            key.f64(sample.ipc);
            key.f64(sample.power_w);
        }
    }
    fnv1a(&key.into_bytes())
}

/// Pre-trained parameter values by [`pretrain_key`], for the life of the
/// process: `all` regenerates several figures from the same
/// pre-training, and each equal configuration trains once.
static PRETRAINED: Mutex<BTreeMap<u64, Vec<Vec<Elem>>>> = Mutex::new(BTreeMap::new());

/// `model`'s parameter values after pre-training under `maml`, from this
/// process's memo, else the `METADSE_CACHE` checkpoint under
/// `results/checkpoints/`, else a fresh [`maml::pretrain`]; `true` when
/// it pre-trained. Leaves `model` holding the values.
fn pretrained(
    env: &Environment,
    model: &TransformerPredictor,
    metric: Metric,
    maml: &MamlConfig,
) -> (Vec<Vec<Elem>>, bool) {
    let key = pretrain_key(env, model, metric, maml);
    if let Some(values) = PRETRAINED.lock().unwrap().get(&key) {
        model.load_values(values);
        return (values.clone(), false);
    }
    let cache_path = std::env::var("METADSE_CACHE").ok().map(|_| {
        std::path::Path::new("results")
            .join("checkpoints")
            .join(format!("pretrain-{key:016x}.ckpt"))
    });
    let loaded = cache_path.as_ref().is_some_and(|p| {
        p.exists() && metadse_nn::serialize::load_params(&model.params(), p).is_ok()
    });
    if !loaded {
        // `METADSE_CKPT=<dir>` turns on crash-safe training checkpoints
        // for harness runs whose config does not already request them.
        let env_maml;
        let maml = match (
            &maml.checkpoint,
            crate::checkpoint::CheckpointConfig::from_env(),
        ) {
            (None, Some(ckpt)) => {
                env_maml = MamlConfig {
                    checkpoint: Some(ckpt),
                    ..maml.clone()
                };
                &env_maml
            }
            _ => maml,
        };
        maml::pretrain(
            model,
            &env.train_datasets(),
            &env.validation_datasets(),
            metric,
            maml,
        );
        if let Some(path) = &cache_path {
            if let Err(e) = metadse_nn::serialize::save_params(&model.params(), path) {
                report::warn(format!(
                    "could not write checkpoint {}: {e}",
                    path.display()
                ));
            }
        }
    }
    let values = model.snapshot_values();
    PRETRAINED.lock().unwrap().insert(key, values.clone());
    (values, !loaded)
}

/// Pre-trains a MetaDSE predictor on the environment's training split and
/// builds its WAM mask. Returns `(model, mask)`.
///
/// Equal inputs pre-train once per process (memoized by content, see
/// `pretrain_key`). When the `METADSE_CACHE` environment variable is
/// set, pre-trained parameters are also checkpointed under
/// `results/checkpoints/`, keyed the same way, so repeated harness runs
/// skip the meta-training cost.
pub fn pretrain_metadse(
    env: &Environment,
    scale: &Scale,
    metric: Metric,
    maml: &MamlConfig,
) -> (TransformerPredictor, metadse_nn::layers::Param) {
    let _span = obs::span("experiment/pretrain");
    let model = TransformerPredictor::new(scale.predictor, scale.seed);
    pretrained(env, &model, metric, maml);
    let mask = wam::generate_mask(&model, &env.train_datasets(), &scale.wam, 64);
    (model, mask)
}

/// Pre-trains a MetaDSE predictor and packages it — together with its WAM
/// mask — as a sealed [`crate::ServablePredictor`] artifact ready for
/// publication into a serving model registry.
pub fn pretrain_servable(
    env: &Environment,
    scale: &Scale,
    metric: Metric,
    maml: &MamlConfig,
) -> crate::ServablePredictor {
    let (model, mask) = pretrain_metadse(env, scale, metric, maml);
    let label = match metric {
        Metric::Ipc => "ipc",
        Metric::Power => "power",
    };
    crate::ServablePredictor::capture(&model, Some(&mask), label)
}

// ---------------------------------------------------------------------
// Fig. 2 — Wasserstein distances among workloads
// ---------------------------------------------------------------------

/// Result of the Fig. 2 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig2Result {
    /// Workload names, matrix order.
    pub names: Vec<String>,
    /// Symmetric Wasserstein-distance matrix over IPC distributions.
    pub matrix: Vec<Vec<Elem>>,
}

/// Fig. 2: pairwise Wasserstein distances between the workloads' IPC
/// label distributions over a shared configuration sample.
pub fn run_fig2(env: &Environment) -> Fig2Result {
    let mut names = Vec::new();
    let mut samples = Vec::new();
    for (w, ds) in &env.datasets {
        names.push(w.name().to_string());
        samples.push(ds.labels(Metric::Ipc));
    }
    Fig2Result {
        names,
        matrix: distance_matrix(&samples),
    }
}

// ---------------------------------------------------------------------
// Fig. 5 — per-workload IPC RMSE of the four frameworks
// ---------------------------------------------------------------------

/// One bar group of Fig. 5 (a test workload, or the GEOMEAN column).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Workload name (or "GEOMEAN").
    pub workload: String,
    /// TrEnDSE mean RMSE.
    pub trendse: Elem,
    /// TrEnDSE-Transformer mean RMSE.
    pub trendse_transformer: Elem,
    /// MetaDSE without WAM mean RMSE.
    pub metadse_no_wam: Elem,
    /// Full MetaDSE mean RMSE.
    pub metadse: Elem,
}

/// Result of the Fig. 5 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Result {
    /// Per-workload rows.
    pub rows: Vec<Fig5Row>,
    /// Geometric mean across workloads.
    pub geomean: Fig5Row,
}

/// Fig. 5: IPC prediction RMSE per test workload for TrEnDSE,
/// TrEnDSE-Transformer, MetaDSE-w/o-WAM, and MetaDSE.
pub fn run_fig5(env: &Environment, scale: &Scale) -> Fig5Result {
    let metric = Metric::Ipc;
    let (model, mask) = pretrain_metadse(env, scale, metric, &scale.maml);
    let trendse = TrEnDse::new(env.train_datasets(), metric, scale.trendse.clone());
    let trendse_tx = TrEnDseTransformer::new(
        env.train_datasets(),
        metric,
        scale.trendse.clone(),
        scale.predictor,
    );

    let sampler = TaskSampler::new(scale.eval_support, scale.eval_query);
    let mut rng = StdRng::seed_from_u64(scale.seed ^ 0x5f5f);
    let mut rows = Vec::new();
    for &w in &env.split.test {
        let ds = env.dataset(w);
        let mut s_trendse = TaskScores::new();
        let mut s_tx = TaskScores::new();
        let mut s_plain = TaskScores::new();
        let mut s_metadse = TaskScores::new();
        // Pre-sampling the workload's tasks keeps the RNG stream identical
        // to the per-task loop while letting the MetaDSE adaptation sweep
        // fan out across threads.
        let tasks: Vec<metadse_workloads::Task> = (0..scale.eval_tasks)
            .map(|_| sampler.sample(ds, metric, &mut rng))
            .collect();
        for task in &tasks {
            let p = trendse.adapt_and_predict(&task.support_x, &task.support_y, &task.query_x);
            s_trendse.push(&task.query_y, &p);
            let p = trendse_tx.adapt_and_predict(&task.support_x, &task.support_y, &task.query_x);
            s_tx.push(&task.query_y, &p);
        }
        let plain = wam::adapt_sweep(&model, &tasks, None, &scale.adapt, &scale.parallel);
        let masked = wam::adapt_sweep(&model, &tasks, Some(&mask), &scale.adapt, &scale.parallel);
        for ((task, p_plain), p_masked) in tasks.iter().zip(&plain).zip(&masked) {
            s_plain.push(&task.query_y, p_plain);
            s_metadse.push(&task.query_y, p_masked);
        }
        rows.push(Fig5Row {
            workload: w.name().to_string(),
            trendse: s_trendse.summary().rmse_mean,
            trendse_transformer: s_tx.summary().rmse_mean,
            metadse_no_wam: s_plain.summary().rmse_mean,
            metadse: s_metadse.summary().rmse_mean,
        });
    }
    let geo = |f: &dyn Fn(&Fig5Row) -> Elem| -> Elem {
        geometric_mean(&rows.iter().map(f).collect::<Vec<_>>())
    };
    let geomean = Fig5Row {
        workload: "GEOMEAN".to_string(),
        trendse: geo(&|r| r.trendse),
        trendse_transformer: geo(&|r| r.trendse_transformer),
        metadse_no_wam: geo(&|r| r.metadse_no_wam),
        metadse: geo(&|r| r.metadse),
    };
    Fig5Result { rows, geomean }
}

/// Fits the pooled RF and GBRT baselines of Tables II/III on one task and
/// scores their query predictions.
fn score_pooled_baselines(
    sources: &[Dataset],
    metric: Metric,
    task: &metadse_workloads::Task,
    scale: &Scale,
    s_rf: &mut TaskScores,
    s_gbrt: &mut TaskScores,
) {
    let mut rf = RandomForest::new(30, 10, 2, scale.seed);
    fit_pooled_baseline(
        &mut rf,
        sources,
        metric,
        &task.support_x,
        &task.support_y,
        scale.trendse.source_cap,
        scale.trendse.support_weight,
    );
    s_rf.push(&task.query_y, &rf.predict(&task.query_x));

    let mut gbrt = GradientBoosting::new(80, 0.1, 3, 2);
    fit_pooled_baseline(
        &mut gbrt,
        sources,
        metric,
        &task.support_x,
        &task.support_y,
        scale.trendse.source_cap,
        scale.trendse.support_weight,
    );
    s_gbrt.push(&task.query_y, &gbrt.predict(&task.query_x));
}

// ---------------------------------------------------------------------
// Table II — RMSE / MAPE / EV for RF, GBRT, TrEnDSE, MetaDSE
// ---------------------------------------------------------------------

/// One model row of Table II for one metric (IPC or power).
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Cell {
    /// Model name.
    pub model: String,
    /// Predicted metric.
    pub metric: Metric,
    /// Summary across all test workloads' tasks.
    pub summary: EvalSummary,
}

/// Result of the Table II experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2Result {
    /// Cells for every (model, metric) pair.
    pub cells: Vec<Table2Cell>,
}

impl Table2Result {
    /// Looks up a cell.
    pub fn cell(&self, model: &str, metric: Metric) -> Option<&Table2Cell> {
        self.cells
            .iter()
            .find(|c| c.model == model && c.metric == metric)
    }
}

/// Table II: RF, GBRT, TrEnDSE, and MetaDSE on IPC and power prediction,
/// pooled over the five test workloads, with 95% confidence half-widths.
pub fn run_table2(env: &Environment, scale: &Scale) -> Table2Result {
    let mut cells = Vec::new();
    for metric in [Metric::Ipc, Metric::Power] {
        let (model, mask) = pretrain_metadse(env, scale, metric, &scale.maml);
        let trendse = TrEnDse::new(env.train_datasets(), metric, scale.trendse.clone());
        let sampler = TaskSampler::new(scale.eval_support, scale.eval_query);
        let mut rng = StdRng::seed_from_u64(scale.seed ^ 0xa0a0);
        let sources = env.train_datasets();

        let mut s_rf = TaskScores::new();
        let mut s_gbrt = TaskScores::new();
        let mut s_trendse = TaskScores::new();
        let mut s_metadse = TaskScores::new();
        for &w in &env.split.test {
            let ds = env.dataset(w);
            let tasks: Vec<metadse_workloads::Task> = (0..scale.eval_tasks)
                .map(|_| sampler.sample(ds, metric, &mut rng))
                .collect();
            for task in &tasks {
                score_pooled_baselines(&sources, metric, task, scale, &mut s_rf, &mut s_gbrt);

                let p = trendse.adapt_and_predict(&task.support_x, &task.support_y, &task.query_x);
                s_trendse.push(&task.query_y, &p);
            }
            let masked =
                wam::adapt_sweep(&model, &tasks, Some(&mask), &scale.adapt, &scale.parallel);
            for (task, p) in tasks.iter().zip(&masked) {
                s_metadse.push(&task.query_y, p);
            }
        }
        for (name, scores) in [
            ("RF", s_rf),
            ("GBRT", s_gbrt),
            ("TrEnDSE", s_trendse),
            ("MetaDSE", s_metadse),
        ] {
            cells.push(Table2Cell {
                model: name.to_string(),
                metric,
                summary: scores.summary(),
            });
        }
    }
    Table2Result { cells }
}

// ---------------------------------------------------------------------
// Fig. 6 — sensitivity to the upstream (pre-training) support size
// ---------------------------------------------------------------------

/// One point of Fig. 6.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Point {
    /// Upstream support-set size used during pre-training.
    pub pretrain_support: usize,
    /// Mean IPC RMSE over test tasks.
    pub rmse: Elem,
    /// Mean explained variance over test tasks.
    pub ev: Elem,
}

/// Result of the Fig. 6 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Result {
    /// Downstream support size held fixed (paper: 10).
    pub downstream_support: usize,
    /// One point per upstream support size.
    pub points: Vec<Fig6Point>,
}

/// Fig. 6: fix the downstream support size and sweep the upstream
/// (pre-training) support size; transfer is best when the two align.
pub fn run_fig6(env: &Environment, scale: &Scale, sizes: &[usize]) -> Fig6Result {
    let metric = Metric::Ipc;
    let downstream = 10;
    let sampler = TaskSampler::new(downstream, scale.eval_query);
    let mut points = Vec::new();
    for &s in sizes {
        let maml = MamlConfig {
            support_size: s,
            ..scale.maml.clone()
        };
        let (model, mask) = pretrain_metadse(env, scale, metric, &maml);
        let mut scores = TaskScores::new();
        let mut rng = StdRng::seed_from_u64(scale.seed ^ 0xf1f6);
        for &w in &env.split.test {
            let ds = env.dataset(w);
            let tasks: Vec<metadse_workloads::Task> = (0..scale.eval_tasks)
                .map(|_| sampler.sample(ds, metric, &mut rng))
                .collect();
            let masked =
                wam::adapt_sweep(&model, &tasks, Some(&mask), &scale.adapt, &scale.parallel);
            for (task, p) in tasks.iter().zip(&masked) {
                scores.push(&task.query_y, p);
            }
        }
        let summary = scores.summary();
        points.push(Fig6Point {
            pretrain_support: s,
            rmse: summary.rmse_mean,
            ev: summary.ev_mean,
        });
    }
    Fig6Result {
        downstream_support: downstream,
        points,
    }
}

// ---------------------------------------------------------------------
// Table III — sensitivity to the downstream support size K
// ---------------------------------------------------------------------

/// One row of Table III: a model's IPC RMSE at each downstream K.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Model name.
    pub model: String,
    /// `(K, mean RMSE)` pairs.
    pub rmse_by_k: Vec<(usize, Elem)>,
}

/// Result of the Table III experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Result {
    /// Rows for RF, GBRT, Baseline (MetaDSE w/o WAM), MetaDSE.
    pub rows: Vec<Table3Row>,
}

/// Table III: IPC RMSE as the downstream adaptation support size K grows,
/// with the upstream support size fixed at 10.
pub fn run_table3(env: &Environment, scale: &Scale, ks: &[usize]) -> Table3Result {
    let metric = Metric::Ipc;
    let maml = MamlConfig {
        support_size: 10,
        ..scale.maml.clone()
    };
    let (model, mask) = pretrain_metadse(env, scale, metric, &maml);

    let sources = env.train_datasets();
    let mut rf_row = Vec::new();
    let mut gbrt_row = Vec::new();
    let mut base_row = Vec::new();
    let mut metadse_row = Vec::new();
    for &k in ks {
        let sampler = TaskSampler::new(k, scale.eval_query);
        let mut rng = StdRng::seed_from_u64(scale.seed ^ 0x3a3a ^ k as u64);
        let mut s_rf = TaskScores::new();
        let mut s_gbrt = TaskScores::new();
        let mut s_base = TaskScores::new();
        let mut s_meta = TaskScores::new();
        for &w in &env.split.test {
            let ds = env.dataset(w);
            let tasks: Vec<metadse_workloads::Task> = (0..scale.eval_tasks)
                .map(|_| sampler.sample(ds, metric, &mut rng))
                .collect();
            for task in &tasks {
                score_pooled_baselines(&sources, metric, task, scale, &mut s_rf, &mut s_gbrt);
            }
            let plain = wam::adapt_sweep(&model, &tasks, None, &scale.adapt, &scale.parallel);
            let masked =
                wam::adapt_sweep(&model, &tasks, Some(&mask), &scale.adapt, &scale.parallel);
            for ((task, p_plain), p_masked) in tasks.iter().zip(&plain).zip(&masked) {
                s_base.push(&task.query_y, p_plain);
                s_meta.push(&task.query_y, p_masked);
            }
        }
        rf_row.push((k, s_rf.summary().rmse_mean));
        gbrt_row.push((k, s_gbrt.summary().rmse_mean));
        base_row.push((k, s_base.summary().rmse_mean));
        metadse_row.push((k, s_meta.summary().rmse_mean));
    }
    Table3Result {
        rows: vec![
            Table3Row {
                model: "RF".to_string(),
                rmse_by_k: rf_row,
            },
            Table3Row {
                model: "GBRT".to_string(),
                rmse_by_k: gbrt_row,
            },
            Table3Row {
                model: "Baseline".to_string(),
                rmse_by_k: base_row,
            },
            Table3Row {
                model: "MetaDSE".to_string(),
                rmse_by_k: metadse_row,
            },
        ],
    }
}

/// Geometric-mean helper re-exported for harness binaries.
pub fn geomean_of(values: &[Elem]) -> Elem {
    geometric_mean(values)
}

/// Arithmetic-mean helper re-exported for harness binaries.
pub fn mean_of(values: &[Elem]) -> Elem {
    mean(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_env() -> (Environment, Scale) {
        let scale = Scale::quick();
        let env = Environment::build(&scale, 3);
        (env, scale)
    }

    /// The pretrain key follows the data: a rebuilt identical
    /// environment keeps it, while another seed or one changed label
    /// moves it.
    #[test]
    fn pretrain_key_follows_the_content() {
        let scale = Scale {
            samples_per_workload: 8,
            ..Scale::quick()
        };
        let model = TransformerPredictor::new(scale.predictor, scale.seed);
        let key = |env: &Environment| pretrain_key(env, &model, Metric::Ipc, &scale.maml);
        let env = Environment::build(&scale, 21);
        assert_eq!(key(&Environment::build(&scale, 21)), key(&env));
        assert_ne!(key(&Environment::build(&scale, 22)), key(&env));

        let mut relabeled = env.clone();
        let dataset = relabeled.datasets.values_mut().next().unwrap();
        let mut samples = dataset.samples().to_vec();
        samples[0].ipc += 1e-9;
        *dataset = Dataset::from_samples(dataset.workload_name(), samples);
        assert_ne!(key(&relabeled), key(&env));
    }

    /// Equal inputs pre-train once per process: a second
    /// `pretrain_metadse` returns the first's parameters and mask bit
    /// for bit without training, and another support size trains.
    #[test]
    fn pretraining_is_memoized_by_content() {
        let scale = Scale {
            samples_per_workload: 60,
            maml: MamlConfig {
                epochs: 1,
                iterations_per_epoch: 2,
                val_tasks: 1,
                support_size: 6,
                query_size: 9,
                ..MamlConfig::tiny()
            },
            ..Scale::quick()
        };
        let env = Environment::build(&scale, 41);
        let bits = |model: &TransformerPredictor, mask: &metadse_nn::layers::Param| {
            let mut v: Vec<u64> = model
                .snapshot_values()
                .concat()
                .iter()
                .map(|x| x.to_bits())
                .collect();
            v.extend(mask.get().to_vec().iter().map(|x| x.to_bits()));
            v
        };
        let (model, mask) = pretrain_metadse(&env, &scale, Metric::Ipc, &scale.maml);
        let fresh = TransformerPredictor::new(scale.predictor, scale.seed);
        let (_, trained) = pretrained(&env, &fresh, Metric::Ipc, &scale.maml);
        assert!(!trained, "equal inputs must not pre-train again");
        let (again, again_mask) = pretrain_metadse(&env, &scale, Metric::Ipc, &scale.maml);
        assert_eq!(bits(&model, &mask), bits(&again, &again_mask));

        let other = MamlConfig {
            support_size: 7,
            ..scale.maml.clone()
        };
        let fresh = TransformerPredictor::new(scale.predictor, scale.seed);
        let (values, trained) = pretrained(&env, &fresh, Metric::Ipc, &other);
        assert!(trained, "another support size must pre-train");
        assert_ne!(values, model.snapshot_values());
    }

    #[test]
    fn environment_contains_every_split_workload() {
        let (env, scale) = quick_env();
        assert_eq!(env.datasets.len(), 17);
        for ds in env.datasets.values() {
            assert_eq!(ds.len(), scale.samples_per_workload);
        }
        assert!(env.power_scale > 0.0);
    }

    #[test]
    fn power_labels_are_normalized() {
        let (env, _) = quick_env();
        let pooled: Vec<f64> = env
            .split
            .train
            .iter()
            .flat_map(|w| env.dataset(*w).labels(Metric::Power))
            .collect();
        let sd = std_dev(&pooled);
        assert!((sd - 1.0).abs() < 1e-9, "train power std {sd} should be 1");
    }

    #[test]
    fn fig2_matrix_shape_and_symmetry() {
        let (env, _) = quick_env();
        let r = run_fig2(&env);
        assert_eq!(r.names.len(), 17);
        assert_eq!(r.matrix.len(), 17);
        for i in 0..17 {
            assert_eq!(r.matrix[i][i], 0.0);
            for j in 0..17 {
                assert!((r.matrix[i][j] - r.matrix[j][i]).abs() < 1e-12);
            }
        }
        // Workloads genuinely differ: some pair must be far apart.
        let max = r.matrix.iter().flatten().cloned().fold(0.0_f64, f64::max);
        assert!(max > 0.1, "max distance {max} suspiciously small");
    }

    #[test]
    fn fig5_produces_five_rows_and_geomean() {
        let (env, scale) = quick_env();
        let r = run_fig5(&env, &scale);
        assert_eq!(r.rows.len(), 5);
        assert_eq!(r.geomean.workload, "GEOMEAN");
        for row in &r.rows {
            assert!(row.trendse > 0.0);
            assert!(row.metadse > 0.0);
        }
    }

    #[test]
    fn table3_rows_cover_requested_ks() {
        let (env, scale) = quick_env();
        let r = run_table3(&env, &scale, &[5, 10]);
        assert_eq!(r.rows.len(), 4);
        for row in &r.rows {
            let ks: Vec<usize> = row.rmse_by_k.iter().map(|(k, _)| *k).collect();
            assert_eq!(ks, vec![5, 10]);
        }
    }
}
