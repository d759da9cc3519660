//! `meta-train`: the paper's time-to-claim pipeline.
//!
//! Set-up simulates the paper split at the paper's dataset size (Table
//! I: 2000 design points per workload). Each measured pipeline then
//! runs MAML pre-training on a fixed, reduced meta-iteration budget,
//! generates the WAM mask, adapts through `wam::adapt_sweep` on a fixed
//! number of tasks per test workload, fits TrEnDSE on the same tasks and
//! scores MetaDSE's geomean IPC RMSE. Nearly all the work of `sim`,
//! `parallel`, `nn` autodiff, `maml`, `wam` and `trendse`/`mlkit`
//! happens here; the serving layers do none.
//!
//! The simulation campaign, the model's initial weights and the
//! meta-training task stream use the paper configuration's own seeds:
//! they are the system under test, the same for every run seed. The
//! run seed draws the evaluation tasks' support shots; every seed is
//! scored on the same query designs.

use std::time::Instant;

use metadse::evaluation::TaskScores;
use metadse::experiment::{Environment, Scale};
use metadse::explorer::{hypervolume, ParetoEntry};
use metadse::maml::{self, MamlConfig};
use metadse::predictor::{PredictorConfig, TransformerPredictor};
use metadse::trendse::TrEnDse;
use metadse::wam;
use metadse_nn::autograd::grad;
use metadse_nn::layers::{self, Module};
use metadse_parallel::ParallelConfig;
use metadse_serve::session::{HV_IPC_REF, HV_POWER_REF};
use metadse_sim::ConfigPoint;
use metadse_workloads::{Dataset, Metric, Task, TaskSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::gen::{self, Stream};
use crate::procfs;
use crate::report::{Ledger, Metrics};
use crate::stats::{geomean, mean, median, quartile_note, quiet_half, reconciles, unaccounted};
use crate::trace::Tracer;
use crate::Ctx;

/// Meta-iterations per pre-training (one epoch).
const META_ITERATIONS: usize = 4;
/// Meta-validation tasks per validation workload.
const VAL_TASKS: usize = 1;
/// Rows of each source dataset the WAM mask is generated over.
const MASK_ROWS: usize = 128;
/// Evaluation tasks per test workload.
const TASKS_PER_TARGET: usize = 3;
/// Query rows per evaluation task.
const QUERY_ROWS: usize = 200;
/// Pipelines per measured phase at the least; the timings are their
/// medians.
const MIN_PIPELINES: usize = 3;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Share of a pipeline's wall time its traced calls may leave
/// unexplained.
const RECONCILE_TOLERANCE: f64 = 0.02;

/// One pipeline's times and outputs.
struct Pipeline {
    /// Wall-clock time of the pipeline, s.
    wall_s: f64,
    /// Share of host CPU time stolen while the pipeline ran, %.
    steal_pct: f64,
    /// CPU time of the benchmark process over the pipeline, s.
    cpu_s: f64,
    /// Wall-clock time of `maml::pretrain`, s.
    pretrain_s: f64,
    /// Wall-clock time of each test workload's adapt sweep, s.
    sweep_s: Vec<f64>,
    ipc_rmse: f64,
    trendse_rmse: f64,
    hypervolume: f64,
    params_digest: u64,
    model: TransformerPredictor,
}

/// Inputs shared by every pipeline of a run.
struct Inputs {
    train: Vec<Dataset>,
    validation: Vec<Dataset>,
    mask_sources: Vec<Dataset>,
    /// [`TASKS_PER_TARGET`] evaluation tasks per test workload, in split
    /// order.
    tasks: Vec<Vec<Task>>,
}

pub fn run(ctx: &Ctx, tracer: &Tracer, metrics: &mut Metrics, ledger: &mut Ledger) {
    let scale = Scale::paper();

    // Set-up: simulate the paper split, several times.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut env_digests = Vec::with_capacity(SETUPS);
    let mut env = None;
    for i in 0..SETUPS {
        let cpu = cpu_s();
        let built = tracer.time("sim.environment_build", 0, i as u64 + 1, || {
            Environment::build(&scale, scale.seed)
        });
        setup_s.push(cpu_s() - cpu);
        env_digests.push(environment_digest(&built));
        env = Some(built);
    }
    let env = env.expect("at least one set-up");
    ledger.check(env_digests.iter().all(|d| *d == env_digests[0]), || {
        format!("Environment::build is not deterministic: digests {env_digests:?}")
    });

    let inputs = Inputs {
        train: env.train_datasets(),
        validation: env.validation_datasets(),
        mask_sources: env
            .train_datasets()
            .iter()
            .map(|d| Dataset::from_samples(d.workload_name(), d.samples()[..MASK_ROWS].to_vec()))
            .collect(),
        tasks: gen::eval_tasks(
            ctx.seed,
            &env.split
                .test
                .iter()
                .map(|w| env.dataset(*w))
                .collect::<Vec<_>>(),
            TASKS_PER_TARGET,
            scale.eval_support,
            QUERY_ROWS,
        ),
    };
    let tasks = inputs.tasks.len() * TASKS_PER_TARGET;

    let quiet = Tracer::new(false);
    let untraced = phase(ctx, &quiet, &inputs, ledger);
    let first = &untraced[0];
    eprintln!(
        "perfbench: meta-train params digest {:016x}, MetaDSE ipc_rmse {:.6}, TrEnDSE ipc_rmse {:.6}",
        first.params_digest, first.ipc_rmse, first.trendse_rmse
    );

    let e2e = end_to_end(&untraced);
    eprintln!(
        "perfbench: timings from the {} of {} pipelines with host steal at or under the median",
        e2e.pipelines,
        untraced.len()
    );
    let walls: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    metrics.set(
        "setup_s",
        median(&setup_s),
        setup_s.len(),
        "CPU s of Environment::build, paper split at 2000 points/workload; median of set-ups",
    );
    metrics.set(
        "run_s",
        e2e.run_s,
        e2e.pipelines,
        format!(
            "wall s of pretrain → mask → adapt sweep → TrEnDSE → RMSE; median of the quieter half of pipelines (all: {})",
            quartile_note(&walls)
        ),
    );
    metrics.set(
        "throughput_per_s",
        e2e.throughput,
        e2e.pipelines,
        "meta-iterations per wall second of maml::pretrain; median of the quieter half of pipelines",
    );
    metrics.set("latency_p50_us", e2e.latency_p50_us, e2e.latency_samples, format!("wall µs per adapted task: each test workload's adapt_sweep ÷ its {TASKS_PER_TARGET} tasks; median over the quieter half of pipelines"));
    metrics.set(
        "ipc_rmse",
        first.ipc_rmse,
        tasks,
        "MetaDSE geomean over test workloads of mean task RMSE",
    );
    metrics.set(
        "hypervolume",
        first.hypervolume,
        inputs.tasks.len(),
        "Σ over test workloads of the mean over tasks of the hypervolume, at simulated IPC, of the front the adapted model picks from the query designs",
    );
    metrics.set(
        "peak_rss_mb",
        procfs::peak_rss_mb(procfs::self_pid()),
        1,
        "VmHWM of the benchmark process",
    );

    if !ctx.trace {
        return;
    }
    let cpus: Vec<f64> = untraced.iter().map(|p| p.cpu_s).collect();
    metrics.set(
        "meta-train.cpu_s",
        median(&cpus),
        cpus.len(),
        format!(
            "CPU s of the benchmark process per untraced pipeline; median, {}",
            quartile_note(&cpus)
        ),
    );
    let traced = phase(ctx, tracer, &inputs, ledger);
    ledger.check(
        traced[0].params_digest == first.params_digest
            && traced[0].ipc_rmse.to_bits() == first.ipc_rmse.to_bits(),
        || "tracing changed the pretrained parameters or ipc_rmse".to_string(),
    );
    let traced_e2e = end_to_end(&traced);
    crate::set_overhead(
        metrics,
        (e2e.run_s, traced_e2e.run_s),
        (e2e.throughput, traced_e2e.throughput),
        (e2e.latency_p50_us, traced_e2e.latency_p50_us),
    );
    layers_from(ctx, tracer, &traced, &inputs, metrics, ledger);
}

/// End-to-end figures of one phase.
struct EndToEnd {
    run_s: f64,
    throughput: f64,
    latency_p50_us: f64,
    latency_samples: usize,
    pipelines: usize,
}

/// Wall-clock figures of a phase's quieter half of pipelines (see
/// [`quiet_half`]).
fn end_to_end(pipelines: &[Pipeline]) -> EndToEnd {
    let steal: Vec<f64> = pipelines.iter().map(|p| p.steal_pct).collect();
    let quiet: Vec<&Pipeline> = quiet_half(&steal)
        .into_iter()
        .map(|i| &pipelines[i])
        .collect();
    let per_task_us: Vec<f64> = quiet
        .iter()
        .flat_map(|p| p.sweep_s.iter().map(|s| s * 1e6 / TASKS_PER_TARGET as f64))
        .collect();
    EndToEnd {
        run_s: median(&quiet.iter().map(|p| p.wall_s).collect::<Vec<_>>()),
        throughput: median(
            &quiet
                .iter()
                .map(|p| META_ITERATIONS as f64 / p.pretrain_s)
                .collect::<Vec<_>>(),
        ),
        latency_p50_us: median(&per_task_us),
        latency_samples: per_task_us.len(),
        pipelines: quiet.len(),
    }
}

/// Runs pipelines until `ctx.seconds` have passed and at least
/// [`MIN_PIPELINES`] have run; every pipeline must reproduce the first
/// one's parameters and RMSE bits.
fn phase(ctx: &Ctx, tracer: &Tracer, inputs: &Inputs, ledger: &mut Ledger) -> Vec<Pipeline> {
    let started = Instant::now();
    let mut out: Vec<Pipeline> = Vec::new();
    while out.len() < MIN_PIPELINES || started.elapsed() < ctx.seconds {
        let p = pipeline(tracer, inputs, out.len() as u64 + 1, ledger);
        if let Some(first) = out.first() {
            ledger.check(
                p.params_digest == first.params_digest
                    && p.ipc_rmse.to_bits() == first.ipc_rmse.to_bits(),
                || {
                    format!(
                        "pipeline {} diverged from pipeline 1 of the same seed",
                        out.len() + 1
                    )
                },
            );
        }
        out.push(p);
    }
    out
}

fn pipeline(tracer: &Tracer, inputs: &Inputs, trace: u64, ledger: &mut Ledger) -> Pipeline {
    let scale = Scale::paper();
    let host = procfs::host_jiffies();
    let started = Instant::now();
    let cpu = cpu_s();
    let root = tracer.span("meta-train.pipeline", 0, trace);
    let parent = root.id();

    let model = tracer.time("nn.predictor_new", parent, trace, || {
        TransformerPredictor::new(PredictorConfig::default(), scale.seed)
    });
    let config = MamlConfig {
        epochs: 1,
        iterations_per_epoch: META_ITERATIONS,
        val_tasks: VAL_TASKS,
        ..MamlConfig::paper()
    };
    let pretrain = Instant::now();
    tracer.time("maml.pretrain", parent, trace, || {
        maml::pretrain(
            &model,
            &inputs.train,
            &inputs.validation,
            Metric::Ipc,
            &config,
        )
    });
    let pretrain_s = pretrain.elapsed().as_secs_f64();

    let mask = tracer.time("wam.generate_mask", parent, trace, || {
        wam::generate_mask(&model, &inputs.mask_sources, &scale.wam, 64)
    });

    let mut sweep_s = Vec::with_capacity(inputs.tasks.len());
    let mut metadse_rmse = Vec::with_capacity(inputs.tasks.len());
    let mut hypervolume = 0.0;
    for tasks in &inputs.tasks {
        let sweep = Instant::now();
        let predictions = tracer.time("wam.adapt_sweep", parent, trace, || {
            wam::adapt_sweep(
                &model,
                tasks,
                Some(&mask),
                &scale.adapt,
                &ParallelConfig::default(),
            )
        });
        sweep_s.push(sweep.elapsed().as_secs_f64());
        let mut scores = TaskScores::new();
        let mut volumes = Vec::with_capacity(tasks.len());
        for (task, p) in tasks.iter().zip(&predictions) {
            if check_predictions(ledger, "MetaDSE", task, p) {
                scores.push(&task.query_y, p);
                let designs: Vec<Design> = task
                    .query_x
                    .iter()
                    .zip(p)
                    .zip(&task.query_y)
                    .map(|((x, &predicted), &simulated)| Design {
                        predicted,
                        simulated,
                        power: metadse_serve::session::power_proxy(x),
                    })
                    .collect();
                volumes.push(picked_front_hypervolume(&designs));
            }
        }
        if !scores.is_empty() {
            metadse_rmse.push(scores.summary().rmse_mean);
            hypervolume += mean(&volumes);
        }
    }

    let trendse = tracer.time("trendse.new", parent, trace, || {
        TrEnDse::new(inputs.train.clone(), Metric::Ipc, scale.trendse.clone())
    });
    let mut trendse_rmse = Vec::with_capacity(inputs.tasks.len());
    for tasks in &inputs.tasks {
        let mut scores = TaskScores::new();
        for task in tasks {
            let p = tracer.time("trendse.adapt_and_predict", parent, trace, || {
                trendse.adapt_and_predict(&task.support_x, &task.support_y, &task.query_x)
            });
            if check_predictions(ledger, "TrEnDSE", task, &p) {
                scores.push(&task.query_y, &p);
            }
        }
        if !scores.is_empty() {
            trendse_rmse.push(scores.summary().rmse_mean);
        }
    }
    let ipc_rmse = geomean(&metadse_rmse);
    ledger.check(ipc_rmse.is_finite() && ipc_rmse > 0.0, || {
        format!("MetaDSE ipc_rmse {ipc_rmse} is not a positive number")
    });
    let params_digest = params_digest(&model);
    drop(root);
    Pipeline {
        wall_s: started.elapsed().as_secs_f64(),
        steal_pct: procfs::steal_pct(host, procfs::host_jiffies()),
        cpu_s: cpu_s() - cpu,
        pretrain_s,
        sweep_s,
        ipc_rmse,
        trendse_rmse: geomean(&trendse_rmse),
        hypervolume,
        params_digest,
        model,
    }
}

/// A query design as the pipeline saw it.
struct Design {
    /// The adapted model's IPC.
    predicted: f64,
    /// The simulator's IPC.
    simulated: f64,
    /// The session layer's analytic power proxy.
    power: f64,
}

/// Hypervolume of the designs a DSE user would keep: the Pareto front
/// the predicted IPC picks out of `designs`, scored at those designs'
/// simulated IPC, so a model that over-predicts cannot raise it.
fn picked_front_hypervolume(designs: &[Design]) -> f64 {
    let dominates = |a: &Design, b: &Design| {
        a.predicted >= b.predicted
            && a.power <= b.power
            && (a.predicted > b.predicted || a.power < b.power)
    };
    let picked: Vec<ParetoEntry> = designs
        .iter()
        .filter(|d| !designs.iter().any(|o| dominates(o, d)))
        .map(|d| ParetoEntry {
            point: ConfigPoint::new(Vec::new()),
            ipc: d.simulated,
            power: d.power,
        })
        .collect();
    hypervolume(&picked, HV_IPC_REF, HV_POWER_REF)
}

/// One prediction per query row, every one finite.
fn check_predictions(ledger: &mut Ledger, who: &str, task: &Task, p: &[f64]) -> bool {
    let ok = p.len() == task.query_x.len() && p.iter().all(|v| v.is_finite());
    ledger.check(ok, || {
        format!(
            "{who} returned {} predictions for {} query rows, or a non-finite one",
            p.len(),
            task.query_x.len()
        )
    });
    ok
}

fn layers_from(
    ctx: &Ctx,
    tracer: &Tracer,
    traced: &[Pipeline],
    inputs: &Inputs,
    metrics: &mut Metrics,
    ledger: &mut Ledger,
) {
    let parallel = ParallelConfig::default();
    for (metric, span, per, what) in [
        (
            "sim.env_build_ms",
            "sim.environment_build",
            1.0,
            "Environment::build (set-up); median".to_string(),
        ),
        (
            "maml.pretrain_ms",
            "maml.pretrain",
            1.0,
            format!(
                "maml::pretrain, 1 epoch × {META_ITERATIONS} meta-iterations + validation; median"
            ),
        ),
        (
            "maml.meta_iter_ms",
            "maml.pretrain",
            META_ITERATIONS as f64,
            "maml::pretrain ÷ meta-iterations; median".to_string(),
        ),
        (
            "wam.mask_ms",
            "wam.generate_mask",
            1.0,
            format!("wam::generate_mask over 7 × {MASK_ROWS} source rows; median"),
        ),
        (
            "wam.adapt_task_ms",
            "wam.adapt_sweep",
            TASKS_PER_TARGET as f64,
            "wam::adapt_sweep ÷ tasks, per test workload; median".to_string(),
        ),
        (
            "trendse.build_ms",
            "trendse.new",
            1.0,
            "TrEnDse::new (with the source clone); median".to_string(),
        ),
        (
            "trendse.task_ms",
            "trendse.adapt_and_predict",
            1.0,
            "TrEnDse::adapt_and_predict (RF + GBRT + ridge); median task".to_string(),
        ),
    ] {
        let ms: Vec<f64> = tracer
            .durations_us(span)
            .iter()
            .map(|us| us / 1e3)
            .collect();
        metrics.set(metric, median(&ms) / per, ms.len(), what);
    }
    for (metric, tasks, what) in [
        (
            "parallel.env_workers",
            Scale::paper().samples_per_workload,
            "the per-workload simulation fan-out",
        ),
        (
            "parallel.pretrain_workers",
            inputs.train.len(),
            "the meta-batch fan-out",
        ),
        (
            "parallel.adapt_workers",
            TASKS_PER_TARGET,
            "each adapt sweep's fan-out",
        ),
    ] {
        metrics.set(
            metric,
            parallel.workers_for(tasks) as f64,
            1,
            format!("workers_for({tasks}), {what}"),
        );
    }
    metrics.set(
        "trendse.ipc_rmse",
        traced[0].trendse_rmse,
        inputs.tasks.len() * TASKS_PER_TARGET,
        "TrEnDSE geomean IPC RMSE on the same tasks",
    );

    // Reconciliation: what the pipeline span's timed calls (its child
    // spans) leave unexplained of it is its self time.
    let spans = tracer.spans();
    let mut rest_ms = Vec::new();
    for s in spans.iter().filter(|s| s.name == "meta-train.pipeline") {
        let total = s.us() / 1e3;
        let parts: Vec<f64> = spans
            .iter()
            .filter(|c| c.parent == s.id)
            .map(|c| c.us() / 1e3)
            .collect();
        let (rest, _) = unaccounted(total, &parts);
        ledger.check(reconciles(total, &parts, RECONCILE_TOLERANCE), || {
            format!(
                "pipeline {}: timed calls leave {rest:.1} ms of {total:.1} ms unexplained (tolerance {:.0}%)",
                s.trace,
                RECONCILE_TOLERANCE * 100.0
            )
        });
        rest_ms.push(rest);
    }
    metrics.set(
        "meta-train.unaccounted_ms",
        median(&rest_ms),
        rest_ms.len(),
        "pipeline wall time − Σ timed calls (pipeline span self time); must stay within 2% of it",
    );

    // Probes of single layers on the last pipeline's pretrained model.
    let model = &traced[traced.len() - 1].model;
    let config = MamlConfig::paper();
    let sampler = TaskSampler::new(config.support_size, config.query_size);
    let mut rng = StdRng::seed_from_u64(gen::derive(ctx.seed, Stream::Probe));
    let tasks: Vec<Task> = (0..4)
        .flat_map(|_| {
            inputs
                .train
                .iter()
                .map(|d| sampler.sample(d, Metric::Ipc, &mut rng))
                .collect::<Vec<_>>()
        })
        .collect();
    let params = model.params();
    for (i, task) in tasks.iter().enumerate() {
        let trace = 1000 + i as u64;
        let theta = tracer.time("maml.inner_adapt", 0, trace, || {
            maml::inner_adapt(
                model,
                &task.support_x,
                &task.support_y,
                config.inner_steps,
                config.inner_lr,
                false,
            )
        });
        layers::restore(&params, &theta);
        let p = tracer.time("nn.forward_query", 0, trace, || {
            model.predict(&task.query_x)
        });
        ledger.check(p.len() == task.query_x.len(), || {
            "predict returned the wrong number of rows".to_string()
        });
        let g = tracer.time("nn.grad_support", 0, trace, || {
            let loss = model.mse_on(&task.support_x, &task.support_y);
            grad(&loss, &layers::snapshot(&params), false)
        });
        ledger.check(g.len() == params.len(), || {
            "grad returned the wrong number of tensors".to_string()
        });
        metadse_nn::tensor::pool::reclaim();
    }
    for (metric, span, what) in [
        (
            "maml.inner_adapt_us",
            "maml.inner_adapt",
            "maml::inner_adapt, 5 steps on a 5-shot support set; median",
        ),
        (
            "nn.forward_query_us",
            "nn.forward_query",
            "TransformerPredictor::predict on a 45-row query set; median",
        ),
        (
            "nn.grad_support_us",
            "nn.grad_support",
            "mse_on + autograd::grad on a 5-shot support set; median",
        ),
    ] {
        let d = tracer.durations_us(span);
        metrics.set(metric, median(&d), d.len(), what);
    }
}

/// CPU time of the benchmark process so far, s.
fn cpu_s() -> f64 {
    procfs::self_cpu_ns() as f64 / 1e9
}

/// FNV-1a over every sample's feature and label bits, in workload order.
fn environment_digest(env: &Environment) -> u64 {
    let mut bytes = Vec::new();
    for ds in env.datasets.values() {
        for s in ds.samples() {
            for v in s.features.iter().chain([&s.ipc, &s.power_w]) {
                bytes.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
    }
    metadse_nn::format::fnv1a(&bytes)
}

/// FNV-1a over the model's parameter bits, in parameter order.
fn params_digest(model: &TransformerPredictor) -> u64 {
    let mut bytes = Vec::new();
    for p in model.params() {
        for v in p.get().to_vec() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    metadse_nn::format::fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn designs(predicted: &[f64], simulated: &[f64], power: &[f64]) -> Vec<Design> {
        predicted
            .iter()
            .zip(simulated)
            .zip(power)
            .map(|((&predicted, &simulated), &power)| Design {
                predicted,
                simulated,
                power,
            })
            .collect()
    }

    #[test]
    fn picked_front_is_scored_at_simulated_ipc() {
        let simulated = [1.0, 2.0, 1.5];
        let power = [4.0, 8.0, 6.0];
        let exact = picked_front_hypervolume(&designs(&simulated, &simulated, &power));
        // Over-predicting every design picks the same front and scores
        // the same.
        let high: Vec<f64> = simulated.iter().map(|v| v + 0.7).collect();
        assert_eq!(
            picked_front_hypervolume(&designs(&high, &simulated, &power)),
            exact
        );
        // A model that ranks the worst design first keeps only it and
        // scores lower, however high it predicts.
        let wrong = picked_front_hypervolume(&designs(&[9.0, 0.1, 0.1], &simulated, &power));
        assert_eq!(wrong, (1.0 - HV_IPC_REF) * (HV_POWER_REF - 4.0));
        assert!(wrong < exact);
    }
}
