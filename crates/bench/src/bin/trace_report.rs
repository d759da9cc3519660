//! End-to-end trace of a small pretrain + adapt pipeline.
//!
//! Runs dataset simulation, MAML pre-training, WAM mask generation and a
//! downstream adaptation sweep under a root span, then writes every span
//! and metric to `TRACE_results.jsonl` and prints the span-tree summary.
//! A second section reproduces the PR1 `t4`-slower-than-`t1` benchmark
//! anomaly and attributes it with the trace counters.
//!
//! ```text
//! cargo run --release -p metadse-bench --features obs --bin trace_report
//! ```
//!
//! Without `--features obs` the pipeline still runs (instrumentation
//! compiles to no-ops) but the trace is empty.

use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use metadse::experiment::{pretrain_metadse, Environment, Scale};
use metadse::maml::MamlConfig;
use metadse::plan::{PlanProfile, OP_KINDS, OP_KIND_NAMES};
use metadse::predictor::{PredictorConfig, TransformerPredictor};
use metadse::wam::{self, AdaptConfig};
use metadse::ServablePredictor;
use metadse::Step;
use metadse_bench::report;
use metadse_bench::serving::{request_row, DISPATCH_GEOM};
use metadse_bench::timing::{black_box, human_ns};
use metadse_nn::layers::Param;
use metadse_nn::Tensor;
use metadse_obs as obs;
use metadse_parallel::ParallelConfig;
use metadse_serve::{BatchConfig, ModelRegistry, PlanCacheStats, ServeConfig, Server};
use metadse_sim::{DesignSpace, Simulator};
use metadse_workloads::{Dataset, Metric, SpecWorkload, Task, TaskSampler, WorkloadSplit};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Twenty profiled steps of a compiled WAM adaptation: 10 shots at the
/// default geometry, a learnable mask installed, the adaptation's SGD
/// update between steps. Returns the summed profile and the step count.
fn profile_adaptation_steps() -> (PlanProfile, usize) {
    let config = PredictorConfig::default();
    let s = config.num_params;
    let model = TransformerPredictor::new(config, 7);
    model.install_mask(Param::new(
        "wam.mask",
        Tensor::param_from_vec(vec![-0.5; s * s], &[s, s]),
    ));
    let x: Vec<Vec<f64>> = (0..10)
        .map(|i| {
            (0..s)
                .map(|j| ((i * s + j) as f64 * 0.37).sin().abs())
                .collect()
        })
        .collect();
    let y: Vec<f64> = (0..10).map(|i| (i as f64 * 0.3).cos()).collect();
    let mut step = Step::compile(&model, x.len());
    let rates = vec![0.02; step.param_ranges().count()];
    let mut profile = PlanProfile::default();
    let steps = AdaptConfig::default().steps;
    for _ in 0..steps {
        black_box(step.loss_and_grad_profiled(&x, &y, &mut profile));
        step.descend(&rates);
    }
    (profile, steps)
}

/// A four-workload split small enough to trace in seconds.
fn tiny_split() -> WorkloadSplit {
    WorkloadSplit {
        train: vec![SpecWorkload::Gcc602, SpecWorkload::Lbm619],
        validation: vec![SpecWorkload::Mcf605],
        test: vec![SpecWorkload::Nab644],
    }
}

/// A seconds-scale configuration exercising every instrumented stage.
fn tiny_scale() -> Scale {
    let mut scale = Scale::quick();
    scale.samples_per_workload = 60;
    scale.maml = MamlConfig {
        epochs: 2,
        iterations_per_epoch: 2,
        inner_steps: 2,
        support_size: 5,
        query_size: 15,
        val_tasks: 1,
        ..MamlConfig::tiny()
    };
    scale
}

/// Best-of-`reps` wall time of `f`.
fn time_min<T>(reps: usize, mut f: impl FnMut() -> T) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        black_box(f());
        best = best.min(start.elapsed());
    }
    best
}

/// Times one dataset-generation and one adaptation-sweep run under
/// `parallel`, returning `(dataset_wall, sweep_wall)`.
fn fanout_walls(tasks: &[Task], parallel: &ParallelConfig) -> (Duration, Duration) {
    let space = DesignSpace::new();
    let simulator = Simulator::new();
    let dataset = time_min(3, || {
        let mut rng = StdRng::seed_from_u64(7);
        Dataset::generate_with(
            &space,
            &simulator,
            SpecWorkload::Xalancbmk623,
            200,
            &mut rng,
            parallel,
        )
    });
    let model = metadse::predictor::TransformerPredictor::new(tiny_scale().predictor, 9);
    let adapt = AdaptConfig {
        steps: 5,
        ..AdaptConfig::default()
    };
    let sweep = time_min(2, || {
        wam::adapt_sweep(&model, tasks, None, &adapt, parallel)
    });
    (dataset, sweep)
}

/// Drives a batched workload through a scratch server with coalescing
/// width `max_batch` and returns the tenant's accumulated phase sums
/// `(queue_wait_us, assembly_us, forward_us, reply_us, e2e_us)` — the
/// per-request trace attribution rolled up per fingerprint — plus the
/// registry's plan-cache stats for the run. The `serve/batch` and
/// `serve/forward` spans these phases correspond to land in
/// `TRACE_results.jsonl` when obs is compiled in.
fn serve_phase_sums(
    max_batch: usize,
    rounds: usize,
) -> ((u64, u64, u64, u64, u64), PlanCacheStats) {
    let model = metadse::predictor::TransformerPredictor::new(DISPATCH_GEOM, 9);
    let servable = ServablePredictor::capture(&model, None, "ipc");
    let dir = std::env::temp_dir().join(format!(
        "metadse_trace_serve_b{max_batch}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Arc::new(ModelRegistry::open(dir.clone(), 2));
    registry.publish("trace", &servable).expect("publish model");
    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            batch: BatchConfig {
                max_batch,
                max_wait_us: 200,
                queue_capacity: 4096,
            },
            workers: 1,
        },
    );
    let arity = DISPATCH_GEOM.num_params;
    for round in 0..rounds {
        // Submit one coalescing window's worth at once, then wait them
        // all, so the worker actually assembles `max_batch`-row batches.
        let tickets: Vec<_> = (0..max_batch)
            .map(|i| server.submit("trace", &request_row(round * max_batch + i, arity), None))
            .collect();
        for t in tickets {
            t.wait().expect("trace serve request");
        }
    }
    let tenants = server.stats().tenants();
    let (_, tenant) = tenants.first().expect("tenant row");
    let sums = (
        tenant.queue_wait_us.load(Ordering::Relaxed),
        tenant.assembly_us.load(Ordering::Relaxed),
        tenant.forward_us.load(Ordering::Relaxed),
        tenant.reply_us.load(Ordering::Relaxed),
        tenant.e2e_us.load(Ordering::Relaxed),
    );
    let plan_stats = registry.plan_cache_stats();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    (sums, plan_stats)
}

fn main() {
    report::banner("MetaDSE trace report — pretrain + adapt pipeline");
    if !obs::enabled() {
        report::warn("built without --features obs: the trace below will be empty");
    }
    report::kv(
        "hardware threads",
        metadse_parallel::available_parallelism(),
    );

    // --- Traced pipeline -------------------------------------------------
    let scale = tiny_scale();
    let tasks: Vec<Task> = {
        let _root = obs::span("trace/pipeline");
        let env = Environment::build_with_split(&scale, tiny_split(), scale.seed);
        let (model, mask) = pretrain_metadse(&env, &scale, Metric::Ipc, &scale.maml);

        let mut rng = StdRng::seed_from_u64(11);
        let sampler = TaskSampler::new(scale.eval_support, scale.eval_query);
        let dataset = env.dataset(SpecWorkload::Nab644);
        let tasks: Vec<Task> = (0..8)
            .map(|_| sampler.sample(dataset, Metric::Ipc, &mut rng))
            .collect();
        black_box(wam::adapt_sweep(
            &model,
            &tasks,
            Some(&mask),
            &scale.adapt,
            &scale.parallel,
        ));
        tasks
    };

    // --- t1 vs t4 attribution --------------------------------------------
    report::section("t1 vs t4 attribution");
    let (d_t1, s_t1) = fanout_walls(&tasks, &ParallelConfig::serial());
    let (d_t4, s_t4) = fanout_walls(&tasks, &ParallelConfig::with_threads(4));
    let (d_t4f, s_t4f) = fanout_walls(&tasks, &ParallelConfig::with_threads(4).oversubscribed());

    report::table(&[
        vec![
            "fan-out".to_string(),
            "t1".to_string(),
            "t4 (default)".to_string(),
            "t4 (forced)".to_string(),
        ],
        vec![
            "dataset/generate 200pts".to_string(),
            human_ns(d_t1.as_nanos()),
            human_ns(d_t4.as_nanos()),
            human_ns(d_t4f.as_nanos()),
        ],
        vec![
            "wam/adapt_sweep 8 tasks".to_string(),
            human_ns(s_t1.as_nanos()),
            human_ns(s_t4.as_nanos()),
            human_ns(s_t4f.as_nanos()),
        ],
    ]);
    report::line(format!(
        "attribution: where t4 runs slower than t1, the cost is forcing more \
         workers than the {} hardware thread(s) — spawn + join + time-slicing \
         is pure overhead when no cores are free. Before its first task a \
         sweep worker clones the adaptation step and the prediction plan the \
         calling thread compiled once per sweep (weights and op lists, no \
         predictor), and its arenas grow on their first run. The default \
         config clamps workers to the machine, and the caller works as \
         worker 0, so the default t4 column uses at most one worker per \
         hardware thread.",
        metadse_parallel::available_parallelism(),
    ));

    // --- Compiled training step --------------------------------------------
    report::section("compiled 10-shot step: per-op forward and backward");
    let (profile, steps) = profile_adaptation_steps();
    let forward: u64 = profile.ns.iter().sum();
    let backward: u64 = profile.backward_ns.iter().sum();
    let mut step_rows = vec![vec![
        "op kind".to_string(),
        "forward/step".to_string(),
        "backward/step".to_string(),
        "share".to_string(),
    ]];
    let mut order: Vec<usize> = (0..OP_KINDS).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(profile.ns[i] + profile.backward_ns[i]));
    for i in order {
        let (f, b) = (profile.ns[i], profile.backward_ns[i]);
        if f + b == 0 {
            continue;
        }
        step_rows.push(vec![
            OP_KIND_NAMES[i].to_string(),
            human_ns(u128::from(f) / steps as u128),
            human_ns(u128::from(b) / steps as u128),
            format!(
                "{:.1}%",
                100.0 * (f + b) as f64 / (forward + backward).max(1) as f64
            ),
        ]);
    }
    report::table(&step_rows);
    report::line(format!(
        "attribution: {steps} compiled first-order steps (a WAM adaptation) on \
         10 shots at the default geometry with a learnable mask: {} forward \
         and {} backward per step. The `gelu` row is the feed-forward \
         linears' bias+GELU pass, timed apart from their matmuls (the \
         `linear` row). Adaptation and meta-training run this op list; \
         the `Rc` graph only serves second-order MAML and the test \
         oracles.",
        human_ns(u128::from(forward) / steps as u128),
        human_ns(u128::from(backward) / steps as u128),
    ));

    // --- Serve pipeline attribution ---------------------------------------
    report::section("serve pipeline: queue-wait vs forward share");
    let mut rows = vec![vec![
        "batch size".to_string(),
        "queue-wait".to_string(),
        "assembly".to_string(),
        "forward".to_string(),
        "reply".to_string(),
        "e2e/request".to_string(),
    ]];
    let op_us_before: Vec<u64> = OP_KIND_NAMES
        .iter()
        .map(|name| obs::counter_value(&format!("serve/plan_op/{name}_us")))
        .collect();
    let mut plan_totals = PlanCacheStats::default();
    for &max_batch in &[1usize, 8, 32] {
        let requests = 16 * max_batch;
        let ((queue, assembly, forward, reply, e2e), plan_stats) = serve_phase_sums(max_batch, 16);
        plan_totals.hits += plan_stats.hits;
        plan_totals.misses += plan_stats.misses;
        plan_totals.compile_us += plan_stats.compile_us;
        let share = |phase: u64| {
            if e2e == 0 {
                "-".to_string()
            } else {
                format!("{:.1}%", 100.0 * phase as f64 / e2e as f64)
            }
        };
        rows.push(vec![
            max_batch.to_string(),
            share(queue),
            share(assembly),
            share(forward),
            share(reply),
            human_ns(u128::from(e2e / requests as u64) * 1000),
        ]);
    }
    report::table(&rows);
    report::line(
        "attribution: per-request phase timings from the serve trace plane, \
         rolled up per tenant. As the coalescing width grows, queue-wait's \
         share of end-to-end latency rises (requests sit in the batcher \
         while the window fills) and forward's share falls (one model \
         forward amortizes across every coalesced row) — the micro-batching \
         trade the dispatch-bound geometry is built to expose. The matching \
         `serve/batch` and `serve/forward` spans are in the trace below.",
    );

    // --- Plan compile time and per-op forward attribution -----------------
    report::section("compiled plans: compile time and per-op forward share");
    report::kv("serve/plan_cache_hits", plan_totals.hits);
    report::kv("serve/plan_cache_misses", plan_totals.misses);
    report::kv(
        "serve/plan_compile_us",
        human_ns(u128::from(plan_totals.compile_us) * 1000),
    );
    let op_us: Vec<u64> = OP_KIND_NAMES
        .iter()
        .zip(&op_us_before)
        .map(|(name, before)| {
            obs::counter_value(&format!("serve/plan_op/{name}_us")).saturating_sub(*before)
        })
        .collect();
    let forward_total: u64 = op_us.iter().sum();
    if forward_total > 0 {
        let mut order: Vec<usize> = (0..OP_KINDS).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(op_us[i]));
        let mut op_rows = vec![vec![
            "plan op".to_string(),
            "forward time".to_string(),
            "share".to_string(),
        ]];
        for i in order {
            if op_us[i] == 0 {
                continue;
            }
            op_rows.push(vec![
                OP_KIND_NAMES[i].to_string(),
                human_ns(u128::from(op_us[i]) * 1000),
                format!("{:.1}%", 100.0 * op_us[i] as f64 / forward_total as f64),
            ]);
        }
        report::table(&op_rows);
        report::line(format!(
            "attribution: the serve runs above executed through compiled \
             fixed-shape plans — {} compile(s) totalling {}, and every \
             subsequent request reused the plan memoized at admission \
             ({} cache hit(s); admission re-consults the cache only after \
             a hot swap). The per-op rows split the plan executor's \
             forward time by IR op kind via the `serve/plan_op/*` \
             counters (`gelu` is the feed-forward bias+GELU pass, timed \
             apart from its matmul); on the dispatch-bound geometry the \
             linear/attention ops dominate while shape plumbing \
             (split/merge heads) stays marginal.",
            plan_totals.misses,
            human_ns(u128::from(plan_totals.compile_us) * 1000),
            plan_totals.hits,
        ));
    } else {
        report::line(
            "per-op attribution requires --features obs (the \
             serve/plan_op/* counters compile to no-ops without it).",
        );
    }

    // --- Trace artifacts --------------------------------------------------
    report::section("span tree and metrics");
    report::line(obs::summary());
    let path = Path::new("TRACE_results.jsonl");
    match obs::write_jsonl(path) {
        Ok(()) => report::kv("wrote", path.display()),
        Err(e) => report::warn(format!("could not write {}: {e}", path.display())),
    }
}
