//! The served fleet explore-sessions and its hop ledger run against:
//! simulate, meta-train a base model on a short fixed budget, generate
//! its WAM mask, few-shot adapt it to each of the five test workloads,
//! publish each adapted model as a tenant, launch a one-shard fleet and
//! warm every tenant's plan and the front's connection pool. The tenants
//! are the system under test, so they are built from fixed seeds: every
//! run seed meets the same fleet, and only the traffic depends on
//! `--seed`.

use std::path::{Path, PathBuf};

use metadse::experiment::{Environment, Scale};
use metadse::maml::{self, MamlConfig};
use metadse::predictor::{PredictorConfig, TransformerPredictor};
use metadse::wam;
use metadse::ServablePredictor;
use metadse_bench::fleet::{launch, Fleet, FleetOptions};
use metadse_nn::layers::{self, Module, Param};
use metadse_nn::Tensor;
use metadse_serve::shard::{intro_socket, shard_socket};
use metadse_serve::{FrontClient, ModelRegistry, Plan};
use metadse_sim::{DesignSpace, Simulator};
use metadse_workloads::{Dataset, Metric, SpecWorkload, TaskSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::{Ledger, Metrics};
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::Ctx;

/// Batching cap of the shard (and the plan capacity it compiles).
pub const MAX_BATCH: usize = 8;
/// Batching wait of the shard, µs.
pub const MAX_WAIT_US: u64 = 100;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Meta-iterations of the base model's pre-training.
const PRETRAIN_ITERATIONS: usize = 1;
/// Rows of each source dataset the base mask is generated over.
const MASK_ROWS: usize = 128;
/// Few-shot support rows per tenant adaptation.
const SUPPORT: usize = 10;
/// Fixed seed of the simulated campaign behind every tenant.
const ENV_SEED: u64 = 7;
/// Fixed seed of the base model and its training.
const MODEL_SEED: u64 = 17;

/// One served tenant: a test workload and its adapted artifact.
pub struct Tenant {
    /// Registry name (the SPEC workload name).
    pub name: String,
    /// The workload, for simulator ground truth.
    pub workload: SpecWorkload,
    /// The published artifact.
    pub servable: ServablePredictor,
}

/// A warmed fleet and what it took to set it up.
pub struct Serving {
    /// The running fleet.
    pub fleet: Fleet,
    /// Its socket directory.
    pub dir: PathBuf,
    /// The registry root every fleet serves.
    pub registry_root: PathBuf,
    /// Its tenants, in test-split order.
    pub tenants: Vec<Tenant>,
    /// The Table I design space.
    pub space: DesignSpace,
    /// CPU time of each set-up (benchmark process + shard worker), s.
    pub setup_s: Vec<f64>,
    /// Fleets launched since set-up, for directory names.
    relaunches: usize,
}

impl Serving {
    /// Tenant names, in tenant order.
    pub fn names(&self) -> Vec<String> {
        self.tenants.iter().map(|t| t.name.clone()).collect()
    }

    /// Tenant artifact fingerprints, in tenant order.
    pub fn fingerprints(&self) -> Vec<u64> {
        self.tenants
            .iter()
            .map(|t| t.servable.fingerprint())
            .collect()
    }

    /// Simulated IPC of `points` on tenant `t`'s workload (ground truth).
    pub fn true_ipc(&self, t: usize, points: &[metadse_sim::ConfigPoint]) -> Vec<f64> {
        Dataset::generate_at(
            &self.space,
            &Simulator::new(),
            self.tenants[t].workload,
            points,
        )
        .labels(Metric::Ipc)
    }

    /// Peak RSS of the benchmark process plus the shard worker, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::procfs::peak_rss_mb(crate::procfs::self_pid())
            + self
                .fleet
                .supervisor
                .pid(0)
                .map_or(0.0, crate::procfs::peak_rss_mb)
    }

    /// CPU time of the benchmark process plus the shard worker, ns.
    pub fn cpu_ns(&self) -> u64 {
        crate::procfs::self_cpu_ns()
            + self
                .fleet
                .supervisor
                .pid(0)
                .map_or(0, crate::procfs::cpu_ns)
    }

    /// The shard's introspection `metrics` exposition.
    pub fn shard_metrics(&self) -> std::io::Result<String> {
        let socket = intro_socket(&shard_socket(&self.dir, 0));
        metadse_obs::introspect::query(&socket, "metrics").map(|r| r.body)
    }

    /// Checks the exactly-once law on the running shard: no point was
    /// predicted twice for the sessions it served.
    pub fn check_exactly_once(&self, ledger: &mut Ledger) {
        let body = self.shard_metrics();
        ledger.check(
            matches!(&body, Ok(b) if b.contains("counter session/duplicate_predictions_total 0\n")),
            || format!("shard metrics lack session/duplicate_predictions_total 0: {body:?}"),
        );
    }

    /// Replaces the fleet with a fresh, warmed one over the same
    /// registry: a new worker process with an empty point cache and no
    /// sessions. The retired shard must have kept the exactly-once law.
    pub fn relaunch(&mut self, ctx: &Ctx, ledger: &mut Ledger) {
        self.check_exactly_once(ledger);
        self.relaunches += 1;
        let dir = ctx.run_dir.join(format!("relaunch{}", self.relaunches));
        let fleet = launch_fleet(&dir, &self.registry_root);
        warm(
            &fleet,
            &self.tenants,
            &self.space,
            &Tracer::new(false),
            0,
            0,
            ledger,
        );
        std::mem::replace(&mut self.fleet, fleet).shutdown();
        let _ = std::fs::remove_dir_all(std::mem::replace(&mut self.dir, dir));
    }

    /// Orderly teardown.
    pub fn shutdown(self) {
        self.fleet.shutdown();
    }
}

/// Sets the fleet up [`SETUPS`] times, keeping the last one running.
/// Every set-up must produce the same tenant fingerprints, and every
/// warm-up reply must equal the artifact's in-process prediction.
pub fn setup(ctx: &Ctx, tracer: &Tracer, ledger: &mut Ledger) -> Serving {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept: Option<Serving> = None;
    for i in 0..SETUPS {
        // The worker starts inside the set-up, so all of its CPU time so
        // far belongs to it.
        let cpu = crate::procfs::self_cpu_ns();
        let trace = i as u64 + 1;
        let root = tracer.span("setup.fleet", 0, trace);
        let built = setup_once(ctx, tracer, ledger, i, root.id(), trace);
        drop(root);
        setup_s.push(built.cpu_ns().saturating_sub(cpu) as f64 / 1e9);
        if let Some(old) = kept.replace(built) {
            let same = old.fingerprints() == kept.as_ref().expect("just kept").fingerprints();
            ledger.check(same, || {
                format!(
                    "set-up {} built tenants with other fingerprints than set-up {i}",
                    i + 1
                )
            });
            let root = old.registry_root.parent().map(Path::to_path_buf);
            old.shutdown();
            if let Some(root) = root {
                let _ = std::fs::remove_dir_all(root);
            }
        }
    }
    let mut serving = kept.expect("at least one set-up");
    serving.setup_s = setup_s;
    serving
}

/// Launches a one-shard fleet over `registry_root` with sockets and
/// session checkpoints under `dir`.
pub fn launch_fleet(dir: &Path, registry_root: &Path) -> Fleet {
    let mut opts = FleetOptions::new(dir, registry_root, 1);
    opts.max_batch = MAX_BATCH;
    opts.max_wait_us = MAX_WAIT_US;
    opts.workers = 1;
    opts.session_dir = Some(dir.join("sessions"));
    launch(&opts).unwrap_or_else(|e| panic!("fleet launch in {}: {e}", dir.display()))
}

fn setup_once(
    ctx: &Ctx,
    tracer: &Tracer,
    ledger: &mut Ledger,
    index: usize,
    parent: u64,
    trace: u64,
) -> Serving {
    let scale = Scale::paper();
    let env = tracer.time("sim.environment_build", parent, trace, || {
        Environment::build(&scale, ENV_SEED)
    });
    let train = env.train_datasets();
    let model = TransformerPredictor::new(PredictorConfig::default(), MODEL_SEED);
    let config = MamlConfig {
        epochs: 1,
        iterations_per_epoch: PRETRAIN_ITERATIONS,
        val_tasks: 1,
        seed: MODEL_SEED,
        ..MamlConfig::paper()
    };
    tracer.time("maml.pretrain", parent, trace, || {
        maml::pretrain(
            &model,
            &train,
            &env.validation_datasets(),
            Metric::Ipc,
            &config,
        )
    });
    let sources: Vec<Dataset> = train
        .iter()
        .map(|d| Dataset::from_samples(d.workload_name(), d.samples()[..MASK_ROWS].to_vec()))
        .collect();
    let mask = tracer.time("wam.generate_mask", parent, trace, || {
        wam::generate_mask(&model, &sources, &scale.wam, 64)
    });

    let sampler = TaskSampler::new(SUPPORT, 1);
    let mut rng = StdRng::seed_from_u64(MODEL_SEED);
    let mut tenants = Vec::new();
    for &workload in &env.split.test {
        let task = sampler.sample(env.dataset(workload), Metric::Ipc, &mut rng);
        let servable = tracer.time("setup.adapt", parent, trace, || {
            let fresh = Param::new(
                "wam.mask",
                Tensor::param_from_vec(mask.get().to_vec(), &mask.shape()),
            );
            model.install_mask(fresh.clone());
            let params = model.params();
            let theta = wam::adapt(&model, &task.support_x, &task.support_y, &scale.adapt);
            model.clear_masks();
            let servable = ServablePredictor::capture(&model, Some(&fresh), "ipc");
            layers::restore(&params, &theta);
            servable
        });
        tenants.push(Tenant {
            name: workload.name().to_string(),
            workload,
            servable,
        });
    }

    let root = ctx.run_dir.join(format!("setup{index}"));
    let dir = root.join("fleet");
    let registry_root = root.join("models");
    let registry = ModelRegistry::new(&registry_root, 2);
    for t in &tenants {
        let published = tracer.time("registry.publish", parent, trace, || {
            registry.publish(&t.name, &t.servable)
        });
        ledger.check(published.is_ok(), || {
            format!("publish {}: {published:?}", t.name)
        });
    }
    for t in &tenants {
        let plan = tracer.time("plan.compile", parent, trace, || {
            Plan::compile(&t.servable, MAX_BATCH)
        });
        ledger.check(plan.is_ok(), || {
            format!("Plan::compile {}: {:?}", t.name, plan.err())
        });
    }
    let fleet = tracer.time("supervisor.launch", parent, trace, || {
        launch_fleet(&dir, &registry_root)
    });

    let space = DesignSpace::new();
    warm(&fleet, &tenants, &space, tracer, parent, trace, ledger);
    Serving {
        fleet,
        dir,
        registry_root,
        tenants,
        space,
        setup_s: Vec::new(),
        relaunches: 0,
    }
}

/// Warms every tenant's plan on the shard and the front's pool; each
/// reply must equal the artifact's own prediction.
fn warm(
    fleet: &Fleet,
    tenants: &[Tenant],
    space: &DesignSpace,
    tracer: &Tracer,
    parent: u64,
    trace: u64,
    ledger: &mut Ledger,
) {
    let mut client = FrontClient::connect(fleet.socket()).expect("connect to the front");
    let mut warm_rng = StdRng::seed_from_u64(MODEL_SEED);
    for t in tenants {
        let reference = t
            .servable
            .instantiate()
            .expect("instantiate a published artifact");
        for _ in 0..4 {
            let x = space.encode(&space.random_point(&mut warm_rng));
            let want = reference.predict(std::slice::from_ref(&x))[0];
            let got = tracer.time("front.predict", parent, trace, || {
                client.predict(&t.name, &x, None)
            });
            ledger.check(
                matches!(&got, Ok(p) if p.value.to_bits() == want.to_bits()),
                || format!("warm-up predict on {}: {got:?}, in-process {want}", t.name),
            );
        }
    }
}

/// Records the set-up metrics: `setup_s` always, the per-layer set-up
/// rows from the spans of a traced run.
pub fn setup_metrics(serving: &Serving, tracer: &Tracer, metrics: &mut Metrics) {
    metrics.set(
        "setup_s",
        median(&serving.setup_s),
        serving.setup_s.len(),
        "CPU s (benchmark process + shard worker) to simulate, pretrain, mask, adapt ×5, publish, compile, launch, warm; median of set-ups",
    );
    if !tracer.enabled() {
        return;
    }
    let ms = |name: &str| {
        tracer
            .durations_us(name)
            .iter()
            .map(|us| us / 1e3)
            .collect::<Vec<_>>()
    };
    let env = ms("sim.environment_build");
    metrics.set(
        "sim.env_build_ms",
        median(&env),
        env.len(),
        "Environment::build (set-up); median",
    );
    metrics.set(
        "parallel.env_workers",
        metadse_parallel::ParallelConfig::default().workers_for(Scale::paper().samples_per_workload)
            as f64,
        1,
        "workers_for(2000), the per-workload simulation fan-out",
    );
    let pretrain = ms("maml.pretrain");
    metrics.set(
        "maml.pretrain_ms",
        median(&pretrain),
        pretrain.len(),
        "maml::pretrain of the base model, 1 meta-iteration + validation; median",
    );
    metrics.set(
        "maml.meta_iter_ms",
        median(&pretrain) / PRETRAIN_ITERATIONS as f64,
        pretrain.len(),
        "maml::pretrain ÷ meta-iterations",
    );
    metrics.set(
        "parallel.pretrain_workers",
        metadse_parallel::ParallelConfig::default().workers_for(7) as f64,
        1,
        "workers_for(7), the meta-batch fan-out",
    );
    let mask = ms("wam.generate_mask");
    metrics.set(
        "wam.mask_ms",
        median(&mask),
        mask.len(),
        format!("wam::generate_mask over 7 × {MASK_ROWS} source rows; median"),
    );
    for (metric, span, what) in [
        (
            "setup.adapt_ms",
            "setup.adapt",
            "wam::adapt (10 shots) + ServablePredictor::capture per tenant; mean",
        ),
        (
            "registry.publish_ms",
            "registry.publish",
            "ModelRegistry::publish per tenant; mean",
        ),
        (
            "plan.compile_ms",
            "plan.compile",
            "Plan::compile at capacity 8 per tenant; mean",
        ),
        (
            "supervisor.launch_ms",
            "supervisor.launch",
            "fleet launch incl. wait_ready's 25 ms poll; mean",
        ),
    ] {
        let d = ms(span);
        metrics.set(metric, mean(&d), d.len(), what);
    }
}

/// Times compiled plans alone at the fleet's capacity: one row, and a
/// full batch of [`MAX_BATCH`] rows, on each input's tenant.
pub fn plan_probes(
    serving: &Serving,
    tracer: &Tracer,
    inputs: &[(usize, Vec<f64>)],
    metrics: &mut Metrics,
) {
    let plans: Vec<Plan> = serving
        .tenants
        .iter()
        .map(|t| Plan::compile(&t.servable, MAX_BATCH).expect("compile a published artifact"))
        .collect();
    let mut arena = metadse_serve::PlanArena::new();
    for (i, (t, x)) in inputs.iter().enumerate() {
        let out = tracer.time("plan.run_b1", 0, i as u64 + 1, || {
            plans[*t].run(std::slice::from_ref(x), &mut arena)
        });
        std::hint::black_box(out);
    }
    for (i, chunk) in inputs.chunks_exact(MAX_BATCH).enumerate() {
        let rows: Vec<Vec<f64>> = chunk.iter().map(|(_, x)| x.clone()).collect();
        let t = chunk[0].0;
        let out = tracer.time("plan.run_b8", 0, i as u64 + 1, || {
            plans[t].run(&rows, &mut arena)
        });
        std::hint::black_box(out);
    }
    let d = tracer.durations_us("plan.run_b1");
    metrics.set(
        "plan.forward_b1_us",
        median(&d),
        d.len(),
        "Plan::run on one row (capacity-8 plan); median",
    );
    let d = tracer.durations_us("plan.run_b8");
    metrics.set(
        "plan.forward_b8_us",
        median(&d),
        d.len(),
        "Plan::run on a full batch of 8 rows; median",
    );
}
