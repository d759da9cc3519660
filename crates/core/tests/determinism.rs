//! Regression tests for the parallel execution layer: fanning per-task
//! work across threads must be bit-identical to the serial path, because
//! tasks are sampled serially, each task is a pure function of the
//! meta-parameter snapshot, and reductions run in task order.

use metadse::experiment::{Environment, Scale};
use metadse::maml::{pretrain, MamlConfig};
use metadse::predictor::{PredictorConfig, TransformerPredictor};
use metadse::trendse::TrEnDse;
use metadse::wam::{self, AdaptConfig, WamConfig};
use metadse_nn::layers::{self, Module, Param};
use metadse_nn::tensor::fused::FusedModeGuard;
use metadse_nn::tensor::pool::PoolModeGuard;
use metadse_nn::{BackendKind, BackendModeGuard, Tensor};
use metadse_parallel::ParallelConfig;
use metadse_workloads::{Dataset, Metric, Sample, Task, TaskSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
fn pretrain_is_bit_identical_across_thread_counts() {
    let dim = 6;
    // tiny() needs support_size + query_size = 50 samples per task.
    let train: Vec<Dataset> = (0..2)
        .map(|i| synthetic_dataset(60 + i, dim, 80, i as f64 * 0.4))
        .collect();
    let val = vec![synthetic_dataset(70, dim, 80, 0.2)];

    let run = |threads: usize| {
        let model = tiny_model(dim);
        let config = MamlConfig {
            // Oversubscribe: the CI host may be single-core — force real
            // workers for the 2-task meta-batch.
            parallel: ParallelConfig::with_threads(threads).oversubscribed(),
            ..MamlConfig::tiny()
        };
        let report = pretrain(&model, &train, &val, Metric::Ipc, &config);
        let params: Vec<Vec<f64>> = model.params().iter().map(|p| p.get().to_vec()).collect();
        (report, params)
    };

    let (serial_report, serial_params) = run(1);
    let (parallel_report, parallel_params) = run(4);

    assert_eq!(
        serial_report, parallel_report,
        "losses must match bit-for-bit across thread counts"
    );
    assert_eq!(
        serial_params, parallel_params,
        "final parameters must match bit-for-bit across thread counts"
    );

    check_cross_build_digest(&serial_report, &serial_params);
}

/// The buffer pool and the fused kernels are performance features with a
/// bit-identity contract: running the full tiny pretrain with both enabled
/// must reproduce the plain-primitive run exactly. Both toggles are
/// thread-local, so the run is pinned to one inline thread.
#[test]
fn pool_and_fusion_do_not_change_pretrain_numerics() {
    let dim = 6;
    let train: Vec<Dataset> = (0..2)
        .map(|i| synthetic_dataset(60 + i, dim, 80, i as f64 * 0.4))
        .collect();
    let val = vec![synthetic_dataset(70, dim, 80, 0.2)];

    let run = |enabled: bool| {
        let _pool = PoolModeGuard::set(enabled);
        let _fuse = FusedModeGuard::set(enabled);
        let model = tiny_model(dim);
        let config = MamlConfig {
            parallel: ParallelConfig::with_threads(1),
            ..MamlConfig::tiny()
        };
        let report = pretrain(&model, &train, &val, Metric::Ipc, &config);
        let params: Vec<Vec<f64>> = model.params().iter().map(|p| p.get().to_vec()).collect();
        (report, params)
    };

    let fast = run(true);
    let plain = run(false);
    assert_eq!(
        fast, plain,
        "pool + fused kernels must be bit-identical to the primitive path"
    );
}

/// A configuration that really runs `threads` workers, even on a
/// single-core host.
fn forced(threads: usize) -> ParallelConfig {
    ParallelConfig::with_threads(threads).oversubscribed()
}

/// A two-layer predictor, so an installed mask is shared by two layers.
fn two_layer_model(dim: usize) -> TransformerPredictor {
    TransformerPredictor::new(
        PredictorConfig {
            depth: 2,
            ..*tiny_model(dim).config()
        },
        8,
    )
}

/// Four toy tasks on one synthetic workload.
fn toy_tasks(dim: usize, query: usize) -> Vec<Task> {
    let ds = synthetic_dataset(80, dim, 240, 0.3);
    let sampler = TaskSampler::new(6, query);
    let mut rng = StdRng::seed_from_u64(81);
    (0..4)
        .map(|_| sampler.sample(&ds, Metric::Ipc, &mut rng))
        .collect()
}

fn short_adapt() -> AdaptConfig {
    AdaptConfig {
        steps: 3,
        ..AdaptConfig::default()
    }
}

/// A graded `[dim, dim]` logit bias with a zero diagonal.
fn mask_values(dim: usize) -> Vec<f64> {
    (0..dim * dim)
        .map(|i| {
            if i / dim == i % dim {
                0.0
            } else {
                -0.2 * (i % 7) as f64
            }
        })
        .collect()
}

/// Sweep workers must compute with the caller's installed masks, whether
/// frozen (outside `params()`) or learnable (inside it): a worker that
/// dropped them ran unmasked, or failed to load the caller's parameter
/// list. The caller's masks are back in place, with their values, after
/// every sweep.
#[test]
fn sweep_workers_keep_the_callers_masks() {
    let dim = 6;
    let tasks = toy_tasks(dim, 10);
    let frozen = Param::new("frozen", Tensor::from_vec(mask_values(dim), &[dim, dim]));
    let learnable = Param::new(
        "wam.mask",
        Tensor::param_from_vec(mask_values(dim), &[dim, dim]),
    );
    for installed in [frozen, learnable] {
        let model = two_layer_model(dim);
        model.install_mask(installed.clone());
        let unmasked = {
            let plain = two_layer_model(dim);
            wam::adapt_sweep(
                &plain,
                &tasks,
                None,
                &short_adapt(),
                &ParallelConfig::serial(),
            )
        };
        let serial = wam::adapt_sweep(
            &model,
            &tasks,
            None,
            &short_adapt(),
            &ParallelConfig::serial(),
        );
        assert_ne!(
            serial,
            unmasked,
            "{}: the mask must matter",
            installed.name()
        );
        for threads in [2, 3] {
            let parallel = wam::adapt_sweep(&model, &tasks, None, &short_adapt(), &forced(threads));
            assert_eq!(
                serial,
                parallel,
                "{} at {threads} threads",
                installed.name()
            );
        }
        // A sweep with its own prior replaces the installed mask only
        // while it runs.
        let prior = Param::new(
            "wam.mask",
            Tensor::param_from_vec(vec![0.0; dim * dim], &[dim, dim]),
        );
        assert_eq!(
            wam::adapt_sweep(
                &model,
                &tasks,
                Some(&prior),
                &short_adapt(),
                &ParallelConfig::serial()
            ),
            wam::adapt_sweep(&model, &tasks, Some(&prior), &short_adapt(), &forced(3)),
        );
        for mask in model.masks() {
            let mask = mask.expect("mask reinstated on every layer");
            assert!(mask.shares_slot(&installed));
            assert_eq!(mask.get().to_vec(), mask_values(dim));
        }
    }
}

/// The backend, fused-kernel and pool guards are thread-local; fan-out
/// workers must run under the caller's, so serial and forced-parallel
/// sweeps and masks agree bit-for-bit under any of them.
#[test]
fn fan_outs_carry_the_callers_tensor_modes() {
    let dim = 6;
    let model = two_layer_model(dim);
    let tasks = toy_tasks(dim, 10);
    let sources = vec![
        synthetic_dataset(82, dim, 48, 0.1),
        synthetic_dataset(83, dim, 40, 0.6),
    ];
    let run = |parallel: &ParallelConfig| {
        let mask = wam::generate_mask_with(&model, &sources, &WamConfig::default(), 16, parallel);
        let swept = wam::adapt_sweep(&model, &tasks, Some(&mask), &short_adapt(), parallel);
        (mask.get().to_vec(), swept)
    };
    {
        let _scalar = BackendModeGuard::set(BackendKind::Scalar);
        assert_eq!(
            run(&ParallelConfig::serial()),
            run(&forced(3)),
            "scalar backend"
        );
    }
    {
        let _primitive = FusedModeGuard::set(false);
        assert_eq!(
            run(&ParallelConfig::serial()),
            run(&forced(3)),
            "fused kernels off"
        );
    }
    {
        let _unpooled = PoolModeGuard::set(false);
        assert_eq!(run(&ParallelConfig::serial()), run(&forced(3)), "pool off");
    }
}

/// The paper split simulated at `Scale::quick()`, a predictor of the
/// quick geometry, and three tasks whose 150-row query sets span three
/// sweep chunks (64 + 64 + 22 rows).
struct QuickFixture {
    scale: Scale,
    env: Environment,
    model: TransformerPredictor,
    tasks: Vec<Task>,
}

fn quick_fixture() -> QuickFixture {
    let scale = Scale::quick();
    let env = Environment::build(&scale, scale.seed);
    let model = TransformerPredictor::new(scale.predictor, scale.seed);
    let sampler = TaskSampler::new(scale.eval_support, 150);
    let mut rng = StdRng::seed_from_u64(90);
    let target = env.dataset(env.split.test[0]);
    let tasks = (0..3)
        .map(|_| sampler.sample(target, Metric::Ipc, &mut rng))
        .collect();
    QuickFixture {
        scale,
        env,
        model,
        tasks,
    }
}

#[test]
fn adaptation_stages_are_bit_identical_across_thread_counts() {
    let fx = quick_fixture();
    assert!(fx.tasks[0].query_x.len() > 2 * wam::QUERY_CHUNK_ROWS);
    let sources: Vec<Dataset> = fx.env.train_datasets().into_iter().take(3).collect();
    let adapt = short_adapt();
    let trendse = TrEnDse::new(
        fx.env.train_datasets(),
        Metric::Ipc,
        fx.scale.trendse.clone(),
    );
    let run = |parallel: &ParallelConfig| {
        let mask = wam::generate_mask_with(&fx.model, &sources, &fx.scale.wam, 64, parallel);
        let plain = wam::adapt_sweep(&fx.model, &fx.tasks, None, &adapt, parallel);
        let masked = wam::adapt_sweep(&fx.model, &fx.tasks, Some(&mask), &adapt, parallel);
        let task = &fx.tasks[0];
        let ensemble = trendse.adapt_and_predict_with(
            &task.support_x,
            &task.support_y,
            &task.query_x,
            parallel,
        );
        (mask.get().to_vec(), plain, masked, ensemble)
    };
    let serial = run(&ParallelConfig::serial());
    for threads in [2, 3] {
        assert_eq!(serial, run(&forced(threads)), "{threads} threads");
    }
    // The default-configured entry points agree with the serial runs.
    let mask = wam::generate_mask(&fx.model, &sources, &fx.scale.wam, 64);
    assert_eq!(mask.get().to_vec(), serial.0);
    let task = &fx.tasks[0];
    assert_eq!(
        trendse.adapt_and_predict(&task.support_x, &task.support_y, &task.query_x),
        serial.3
    );
}

/// Predicting a task's query rows in sweep chunks gives the bits of one
/// whole-batch predict after the same adaptation.
#[test]
fn chunked_adapt_and_predict_equals_a_whole_batch_predict() {
    let fx = quick_fixture();
    let sources: Vec<Dataset> = fx.env.train_datasets().into_iter().take(2).collect();
    let mask = wam::generate_mask(&fx.model, &sources, &fx.scale.wam, 64);
    let adapt = short_adapt();
    for task in &fx.tasks {
        for prior in [None, Some(&mask)] {
            let chunked = wam::adapt_and_predict(&fx.model, task, prior, &adapt);
            if let Some(prior) = prior {
                fx.model.install_mask(Param::new(
                    "wam.mask",
                    Tensor::param_from_vec(prior.get().to_vec(), &prior.shape()),
                ));
            }
            let params = fx.model.params();
            let theta = wam::adapt(&fx.model, &task.support_x, &task.support_y, &adapt);
            let whole = fx.model.predict(&task.query_x);
            layers::restore(&params, &theta);
            fx.model.clear_masks();
            assert_eq!(chunked, whole);
        }
    }
}

/// FNV-1a over the exact bit patterns of the run's outputs: any
/// difference in any parameter or reported loss changes the digest.
fn run_digest(report: &impl std::fmt::Debug, params: &[Vec<f64>]) -> String {
    let mut hash: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100000001b3);
        }
    };
    eat(format!("{report:?}").as_bytes());
    for p in params {
        for v in p {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    format!("{hash:016x}")
}

/// Cross-build determinism check: observability is a compile-time
/// feature, so "obs on vs off" cannot be compared within one test
/// binary. Instead, when `METADSE_DIGEST_FILE` is set, the first build
/// to run writes its run digest there and every later build (e.g. the
/// same test re-run with `--features obs`, or with a different thread
/// default) must reproduce it bit-for-bit.
///
/// The record path is atomic (temp + rename): several test binaries
/// share the file within one `cargo test` run, and a concurrent reader
/// must never observe a half-written digest.
fn check_cross_build_digest(report: &impl std::fmt::Debug, params: &[Vec<f64>]) {
    let Ok(path) = std::env::var("METADSE_DIGEST_FILE") else {
        return;
    };
    // Each backend pins its own digest: the scalar backend keeps the
    // historical unsuffixed file, other backends get `<path>.<backend>`.
    let path = match metadse_nn::backend::kind() {
        metadse_nn::BackendKind::Scalar => path,
        kind => format!("{path}.{}", kind.name()),
    };
    let digest = run_digest(report, params);
    match std::fs::read_to_string(&path) {
        Ok(previous) if !previous.trim().is_empty() => assert_eq!(
            previous.trim(),
            digest,
            "pretrain digest diverged from the one recorded in {path} — \
             a differently-featured build changed the numerics"
        ),
        _ => metadse_obs::atomic_write(&metadse_obs::StdIo, &path, digest.as_bytes())
            .unwrap_or_else(|e| panic!("could not record digest in {path}: {e}")),
    }
}
