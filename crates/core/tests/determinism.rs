//! Regression tests for the parallel execution layer: fanning per-task
//! work across threads must be bit-identical to the serial path, because
//! tasks are sampled serially, each task is a pure function of the
//! meta-parameter snapshot, and reductions run in task order.

use metadse::maml::{pretrain, MamlConfig};
use metadse::predictor::{PredictorConfig, TransformerPredictor};
use metadse_nn::layers::Module;
use metadse_nn::tensor::fused::FusedModeGuard;
use metadse_nn::tensor::pool::PoolModeGuard;
use metadse_parallel::ParallelConfig;
use metadse_workloads::{Dataset, Metric, Sample};
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
        _ => metadse_nn::format::atomic_write(&path, digest.as_bytes())
            .unwrap_or_else(|e| panic!("could not record digest in {path}: {e}")),
    }
}
