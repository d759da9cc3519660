//! Machine-readable performance report.
//!
//! Times the workspace's hot paths — the packed matmul kernel against a
//! naive triple-loop reference, dataset simulation and the MAML/WAM task
//! fan-out at one and four worker threads — and writes every sample to
//! `BENCH_results.json` (name, mean wall-time in ns, iteration count,
//! configured thread count). The `t4` rows use the default
//! [`ParallelConfig`], which clamps the worker count to the machine; the
//! `t4_forced` rows disable the clamp so genuine thread-spawn overhead
//! stays measured.
//!
//! ```text
//! cargo run --release -p metadse-bench --bin bench_report
//! ```

use metadse::maml::{pretrain, MamlConfig};
use metadse::predictor::{PredictorConfig, TransformerPredictor};
use metadse::wam::{self, AdaptConfig};
use metadse_bench::timing::{black_box, Harness};
use metadse_bench::{report, serving};
use metadse_nn::autograd::no_grad;
use metadse_nn::{backend, BackendKind, Tensor};
use metadse_parallel::ParallelConfig;
use metadse_sim::{DesignSpace, Simulator};
use metadse_workloads::{Dataset, Metric, SpecWorkload, Task, TaskSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The thread counts every fan-out family is benchmarked at: serial,
/// default four-thread config, and four threads with the hardware clamp
/// disabled.
const THREAD_VARIANTS: [(&str, usize, bool); 3] =
    [("t1", 1, false), ("t4", 4, false), ("t4_forced", 4, true)];

/// Builds the [`ParallelConfig`] for one benchmark variant.
fn variant_config(threads: usize, forced: bool) -> ParallelConfig {
    let config = ParallelConfig::with_threads(threads);
    if forced {
        config.oversubscribed()
    } else {
        config
    }
}

/// Reference matmul: the textbook i-j-k triple loop the packed kernel is
/// measured against.
fn naive_matmul(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
    let mut out = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// Deterministic operand pair for one matmul shape.
fn matmul_operands(m: usize, k: usize, n: usize) -> (Tensor, Tensor) {
    let mut rng = StdRng::seed_from_u64(0xbe);
    let a = metadse_nn::init::normal(&[m, k], 1.0, &mut rng);
    let b = metadse_nn::init::normal(&[k, n], 1.0, &mut rng);
    (a, b)
}

fn matmul_benches(h: &mut Harness) {
    // Transformer-predictor shapes: a 45-row query batch hitting the
    // d_model=32 projections and the 64-wide FFN.
    for (m, k, n) in [(45, 21, 32), (45, 32, 32), (45, 32, 64), (64, 64, 64)] {
        let (a, b) = matmul_operands(m, k, n);
        let a_data = a.to_vec();
        let b_data = b.to_vec();
        h.bench(&format!("matmul/naive/{m}x{k}x{n}"), || {
            black_box(naive_matmul(&a_data, &b_data, m, k, n))
        });
        h.bench(&format!("matmul/packed/{m}x{k}x{n}"), || {
            no_grad(|| black_box(a.matmul(&b)))
        });
    }
}

fn simulator_benches(h: &mut Harness) {
    let space = DesignSpace::new();
    let simulator = Simulator::new();
    let mut rng = StdRng::seed_from_u64(1);
    let points: Vec<_> = (0..32).map(|_| space.random_point(&mut rng)).collect();
    h.bench("sim/generate_at/32_points", || {
        black_box(Dataset::generate_at(
            &space,
            &simulator,
            SpecWorkload::Mcf605,
            &points,
        ))
    });
}

fn dataset_benches(h: &mut Harness) {
    let space = DesignSpace::new();
    let simulator = Simulator::new();
    for (label, threads, forced) in THREAD_VARIANTS {
        let parallel = variant_config(threads, forced);
        report::kv(
            &format!("dataset/generate/200pts/{label} effective workers"),
            parallel.workers_for(200),
        );
        h.bench_threads(&format!("dataset/generate/200pts/{label}"), threads, || {
            let mut rng = StdRng::seed_from_u64(7);
            black_box(Dataset::generate_with(
                &space,
                &simulator,
                SpecWorkload::Xalancbmk623,
                200,
                &mut rng,
                &parallel,
            ))
        });
    }
}

fn tiny_predictor() -> TransformerPredictor {
    TransformerPredictor::new(
        PredictorConfig {
            num_params: 21,
            d_model: 16,
            heads: 2,
            depth: 1,
            d_hidden: 32,
            head_hidden: 16,
        },
        9,
    )
}

/// The training datasets behind the `maml/pretrain_epoch` rows.
fn maml_train_data() -> Vec<Dataset> {
    let space = DesignSpace::new();
    let simulator = Simulator::new();
    let mut rng = StdRng::seed_from_u64(3);
    [SpecWorkload::Gcc602, SpecWorkload::Lbm619]
        .iter()
        .map(|&w| Dataset::generate(&space, &simulator, w, 60, &mut rng))
        .collect()
}

/// The reduced pretrain config behind the `maml/pretrain_epoch` rows.
fn maml_bench_config(threads: usize, forced: bool) -> MamlConfig {
    MamlConfig {
        epochs: 1,
        iterations_per_epoch: 2,
        inner_steps: 2,
        support_size: 5,
        query_size: 20,
        val_tasks: 0,
        parallel: variant_config(threads, forced),
        ..MamlConfig::paper()
    }
}

fn maml_benches(h: &mut Harness) {
    let train = maml_train_data();
    for (label, threads, forced) in THREAD_VARIANTS {
        let config = maml_bench_config(threads, forced);
        h.bench_threads(&format!("maml/pretrain_epoch/{label}"), threads, || {
            let model = tiny_predictor();
            black_box(pretrain(&model, &train, &[], Metric::Ipc, &config))
        });
    }
}

/// Re-times the headline kernels with the scalar backend forced
/// process-wide, so `BENCH_results.json` carries `…@scalar` rows next
/// to the canonical (default-backend) ones and the SIMD speedup is a
/// same-machine, same-run comparison. Skipped when the scalar backend
/// is already the active one (the canonical rows then *are* scalar).
fn backend_comparison_benches(h: &mut Harness) {
    let active = backend::kind();
    report::kv("tensor backend (canonical rows)", active.name());
    if active == BackendKind::Scalar {
        report::line("scalar backend already active; skipping @scalar rows");
        return;
    }
    backend::set_process_kind(BackendKind::Scalar);

    let (a, b) = matmul_operands(64, 64, 64);
    h.bench("matmul/packed/64x64x64@scalar", || {
        no_grad(|| black_box(a.matmul(&b)))
    });

    let train = maml_train_data();
    let config = maml_bench_config(1, false);
    h.bench_threads("maml/pretrain_epoch/t1@scalar", 1, || {
        let model = tiny_predictor();
        black_box(pretrain(&model, &train, &[], Metric::Ipc, &config))
    });

    backend::set_process_kind(active);
}

fn adapt_sweep_benches(h: &mut Harness) {
    let space = DesignSpace::new();
    let simulator = Simulator::new();
    let mut rng = StdRng::seed_from_u64(5);
    let ds = Dataset::generate(&space, &simulator, SpecWorkload::Nab644, 80, &mut rng);
    let sampler = TaskSampler::new(10, 30);
    let tasks: Vec<Task> = (0..8)
        .map(|_| sampler.sample(&ds, Metric::Ipc, &mut rng))
        .collect();
    let model = tiny_predictor();
    let adapt = AdaptConfig {
        steps: 5,
        ..AdaptConfig::default()
    };
    for (label, threads, forced) in THREAD_VARIANTS {
        let parallel = variant_config(threads, forced);
        report::kv(
            &format!("wam/adapt_sweep/8_tasks/{label} effective workers"),
            parallel.workers_for(tasks.len()),
        );
        h.bench_threads(&format!("wam/adapt_sweep/8_tasks/{label}"), threads, || {
            black_box(wam::adapt_sweep(&model, &tasks, None, &adapt, &parallel))
        });
    }
}

/// Reads `wall_ns` for one benchmark name out of a committed
/// `BENCH_results.json` (one `{"name": …, "wall_ns": …, …}` object per
/// line, as written by [`Harness::write_json`]).
fn committed_wall_ns(json: &str, name: &str) -> Option<u128> {
    let needle = format!("\"name\": \"{name}\"");
    let line = json.lines().find(|l| l.contains(&needle))?;
    let field = line.split("\"wall_ns\": ").nth(1)?;
    let digits: String = field.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Best-of-three regression gate on one committed row: re-measures
/// `measure()` and passes as soon as any attempt lands within
/// `max_ratio` of the committed baseline — a genuine regression slows
/// every attempt, while a scheduler hiccup or noisy neighbour only
/// spoils one. Returns `false` on a sustained regression; a missing
/// baseline row passes with a warning so the gate stays usable while a
/// new row family lands. Never rewrites the baseline file.
fn gate_row(
    committed: &str,
    name: &str,
    max_ratio: f64,
    mut measure: impl FnMut() -> u128,
) -> bool {
    const ATTEMPTS: usize = 3;
    let Some(baseline) = committed_wall_ns(committed, name) else {
        report::warn(format!(
            "no committed baseline row for {name}; gate skipped"
        ));
        return true;
    };
    report::kv(&format!("{name} baseline wall_ns"), baseline);
    let mut best = u128::MAX;
    for attempt in 1..=ATTEMPTS {
        let wall_ns = measure();
        let ratio = wall_ns as f64 / baseline as f64;
        report::kv(
            &format!("{name} attempt {attempt}/{ATTEMPTS}"),
            format!("{wall_ns} ns ({ratio:.3}x)"),
        );
        best = best.min(wall_ns);
        if ratio <= max_ratio {
            report::line(format!("OK: {name} within {max_ratio}x of baseline"));
            return true;
        }
    }
    report::line(format!(
        "FAIL: {name} regressed {:.2}x vs committed baseline \
         (limit {max_ratio}x, best of {ATTEMPTS} attempts)",
        best as f64 / baseline as f64
    ));
    false
}

/// CI regression gate: re-times the three headline hot-path rows —
/// `maml/pretrain_epoch/t1` (end-to-end training epoch),
/// `matmul/packed/64x64x64` (dense kernel) and `serve/raw_predict_b32`
/// (batched inference forward) — at a reduced measurement budget and
/// fails (exit 1) if any regressed against the committed
/// `BENCH_results.json` baseline. The micro-kernel rows get a looser
/// ratio than the epoch row: their absolute times are small enough that
/// CI-runner timing noise is proportionally larger.
fn smoke() {
    report::banner("MetaDSE benchmark smoke check");
    report::kv("tensor backend", backend::kind().name());
    let committed = std::fs::read_to_string("BENCH_results.json")
        .expect("smoke mode needs the committed BENCH_results.json baseline");

    let train = maml_train_data();
    let maml_config = maml_bench_config(1, false);
    let (a, b) = matmul_operands(64, 64, 64);
    let (serve_model, serve_batch) = serving::raw_predict_fixture();

    // Evaluate every gate (no short-circuit) so one failure still
    // reports the state of the others.
    let results = [
        gate_row(&committed, "maml/pretrain_epoch/t1", 1.25, || {
            let mut h = Harness::new().with_target_ms(150);
            let sample = h.bench_threads("maml/pretrain_epoch/t1", 1, || {
                let model = tiny_predictor();
                black_box(pretrain(&model, &train, &[], Metric::Ipc, &maml_config))
            });
            if metadse_bench::alloc_count::enabled() {
                report::kv("allocs per epoch", sample.allocs);
            }
            sample.wall_ns
        }),
        gate_row(&committed, "matmul/packed/64x64x64", 1.6, || {
            let mut h = Harness::new().with_target_ms(60);
            h.bench("matmul/packed/64x64x64", || {
                no_grad(|| black_box(a.matmul(&b)))
            })
            .wall_ns
        }),
        gate_row(&committed, "serve/raw_predict_b32", 1.6, || {
            let mut h = Harness::new().with_target_ms(60);
            h.bench("serve/raw_predict_b32", || {
                black_box(serve_model.predict(&serve_batch))
            })
            .wall_ns
        }),
    ];
    if results.iter().any(|ok| !ok) {
        std::process::exit(1);
    }
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }
    report::banner("MetaDSE hot-path benchmark report");
    report::kv(
        "hardware threads",
        metadse_parallel::available_parallelism(),
    );

    let mut h = Harness::new().with_target_ms(300);
    matmul_benches(&mut h);
    simulator_benches(&mut h);
    dataset_benches(&mut h);
    maml_benches(&mut h);
    adapt_sweep_benches(&mut h);
    backend_comparison_benches(&mut h);

    let packed_vs_naive: Vec<String> = h
        .samples()
        .chunks(2)
        .take(4)
        .map(|pair| {
            format!(
                "{}: {:.2}x vs naive",
                pair[1].name,
                pair[0].wall_ns as f64 / pair[1].wall_ns.max(1) as f64
            )
        })
        .collect();
    for line in &packed_vs_naive {
        report::line(line);
    }

    let path = std::path::Path::new("BENCH_results.json");
    // Merge-write: `serve_bench` owns the `serve/` rows in the same file.
    h.write_json_merged(path, &["matmul/", "sim/", "dataset/", "maml/", "wam/"])
        .expect("write BENCH_results.json");
    report::kv("wrote", path.display());
}
