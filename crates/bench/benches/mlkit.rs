//! Benchmarks of the classical-ML baselines (per-task fit cost is what
//! dominates TrEnDSE's evaluation loop).

use metadse_bench::timing::{black_box, Harness};
use metadse_mlkit::wasserstein::wasserstein_1d;
use metadse_mlkit::{GradientBoosting, RandomForest, Regressor};
use metadse_parallel::ParallelConfig;
use metadse_sim::{DesignSpace, Simulator};
use metadse_workloads::{Dataset, Metric, SpecWorkload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn data(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let x: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..d).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let y: Vec<f64> = x
        .iter()
        .map(|r| {
            r.iter()
                .enumerate()
                .map(|(j, v)| v * (j as f64).sin())
                .sum()
        })
        .collect();
    (x, y)
}

/// TrEnDSE-shaped pooled rows (480 × 21): 200 simulated designs from
/// each of two source workloads plus 10 target shots repeated 8 times.
/// Encoded Table I parameters take 2–25 levels per column, where
/// [`data`]'s uniform columns are all-distinct; tree fit cost depends
/// on the level count, so both regimes get a row.
fn pooled_data(seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
    let space = DesignSpace::new();
    let simulator = Simulator::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut x, mut y) = (Vec::new(), Vec::new());
    let parts = [
        (SpecWorkload::Mcf605, 200, 1),
        (SpecWorkload::Leela641, 200, 1),
        (SpecWorkload::Gcc602, 10, 8),
    ];
    for (workload, n, copies) in parts {
        let serial = ParallelConfig::serial();
        let ds = Dataset::generate_with(&space, &simulator, workload, n, &mut rng, &serial);
        for _ in 0..copies {
            for sample in ds.samples() {
                x.push(sample.features.clone());
                y.push(sample.label(Metric::Ipc));
            }
        }
    }
    (x, y)
}

fn bench_forest(h: &mut Harness) {
    let (x, y) = data(300, 21, 1);
    h.bench("mlkit/random_forest_fit_300x21", || {
        let mut rf = RandomForest::new(30, 10, 2, 5);
        rf.fit(black_box(&x), black_box(&y));
        black_box(rf)
    });
    let mut rf = RandomForest::new(30, 10, 2, 5);
    rf.fit(&x, &y);
    h.bench("mlkit/random_forest_predict", || {
        black_box(rf.predict_one(black_box(&x[0])))
    });
    let (x, y) = pooled_data(4);
    h.bench("mlkit/random_forest_fit_pooled_480x21", || {
        let mut rf = RandomForest::new(40, 10, 2, 5);
        rf.fit(black_box(&x), black_box(&y));
        black_box(rf)
    });
}

fn bench_gbrt(h: &mut Harness) {
    let (x, y) = data(300, 21, 2);
    h.bench("mlkit/gbrt_fit_300x21", || {
        let mut g = GradientBoosting::new(80, 0.1, 3, 2);
        g.fit(black_box(&x), black_box(&y));
        black_box(g)
    });
    let (x, y) = pooled_data(6);
    h.bench("mlkit/gbrt_fit_pooled_480x21", || {
        let mut g = GradientBoosting::new(80, 0.1, 3, 2);
        g.fit(black_box(&x), black_box(&y));
        black_box(g)
    });
}

fn bench_wasserstein(h: &mut Harness) {
    let mut rng = StdRng::seed_from_u64(3);
    let a: Vec<f64> = (0..400).map(|_| rng.gen_range(0.0..4.0)).collect();
    let b: Vec<f64> = (0..400).map(|_| rng.gen_range(1.0..5.0)).collect();
    h.bench("mlkit/wasserstein_400v400", || {
        black_box(wasserstein_1d(black_box(&a), black_box(&b)))
    });
}

fn main() {
    let mut h = Harness::new();
    bench_forest(&mut h);
    bench_gbrt(&mut h);
    bench_wasserstein(&mut h);
}
