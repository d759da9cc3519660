//! Regression tests for the tree-ensemble baselines: thread-count
//! determinism, agreement with the reference tree fit, and golden
//! accuracy bounds.
//!
//! The DSE baselines (random forest, gradient boosting) feed directly
//! into the paper's comparison tables, so three properties must never
//! drift: fitting is a pure function of `(data, seed)` regardless of
//! how many workers fit the trees, boosting predicts exactly what the
//! per-node-sort reference CART (`src/tree/oracle.rs`) predicts, and
//! accuracy on a fixed synthetic dataset stays within a committed bound.
//! The dataset is generated from a fixed [`StdRng`] seed, so every check
//! is exactly reproducible.

use metadse_mlkit::metrics::rmse;
use metadse_mlkit::{GradientBoosting, RandomForest, Regressor};
use metadse_parallel::ParallelConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "../src/tree/oracle.rs"]
mod oracle;

/// Forces `n` real workers even on small machines.
fn forced_threads(n: usize) -> ParallelConfig {
    ParallelConfig::with_threads(n).oversubscribed()
}

/// One split of the fixed dataset: feature rows and labels.
type Split = (Vec<Vec<f64>>, Vec<f64>);

/// The fixed synthetic DSE-like problem: 4 features on the unit cube,
/// response mixing linear, quadratic, and interaction terms plus small
/// deterministic noise. Returns `(train, test)` splits.
fn fixed_dataset() -> (Split, Split) {
    let mut rng = StdRng::seed_from_u64(0xd5e_2026);
    let mut draw = |n: usize| {
        let mut x = Vec::with_capacity(n);
        let mut y = Vec::with_capacity(n);
        for _ in 0..n {
            let f: Vec<f64> = (0..4).map(|_| rng.gen_range(0.0..1.0)).collect();
            let noise = rng.gen_range(-1.0..1.0) * 0.02;
            let label = 2.0 * f[0] + f[1] * f[1] - 0.5 * f[2] + f[0] * f[3] + noise;
            x.push(f);
            y.push(label);
        }
        (x, y)
    };
    let train = draw(240);
    let test = draw(80);
    (train, test)
}

fn assert_bit_identical(tag: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (i, (va, vb)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            va.to_bits(),
            vb.to_bits(),
            "{tag}: prediction {i} diverged ({va} vs {vb})"
        );
    }
}

#[test]
fn random_forest_fit_predict_is_deterministic_across_thread_counts() {
    let ((train_x, train_y), (test_x, _)) = fixed_dataset();
    let mut reference: Option<Vec<f64>> = None;
    for threads in [1usize, 2, 4] {
        let mut rf = RandomForest::new(24, 6, 2, 9).with_parallel(forced_threads(threads));
        rf.fit(&train_x, &train_y);
        let predictions = rf.predict(&test_x);
        match &reference {
            None => reference = Some(predictions),
            Some(want) => assert_bit_identical(&format!("forest t={threads}"), want, &predictions),
        }
    }
}

#[test]
fn gradient_boosting_fit_predict_matches_the_reference_oracle() {
    let ((train_x, train_y), (test_x, _)) = fixed_dataset();
    let mut gb = GradientBoosting::new(60, 0.1, 3, 2);
    gb.fit(&train_x, &train_y);
    let want = oracle::boosting_predictions(&train_x, &train_y, (60, 0.1, 3, 2), &test_x);
    assert_bit_identical("boosting vs oracle", &want, &gb.predict(&test_x));
}

#[test]
fn random_forest_meets_golden_accuracy_bound() {
    let ((train_x, train_y), (test_x, test_y)) = fixed_dataset();
    let mut rf = RandomForest::new(48, 8, 2, 11);
    rf.fit(&train_x, &train_y);
    let predictions = rf.predict(&test_x);
    let mse = rmse(&test_y, &predictions).powi(2);
    // Golden bound committed from the seeded run (MSE ≈ 0.0285); a 2×
    // margin absorbs intentional hyperparameter-neutral refactors while
    // still catching real regressions in the split or bootstrap logic.
    assert!(mse < 0.06, "forest test MSE regressed to {mse}");
}

#[test]
fn gradient_boosting_meets_golden_accuracy_bound() {
    let ((train_x, train_y), (test_x, test_y)) = fixed_dataset();
    let mut gb = GradientBoosting::new(150, 0.1, 3, 2);
    gb.fit(&train_x, &train_y);
    let predictions = gb.predict(&test_x);
    let mse = rmse(&test_y, &predictions).powi(2);
    // Golden bound committed from the seeded run (MSE ≈ 0.0124).
    assert!(mse < 0.03, "boosting test MSE regressed to {mse}");
}

#[test]
fn boosting_improves_monotonically_with_more_stages_on_train() {
    // Sanity anchor for the golden bounds: more stages must fit the
    // training set at least as well — if this drifts, the bounds above
    // are failing for structural reasons, not tuning ones.
    let ((train_x, train_y), _) = fixed_dataset();
    let mut last = f64::INFINITY;
    for stages in [10usize, 40, 160] {
        let mut gb = GradientBoosting::new(stages, 0.1, 3, 2);
        gb.fit(&train_x, &train_y);
        let train_rmse = rmse(&train_y, &gb.predict(&train_x));
        assert!(
            train_rmse <= last + 1e-9,
            "train RMSE rose from {last} to {train_rmse} at {stages} stages"
        );
        last = train_rmse;
    }
}
