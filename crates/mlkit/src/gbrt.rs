//! Gradient-boosted regression trees (squared loss).

use crate::tree::{RankedColumns, RegressionTree, Scratch};
use crate::Regressor;

/// GBRT: stage-wise additive model where each shallow tree fits the current
/// residuals, shrunk by a learning rate.
///
/// One of the Table II baselines ("GBRT").
#[derive(Debug, Clone, PartialEq)]
pub struct GradientBoosting {
    n_estimators: usize,
    learning_rate: f64,
    max_depth: usize,
    min_samples_leaf: usize,
    base_prediction: f64,
    trees: Vec<RegressionTree>,
}

impl GradientBoosting {
    /// Creates an unfitted booster.
    ///
    /// # Panics
    ///
    /// Panics if `n_estimators` is zero or `learning_rate` is not in
    /// `(0, 1]`.
    pub fn new(
        n_estimators: usize,
        learning_rate: f64,
        max_depth: usize,
        min_samples_leaf: usize,
    ) -> GradientBoosting {
        assert!(n_estimators > 0, "need at least one estimator");
        assert!(
            learning_rate > 0.0 && learning_rate <= 1.0,
            "learning rate must be in (0, 1]"
        );
        GradientBoosting {
            n_estimators,
            learning_rate,
            max_depth,
            min_samples_leaf,
            base_prediction: 0.0,
            trees: Vec::new(),
        }
    }

    /// The paper-style default: 200 stages of depth-3 trees at rate 0.08.
    pub fn default_for_dse() -> GradientBoosting {
        GradientBoosting::new(200, 0.08, 3, 2)
    }

    /// Number of fitted stages.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the model is unfitted.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }
}

impl Regressor for GradientBoosting {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert!(!x.is_empty(), "cannot fit on an empty dataset");
        assert_eq!(x.len(), y.len(), "feature/label length mismatch");
        self.base_prediction = y.iter().sum::<f64>() / y.len() as f64;
        // Every stage fits the same rows, so they are ranked once.
        let columns = RankedColumns::new(x);
        let rows = columns.all_rows();
        let mut current: Vec<f64> = vec![self.base_prediction; y.len()];
        let mut residuals = vec![0.0; y.len()];
        let mut fitted = vec![0.0; y.len()];
        let mut scratch = Scratch::default();
        // Full feature search draws nothing from the RNG.
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        self.trees = Vec::with_capacity(self.n_estimators);
        for _ in 0..self.n_estimators {
            for ((r, t), c) in residuals.iter_mut().zip(y).zip(&current) {
                *r = t - c;
            }
            let mut tree = RegressionTree::new(self.max_depth, self.min_samples_leaf);
            tree.fit_rows(
                &columns,
                &rows,
                &residuals,
                &mut rng,
                &mut scratch,
                Some(&mut fitted),
            );
            // `fitted` holds each row's leaf value, which is what the
            // tree predicts for that row.
            for (c, p) in current.iter_mut().zip(&fitted) {
                *c += self.learning_rate * p;
            }
            self.trees.push(tree);
        }
    }

    fn predict_one(&self, x: &[f64]) -> f64 {
        assert!(!self.trees.is_empty(), "predict called before fit");
        self.base_prediction
            + self.learning_rate * self.trees.iter().map(|t| t.predict_one(x)).sum::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rmse;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn wave(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Vec<f64>> = (0..n).map(|_| vec![rng.gen_range(0.0..1.0)]).collect();
        let y: Vec<f64> = x.iter().map(|v| (8.0 * v[0]).sin() + 2.0 * v[0]).collect();
        (x, y)
    }

    #[test]
    fn boosting_reduces_training_error_with_stages() {
        let (x, y) = wave(200, 1);
        let err = |stages: usize| -> f64 {
            let mut g = GradientBoosting::new(stages, 0.2, 3, 2);
            g.fit(&x, &y);
            rmse(&y, &g.predict(&x))
        };
        let few = err(5);
        let many = err(100);
        assert!(many < few * 0.3, "100 stages {many} vs 5 stages {few}");
    }

    #[test]
    fn generalizes_on_held_out_wave() {
        let (x, y) = wave(300, 2);
        let (tx, ty) = wave(150, 3);
        let mut g = GradientBoosting::default_for_dse();
        g.fit(&x, &y);
        let err = rmse(&ty, &g.predict(&tx));
        assert!(err < 0.15, "held-out rmse {err}");
    }

    #[test]
    fn single_stage_predicts_near_the_mean_shape() {
        let (x, y) = wave(100, 4);
        let mut g = GradientBoosting::new(1, 0.1, 2, 2);
        g.fit(&x, &y);
        // After one shrunk stage, predictions stay close to the base mean.
        let base = crate::metrics::mean(&y);
        for p in g.predict(&x) {
            assert!((p - base).abs() < 1.0);
        }
    }

    #[test]
    fn deterministic_refits() {
        let (x, y) = wave(100, 5);
        let mut a = GradientBoosting::new(20, 0.1, 3, 2);
        let mut b = GradientBoosting::new(20, 0.1, 3, 2);
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a.predict_one(&[0.37]), b.predict_one(&[0.37]));
    }

    #[test]
    fn boosting_matches_the_per_node_sort_oracle() {
        use crate::tree::oracle;
        use crate::tree::tests::mixed_matrix;
        let (x, y) = mixed_matrix(5, 400);
        let (queries, _) = mixed_matrix(6, 60);
        let rows: Vec<Vec<f64>> = x.iter().chain(&queries).cloned().collect();
        for params in [(30, 0.1, 3, 2), (12, 0.3, 6, 1), (8, 0.5, 2, 5)] {
            let (stages, rate, depth, min_leaf) = params;
            let mut g = GradientBoosting::new(stages, rate, depth, min_leaf);
            g.fit(&x, &y);
            let want = oracle::boosting_predictions(&x, &y, params, &rows);
            for (i, (got, want)) in g.predict(&rows).iter().zip(&want).enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "{params:?}: row {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_bad_learning_rate() {
        let _ = GradientBoosting::new(10, 0.0, 3, 1);
    }
}
