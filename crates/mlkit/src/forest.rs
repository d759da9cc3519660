//! Random forest regressor (bagged CART trees with feature subsetting).

use metadse_parallel::ParallelConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::tree::{RankedColumns, RegressionTree, Scratch};
use crate::Regressor;

/// SplitMix64 finalizer used to derive independent per-tree seeds: each
/// tree's RNG is a pure function of (forest seed, tree index), so trees
/// can fit on any thread in any order with bit-identical results.
fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Random forest: bootstrap-resampled regression trees whose splits see a
/// random √d feature subset, averaged at prediction time.
///
/// One of the Table II baselines ("RF").
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    n_trees: usize,
    max_depth: usize,
    min_samples_leaf: usize,
    seed: u64,
    parallel: ParallelConfig,
    trees: Vec<RegressionTree>,
}

impl RandomForest {
    /// Creates an unfitted forest.
    ///
    /// # Panics
    ///
    /// Panics if `n_trees`, `max_depth` or `min_samples_leaf` is zero.
    pub fn new(
        n_trees: usize,
        max_depth: usize,
        min_samples_leaf: usize,
        seed: u64,
    ) -> RandomForest {
        assert!(n_trees > 0, "a forest needs trees");
        assert!(
            max_depth > 0 && min_samples_leaf > 0,
            "invalid tree hyperparameters"
        );
        RandomForest {
            n_trees,
            max_depth,
            min_samples_leaf,
            seed,
            parallel: ParallelConfig::default(),
            trees: Vec::new(),
        }
    }

    /// The paper-style default: 100 trees of depth 12.
    pub fn default_for_dse(seed: u64) -> RandomForest {
        RandomForest::new(100, 12, 2, seed)
    }

    /// Sets the thread configuration used by [`Regressor::fit`].
    pub fn with_parallel(mut self, parallel: ParallelConfig) -> RandomForest {
        self.parallel = parallel;
        self
    }

    /// Number of fitted trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the forest is unfitted.
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }
}

impl Regressor for RandomForest {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        assert!(!x.is_empty(), "cannot fit on an empty dataset");
        assert_eq!(x.len(), y.len(), "feature/label length mismatch");
        let d = x[0].len();
        let k = (d as f64).sqrt().round().max(1.0) as usize;
        let columns = RankedColumns::new(x);
        // Each tree's bootstrap and feature subsets come from an RNG
        // derived from (seed, tree index), so tree `t` is the same no
        // matter which worker fits it.
        self.trees = self.parallel.run_indexed(self.n_trees, |t| {
            let mut rng = StdRng::seed_from_u64(derive_seed(self.seed, t as u64));
            // Bootstrap resample: the tree reads the shared columns
            // through this row map (`RankedColumns::new` bounds the row
            // count to `u32`).
            let map: Vec<u32> = (0..x.len())
                .map(|_| rng.gen_range(0..x.len()) as u32)
                .collect();
            let mut tree =
                RegressionTree::new(self.max_depth, self.min_samples_leaf).with_max_features(k);
            tree.fit_rows(&columns, &map, y, &mut rng, &mut Scratch::default(), None);
            tree
        });
    }

    fn predict_one(&self, x: &[f64]) -> f64 {
        assert!(!self.trees.is_empty(), "predict called before fit");
        self.trees.iter().map(|t| t.predict_one(x)).sum::<f64>() / self.trees.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::rmse;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn noisy_quadratic(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x: Vec<Vec<f64>> = (0..n)
            .map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)])
            .collect();
        let y: Vec<f64> = x
            .iter()
            .map(|v| v[0] * v[0] + 0.5 * v[1] + 0.02 * rng.gen_range(-1.0..1.0))
            .collect();
        (x, y)
    }

    #[test]
    fn forest_beats_mean_predictor() {
        let (x, y) = noisy_quadratic(200, 1);
        let mut rf = RandomForest::new(30, 8, 2, 7);
        rf.fit(&x, &y);
        let (tx, ty) = noisy_quadratic(100, 2);
        let preds = rf.predict(&tx);
        let mean = crate::metrics::mean(&y);
        let mean_preds = vec![mean; ty.len()];
        assert!(rmse(&ty, &preds) < 0.5 * rmse(&ty, &mean_preds));
    }

    #[test]
    fn forest_is_deterministic_given_seed() {
        let (x, y) = noisy_quadratic(100, 3);
        let mut a = RandomForest::new(10, 6, 2, 42);
        let mut b = RandomForest::new(10, 6, 2, 42);
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_eq!(a.predict_one(&[0.3, -0.2]), b.predict_one(&[0.3, -0.2]));
    }

    #[test]
    fn different_seeds_give_different_forests() {
        let (x, y) = noisy_quadratic(100, 3);
        let mut a = RandomForest::new(10, 6, 2, 1);
        let mut b = RandomForest::new(10, 6, 2, 2);
        a.fit(&x, &y);
        b.fit(&x, &y);
        assert_ne!(a.predict_one(&[0.3, -0.2]), b.predict_one(&[0.3, -0.2]));
    }

    #[test]
    fn averaging_reduces_variance_vs_single_tree() {
        let (x, y) = noisy_quadratic(150, 5);
        let (tx, ty) = noisy_quadratic(150, 6);
        let mut forest = RandomForest::new(40, 10, 1, 9);
        forest.fit(&x, &y);
        let mut tree = crate::RegressionTree::new(10, 1);
        tree.fit(&x, &y);
        let forest_err = rmse(&ty, &forest.predict(&tx));
        let tree_err = rmse(&ty, &tree.predict(&tx));
        assert!(
            forest_err <= tree_err * 1.05,
            "forest {forest_err} vs tree {tree_err}"
        );
    }

    #[test]
    fn forest_is_bit_identical_across_thread_counts() {
        let (x, y) = noisy_quadratic(120, 11);
        let fit_with = |threads: usize| {
            // Oversubscribe: really spawn workers for these 12 trees even
            // on a single-core host.
            let mut rf = RandomForest::new(12, 6, 2, 5)
                .with_parallel(ParallelConfig::with_threads(threads).oversubscribed());
            rf.fit(&x, &y);
            rf
        };
        let serial = fit_with(1);
        for threads in [2, 4] {
            let parallel = fit_with(threads);
            assert_eq!(serial.trees, parallel.trees, "threads={threads} diverged");
        }
    }

    #[test]
    fn forest_matches_the_per_node_sort_oracle() {
        use crate::tree::oracle;
        use crate::tree::tests::{assert_matches_oracle, mixed_matrix};
        let (x, y) = mixed_matrix(7, 400);
        let (queries, _) = mixed_matrix(8, 60);
        let (n_trees, max_depth, min_leaf, seed) = (6, 10, 2, 13);
        let mut rf = RandomForest::new(n_trees, max_depth, min_leaf, seed);
        rf.fit(&x, &y);
        // The reference bootstrap clones the drawn rows.
        let k = (x[0].len() as f64).sqrt().round() as usize;
        let reference: Vec<oracle::RefNode> = (0..n_trees)
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(derive_seed(seed, t as u64));
                let (mut bx, mut by) = (Vec::new(), Vec::new());
                for _ in 0..x.len() {
                    let i = rng.gen_range(0..x.len());
                    bx.push(x[i].clone());
                    by.push(y[i]);
                }
                oracle::fit(&bx, &by, max_depth, min_leaf, Some(k), &mut rng)
            })
            .collect();
        for (t, (tree, want)) in rf.trees.iter().zip(&reference).enumerate() {
            assert_matches_oracle(tree, want, &format!("tree {t}"));
        }
        for q in x.iter().chain(&queries) {
            let want =
                reference.iter().map(|t| oracle::predict(t, q)).sum::<f64>() / n_trees as f64;
            assert_eq!(rf.predict_one(q).to_bits(), want.to_bits(), "row {q:?}");
        }
    }

    #[test]
    fn len_reports_tree_count() {
        let (x, y) = noisy_quadratic(50, 8);
        let mut rf = RandomForest::new(7, 4, 2, 0);
        assert!(rf.is_empty());
        rf.fit(&x, &y);
        assert_eq!(rf.len(), 7);
    }
}
