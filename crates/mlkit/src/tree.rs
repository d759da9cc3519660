//! CART regression tree.
//!
//! Fitting sorts each feature once per fit, not at every node:
//! `RankedColumns` pairs every value with its dense rank under
//! `f64::total_cmp`, and a node orders its rows for a feature by
//! `(rank, row)` with a stable counting sort on rank. A node's rows are
//! kept ascending, so `(rank, row)` is exactly the order a stable
//! `total_cmp` sort of them gives: the prefix sums, split costs,
//! thresholds and leaf means are the ones a per-node sort computes, bit
//! for bit. Ties between values (`xl == xr`) and thresholds still read
//! the `f64` values, because `-0.0` and `0.0` rank apart yet compare
//! equal.

use rand::Rng;

use crate::Regressor;

#[cfg(test)]
pub(crate) mod oracle;

/// Internal tree node.
#[derive(Debug, Clone, PartialEq)]
enum Node {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

/// A CART regression tree with variance-reduction splits.
///
/// Supports per-split random feature subsetting (`max_features`), which is
/// what de-correlates the trees of a random forest.
///
/// # Example
///
/// ```
/// use metadse_mlkit::{RegressionTree, Regressor};
///
/// let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
/// let y = vec![0.0, 0.0, 10.0, 10.0];
/// let mut tree = RegressionTree::new(3, 1);
/// tree.fit(&x, &y);
/// assert_eq!(tree.predict_one(&[0.5]), 0.0);
/// assert_eq!(tree.predict_one(&[2.5]), 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionTree {
    max_depth: usize,
    min_samples_leaf: usize,
    max_features: Option<usize>,
    root: Option<Node>,
}

impl RegressionTree {
    /// Creates an unfitted tree.
    ///
    /// # Panics
    ///
    /// Panics if `max_depth` or `min_samples_leaf` is zero.
    pub fn new(max_depth: usize, min_samples_leaf: usize) -> RegressionTree {
        assert!(
            max_depth > 0 && min_samples_leaf > 0,
            "invalid tree hyperparameters"
        );
        RegressionTree {
            max_depth,
            min_samples_leaf,
            max_features: None,
            root: None,
        }
    }

    /// Limits each split to a random subset of `k` features (random-forest
    /// style). `fit` then requires an RNG via [`RegressionTree::fit_seeded`].
    pub fn with_max_features(mut self, k: usize) -> RegressionTree {
        self.max_features = Some(k.max(1));
        self
    }

    /// Whether the tree has been fitted.
    pub fn is_fitted(&self) -> bool {
        self.root.is_some()
    }

    /// Fits with an explicit RNG (needed when feature subsetting is on).
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or lengths disagree.
    pub fn fit_seeded<R: Rng + ?Sized>(&mut self, x: &[Vec<f64>], y: &[f64], rng: &mut R) {
        assert!(!x.is_empty(), "cannot fit on an empty dataset");
        assert_eq!(x.len(), y.len(), "feature/label length mismatch");
        let columns = RankedColumns::new(x);
        let mut scratch = Scratch::default();
        self.fit_rows(&columns, &columns.all_rows(), y, rng, &mut scratch, None);
    }

    /// Fits on the rows `map` selects from `columns` (row `r` of the fit
    /// is source row `map[r]`; a bootstrap map repeats rows), with labels
    /// `y` indexed by source row, growing in the caller's `scratch`
    /// buffers. When `fitted` is given, it receives each fit row's leaf
    /// value — what [`Regressor::predict_one`] returns for that row, since
    /// fitting routes rows by the same `x[f] <= threshold` test.
    pub(crate) fn fit_rows<R: Rng + ?Sized>(
        &mut self,
        columns: &RankedColumns,
        map: &[u32],
        y: &[f64],
        rng: &mut R,
        scratch: &mut Scratch,
        fitted: Option<&mut [f64]>,
    ) {
        scratch.reset(map.len());
        let mut grower = Grower {
            tree: self,
            columns,
            map,
            y,
            fitted,
            rng,
            s: scratch,
        };
        let root = grower.grow(0, map.len(), 0);
        self.root = Some(root);
    }
}

/// A training matrix stored by column, each value paired with its dense
/// rank under `f64::total_cmp` (equal bits, equal rank). Built once per
/// fit and shared by every node, tree and boosting stage of that fit.
#[derive(Debug)]
pub(crate) struct RankedColumns {
    n_rows: usize,
    columns: Vec<RankedColumn>,
}

#[derive(Debug)]
struct RankedColumn {
    values: Vec<f64>,
    ranks: Vec<u32>,
    levels: usize,
}

impl RankedColumns {
    /// Ranks every column of the non-empty matrix `x` (the width of
    /// `x[0]`).
    ///
    /// # Panics
    ///
    /// Panics if `x` has more rows than `u32` can index.
    pub(crate) fn new(x: &[Vec<f64>]) -> RankedColumns {
        let n_rows = x.len();
        assert!(u32::try_from(n_rows).is_ok(), "too many rows to index");
        let mut by_value: Vec<u32> = Vec::with_capacity(n_rows);
        let columns = (0..x[0].len())
            .map(|f| {
                let values: Vec<f64> = x.iter().map(|row| row[f]).collect();
                by_value.clear();
                by_value.extend(0..n_rows as u32);
                by_value
                    .sort_unstable_by(|&a, &b| values[a as usize].total_cmp(&values[b as usize]));
                let mut ranks = vec![0; n_rows];
                let mut level = 0;
                for w in 1..n_rows {
                    let (prev, row) = (by_value[w - 1] as usize, by_value[w] as usize);
                    level += u32::from(values[prev].total_cmp(&values[row]).is_ne());
                    ranks[row] = level;
                }
                RankedColumn {
                    values,
                    ranks,
                    levels: level as usize + 1,
                }
            })
            .collect();
        RankedColumns { n_rows, columns }
    }

    /// The identity row map: every source row once, in order.
    pub(crate) fn all_rows(&self) -> Vec<u32> {
        (0..self.n_rows as u32).collect()
    }
}

/// Fit buffers, reused across the nodes of a tree (and the stages of a
/// boosting fit).
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// Fit rows; every node owns a contiguous, ascending range.
    rows: Vec<u32>,
    /// The right-hand rows while a node is partitioned.
    spill: Vec<u32>,
    /// One node's `(x, y)` pairs in `(rank, row)` order for one feature.
    sorted: Vec<(f64, f64)>,
    /// Running `(Σy, Σy²)` along `sorted`.
    prefix: Vec<(f64, f64)>,
    /// Per-level counts, then per-level write offsets.
    counts: Vec<u32>,
    /// Feature indices; a node's candidates are a prefix.
    features: Vec<usize>,
}

impl Scratch {
    fn reset(&mut self, n: usize) {
        self.rows.clear();
        self.rows.extend(0..n as u32);
        self.spill.resize(n, 0);
        self.sorted.resize(n, (0.0, 0.0));
        self.prefix.resize(n, (0.0, 0.0));
    }
}

/// One tree fit in progress.
struct Grower<'a, R: ?Sized> {
    tree: &'a RegressionTree,
    columns: &'a RankedColumns,
    map: &'a [u32],
    y: &'a [f64],
    fitted: Option<&'a mut [f64]>,
    rng: &'a mut R,
    s: &'a mut Scratch,
}

impl<R: Rng + ?Sized> Grower<'_, R> {
    /// Grows the subtree over the fit rows `s.rows[lo..hi]`.
    fn grow(&mut self, lo: usize, hi: usize, depth: usize) -> Node {
        let (map, y) = (self.map, self.y);
        let n = hi - lo;
        let mean = self.s.rows[lo..hi]
            .iter()
            .map(|&r| y[map[r as usize] as usize])
            .sum::<f64>()
            / n as f64;
        let tree = self.tree;
        if depth >= tree.max_depth || n < 2 * tree.min_samples_leaf {
            return self.leaf(lo, hi, mean);
        }
        let n_features = self.columns.columns.len();
        let features = &mut self.s.features;
        features.clear();
        features.extend(0..n_features);
        let n_candidates = match tree.max_features {
            Some(k) if k < n_features => {
                // Sample k distinct features.
                for i in 0..k {
                    let j = self.rng.gen_range(i..n_features);
                    features.swap(i, j);
                }
                k
            }
            _ => n_features,
        };

        let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
        for c in 0..n_candidates {
            let f = self.s.features[c];
            if let Some((threshold, sse)) = self.best_split_on(lo, hi, f) {
                if best.is_none() || sse < best.unwrap().2 {
                    best = Some((f, threshold, sse));
                }
            }
        }
        let Some((feature, threshold, _)) = best else {
            return self.leaf(lo, hi, mean);
        };
        let mid = self.partition(lo, hi, feature, threshold);
        if mid == lo || mid == hi {
            return self.leaf(lo, hi, mean);
        }
        let left = self.grow(lo, mid, depth + 1);
        let right = self.grow(mid, hi, depth + 1);
        Node::Split {
            feature,
            threshold,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    fn leaf(&mut self, lo: usize, hi: usize, value: f64) -> Node {
        if let Some(fitted) = self.fitted.as_deref_mut() {
            for &r in &self.s.rows[lo..hi] {
                fitted[r as usize] = value;
            }
        }
        Node::Leaf(value)
    }

    /// Best threshold for one feature by total SSE of the two children
    /// (prefix-sum scan over the rows in `(rank, row)` order, which a
    /// stable counting sort on rank gives because the node's rows are
    /// ascending). Returns `None` when no legal split exists.
    fn best_split_on(&mut self, lo: usize, hi: usize, feature: usize) -> Option<(f64, f64)> {
        let column = &self.columns.columns[feature];
        let (values, ranks) = (&column.values[..], &column.ranks[..]);
        let (map, y) = (self.map, self.y);
        let Scratch {
            rows,
            sorted,
            prefix,
            counts,
            ..
        } = &mut *self.s;
        let rows = &rows[lo..hi];
        let n = rows.len();
        let sorted = &mut sorted[..n];
        counts.clear();
        counts.resize(column.levels, 0);
        for &r in rows {
            counts[ranks[map[r as usize] as usize] as usize] += 1;
        }
        let mut start = 0;
        for c in counts.iter_mut() {
            (*c, start) = (start, start + *c);
        }
        for &r in rows {
            let s = map[r as usize] as usize;
            let slot = &mut counts[ranks[s] as usize];
            sorted[*slot as usize] = (values[s], y[s]);
            *slot += 1;
        }

        let prefix = &mut prefix[..n];
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for (p, &(_, v)) in prefix.iter_mut().zip(sorted.iter()) {
            sum += v;
            sum_sq += v * v;
            *p = (sum, sum_sq);
        }
        let (total, total_sq) = prefix[n - 1];

        let min_leaf = self.tree.min_samples_leaf;
        let mut best: Option<(f64, f64)> = None;
        for split in min_leaf..=(n - min_leaf) {
            let (xl, xr) = (sorted[split - 1].0, sorted[split].0);
            if xl == xr {
                continue; // cannot separate equal values
            }
            let (ls, lsq) = prefix[split - 1];
            let (rs, rsq) = (total - ls, total_sq - lsq);
            let nl = split as f64;
            let nr = (n - split) as f64;
            let sse = (lsq - ls * ls / nl) + (rsq - rs * rs / nr);
            let threshold = 0.5 * (xl + xr);
            if best.is_none() || sse < best.unwrap().1 {
                best = Some((threshold, sse));
            }
        }
        best
    }

    /// Stably partitions `s.rows[lo..hi]` by `x[feature] <= threshold`
    /// and returns where the right side starts.
    fn partition(&mut self, lo: usize, hi: usize, feature: usize, threshold: f64) -> usize {
        let values = &self.columns.columns[feature].values;
        let map = self.map;
        let Scratch { rows, spill, .. } = &mut *self.s;
        let mut mid = lo;
        let mut n_right = 0;
        for i in lo..hi {
            let r = rows[i];
            if values[map[r as usize] as usize] <= threshold {
                rows[mid] = r;
                mid += 1;
            } else {
                spill[n_right] = r;
                n_right += 1;
            }
        }
        rows[mid..hi].copy_from_slice(&spill[..n_right]);
        mid
    }
}

impl Regressor for RegressionTree {
    fn fit(&mut self, x: &[Vec<f64>], y: &[f64]) {
        // Deterministic fit: full feature search needs no randomness; the
        // seeded path only matters when max_features is set.
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        self.fit_seeded(x, y, &mut rng);
    }

    fn predict_one(&self, x: &[f64]) -> f64 {
        let mut node = self.root.as_ref().expect("predict called before fit");
        loop {
            match node {
                Node::Leaf(v) => return *v,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if x[*feature] <= *threshold {
                        left
                    } else {
                        right
                    };
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::oracle::{self, RefNode};
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A matrix with every column shape the engine must order exactly as
    /// a stable `total_cmp` sort does: 2-, 5- and 25-level columns, an
    /// all-distinct column and a many-level column with ties (deep nodes
    /// hold far fewer rows than these have levels), a `-0.0`/`0.0`
    /// column, a column with NaNs of three bit patterns, and negated
    /// copies of the 5-level and many-level columns.
    /// A negated copy splits the rows into the same two sets as its
    /// source, so the two tie in exact arithmetic and the summation order
    /// alone picks the winner. The last `n / 8` rows repeat earlier rows,
    /// as a bootstrap does.
    pub(crate) fn mixed_matrix(seed: u64, n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let nans = [f64::NAN, -f64::NAN, f64::from_bits(0x7ff8_0000_0000_0001)];
        let mut x: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                let two = rng.gen_range(0..2) as f64;
                let five = rng.gen_range(0..5) as f64 * 0.25;
                let table = (1u64 << rng.gen_range(0..25)) as f64;
                let distinct = rng.gen_range(0.0..1.0);
                let many = rng.gen_range(0..2 * n / 3) as f64;
                let zero = [-0.0, 0.0, 1.0][rng.gen_range(0..3usize)];
                let nan = if rng.gen_range(0..6) == 0 {
                    nans[rng.gen_range(0..3usize)]
                } else {
                    rng.gen_range(-1.0..1.0)
                };
                vec![two, five, table, distinct, many, zero, nan, -five, -many]
            })
            .collect();
        let mut y: Vec<f64> = x
            .iter()
            .map(|r| {
                3.0 * r[0]
                    + r[1] * r[1]
                    + r[2].log2() / 8.0
                    + (7.0 * r[3]).sin()
                    + r[4] / n as f64
                    + r[5]
                    + rng.gen_range(-0.5..0.5)
            })
            .collect();
        for _ in 0..n / 8 {
            let i = rng.gen_range(0..n);
            x.push(x[i].clone());
            y.push(y[i]);
        }
        (x, y)
    }

    /// Panics unless `tree` has the oracle's shape, features, threshold
    /// bits and leaf bits.
    pub(crate) fn assert_matches_oracle(tree: &RegressionTree, want: &RefNode, context: &str) {
        fn head(node: &Node) -> String {
            match node {
                Node::Leaf(v) => format!("leaf {v:?}"),
                Node::Split {
                    feature, threshold, ..
                } => format!("x[{feature}] <= {threshold:?}"),
            }
        }
        fn oracle_head(node: &RefNode) -> String {
            match node {
                RefNode::Leaf(v) => format!("leaf {v:?}"),
                RefNode::Split {
                    feature, threshold, ..
                } => format!("x[{feature}] <= {threshold:?}"),
            }
        }
        fn diff(got: &Node, want: &RefNode, path: String) -> Option<String> {
            match (got, want) {
                (Node::Leaf(a), RefNode::Leaf(b)) if a.to_bits() == b.to_bits() => None,
                (
                    Node::Split {
                        feature,
                        threshold,
                        left,
                        right,
                    },
                    RefNode::Split {
                        feature: f,
                        threshold: t,
                        left: l,
                        right: r,
                    },
                ) if feature == f && threshold.to_bits() == t.to_bits() => {
                    diff(left, l, path.clone() + "L").or_else(|| diff(right, r, path + "R"))
                }
                (got, want) => Some(format!(
                    "node {path:?}: {} vs oracle {}",
                    head(got),
                    oracle_head(want)
                )),
            }
        }
        let root = tree.root.as_ref().expect("tree is fitted");
        if let Some(d) = diff(root, want, String::new()) {
            panic!("{context}: {d}");
        }
    }

    #[test]
    fn fits_match_the_per_node_sort_oracle() {
        for seed in 0..2 {
            let (x, y) = mixed_matrix(seed, 600);
            for min_leaf in [1, 2, 5] {
                for depth in [1, 2, 3, 5, 8, 12] {
                    for max_features in [None, Some(1), Some(3)] {
                        let mut tree = RegressionTree::new(depth, min_leaf);
                        if let Some(k) = max_features {
                            tree = tree.with_max_features(k);
                        }
                        let mut rng = StdRng::seed_from_u64(seed + 100);
                        tree.fit_seeded(&x, &y, &mut rng);
                        let mut rng = StdRng::seed_from_u64(seed + 100);
                        let want = oracle::fit(&x, &y, depth, min_leaf, max_features, &mut rng);
                        let context = format!(
                            "seed {seed}, depth {depth}, min leaf {min_leaf}, max features {max_features:?}"
                        );
                        assert_matches_oracle(&tree, &want, &context);
                    }
                }
            }
        }
    }

    fn grid(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let x: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / n as f64]).collect();
        let y: Vec<f64> = x.iter().map(|v| (6.0 * v[0]).sin()).collect();
        (x, y)
    }

    #[test]
    fn perfectly_separable_step_function() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]];
        let y = vec![1.0, 1.0, 5.0, 5.0];
        let mut t = RegressionTree::new(4, 1);
        t.fit(&x, &y);
        assert_eq!(t.predict(&x), y);
    }

    #[test]
    fn deeper_trees_fit_better() {
        let (x, y) = grid(128);
        let mut shallow = RegressionTree::new(2, 1);
        let mut deep = RegressionTree::new(6, 1);
        shallow.fit(&x, &y);
        deep.fit(&x, &y);
        let err = |t: &RegressionTree| -> f64 { crate::metrics::rmse(&y, &t.predict(&x)) };
        assert!(err(&deep) < err(&shallow) * 0.5);
    }

    #[test]
    fn min_leaf_caps_resolution() {
        let (x, y) = grid(64);
        let mut coarse = RegressionTree::new(12, 16);
        coarse.fit(&x, &y);
        // With min 16 samples per leaf, at most 4 leaves exist.
        let preds = coarse.predict(&x);
        let mut distinct: Vec<f64> = preds.clone();
        distinct.sort_by(f64::total_cmp);
        distinct.dedup();
        assert!(distinct.len() <= 4, "{} leaves", distinct.len());
    }

    #[test]
    fn constant_labels_yield_single_leaf() {
        let x = vec![vec![0.0], vec![1.0], vec![2.0]];
        let y = vec![7.0, 7.0, 7.0];
        let mut t = RegressionTree::new(5, 1);
        t.fit(&x, &y);
        assert_eq!(t.predict_one(&[10.0]), 7.0);
    }

    #[test]
    fn splits_use_the_informative_feature() {
        // Feature 1 is noise; feature 0 determines y.
        let x: Vec<Vec<f64>> = (0..40)
            .map(|i| vec![(i % 2) as f64, (i * 7 % 13) as f64])
            .collect();
        let y: Vec<f64> = x.iter().map(|v| v[0] * 100.0).collect();
        let mut t = RegressionTree::new(3, 1);
        t.fit(&x, &y);
        assert_eq!(t.predict_one(&[0.0, 3.0]), 0.0);
        assert_eq!(t.predict_one(&[1.0, 9.0]), 100.0);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn fit_on_empty_panics() {
        let mut t = RegressionTree::new(3, 1);
        t.fit(&[], &[]);
    }
}
