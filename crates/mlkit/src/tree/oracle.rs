//! Reference CART that sorts every candidate column at every node.
//!
//! This is the tree fit the rank-indexed engine in `tree.rs` replaced,
//! kept verbatim as the oracle the equivalence tests compare fitted trees
//! and ensemble predictions against, bit for bit. It depends only on
//! `rand` and `std` so integration tests can include it by path.

use rand::Rng;

/// A fitted reference tree.
#[derive(Debug, Clone)]
pub enum RefNode {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: Box<RefNode>,
        right: Box<RefNode>,
    },
}

/// Fits a tree on all rows of `x`, drawing per-node feature subsets from
/// `rng` when `max_features` is set.
pub fn fit<R: Rng + ?Sized>(
    x: &[Vec<f64>],
    y: &[f64],
    max_depth: usize,
    min_samples_leaf: usize,
    max_features: Option<usize>,
    rng: &mut R,
) -> RefNode {
    let indices: Vec<usize> = (0..x.len()).collect();
    let params = (max_depth, min_samples_leaf, max_features);
    build(params, x, y, &indices, 0, rng)
}

/// Routes `x` to its leaf with the `x[f] <= threshold` test.
pub fn predict(node: &RefNode, x: &[f64]) -> f64 {
    let mut node = node;
    loop {
        match node {
            RefNode::Leaf(v) => return *v,
            RefNode::Split {
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

/// Squared-loss boosting over reference trees, stage for stage what
/// `GradientBoosting::fit` computes; returns the predictions for `queries`.
pub fn boosting_predictions(
    x: &[Vec<f64>],
    y: &[f64],
    (n_estimators, learning_rate, max_depth, min_samples_leaf): (usize, f64, usize, usize),
    queries: &[Vec<f64>],
) -> Vec<f64> {
    let base = y.iter().sum::<f64>() / y.len() as f64;
    let mut current = vec![base; y.len()];
    let mut trees = Vec::with_capacity(n_estimators);
    for _ in 0..n_estimators {
        let residuals: Vec<f64> = y.iter().zip(&current).map(|(t, c)| t - c).collect();
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let tree = fit(x, &residuals, max_depth, min_samples_leaf, None, &mut rng);
        for (c, xi) in current.iter_mut().zip(x) {
            *c += learning_rate * predict(&tree, xi);
        }
        trees.push(tree);
    }
    queries
        .iter()
        .map(|q| base + learning_rate * trees.iter().map(|t| predict(t, q)).sum::<f64>())
        .collect()
}

fn build<R: Rng + ?Sized>(
    params: (usize, usize, Option<usize>),
    x: &[Vec<f64>],
    y: &[f64],
    indices: &[usize],
    depth: usize,
    rng: &mut R,
) -> RefNode {
    let (max_depth, min_samples_leaf, max_features) = params;
    let mean = indices.iter().map(|&i| y[i]).sum::<f64>() / indices.len() as f64;
    if depth >= max_depth || indices.len() < 2 * min_samples_leaf {
        return RefNode::Leaf(mean);
    }
    let n_features = x[0].len();
    let candidates: Vec<usize> = match max_features {
        Some(k) if k < n_features => {
            // Sample k distinct features.
            let mut all: Vec<usize> = (0..n_features).collect();
            for i in 0..k {
                let j = rng.gen_range(i..all.len());
                all.swap(i, j);
            }
            all.truncate(k);
            all
        }
        _ => (0..n_features).collect(),
    };

    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, sse)
    for &f in &candidates {
        if let Some((threshold, sse)) = best_split_on(x, y, indices, f, min_samples_leaf) {
            if best.is_none() || sse < best.unwrap().2 {
                best = Some((f, threshold, sse));
            }
        }
    }
    let Some((feature, threshold, _)) = best else {
        return RefNode::Leaf(mean);
    };
    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) =
        indices.iter().partition(|&&i| x[i][feature] <= threshold);
    if left_idx.is_empty() || right_idx.is_empty() {
        return RefNode::Leaf(mean);
    }
    RefNode::Split {
        feature,
        threshold,
        left: Box::new(build(params, x, y, &left_idx, depth + 1, rng)),
        right: Box::new(build(params, x, y, &right_idx, depth + 1, rng)),
    }
}

/// Best threshold for one feature by total SSE of the two children
/// (prefix-sum scan over the sorted column). Returns `None` when no legal
/// split exists.
fn best_split_on(
    x: &[Vec<f64>],
    y: &[f64],
    indices: &[usize],
    feature: usize,
    min_leaf: usize,
) -> Option<(f64, f64)> {
    let mut order: Vec<usize> = indices.to_vec();
    order.sort_by(|&a, &b| x[a][feature].total_cmp(&x[b][feature]));
    let n = order.len();
    // Prefix sums of y and y² in sorted order.
    let mut sum = 0.0;
    let mut sum_sq = 0.0;
    let prefix: Vec<(f64, f64)> = order
        .iter()
        .map(|&i| {
            sum += y[i];
            sum_sq += y[i] * y[i];
            (sum, sum_sq)
        })
        .collect();
    let (total, total_sq) = prefix[n - 1];

    let mut best: Option<(f64, f64)> = None;
    for split in min_leaf..=(n - min_leaf) {
        if split == n {
            break;
        }
        let (xl, xr) = (x[order[split - 1]][feature], x[order[split]][feature]);
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
