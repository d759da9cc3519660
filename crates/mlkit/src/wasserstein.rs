//! One-dimensional Wasserstein (earth mover's) distance.
//!
//! TrEnDSE measures workload similarity as the Wasserstein distance between
//! metric distributions (paper §II and Fig. 2). In one dimension the
//! p = 1 distance has a closed form: the L1 distance between the empirical
//! quantile functions.

/// First Wasserstein distance between two empirical 1-D distributions.
///
/// Samples need not be sorted or equally sized; the empirical quantile
/// functions are compared on the merged probability grid, which is exact
/// for step CDFs.
///
/// # Panics
///
/// Panics if either sample is empty.
///
/// # Example
///
/// ```
/// use metadse_mlkit::wasserstein::wasserstein_1d;
///
/// // Point masses at 0 and at 3: distance 3.
/// assert_eq!(wasserstein_1d(&[0.0], &[3.0]), 3.0);
/// ```
pub fn wasserstein_1d(a: &[f64], b: &[f64]) -> f64 {
    assert!(!a.is_empty() && !b.is_empty(), "empty sample");
    let mut xs = a.to_vec();
    let mut ys = b.to_vec();
    xs.sort_by(f64::total_cmp);
    ys.sort_by(f64::total_cmp);

    if xs.len() == ys.len() {
        // Equal sizes: mean absolute difference of order statistics.
        return xs.iter().zip(&ys).map(|(x, y)| (x - y).abs()).sum::<f64>() / xs.len() as f64;
    }

    // General case: integrate |F⁻¹_a(q) − F⁻¹_b(q)| dq over the merged
    // quantile breakpoints i/na and j/nb of the two step functions. On
    // the grid of 1/(na·nb) steps those are the integers i·nb and j·na,
    // so the merge and each segment's order statistics are exact.
    let (na, nb) = (xs.len(), ys.len());
    let grid = na
        .checked_mul(nb)
        .expect("sample sizes overflow the quantile grid");
    let (mut i, mut j, mut prev) = (0, 0, 0);
    let mut distance = 0.0;
    while prev < grid {
        let (next_a, next_b) = ((i + 1) * nb, (j + 1) * na);
        let next = next_a.min(next_b);
        distance += (xs[i] - ys[j]).abs() * (next - prev) as f64;
        i += usize::from(next_a == next);
        j += usize::from(next_b == next);
        prev = next;
    }
    distance / grid as f64
}

/// Symmetric distance matrix between several samples (Fig. 2's heatmap).
///
/// # Panics
///
/// Panics if any sample is empty.
pub fn distance_matrix(samples: &[Vec<f64>]) -> Vec<Vec<f64>> {
    let n = samples.len();
    let mut m = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = wasserstein_1d(&samples[i], &samples[j]);
            m[i][j] = d;
            m[j][i] = d;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_of_indiscernibles() {
        let a = vec![1.0, 2.0, 5.0, -3.0];
        assert_eq!(wasserstein_1d(&a, &a), 0.0);
    }

    #[test]
    fn symmetry() {
        let a = vec![0.0, 1.0, 2.0];
        let b = vec![5.0, 1.5];
        assert!((wasserstein_1d(&a, &b) - wasserstein_1d(&b, &a)).abs() < 1e-12);
    }

    #[test]
    fn translation_moves_distance_by_shift() {
        let a = vec![0.0, 1.0, 2.0, 3.0];
        let b: Vec<f64> = a.iter().map(|x| x + 2.5).collect();
        assert!((wasserstein_1d(&a, &b) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn unequal_sizes_against_known_value() {
        // a = {0, 1} (mass 1/2 each), b = {0} (mass 1).
        // F⁻¹ differs only on q in (1/2, 1], where a gives 1, b gives 0.
        let d = wasserstein_1d(&[0.0, 1.0], &[0.0]);
        assert!((d - 0.5).abs() < 1e-12, "got {d}");
    }

    #[test]
    fn unequal_sizes_read_every_order_statistic() {
        // The merged break i/2000 of a 2000-sample a times 2000 rounds to
        // just under i for 12 of its 1999 breaks (i = 1001 among them),
        // so a float quantile index read statistic i − 1 there.
        let a: Vec<f64> = (0..2000)
            .map(|i| if i <= 1000 { 0.0 } else { 1000.0 })
            .collect();
        let b = [0.0; 3];
        assert_eq!(wasserstein_1d(&a, &b), 499.5);
    }

    #[test]
    fn unequal_sizes_match_their_equal_size_expansion() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // Repeating every sample of a lcm/na times and of b lcm/nb times
        // leaves both distributions unchanged and takes the equal-size path.
        fn expand(v: &[f64], times: usize) -> Vec<f64> {
            v.iter()
                .flat_map(|&x| std::iter::repeat_n(x, times))
                .collect()
        }
        fn gcd(a: usize, b: usize) -> usize {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let mut rng = StdRng::seed_from_u64(0x5d1);
        for _ in 0..200 {
            let na = rng.gen_range(1..400usize);
            let nb = rng.gen_range(1..400usize);
            let a: Vec<f64> = (0..na).map(|_| rng.gen_range(-3.0..3.0)).collect();
            let b: Vec<f64> = (0..nb).map(|_| rng.gen_range(-1.0..4.0)).collect();
            let lcm = na / gcd(na, nb) * nb;
            let want = wasserstein_1d(&expand(&a, lcm / na), &expand(&b, lcm / nb));
            let got = wasserstein_1d(&a, &b);
            assert!(
                (got - want).abs() <= 1e-9 * want.max(1.0),
                "na {na}, nb {nb}: {got} vs {want}"
            );
        }
    }

    #[test]
    fn triangle_inequality_on_random_samples() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..50 {
            let gen = |rng: &mut StdRng, shift: f64| -> Vec<f64> {
                let n = rng.gen_range(3..20);
                (0..n).map(|_| rng.gen_range(-1.0..1.0) + shift).collect()
            };
            let a = gen(&mut rng, 0.0);
            let b = gen(&mut rng, 1.0);
            let c = gen(&mut rng, -0.5);
            let ab = wasserstein_1d(&a, &b);
            let bc = wasserstein_1d(&b, &c);
            let ac = wasserstein_1d(&a, &c);
            assert!(
                ac <= ab + bc + 1e-9,
                "triangle violated: {ac} > {ab} + {bc}"
            );
        }
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let samples = vec![vec![0.0, 1.0], vec![5.0, 6.0, 7.0], vec![-1.0]];
        let m = distance_matrix(&samples);
        for (i, row) in m.iter().enumerate() {
            assert_eq!(row[i], 0.0);
            for (j, v) in row.iter().enumerate() {
                assert!((v - m[j][i]).abs() < 1e-12);
            }
        }
        assert!(m[0][1] > 0.0);
    }
}
