//! Order statistics the benchmark reports: median, quartiles, the
//! percentile ladder with its sample-support rule, the choice of the
//! samples the host disturbed least, and the arithmetic that reconciles
//! a traced run's timed calls with its end-to-end time.

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method, the default of
/// Python's `statistics.quantiles(values, n=4)`, so in-run spreads read
/// the same way as the spreads computed over a set of runs. Needs at
/// least two values; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    match values.len() {
        0 => (0.0, 0.0),
        1 => (values[0], values[0]),
        _ => {
            let s = sorted(values);
            (exclusive_quantile(&s, 1, 4), exclusive_quantile(&s, 3, 4))
        }
    }
}

/// `"quartiles a–b"` of `values`, for a table note.
pub fn quartile_note(values: &[f64]) -> String {
    let (q1, q3) = quartiles(values);
    format!("quartiles {q1:.6}–{q3:.6}")
}

/// Port of CPython's exclusive-method cut point `i` of `n` over sorted
/// data of at least two values.
fn exclusive_quantile(s: &[f64], i: usize, n: usize) -> f64 {
    let ld = s.len();
    let m = ld + 1;
    let j = (i * m / n).clamp(1, ld - 1);
    let delta = (i * m) as f64 - (j * n) as f64;
    (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let s = sorted(values);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Whether `n` samples support percentile `p`: at least ten samples lie
/// beyond it, so p90 needs 100 samples and p99 needs 1000.
pub fn supports(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9
}

/// The percentiles a latency is reported at, highest last.
const LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// The highest percentile of [`LADDER`] that `n` samples support, with
/// its value; `None` under 20 samples.
pub fn highest_supported(values: &[f64]) -> Option<(f64, f64)> {
    LADDER
        .iter()
        .rev()
        .find(|&&p| supports(values.len(), p))
        .map(|&p| (p, percentile(values, p)))
}

/// Percentile `p` if the sample supports it, else 0 (the ledger prints
/// an unsupported tail as 0 with its sample count rather than a value
/// resting on fewer than ten samples).
pub fn supported_percentile(values: &[f64], p: f64) -> f64 {
    if supports(values.len(), p) {
        percentile(values, p)
    } else {
        0.0
    }
}

/// Geometric mean of positive `values`; 0 when there are none.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        metadse_mlkit::metrics::geometric_mean(values)
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Indices of the samples the host disturbed least: those whose steal
/// share (`steal[i]`, the share of host CPU time the hypervisor stole
/// while sample `i` ran) is at most the median share. At least half of
/// the samples, in their order. Steal only ever slows a sample and comes
/// in episodes of minutes, so timing the quieter half keeps an episode
/// from moving a run's figures; the choice rests on the host's counter,
/// not on the time measured, so a change that slows every sample shows
/// in full.
pub fn quiet_half(steal: &[f64]) -> Vec<usize> {
    let cut = median(steal);
    (0..steal.len()).filter(|&i| steal[i] <= cut).collect()
}

/// What a traced run's timed calls leave unexplained of an end-to-end
/// time: `total − Σ parts`, and that remainder as a share of `total`.
pub fn unaccounted(total: f64, parts: &[f64]) -> (f64, f64) {
    let rest = total - parts.iter().sum::<f64>();
    let share = if total > 0.0 { rest / total } else { 0.0 };
    (rest, share)
}

/// Whether the timed calls account for `total` within `tolerance` (a
/// share of `total`), in either direction.
pub fn reconciles(total: f64, parts: &[f64], tolerance: f64) -> bool {
    unaccounted(total, parts).1.abs() <= tolerance
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_half_keeps_the_samples_at_or_under_the_median_steal() {
        assert_eq!(quiet_half(&[40.0, 0.0, 5.0, 38.0]), vec![1, 2]);
        assert_eq!(quiet_half(&[3.0, 1.0, 2.0]), vec![1, 2]);
        // Ties at the median are all kept; nothing stolen keeps all.
        assert_eq!(quiet_half(&[0.0, 0.0, 0.0]), vec![0, 1, 2]);
        assert_eq!(quiet_half(&[7.0]), vec![0]);
        assert!(quiet_half(&[]).is_empty());
    }

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // Two values extrapolate: quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn quartile_note_names_both_quartiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartile_note(&v), "quartiles 2.750000–8.250000");
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[4.0], 99.0), 4.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert!(supports(1000, 99.0));
        assert!(!supports(999, 99.0));
        assert!(supports(10_000, 99.9));
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(highest_supported(&v), Some((90.0, 900.0)));
        assert_eq!(supported_percentile(&v, 99.0), 0.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(highest_supported(&v), Some((99.0, 990.0)));
        assert_eq!(highest_supported(&[1.0; 19]), None);
    }

    #[test]
    fn reconciliation_arithmetic() {
        let (rest, share) = unaccounted(10.0, &[4.0, 3.0, 2.5]);
        assert!((rest - 0.5).abs() < 1e-12);
        assert!((share - 0.05).abs() < 1e-12);
        assert!(reconciles(10.0, &[4.0, 3.0, 2.5], 0.05));
        assert!(!reconciles(10.0, &[4.0, 3.0, 2.0], 0.05));
        // Parts that overrun the total are as wrong as parts that miss.
        assert!(!reconciles(10.0, &[6.0, 5.0], 0.05));
        assert_eq!(unaccounted(0.0, &[]), (0.0, 0.0));
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
