//! Lock-light metrics registry.
//!
//! Every metric is a named cell of atomics. The hot path — bumping a
//! counter, setting a gauge, recording a histogram sample — takes the
//! registry's `RwLock` in *read* mode (shared, uncontended between
//! concurrent recorders) and then performs plain atomic operations; the
//! write lock is only taken the first time a name is seen. No recording
//! operation allocates after registration, draws randomness, or blocks on
//! another recorder, which is what makes the instrumentation safe to put
//! inside deterministic parallel fan-outs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

// The histogram cells and bucket layout are the always-compiled
// rolling-window module's, so windowed and lifetime histograms bucket
// identically.
use crate::window::{bucket_hi, bucket_lo, Hist};
#[cfg(test)]
use crate::window::{bucket_index, HIST_BUCKETS, HIST_MIN_EXP};

/// One registered metric.
pub(crate) enum Metric {
    Counter(AtomicU64),
    Gauge(AtomicU64),
    Histogram(Hist),
}

type Registry = RwLock<BTreeMap<String, Arc<Metric>>>;

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(BTreeMap::new()))
}

/// Fetches the metric `name`, registering it with `make` on first use.
/// A name registered as one kind stays that kind; a mismatched operation
/// on it is ignored (debug builds assert).
fn get_or_register(name: &str, make: impl FnOnce() -> Metric) -> Arc<Metric> {
    if let Some(m) = registry()
        .read()
        .expect("metrics registry poisoned")
        .get(name)
    {
        return Arc::clone(m);
    }
    let mut map = registry().write().expect("metrics registry poisoned");
    Arc::clone(
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(make())),
    )
}

pub(crate) fn counter_add(name: &str, delta: u64) {
    let metric = get_or_register(name, || Metric::Counter(AtomicU64::new(0)));
    match &*metric {
        Metric::Counter(c) => {
            c.fetch_add(delta, Ordering::Relaxed);
        }
        _ => debug_assert!(false, "metric {name} is not a counter"),
    }
}

pub(crate) fn gauge_set(name: &str, value: f64) {
    let metric = get_or_register(name, || Metric::Gauge(AtomicU64::new(0.0f64.to_bits())));
    match &*metric {
        Metric::Gauge(g) => g.store(value.to_bits(), Ordering::Relaxed),
        _ => debug_assert!(false, "metric {name} is not a gauge"),
    }
}

pub(crate) fn histogram_record(name: &str, value: f64) {
    let metric = get_or_register(name, || Metric::Histogram(Hist::new()));
    match &*metric {
        Metric::Histogram(h) => h.record(value),
        _ => debug_assert!(false, "metric {name} is not a histogram"),
    }
}

pub(crate) fn counter_value(name: &str) -> u64 {
    match registry()
        .read()
        .expect("metrics registry poisoned")
        .get(name)
        .map(Arc::clone)
    {
        Some(m) => match &*m {
            Metric::Counter(c) => c.load(Ordering::Relaxed),
            _ => 0,
        },
        None => 0,
    }
}

pub(crate) fn gauge_value(name: &str) -> Option<f64> {
    let m = registry()
        .read()
        .expect("metrics registry poisoned")
        .get(name)
        .map(Arc::clone)?;
    match &*m {
        Metric::Gauge(g) => Some(f64::from_bits(g.load(Ordering::Relaxed))),
        _ => None,
    }
}

/// Zeroes every metric in place. Registrations (and any handles held by
/// recorders mid-flight) stay valid.
pub(crate) fn reset() {
    for metric in registry()
        .read()
        .expect("metrics registry poisoned")
        .values()
    {
        match &**metric {
            Metric::Counter(c) => c.store(0, Ordering::Relaxed),
            Metric::Gauge(g) => g.store(0.0f64.to_bits(), Ordering::Relaxed),
            Metric::Histogram(h) => h.zero(),
        }
    }
}

// ------------------------------------------------------------------
// Snapshots (read side, used by the sinks)
// ------------------------------------------------------------------

/// Point-in-time value of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    /// `(bucket_lo, bucket_hi, hits)` for non-empty buckets only.
    pub buckets: Vec<(f64, f64, u64)>,
}

impl HistogramSnapshot {
    /// Approximate quantile from the bucket edges: the lower edge of the
    /// bucket holding the `q`-th sample (clamped by observed min/max).
    pub fn quantile(&self, q: f64) -> f64 {
        let buckets = self.buckets.iter().map(|&(lo, _, hits)| (lo, hits));
        crate::window::bucket_quantile(q, self.count, self.min, self.max, buckets)
    }

    /// Mean of all recorded samples.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Point-in-time values of all registered metrics, sorted by name.
#[derive(Debug, Clone, Default)]
pub(crate) struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<HistogramSnapshot>,
}

pub(crate) fn snapshot() -> MetricsSnapshot {
    let mut out = MetricsSnapshot::default();
    for (name, metric) in registry().read().expect("metrics registry poisoned").iter() {
        match &**metric {
            Metric::Counter(c) => out.counters.push((name.clone(), c.load(Ordering::Relaxed))),
            Metric::Gauge(g) => out
                .gauges
                .push((name.clone(), f64::from_bits(g.load(Ordering::Relaxed)))),
            Metric::Histogram(h) => {
                let buckets: Vec<(f64, f64, u64)> = h
                    .counts
                    .iter()
                    .enumerate()
                    .filter_map(|(i, c)| {
                        let hits = c.load(Ordering::Relaxed);
                        (hits > 0).then(|| (bucket_lo(i), bucket_hi(i), hits))
                    })
                    .collect();
                out.histograms.push(HistogramSnapshot {
                    name: name.clone(),
                    count: h.count.load(Ordering::Relaxed),
                    sum: f64::from_bits(h.sum_bits.load(Ordering::Relaxed)),
                    min: f64::from_bits(h.min_bits.load(Ordering::Relaxed)),
                    max: f64::from_bits(h.max_bits.load(Ordering::Relaxed)),
                    buckets,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_follows_powers_of_two() {
        // Bucket i covers [2^(i + HIST_MIN_EXP), 2^(i + 1 + HIST_MIN_EXP)),
        // so 1.0 = 2^0 lands at index -HIST_MIN_EXP.
        let one = (-HIST_MIN_EXP) as usize;
        assert_eq!(bucket_index(1.0), one);
        assert_eq!(bucket_index(1.999), one);
        assert_eq!(bucket_index(2.0), one + 1);
        assert_eq!(bucket_index(0.5), one - 1);
        assert_eq!(bucket_index(1024.0), one + 10);
        assert_eq!(bucket_lo(one), 1.0);
        assert_eq!(bucket_hi(one), 2.0);
    }

    #[test]
    fn bucket_index_clamps_degenerate_samples() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-3.0), 0);
        // Non-finite samples (NaN, ±inf) are sentinel-bucketed at 0, not
        // clamped high: they signal a broken recorder, not a big value.
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(f64::INFINITY), 0);
        assert_eq!(bucket_index(1e300), HIST_BUCKETS - 1);
        // Below the lowest edge still lands in bucket 0 rather than
        // panicking on a negative index.
        assert_eq!(bucket_index(1e-30), 0);
    }

    #[test]
    fn every_finite_positive_sample_lands_inside_its_bucket() {
        for exp in -12..12 {
            let v = (2.0f64).powi(exp) * 1.5;
            let i = bucket_index(v);
            assert!(
                bucket_lo(i) <= v && v < bucket_hi(i),
                "{v} not in bucket {i}"
            );
        }
    }

    #[test]
    fn hist_tracks_count_sum_min_max() {
        let h = Hist::new();
        for v in [4.0, 0.25, 16.0] {
            h.record(v);
        }
        assert_eq!(h.count.load(Ordering::Relaxed), 3);
        assert_eq!(f64::from_bits(h.sum_bits.load(Ordering::Relaxed)), 20.25);
        assert_eq!(f64::from_bits(h.min_bits.load(Ordering::Relaxed)), 0.25);
        assert_eq!(f64::from_bits(h.max_bits.load(Ordering::Relaxed)), 16.0);
        h.zero();
        assert_eq!(h.count.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn quantiles_come_from_bucket_edges() {
        let snap = HistogramSnapshot {
            name: "q".to_string(),
            count: 100,
            sum: 0.0,
            min: 1.0,
            max: 8.0,
            buckets: vec![(1.0, 2.0, 50), (4.0, 8.0, 50)],
        };
        assert_eq!(snap.quantile(0.25), 1.0);
        assert_eq!(snap.quantile(0.75), 4.0);
        assert_eq!(snap.quantile(1.0), 4.0);
    }
}
