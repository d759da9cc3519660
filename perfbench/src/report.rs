//! Metric names, the operation ledger, and the run's output: a
//! human-readable table of every metric with its unit and sample count,
//! then one JSON line that is the run's machine-readable result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
/// Kept in step with `BENCHMARK.json` by a self-test.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("ipc_rmse", "IPC"),
    ("hypervolume", "IPCxpower"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`. A
/// layer the workload does not exercise reads 0 with 0 samples.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("sim.env_build_ms", "ms"),
    ("parallel.env_workers", "count"),
    ("maml.pretrain_ms", "ms"),
    ("maml.meta_iter_ms", "ms"),
    ("parallel.pretrain_workers", "count"),
    ("maml.inner_adapt_us", "us"),
    ("nn.forward_query_us", "us"),
    ("nn.grad_support_us", "us"),
    ("wam.mask_ms", "ms"),
    ("wam.adapt_task_ms", "ms"),
    ("parallel.adapt_workers", "count"),
    ("trendse.build_ms", "ms"),
    ("trendse.task_ms", "ms"),
    ("trendse.ipc_rmse", "IPC"),
    ("meta-train.unaccounted_ms", "ms"),
    ("meta-train.cpu_s", "s"),
    ("setup.adapt_ms", "ms"),
    ("registry.publish_ms", "ms"),
    ("plan.compile_ms", "ms"),
    ("supervisor.launch_ms", "ms"),
    ("front.predict_p50_us", "us"),
    ("front.predict_p99_us", "us"),
    ("front.throughput_per_s", "1/s"),
    ("shard.predict_p50_us", "us"),
    ("server.predict_p50_us", "us"),
    ("plan.forward_b1_us", "us"),
    ("shard.codec_us", "us"),
    ("server.queue_wait_us", "us"),
    ("server.forward_us", "us"),
    ("server.batch_size_mean", "count"),
    ("front.cpu_us_per_req", "us"),
    ("front.idle_cpu_pct", "%"),
    ("session.cpu_us_per_round", "us"),
    ("session.round_p90_us", "us"),
    ("session.step_inproc_us", "us"),
    ("session.step_nockpt_us", "us"),
    ("checkpoint.save_us", "us"),
    ("explorer.propose_us", "us"),
    ("explorer.front_update_us", "us"),
    ("plan.forward_b8_us", "us"),
    ("session.points_per_round", "count"),
    ("session.cache_hit_ratio", "ratio"),
    ("host.steal_pct", "%"),
    ("trace.overhead_run_s", "s"),
    ("trace.overhead_latency_p50_us", "us"),
    ("trace.overhead_throughput_per_s", "1/s"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The value, in the unit the name's table entry fixes.
    pub value: f64,
    /// How many samples the value summarizes.
    pub samples: usize,
    /// What was timed or counted, for the table.
    pub note: String,
}

/// Operations attempted and failed, with the reason for each failure.
/// A mismatch is a failure, never a retry.
#[derive(Debug, Default)]
pub struct Ledger {
    attempted: u64,
    failures: Vec<String>,
}

impl Ledger {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            let reason = what();
            eprintln!("perfbench: FAILED {reason}");
            self.failures.push(reason);
        }
    }

    /// Records `n` operations that all succeeded.
    pub fn succeeded(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Operations failed.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }
}

/// Every metric a run measured, by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, Metric>);

impl Metrics {
    /// Sets `name` (which must be in [`END_TO_END`] or [`PER_LAYER`]).
    ///
    /// # Panics
    ///
    /// On a name in neither table: a typo in this benchmark.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize, note: impl Into<String>) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in END_TO_END or PER_LAYER"
        );
        self.0.insert(
            name,
            Metric {
                value,
                samples,
                note: note.into(),
            },
        );
    }

    /// The value of `name`, if measured.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|m| m.value)
    }
}

/// The declared unit of `name`.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// The human-readable table of `table`'s metrics (declaration order):
/// name, value, unit, sample count and what was measured.
pub fn table(table: &[(&'static str, &'static str)], metrics: &Metrics) -> String {
    let mut out = format!(
        "{:<34} {:>16} {:<10} {:>8}  what\n",
        "metric", "value", "unit", "samples"
    );
    for &(name, unit) in table {
        let (value, samples, note) = match metrics.0.get(name) {
            Some(m) => (m.value, m.samples, m.note.as_str()),
            None => (0.0, 0, "not exercised by this workload"),
        };
        let _ = writeln!(
            out,
            "{name:<34} {value:>16.6} {unit:<10} {samples:>8}  {note}"
        );
    }
    out
}

/// The run's result: one JSON line with every metric of `table` (a layer
/// the workload does not exercise reads 0). A missing end-to-end metric
/// or a non-finite value counts as a failed operation.
pub fn json_line(
    table: &[(&'static str, &'static str)],
    metrics: &Metrics,
    ledger: &mut Ledger,
) -> String {
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let metric = metrics.0.get(name);
        if END_TO_END.iter().any(|(n, _)| *n == name) {
            ledger.check(metric.is_some(), || {
                format!("end-to-end metric {name} was not measured")
            });
        }
        let value = metric.map_or(0.0, |m| m.value);
        ledger.check(value.is_finite(), || {
            format!("{name} is not finite ({value})")
        });
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.failed() == 0,
        ledger.attempted().max(1),
        ledger.failed(),
        fields.join(", ")
    )
}

/// A finite f64 as a JSON number, with every digit of Rust's shortest
/// round-trip formatting (`3.0`, `0.1234`, `1e-7` are all valid JSON).
fn json_number(v: f64) -> String {
    format!("{v:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
        let compact: String = spec.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = compact.matches("\"name\":").count();
        let workloads = compact.matches("\"why\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len() + workloads);
    }

    #[test]
    fn missing_and_nonfinite_metrics_are_failures() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.25, 3, "median of 3");
        m.set("run_s", f64::NAN, 1, "broken");
        let mut ledger = Ledger::default();
        ledger.succeeded(10);
        let last = json_line(&END_TO_END, &m, &mut ledger);
        assert!(table(&END_TO_END, &m).contains("not exercised by this workload"));
        assert!(last.starts_with("{\"correct\": false"), "{last}");
        assert!(last.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(last.contains("\"run_s\": {\"value\": 0.0, \"unit\": \"s\"}"));
        // run_s non-finite, five other end-to-end metrics missing.
        assert_eq!(ledger.failed(), 6);
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(json_number(0.123456789012345), "0.123456789012345");
        assert_eq!(json_number(3.0), "3.0");
        assert_eq!(json_number(1e-7), "1e-7");
    }
}
