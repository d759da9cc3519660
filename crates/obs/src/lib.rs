//! # metadse-obs
//!
//! Observability substrate for the MetaDSE workspace: hierarchical scoped
//! spans with wall-clock timing and worker-thread attribution, a
//! lock-light metrics registry (counters, gauges, fixed log-scale-bucket
//! histograms), JSON-lines trace export, and a human-readable end-of-run
//! summary. A shared [`report`] sink gives every harness binary one place
//! to print through.
//!
//! ## Zero overhead by construction
//!
//! The whole instrumentation API is feature-gated on `enabled`. With the
//! feature **off** (the default), [`span`], [`counter`], [`gauge`],
//! [`histogram`], and [`with`] are inlined empty functions — the compiler
//! removes the calls *and* any argument computation feeding them, so an
//! instrumented hot path compiles to exactly the uninstrumented machine
//! code. With the feature **on**, metrics are single atomic operations
//! behind a read-locked registry lookup and spans are two `Instant` reads
//! plus one mutex push at scope exit.
//!
//! Nothing in this crate draws randomness or feeds values back into the
//! instrumented computation, so enabling it cannot perturb RNG streams or
//! the bit-exact determinism of the parallel execution layer — a property
//! the workspace's determinism regression tests assert directly.
//!
//! ## Naming scheme
//!
//! Metric and span names follow `component/event` (e.g.
//! `nn/matmul_flops`, `maml/pretrain`, `parallel/fanouts_parallel`), so the
//! summary and the JSONL export group naturally by subsystem.
//!
//! ## Example
//!
//! ```
//! {
//!     let _root = metadse_obs::span("demo/run");
//!     metadse_obs::counter("demo/items", 3);
//!     metadse_obs::histogram("demo/latency_ns", 1500.0);
//! }
//! // With the `enabled` feature on, these now describe the run:
//! let _tree = metadse_obs::summary();
//! let _lines = metadse_obs::to_jsonl();
//! ```

pub mod frame;
pub mod introspect;
pub mod report;
pub mod window;

#[cfg(feature = "enabled")]
mod metrics;
#[cfg(feature = "enabled")]
mod sink;
#[cfg(feature = "enabled")]
mod span;

/// Writes `contents` to `path` atomically: temp file in the same
/// directory → write → flush → fsync → rename. Readers never observe a
/// torn artifact; a crash leaves at worst an orphaned `.{name}.tmp-pid`.
///
/// (A copy of `metadse_nn::format::atomic_write` — obs sits below nn in
/// the dependency graph, so it cannot borrow nn's helper.)
///
/// # Errors
///
/// Returns any underlying I/O error; the temp file is removed
/// best-effort on failure.
pub fn atomic_write(path: &std::path::Path, contents: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;

    let dir = path.parent().unwrap_or_else(|| std::path::Path::new("."));
    let file_name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("atomic_write target {} has no file name", path.display()),
        )
    })?;
    let tmp = dir.join(format!(
        ".{}.tmp-{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));
    let write = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents)?;
        f.flush()?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if write.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    write
}

#[cfg(feature = "enabled")]
mod api {
    use std::io;
    use std::path::Path;

    use crate::span as span_mod;
    use crate::{metrics, sink};

    /// Whether instrumentation is compiled in.
    pub const fn enabled() -> bool {
        true
    }

    /// The RAII guard returned by [`span`]; the span ends when it drops.
    pub type Span = span_mod::Span;

    /// Opens a scoped span named `name` (convention: `component/event`).
    /// The span nests under the innermost open span of this thread — or,
    /// on a fan-out worker, under the parent adopted via [`adopt_span`] —
    /// and records its wall-clock duration and worker attribution when
    /// the returned guard drops.
    #[must_use = "a span measures the scope of its guard; binding it to _ ends it immediately"]
    pub fn span(name: &str) -> Span {
        span_mod::enter(name)
    }

    /// Adds `delta` to the counter `name`, registering it on first use.
    pub fn counter(name: &str, delta: u64) {
        metrics::counter_add(name, delta);
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn gauge(name: &str, value: f64) {
        metrics::gauge_set(name, value);
    }

    /// Records `value` into the log-scale histogram `name`.
    pub fn histogram(name: &str, value: f64) {
        metrics::histogram_record(name, value);
    }

    /// Runs `f` — used to guard *derived* metric computation (norms,
    /// entropies) that would otherwise burn cycles for nothing when
    /// instrumentation is compiled out.
    pub fn with<F: FnOnce()>(f: F) {
        f();
    }

    /// The id of this thread's innermost open span, if any.
    pub fn current_span() -> Option<u64> {
        span_mod::current()
    }

    /// Declares `parent` the enclosing span for spans subsequently opened
    /// on *this* thread while its own span stack is empty. The parallel
    /// fan-out layer calls this on workers so their spans nest under the
    /// caller's span.
    pub fn adopt_span(parent: Option<u64>) {
        span_mod::adopt(parent);
    }

    /// Tags this thread with a fan-out worker id (`None` = main thread);
    /// span records carry the tag for thread attribution.
    pub fn set_worker(id: Option<usize>) {
        span_mod::set_worker(id);
    }

    /// This thread's worker tag.
    pub fn worker_id() -> Option<usize> {
        span_mod::worker()
    }

    /// Current value of counter `name` (0 if never touched).
    pub fn counter_value(name: &str) -> u64 {
        metrics::counter_value(name)
    }

    /// Current value of gauge `name`.
    pub fn gauge_value(name: &str) -> Option<f64> {
        metrics::gauge_value(name)
    }

    /// Zeroes every registered metric and discards all span records.
    /// Metric registrations survive (handles stay valid); only values
    /// reset.
    pub fn reset() {
        metrics::reset();
        span_mod::reset();
    }

    /// Renders the end-of-run report: the aggregated span tree (calls,
    /// total and mean wall time per path) followed by metric tables.
    pub fn summary() -> String {
        sink::summary()
    }

    /// Serializes every span record and metric as JSON lines.
    pub fn to_jsonl() -> String {
        sink::to_jsonl()
    }

    /// Writes [`to_jsonl`] to `path` atomically (temp→fsync→rename), so
    /// a crash mid-export never leaves a torn trace file.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write_jsonl(path: &Path) -> io::Result<()> {
        crate::atomic_write(path, sink::to_jsonl().as_bytes())
    }

    /// Plain-text exposition of every registered metric, one per line:
    /// `counter <name> <value>`, `gauge <name> <value>`, and
    /// `histogram <name> count <n> mean <m> p50 <q> p99 <q> min <a>
    /// max <b>` — the lifetime-cumulative section of the introspection
    /// endpoint's `metrics` reply.
    pub fn exposition() -> String {
        let snap = metrics::snapshot();
        let mut out = String::new();
        for (name, v) in &snap.counters {
            out.push_str(&format!("counter {name} {v}\n"));
        }
        for (name, v) in &snap.gauges {
            out.push_str(&format!("gauge {name} {v}\n"));
        }
        for h in &snap.histograms {
            out.push_str(&format!(
                "histogram {} count {} mean {} p50 {} p99 {} min {} max {}\n",
                h.name,
                h.count,
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99),
                if h.count == 0 { 0.0 } else { h.min },
                if h.count == 0 { 0.0 } else { h.max },
            ));
        }
        out
    }
}

#[cfg(not(feature = "enabled"))]
mod api {
    use std::io;
    use std::path::Path;

    /// Whether instrumentation is compiled in.
    pub const fn enabled() -> bool {
        false
    }

    /// Zero-sized stand-in for the span guard; holding it costs nothing.
    #[derive(Debug, Clone, Copy)]
    pub struct Span;

    /// No-op: compiles to nothing.
    #[inline(always)]
    #[must_use = "a span measures the scope of its guard; binding it to _ ends it immediately"]
    pub fn span(_name: &str) -> Span {
        Span
    }

    /// No-op: compiles to nothing.
    #[inline(always)]
    pub fn counter(_name: &str, _delta: u64) {}

    /// No-op: compiles to nothing.
    #[inline(always)]
    pub fn gauge(_name: &str, _value: f64) {}

    /// No-op: compiles to nothing.
    #[inline(always)]
    pub fn histogram(_name: &str, _value: f64) {}

    /// No-op: `f` is never called, so derived-metric computation guarded
    /// by `with` is compiled out along with the instrumentation.
    #[inline(always)]
    pub fn with<F: FnOnce()>(_f: F) {}

    /// Always `None` when instrumentation is compiled out.
    #[inline(always)]
    pub fn current_span() -> Option<u64> {
        None
    }

    /// No-op: compiles to nothing.
    #[inline(always)]
    pub fn adopt_span(_parent: Option<u64>) {}

    /// No-op: compiles to nothing.
    #[inline(always)]
    pub fn set_worker(_id: Option<usize>) {}

    /// Always `None` when instrumentation is compiled out.
    #[inline(always)]
    pub fn worker_id() -> Option<usize> {
        None
    }

    /// Always 0 when instrumentation is compiled out.
    #[inline(always)]
    pub fn counter_value(_name: &str) -> u64 {
        0
    }

    /// Always `None` when instrumentation is compiled out.
    #[inline(always)]
    pub fn gauge_value(_name: &str) -> Option<f64> {
        None
    }

    /// No-op: compiles to nothing.
    #[inline(always)]
    pub fn reset() {}

    /// Explains that instrumentation is compiled out.
    pub fn summary() -> String {
        "observability disabled (build with --features obs)\n".to_string()
    }

    /// Empty: no records exist without the `enabled` feature.
    pub fn to_jsonl() -> String {
        String::new()
    }

    /// Writes an empty trace so downstream tooling finds the file —
    /// atomically, matching the enabled build's crash discipline.
    ///
    /// # Errors
    ///
    /// Returns any underlying I/O error.
    pub fn write_jsonl(path: &Path) -> io::Result<()> {
        crate::atomic_write(path, b"")
    }

    /// Empty: no metrics exist without the `enabled` feature.
    pub fn exposition() -> String {
        String::new()
    }
}

pub use api::*;
