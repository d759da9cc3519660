//! The benchmark's own span recorder.
//!
//! A traced run wraps each public call a workload makes in a span: a
//! name, a start, an end and a parent, with every span of one request
//! sharing a trace id. Spans stay in memory and are written out as JSON
//! lines when the run ends. An untraced run holds a disabled tracer,
//! whose spans neither read the clock nor record anything.

use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span id, unique within the run (ids start at 1).
    pub id: u64,
    /// Parent span id; 0 for a root.
    pub parent: u64,
    /// Request id shared by every span of one request (0 outside any).
    pub trace: u64,
    /// Layer-qualified name of the timed call, e.g. `maml.pretrain`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Collects spans from any thread of the benchmark process.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or does nothing.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span; it is recorded when the guard drops.
    pub fn span(&self, name: &'static str, parent: u64, trace: u64) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                id: 0,
                parent,
                trace,
                name,
                start: None,
            };
        }
        SpanGuard {
            tracer: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            trace,
            name,
            start: Some(Instant::now()),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, parent: u64, trace: u64, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name, parent, trace);
        f()
    }

    fn record(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span list poisoned").iter() {
            writeln!(
                out,
                "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.id, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// An open span; records itself on drop when its tracer is enabled.
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    trace: u64,
    name: &'static str,
    start: Option<Instant>,
}

impl SpanGuard<'_> {
    /// This span's id, the parent for spans it causes (0 when disabled).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let epoch = self.tracer.epoch;
            self.tracer.record(Span {
                id: self.id,
                parent: self.parent,
                trace: self.trace,
                name: self.name,
                start_ns: start.duration_since(epoch).as_nanos() as u64,
                end_ns: epoch.elapsed().as_nanos() as u64,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        {
            let s = t.span("a", 0, 1);
            assert_eq!(s.id(), 0);
        }
        assert_eq!(t.time("b", 0, 1, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_share_a_trace_id() {
        let t = Tracer::new(true);
        {
            let root = t.span("request", 0, 42);
            t.time("child", root.id(), 42, || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        let root = spans.iter().find(|s| s.name == "request").unwrap();
        assert_eq!(child.parent, root.id);
        assert_eq!((child.trace, root.trace), (42, 42));
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
        assert!(child.us() >= 2000.0 && child.us() <= root.us());
        assert_eq!(t.durations_us("child").len(), 1);
    }
}
