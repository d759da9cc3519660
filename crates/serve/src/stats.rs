//! Live serving statistics: per-request trace contexts, rolling-window
//! SLO aggregation, and per-tenant attribution.
//!
//! Unlike the feature-gated `metadse-obs` registry (lifetime-cumulative,
//! compiled out by default), everything here is always on: the
//! introspection endpoint must answer `health` and `metrics` in every
//! build. The cost is a handful of relaxed atomic adds per request —
//! none of it feeds back into inference, so batched results stay
//! bit-identical to serial `predict` with or without a reader attached
//! (asserted by the introspection soak test).
//!
//! A [`RequestTrace`] is minted at `Server::submit` and rides inside the
//! queued request, collecting one timestamp per pipeline phase:
//!
//! ```text
//! admitted ──queue_wait──▶ popped ──assembly──▶ forward_start
//!          ──forward──▶ forward_end ──reply──▶ done
//! ```
//!
//! Completed (and failed) traces land in a bounded [`TraceTable`] for
//! `trace?id=` lookups, phase sums accumulate per model fingerprint in
//! [`TenantStats`], and latencies/rates feed the [`ServerStats`] rolling
//! windows that the endpoint's `metrics` command exposes as live
//! trailing-window p50/p99/shed-rate/miss-rate.
//!
//! **Ordering contract**: every terminal record (`record_served`,
//! `record_miss`, `record_shed`) is folded into the ledgers *before*
//! the request's reply is handed to the caller's channel. A client
//! whose `Ticket::wait` has returned can therefore read its own request
//! in `completed_total`, the tenant rollups, and `trace?id=` without a
//! bookkeeping race — the introspection suite asserts this directly.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use metadse_obs::window::{WindowConfig, WindowCounter, WindowHistogram, WindowSnapshot};

/// How many completed traces the table retains (oldest evicted first).
pub const TRACE_CAPACITY: usize = 1024;

/// One request's journey through the serving pipeline. Timestamps are
/// on the server's virtual microsecond clock; a phase that never
/// happened (e.g. `forward_start_us` on a deadline miss) stays 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestTrace {
    /// Server-unique request id (also returned on the `Prediction`).
    pub id: u64,
    /// Workload the request targeted.
    pub workload: String,
    /// Content fingerprint of the model pinned at admission — the
    /// tenant key.
    pub fingerprint: u64,
    /// Registry generation of that model.
    pub generation: u64,
    /// Admission timestamp (`Server::submit`).
    pub admitted_us: u64,
    /// When a worker popped the batch containing this request.
    pub popped_us: u64,
    /// When the request's fingerprint group entered the plan forward.
    pub forward_start_us: u64,
    /// When the plan forward returned for the group.
    pub forward_end_us: u64,
    /// When the reply was handed to the caller's channel.
    pub done_us: u64,
    /// Size of the forward group this request was coalesced into.
    pub batch_size: usize,
    /// Terminal state: `served`, `deadline_miss` or `shed`.
    pub outcome: &'static str,
}

impl RequestTrace {
    /// A fresh trace at admission time.
    pub fn admitted(
        id: u64,
        workload: &str,
        fingerprint: u64,
        generation: u64,
        admitted_us: u64,
    ) -> RequestTrace {
        RequestTrace {
            id,
            workload: workload.to_string(),
            fingerprint,
            generation,
            admitted_us,
            popped_us: 0,
            forward_start_us: 0,
            forward_end_us: 0,
            done_us: 0,
            batch_size: 0,
            outcome: "queued",
        }
    }

    /// Microseconds spent queued before a worker popped the batch.
    pub fn queue_wait_us(&self) -> u64 {
        self.popped_us.saturating_sub(self.admitted_us)
    }

    /// Microseconds between pop and forward start (grouping by
    /// fingerprint, input assembly).
    pub fn assembly_us(&self) -> u64 {
        self.forward_start_us.saturating_sub(self.popped_us)
    }

    /// Microseconds inside the batched plan forward.
    pub fn forward_us(&self) -> u64 {
        self.forward_end_us.saturating_sub(self.forward_start_us)
    }

    /// Microseconds between the forward finishing and this request's
    /// reply handoff (per-request result assembly and stats
    /// bookkeeping, including that of group members replied-to first).
    pub fn reply_us(&self) -> u64 {
        self.done_us.saturating_sub(self.forward_end_us)
    }

    /// End-to-end: admission to reply delivery.
    pub fn e2e_us(&self) -> u64 {
        self.done_us.saturating_sub(self.admitted_us)
    }

    /// Plain-text phase breakdown, one `key value` pair per token —
    /// the `trace?id=` reply body.
    pub fn render(&self) -> String {
        format!(
            "trace {} workload {} fingerprint {:016x} generation {} outcome {}\n\
             admitted_us {} batch_size {}\n\
             queue_wait_us {} assembly_us {} forward_us {} reply_us {} e2e_us {}\n",
            self.id,
            self.workload,
            self.fingerprint,
            self.generation,
            self.outcome,
            self.admitted_us,
            self.batch_size,
            self.queue_wait_us(),
            self.assembly_us(),
            self.forward_us(),
            self.reply_us(),
            self.e2e_us(),
        )
    }
}

/// Bounded ring of recent terminal traces, addressable by request id.
#[derive(Debug, Default)]
pub struct TraceTable {
    ring: Mutex<VecDeque<RequestTrace>>,
}

impl TraceTable {
    /// Records a terminal trace, evicting the oldest beyond capacity.
    pub fn push(&self, trace: RequestTrace) {
        let mut ring = self.ring.lock().expect("trace table poisoned");
        if ring.len() >= TRACE_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Looks up a retained trace by request id.
    pub fn lookup(&self, id: u64) -> Option<RequestTrace> {
        self.ring
            .lock()
            .expect("trace table poisoned")
            .iter()
            .rev()
            .find(|t| t.id == id)
            .cloned()
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("trace table poisoned").len()
    }

    /// Whether no traces are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Lifetime phase-time attribution for one tenant (model fingerprint).
#[derive(Debug)]
pub struct TenantStats {
    /// Workload name at first sighting.
    pub workload: String,
    /// Latest generation seen serving this fingerprint.
    pub generation: AtomicU64,
    /// Requests served.
    pub requests: AtomicU64,
    /// Deadline misses attributed to this tenant.
    pub misses: AtomicU64,
    /// Per-phase total microseconds across all served requests.
    pub queue_wait_us: AtomicU64,
    /// See [`RequestTrace::assembly_us`].
    pub assembly_us: AtomicU64,
    /// See [`RequestTrace::forward_us`].
    pub forward_us: AtomicU64,
    /// See [`RequestTrace::reply_us`].
    pub reply_us: AtomicU64,
    /// See [`RequestTrace::e2e_us`].
    pub e2e_us: AtomicU64,
}

impl TenantStats {
    fn new(workload: &str) -> TenantStats {
        TenantStats {
            workload: workload.to_string(),
            generation: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            queue_wait_us: AtomicU64::new(0),
            assembly_us: AtomicU64::new(0),
            forward_us: AtomicU64::new(0),
            reply_us: AtomicU64::new(0),
            e2e_us: AtomicU64::new(0),
        }
    }
}

/// The server's always-on statistics hub: rolling windows for the SLO
/// view, lifetime totals, tenant attribution, and the trace table.
#[derive(Debug)]
pub struct ServerStats {
    window: WindowConfig,
    /// Trailing-window end-to-end latency (admission → forward end, the
    /// same quantity the `serve/e2e_latency_us` lifetime histogram
    /// records, so windowed and cumulative views stay comparable).
    pub e2e_us: WindowHistogram,
    /// Trailing-window queue-wait latency.
    pub queue_wait_us: WindowHistogram,
    /// Trailing-window forward latency.
    pub forward_us: WindowHistogram,
    /// Trailing-window forward-group sizes.
    pub batch_size: WindowHistogram,
    /// Requests admitted in the window.
    pub admitted: WindowCounter,
    /// Requests completed (served) in the window.
    pub completed: WindowCounter,
    /// Requests shed in the window.
    pub shed: WindowCounter,
    /// Deadline misses in the window.
    pub misses: WindowCounter,
    total_admitted: AtomicU64,
    total_completed: AtomicU64,
    total_shed: AtomicU64,
    total_misses: AtomicU64,
    tenants: RwLock<HashMap<u64, Arc<TenantStats>>>,
    /// Recent terminal traces for `trace?id=` lookups.
    pub traces: TraceTable,
}

impl ServerStats {
    /// Fresh stats with `window` ring geometry for every window metric.
    pub fn new(window: WindowConfig) -> ServerStats {
        ServerStats {
            e2e_us: WindowHistogram::new(window),
            queue_wait_us: WindowHistogram::new(window),
            forward_us: WindowHistogram::new(window),
            batch_size: WindowHistogram::new(window),
            admitted: WindowCounter::new(window),
            completed: WindowCounter::new(window),
            shed: WindowCounter::new(window),
            misses: WindowCounter::new(window),
            total_admitted: AtomicU64::new(0),
            total_completed: AtomicU64::new(0),
            total_shed: AtomicU64::new(0),
            total_misses: AtomicU64::new(0),
            tenants: RwLock::new(HashMap::new()),
            traces: TraceTable::default(),
            window,
        }
    }

    /// The ring geometry shared by all window metrics.
    pub fn window_config(&self) -> &WindowConfig {
        &self.window
    }

    fn tenant(&self, trace: &RequestTrace) -> Arc<TenantStats> {
        if let Some(t) = self
            .tenants
            .read()
            .expect("tenant table poisoned")
            .get(&trace.fingerprint)
        {
            return Arc::clone(t);
        }
        let mut table = self.tenants.write().expect("tenant table poisoned");
        Arc::clone(
            table
                .entry(trace.fingerprint)
                .or_insert_with(|| Arc::new(TenantStats::new(&trace.workload))),
        )
    }

    /// Snapshot of every tenant, sorted by fingerprint.
    pub fn tenants(&self) -> Vec<(u64, Arc<TenantStats>)> {
        let mut out: Vec<(u64, Arc<TenantStats>)> = self
            .tenants
            .read()
            .expect("tenant table poisoned")
            .iter()
            .map(|(k, v)| (*k, Arc::clone(v)))
            .collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Counts an admission at `now_us`.
    pub fn record_admitted(&self, now_us: u64) {
        self.total_admitted.fetch_add(1, Ordering::Relaxed);
        self.admitted.add(1, now_us);
    }

    /// Counts a shed and retains its trace.
    pub fn record_shed(&self, mut trace: RequestTrace, now_us: u64) {
        self.total_shed.fetch_add(1, Ordering::Relaxed);
        self.shed.add(1, now_us);
        trace.outcome = "shed";
        trace.done_us = now_us;
        self.traces.push(trace);
    }

    /// Counts a deadline miss, attributes it to the tenant, and retains
    /// the trace.
    pub fn record_miss(&self, mut trace: RequestTrace, now_us: u64) {
        self.total_misses.fetch_add(1, Ordering::Relaxed);
        self.misses.add(1, now_us);
        trace.outcome = "deadline_miss";
        trace.done_us = now_us;
        let tenant = self.tenant(&trace);
        tenant.misses.fetch_add(1, Ordering::Relaxed);
        self.traces.push(trace);
    }

    /// Records a served request: window latencies keyed at the trace's
    /// forward-end instant, tenant phase attribution, trace retention.
    pub fn record_served(&self, trace: RequestTrace) {
        let now_us = trace.forward_end_us;
        self.total_completed.fetch_add(1, Ordering::Relaxed);
        self.completed.add(1, now_us);
        self.e2e_us.record(
            trace.forward_end_us.saturating_sub(trace.admitted_us) as f64,
            now_us,
        );
        self.queue_wait_us
            .record(trace.queue_wait_us() as f64, now_us);
        self.forward_us.record(trace.forward_us() as f64, now_us);
        self.batch_size.record(trace.batch_size as f64, now_us);
        let tenant = self.tenant(&trace);
        tenant.generation.store(trace.generation, Ordering::Relaxed);
        tenant.requests.fetch_add(1, Ordering::Relaxed);
        tenant
            .queue_wait_us
            .fetch_add(trace.queue_wait_us(), Ordering::Relaxed);
        tenant
            .assembly_us
            .fetch_add(trace.assembly_us(), Ordering::Relaxed);
        tenant
            .forward_us
            .fetch_add(trace.forward_us(), Ordering::Relaxed);
        tenant
            .reply_us
            .fetch_add(trace.reply_us(), Ordering::Relaxed);
        tenant.e2e_us.fetch_add(trace.e2e_us(), Ordering::Relaxed);
        self.traces.push(trace);
    }

    /// Lifetime totals: `(admitted, completed, shed, misses)`.
    pub fn totals(&self) -> (u64, u64, u64, u64) {
        (
            self.total_admitted.load(Ordering::Relaxed),
            self.total_completed.load(Ordering::Relaxed),
            self.total_shed.load(Ordering::Relaxed),
            self.total_misses.load(Ordering::Relaxed),
        )
    }

    /// Trailing-window e2e latency snapshot at `now_us` — the quantity
    /// the `metrics` command exposes as live p50/p99.
    pub fn e2e_window(&self, now_us: u64) -> WindowSnapshot {
        self.e2e_us.snapshot(now_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: u64) -> RequestTrace {
        let mut t = RequestTrace::admitted(id, "mcf", 0xfeed, 3, 100);
        t.popped_us = 150;
        t.forward_start_us = 160;
        t.forward_end_us = 400;
        t.done_us = 410;
        t.batch_size = 8;
        t.outcome = "served";
        t
    }

    #[test]
    fn phase_accounting_adds_up() {
        let t = trace(1);
        assert_eq!(t.queue_wait_us(), 50);
        assert_eq!(t.assembly_us(), 10);
        assert_eq!(t.forward_us(), 240);
        assert_eq!(t.reply_us(), 10);
        assert_eq!(t.e2e_us(), 310);
        assert_eq!(
            t.queue_wait_us() + t.assembly_us() + t.forward_us() + t.reply_us(),
            t.e2e_us()
        );
        let rendered = t.render();
        assert!(rendered.contains("trace 1 workload mcf"));
        assert!(rendered.contains("e2e_us 310"));
    }

    #[test]
    fn trace_table_is_bounded_and_addressable() {
        let table = TraceTable::default();
        for id in 0..(TRACE_CAPACITY as u64 + 10) {
            table.push(trace(id));
        }
        assert_eq!(table.len(), TRACE_CAPACITY);
        assert!(table.lookup(0).is_none(), "oldest evicted");
        assert_eq!(
            table.lookup(TRACE_CAPACITY as u64 + 9).unwrap().id,
            TRACE_CAPACITY as u64 + 9
        );
    }

    #[test]
    fn served_requests_roll_into_windows_and_tenants() {
        let stats = ServerStats::new(WindowConfig {
            slot_us: 1_000,
            slots: 4,
        });
        stats.record_admitted(100);
        stats.record_served(trace(7));
        let snap = stats.e2e_window(400);
        assert_eq!(snap.count, 1);
        assert_eq!(snap.min(), 300.0); // forward_end − admitted
        let tenants = stats.tenants();
        assert_eq!(tenants.len(), 1);
        let (fp, tenant) = &tenants[0];
        assert_eq!(*fp, 0xfeed);
        assert_eq!(tenant.workload, "mcf");
        assert_eq!(tenant.requests.load(Ordering::Relaxed), 1);
        assert_eq!(tenant.forward_us.load(Ordering::Relaxed), 240);
        assert_eq!(stats.totals(), (1, 1, 0, 0));
        assert_eq!(stats.traces.lookup(7).unwrap().outcome, "served");
    }

    #[test]
    fn misses_and_sheds_attribute_outcomes() {
        let stats = ServerStats::new(WindowConfig {
            slot_us: 1_000,
            slots: 4,
        });
        stats.record_admitted(100);
        stats.record_miss(RequestTrace::admitted(1, "mcf", 0xfeed, 3, 100), 500);
        stats.record_shed(RequestTrace::admitted(2, "mcf", 0xfeed, 3, 120), 120);
        assert_eq!(stats.totals(), (1, 0, 1, 1));
        assert_eq!(stats.misses.total(500), 1);
        assert_eq!(stats.shed.total(500), 1);
        assert_eq!(stats.traces.lookup(1).unwrap().outcome, "deadline_miss");
        assert_eq!(stats.traces.lookup(2).unwrap().outcome, "shed");
    }
}
