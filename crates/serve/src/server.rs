//! The threaded serving runtime: workers, tickets, batch execution.
//!
//! [`Server::start`] wraps a [`QueueCore`] in a mutex/condvar pair and
//! spins up a [`metadse_parallel::WorkerPool`]. Callers submit single
//! `(workload, configuration)` queries with [`Server::submit`] and block
//! on the returned [`Ticket`]; workers coalesce queued requests into
//! batches (per the [`BatchConfig`] policy), group each batch by model
//! fingerprint, and run **one** compiled-plan forward per group.
//!
//! Admission resolves each workload to its registry entry and compiled
//! [`Plan`] once per registry epoch; plans are plain `Send + Sync` data
//! shared by `Arc`, and every worker executes them over its own
//! [`PlanArena`]. A hot-swapped generation is served from the first
//! request admitted after the swap, and batched execution stays
//! bit-identical to a serial `predict` on the same artifact (asserted by
//! the soak test in `tests/concurrency.rs`). An artifact that does not
//! compile is refused at admission with [`ServeError::Artifact`], so no
//! worker ever sees it.
//!
//! Observability (feature `obs`): `serve/queue_depth` gauge,
//! `serve/batch_size`, `serve/e2e_latency_us`, `serve/queue_wait_us`,
//! and `serve/forward_us` histograms, `serve/shed` and
//! `serve/deadline_miss` counters, plus `serve/batch` → `serve/forward`
//! spans nested (via `adopt_span`) under the submitting caller's span.
//!
//! Independent of the `obs` feature, every server keeps always-on
//! [`ServerStats`] — per-request [`RequestTrace`]s, rolling-window
//! latencies, per-tenant attribution — served over the introspection
//! endpoint ([`Server::enable_introspection`], or `METADSE_INTROSPECT`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use metadse_obs as obs;
use metadse_obs::window::{Health, WatchdogConfig, WatchdogSample, WindowConfig};
use metadse_parallel::WorkerPool;

use crate::batcher::{Admission, BatchConfig, Pending, PopOutcome, QueueCore};
use crate::registry::{ModelEntry, ModelRegistry};
use crate::stats::{RequestTrace, ServerStats};
use metadse::plan::{Plan, PlanArena, PlanProfile};

/// Serving runtime tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Micro-batching policy.
    pub batch: BatchConfig,
    /// Worker threads executing batches (min 1).
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            batch: BatchConfig::default(),
            workers: 2,
        }
    }
}

/// Why a request was refused or failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue was full; retry with backoff.
    Shed,
    /// The server is shutting down (or the worker side vanished).
    Closed,
    /// The request's deadline passed while it was still queued.
    DeadlineMiss,
    /// No model is registered for this workload.
    UnknownWorkload(String),
    /// The configuration vector has the wrong number of parameters.
    BadArity {
        /// Parameters the model expects.
        expected: usize,
        /// Parameters the request carried.
        got: usize,
    },
    /// The workload's model artifact does not compile into a serving
    /// plan (a hand-built artifact with inconsistent geometry or
    /// parameters); refused at admission.
    Artifact(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Shed => write!(f, "request shed: admission queue full"),
            ServeError::Closed => write!(f, "server closed"),
            ServeError::DeadlineMiss => write!(f, "deadline passed while queued"),
            ServeError::UnknownWorkload(w) => write!(f, "no model registered for workload {w:?}"),
            ServeError::BadArity { expected, got } => {
                write!(
                    f,
                    "configuration has {got} parameters, model expects {expected}"
                )
            }
            ServeError::Artifact(m) => write!(f, "model artifact failed to compile: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A successful prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// The model's predicted metric value.
    pub value: f64,
    /// Registry generation of the model that served the request.
    pub generation: u64,
    /// Size of the forward batch this request was coalesced into.
    pub batch_size: usize,
    /// Server-unique request id; pass to the introspection endpoint's
    /// `trace?id=` for this request's phase breakdown.
    pub trace_id: u64,
}

/// One queued query, resolved to its model at admission time so a
/// concurrent hot swap never splits a batch's view of a workload.
pub(crate) struct Request {
    entry: Arc<ModelEntry>,
    /// Compiled plan for `entry`'s artifact, resolved alongside it at
    /// admission.
    plan: Arc<Plan>,
    config: Vec<f64>,
    tx: mpsc::Sender<Result<Prediction, ServeError>>,
    /// Per-request trace context, minted at admission; carried through
    /// the queue so workers stamp each pipeline phase into it.
    trace: RequestTrace,
    /// The submitting thread's innermost open obs span, adopted by the
    /// worker so `serve/batch` spans nest under the caller.
    parent_span: Option<u64>,
}

/// Handle for one submitted request; redeem with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<Prediction, ServeError>>,
}

impl Ticket {
    /// Blocks until the request completes or fails.
    pub fn wait(self) -> Result<Prediction, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Closed))
    }

    /// Non-blocking poll; `None` while the request is still in flight.
    pub fn try_wait(&self) -> Option<Result<Prediction, ServeError>> {
        match self.rx.try_recv() {
            Ok(outcome) => Some(outcome),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::Closed)),
        }
    }
}

/// A workload's registry entry and compiled plan, or why it is refused.
type Route = Result<(Arc<ModelEntry>, Arc<Plan>), ServeError>;

/// One workload's resolved serving route, memoized per registry epoch.
struct CachedRoute {
    epoch: u64,
    route: Route,
}

pub(crate) struct Shared {
    pub(crate) registry: Arc<ModelRegistry>,
    pub(crate) core: Mutex<QueueCore<Request>>,
    pub(crate) cv: Condvar,
    /// Epoch for the virtual microsecond clock fed to the queue core.
    pub(crate) epoch: Instant,
    /// Always-on rolling-window stats, traces, tenant attribution.
    pub(crate) stats: Arc<ServerStats>,
    /// Health thresholds the watchdog judges the windows against.
    pub(crate) watchdog: WatchdogConfig,
    /// Request-id mint (first id is 1; 0 never names a request).
    next_id: AtomicU64,
    /// Plan batch capacity (= the batcher's `max_batch`).
    batch_capacity: usize,
    /// Workload → route memo, validated against the registry epoch so a
    /// burst of submits resolves the table (and plan cache) once per
    /// workload per swap instead of once per request.
    routes: RwLock<HashMap<String, CachedRoute>>,
}

impl Shared {
    pub(crate) fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    pub(crate) fn health_at(&self, now_us: u64) -> (Health, WatchdogSample) {
        crate::introspect::evaluate(self, now_us)
    }

    /// The serving route for `workload`: its current registry entry and
    /// compiled plan, [`ServeError::UnknownWorkload`] when nothing is
    /// registered, or [`ServeError::Artifact`] when the artifact does not
    /// compile. Memoized per registry epoch (refusals included, so a bad
    /// artifact costs one compile and one warning per hot swap) — the
    /// epoch is read *before* the table, so a concurrent hot swap can
    /// only leave the memo stamped older than its contents, forcing a
    /// harmless re-resolve next lookup, never a stale hit.
    fn resolve(&self, workload: &str) -> Route {
        let epoch = self.registry.epoch();
        if let Some(cached) = self.routes.read().unwrap().get(workload) {
            if cached.epoch == epoch {
                return cached.route.clone();
            }
        }
        // Unknown names are not memoized: clients choose them freely.
        let entry = self
            .registry
            .get(workload)
            .ok_or_else(|| ServeError::UnknownWorkload(workload.to_string()))?;
        let route = match self.registry.plan_for(&entry, self.batch_capacity) {
            Ok(plan) => Ok((entry, plan)),
            Err(e) => {
                obs::report::warn(format!(
                    "serve: plan compile failed for {workload} ({e}); refusing its requests"
                ));
                Err(ServeError::Artifact(e.to_string()))
            }
        };
        self.routes.write().unwrap().insert(
            workload.to_string(),
            CachedRoute {
                epoch,
                route: route.clone(),
            },
        );
        route
    }
}

/// A running batched-inference server over a [`ModelRegistry`].
pub struct Server {
    shared: Arc<Shared>,
    pool: Option<WorkerPool>,
    #[cfg(unix)]
    listener: Option<obs::frame::FrameServer>,
}

impl Server {
    /// Starts `config.workers` serving threads over `registry`.
    pub fn start(registry: Arc<ModelRegistry>, config: ServeConfig) -> Server {
        // Resolve the tensor backend (`METADSE_BACKEND`) once, before any
        // worker touches a model, so every inference thread runs the same
        // kernels for the life of the server; surfaced on a gauge so
        // operators can tell which kernels a serving process is using.
        let backend = metadse_nn::backend::kind();
        obs::gauge(
            "serve/backend_simd",
            u64::from(backend != metadse_nn::BackendKind::Scalar) as f64,
        );
        obs::report::line(format!("serve: tensor backend = {}", backend.name()));
        let shared = Arc::new(Shared {
            registry,
            core: Mutex::new(QueueCore::new(config.batch)),
            cv: Condvar::new(),
            epoch: Instant::now(),
            stats: Arc::new(ServerStats::new(WindowConfig::from_env())),
            watchdog: WatchdogConfig::from_env(),
            next_id: AtomicU64::new(1),
            batch_capacity: config.batch.max_batch.max(1),
            routes: RwLock::new(HashMap::new()),
        });
        let worker_shared = shared.clone();
        let pool = WorkerPool::spawn("serve", config.workers.max(1), move |_| {
            worker_loop(&worker_shared);
        });
        let mut server = Server {
            shared,
            pool: Some(pool),
            #[cfg(unix)]
            listener: None,
        };
        // `METADSE_INTROSPECT=<socket path>` turns the endpoint on for
        // processes that cannot call `enable_introspection` themselves
        // (CI smoke steps, soak drivers launching stock binaries).
        #[cfg(unix)]
        if let Ok(path) = std::env::var("METADSE_INTROSPECT") {
            if !path.is_empty() {
                if let Err(e) = server.enable_introspection(std::path::Path::new(&path)) {
                    obs::report::warn(format!("serve: introspection bind failed: {e}"));
                }
            }
        }
        server
    }

    /// Binds the introspection endpoint on a unix socket at `path`,
    /// replacing any previously enabled listener. The endpoint serves
    /// `health`, `ready`, `metrics`, and `trace?id=` (see
    /// [`crate::introspect`]); it reads stats and never touches the
    /// inference path.
    ///
    /// # Errors
    ///
    /// Returns any socket bind error.
    #[cfg(unix)]
    pub fn enable_introspection(&mut self, path: &std::path::Path) -> std::io::Result<()> {
        let responder = Arc::new(crate::introspect::ServeResponder {
            shared: Arc::clone(&self.shared),
        });
        self.listener = Some(obs::introspect::serve_unix(path, responder)?);
        obs::report::line(format!("serve: introspection on {}", path.display()));
        Ok(())
    }

    /// The shared runtime state, for in-crate embedders (the shard
    /// worker wraps it in its own introspection responder).
    pub(crate) fn shared_handle(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    /// This server's always-on stats hub (rolling windows, traces,
    /// tenant attribution) — the same data the endpoint serves.
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.shared.stats)
    }

    /// Current watchdog verdict over the trailing window.
    pub fn health(&self) -> Health {
        self.shared.health_at(self.shared.now_us()).0
    }

    /// Microseconds elapsed on this server's virtual clock — the
    /// timebase of every trace timestamp and window snapshot.
    pub fn now_us(&self) -> u64 {
        self.shared.now_us()
    }

    /// The registry this server reads models from.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.shared.registry
    }

    /// Requests currently queued (excluding in-flight batches).
    pub fn queue_depth(&self) -> usize {
        self.shared.core.lock().unwrap().len()
    }

    /// Submits one query. Unknown workloads, artifacts that do not
    /// compile and arity mismatches fail the ticket immediately;
    /// otherwise the request is admitted (or shed) and resolved by a
    /// worker batch. `timeout` bounds the time the request may sit in
    /// the queue, not the batch execution.
    pub fn submit(&self, workload: &str, config: &[f64], timeout: Option<Duration>) -> Ticket {
        let (tx, rx) = mpsc::channel();
        let ticket = Ticket { rx };
        // One epoch-memoized resolve covers the registry lookup *and*
        // the plan handle: submit bursts within a batch window no
        // longer take the registry table lock per request.
        let (entry, plan) = match self.shared.resolve(workload) {
            Ok(route) => route,
            Err(refused) => {
                let _ = tx.send(Err(refused));
                return ticket;
            }
        };
        let expected = entry.servable.config().num_params;
        if config.len() != expected {
            let _ = tx.send(Err(ServeError::BadArity {
                expected,
                got: config.len(),
            }));
            return ticket;
        }
        let now = self.shared.now_us();
        let deadline = timeout.map(|t| now.saturating_add(t.as_micros() as u64));
        let trace = RequestTrace::admitted(
            self.shared.next_id.fetch_add(1, Ordering::Relaxed),
            workload,
            entry.servable.fingerprint(),
            entry.generation,
            now,
        );
        let request = Request {
            entry,
            plan,
            config: config.to_vec(),
            tx,
            trace,
            parent_span: obs::current_span(),
        };
        let admission = {
            let mut core = self.shared.core.lock().unwrap();
            let admission = core.push(request, now, deadline);
            obs::gauge("serve/queue_depth", core.len() as f64);
            admission
        };
        match admission {
            Admission::Accepted => {
                self.shared.stats.record_admitted(now);
                self.shared.cv.notify_one();
            }
            Admission::Shed(request) => {
                obs::counter("serve/shed", 1);
                self.shared.stats.record_shed(request.trace, now);
                let _ = request.tx.send(Err(ServeError::Shed));
            }
            Admission::Closed(request) => {
                let _ = request.tx.send(Err(ServeError::Closed));
            }
        }
        ticket
    }

    /// Stops admitting, drains every queued request through the normal
    /// batch path, and joins the workers.
    pub fn shutdown(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        // Stop answering introspection queries before tearing down the
        // queue so probes never observe a half-shut server.
        #[cfg(unix)]
        if let Some(mut listener) = self.listener.take() {
            listener.shutdown();
        }
        self.shared.core.lock().unwrap().close();
        self.shared.cv.notify_all();
        if let Some(pool) = self.pool.take() {
            pool.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

fn worker_loop(shared: &Shared) {
    // Worker-owned plan arena: one slab reused by every plan forward
    // this thread runs, across batches, plans, and hot swaps.
    let mut arena = PlanArena::new();
    let mut guard = shared.core.lock().unwrap();
    loop {
        let now = shared.now_us();
        let expired = guard.take_expired(now);
        if !expired.is_empty() {
            obs::counter("serve/deadline_miss", expired.len() as u64);
            for dead in expired {
                shared.stats.record_miss(dead.payload.trace, now);
                let _ = dead.payload.tx.send(Err(ServeError::DeadlineMiss));
            }
        }
        match guard.pop(now) {
            PopOutcome::Batch(batch) => {
                obs::gauge("serve/queue_depth", guard.len() as f64);
                drop(guard);
                run_batch(shared, &mut arena, batch, now);
                guard = shared.core.lock().unwrap();
            }
            PopOutcome::WaitUntil(wake_us) => {
                let wait = Duration::from_micros(wake_us.saturating_sub(shared.now_us()));
                guard = shared.cv.wait_timeout(guard, wait).unwrap().0;
            }
            PopOutcome::Idle => guard = shared.cv.wait(guard).unwrap(),
            PopOutcome::Closed => break,
        }
    }
}

fn run_batch(shared: &Shared, arena: &mut PlanArena, batch: Vec<Pending<Request>>, popped_us: u64) {
    obs::histogram("serve/batch_size", batch.len() as f64);
    // Nest this batch's spans under the span of whichever caller's
    // request leads the batch — batches mix tenants, so one adopted
    // parent is a heuristic, but it keeps `serve/batch` attached to
    // real request flows in the trace tree instead of floating at root.
    let parent = batch.iter().find_map(|p| p.payload.parent_span);
    obs::adopt_span(parent);
    let _batch_span = obs::span("serve/batch");
    // Group by model identity; requests for distinct workloads (or two
    // generations caught mid-swap) coalesce into separate forwards.
    let mut groups: HashMap<u64, Vec<Pending<Request>>> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    for pending in batch {
        let key = pending.payload.entry.servable.fingerprint();
        let group = groups.entry(key).or_default();
        if group.is_empty() {
            order.push(key);
        }
        group.push(pending);
    }
    for key in order {
        let mut group = groups.remove(&key).unwrap();
        let inputs: Vec<Vec<f64>> = group
            .iter_mut()
            .map(|p| std::mem::take(&mut p.payload.config))
            .collect();
        let forward_start_us = shared.now_us();
        let values = {
            let _forward_span = obs::span("serve/forward");
            // The group key *is* the artifact fingerprint, so the plan
            // any member was admitted with serves all of them; the
            // batcher caps every batch at `max_batch`, the plan's
            // capacity.
            run_plan(&group[0].payload.plan, &inputs, arena)
        };
        let done_us = shared.now_us();
        let batch_size = group.len();
        for (pending, value) in group.into_iter().zip(values) {
            obs::histogram(
                "serve/e2e_latency_us",
                done_us.saturating_sub(pending.enqueued_at_us) as f64,
            );
            let mut trace = pending.payload.trace;
            trace.popped_us = popped_us;
            trace.forward_start_us = forward_start_us;
            trace.forward_end_us = done_us;
            trace.batch_size = batch_size;
            trace.outcome = "served";
            obs::histogram("serve/queue_wait_us", trace.queue_wait_us() as f64);
            // Bookkeeping happens-before the reply: the trace, tenant
            // rollups, and window counters are folded in *before* the
            // caller's channel learns the outcome, so a client whose
            // `wait()` returned can immediately read its own request in
            // `completed_total` / `trace?id=` — no polling window. The
            // `done_us` stamp is therefore taken at reply *handoff*
            // (send is an in-process channel push; what it can't cover
            // is the receiver's wake-up, which no server-side stamp
            // could observe anyway).
            trace.done_us = shared.now_us();
            let trace_id = trace.id;
            shared.stats.record_served(trace);
            let _ = pending.payload.tx.send(Ok(Prediction {
                value,
                generation: pending.payload.entry.generation,
                batch_size,
                trace_id,
            }));
        }
        obs::histogram(
            "serve/forward_us",
            done_us.saturating_sub(forward_start_us) as f64,
        );
    }
    // The pool threads are long-lived: clear the adopted parent so the
    // next batch (possibly from an unrelated caller) starts clean. The
    // batch span's parent was resolved when it opened, so the order of
    // this reset and the guard's drop doesn't matter.
    obs::adopt_span(None);
}

/// Executes one grouped batch through its compiled plan. Per-op wall
/// time is attributed onto `serve/plan_op/<kind>_us` counters — only
/// when instrumentation is compiled in, because the two `Instant` reads
/// per op are measurable against dispatch-bound geometries.
fn run_plan(plan: &Plan, inputs: &[Vec<f64>], arena: &mut PlanArena) -> Vec<f64> {
    if obs::enabled() {
        let mut profile = PlanProfile::default();
        let values = plan.run_profiled(inputs, arena, &mut profile);
        for (name, us) in profile.rows() {
            obs::counter(&format!("serve/plan_op/{name}_us"), us);
        }
        values
    } else {
        plan.run(inputs, arena)
    }
}
