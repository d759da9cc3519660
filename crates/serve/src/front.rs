//! The serving front door: the one process DSE clients talk to.
//!
//! A [`Front`] serves a unix socket on the workspace's frame server
//! ([`FrameServer`], one thread per connection), speaks the same binary
//! protocol as the shards ([`crate::shard`]), and routes every request
//! to the worker process owning its workload's artifact. Routing is a
//! table `workload → shard index` built by asking each shard what it
//! serves (the shards derived their partitions from the deterministic
//! [`metadse::shard::shard_of`] assignment, so the table is consistent
//! by construction); it is rebuilt on demand when a request names a
//! workload the table has never seen — the path by which workloads
//! published after fleet launch become routable.
//!
//! ## Failure model
//!
//! The front holds a small pool of reusable connections per shard. When
//! a shard is SIGKILLed mid-round-trip, the forward fails, the pooled
//! connection is discarded, and one fresh connect is attempted; if the
//! shard is still down the client receives a typed
//! [`ErrorCode::Unavailable`] reply — **never** a silent drop and never
//! a hang. Predictions are pure functions of `(artifact, config)`, so
//! clients retry `Unavailable` outcomes freely; once the supervisor has
//! restarted the shard (recovering its registry partition via the
//! corrupt-generation fallback), the same request returns the same
//! bits it would have before the crash.
//!
//! The front's own introspection endpoint (`<socket>.intro`) serves
//! `ready` / `health` / `metrics` with per-shard forward counters.

#![cfg(unix)]

use std::collections::HashMap;
use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use metadse_obs as obs;
use metadse_obs::frame::FrameServer;
use metadse_obs::introspect::{Respond, Response};

use crate::shard::{
    answer, intro_socket, round_trip, ErrorCode, ShardError, ShardReply, ShardRequest,
    WirePrediction, WorkloadInfo,
};

/// Front-door configuration.
#[derive(Debug, Clone)]
pub struct FrontConfig {
    /// Socket clients connect to; introspection binds `<socket>.intro`.
    pub socket: PathBuf,
    /// Data sockets of the shard fleet, indexed by shard.
    pub shards: Vec<PathBuf>,
    /// How long [`Front::start`] keeps retrying the initial routing
    /// sweep while shards finish binding their sockets.
    pub route_timeout: Duration,
}

impl FrontConfig {
    /// A front on `socket` over `shards`, with a 10 s routing budget.
    pub fn new(socket: impl Into<PathBuf>, shards: Vec<PathBuf>) -> FrontConfig {
        FrontConfig {
            socket: socket.into(),
            shards,
            route_timeout: Duration::from_secs(10),
        }
    }
}

/// Lifetime counters, exposed on the introspection endpoint and to
/// embedding harnesses.
#[derive(Debug)]
pub struct FrontStats {
    /// Requests received from clients (any kind).
    pub received: AtomicU64,
    /// Predictions forwarded and answered with a value.
    pub served: AtomicU64,
    /// Requests answered `Unavailable` (owning shard down).
    pub unavailable: AtomicU64,
    /// Requests answered with any other error class.
    pub errored: AtomicU64,
    /// Routing-table rebuilds triggered after launch.
    pub route_rebuilds: AtomicU64,
    /// Predictions forwarded per shard.
    pub per_shard: Vec<AtomicU64>,
}

impl FrontStats {
    fn new(shards: usize) -> FrontStats {
        FrontStats {
            received: AtomicU64::new(0),
            served: AtomicU64::new(0),
            unavailable: AtomicU64::new(0),
            errored: AtomicU64::new(0),
            route_rebuilds: AtomicU64::new(0),
            per_shard: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

/// One pooled, reusable connection lane set per shard.
struct Pool {
    sockets: Vec<PathBuf>,
    lanes: Vec<Mutex<Vec<UnixStream>>>,
}

impl Pool {
    fn new(sockets: Vec<PathBuf>) -> Pool {
        let lanes = (0..sockets.len()).map(|_| Mutex::new(Vec::new())).collect();
        Pool { sockets, lanes }
    }

    /// A connection to `shard`: pooled when available (`false`), fresh
    /// otherwise (`true`).
    fn checkout(&self, shard: usize) -> io::Result<(UnixStream, bool)> {
        if let Some(stream) = self.lanes[shard].lock().unwrap().pop() {
            return Ok((stream, false));
        }
        let stream = UnixStream::connect(&self.sockets[shard])?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(5)))?;
        Ok((stream, true))
    }

    fn checkin(&self, shard: usize, stream: UnixStream) {
        self.lanes[shard].lock().unwrap().push(stream);
    }

    /// Drops every pooled connection to `shard` (it just died; they are
    /// all dead with it).
    fn purge(&self, shard: usize) {
        self.lanes[shard].lock().unwrap().clear();
    }
}

/// The routing table: workload → owning shard plus what it reported.
#[derive(Default)]
struct Routes {
    by_workload: HashMap<String, (usize, WorkloadInfo)>,
}

struct FrontCore {
    pool: Pool,
    routes: RwLock<Routes>,
    /// Serializes rebuilds and rate-limits them (a stampede of unknown
    /// workloads must not hammer every shard per request).
    rebuild_gate: Mutex<Option<Instant>>,
    stats: FrontStats,
    stop: AtomicBool,
}

impl FrontCore {
    /// Queries every reachable shard for its workloads and swaps the
    /// table. Down shards contribute nothing (their workloads reroute
    /// nowhere until they return — requests for them get
    /// `Unavailable` … `UnknownWorkload` is reserved for names no shard
    /// has ever claimed).
    fn sweep_routes(&self) -> usize {
        let mut table = Routes::default();
        for (index, socket) in self.pool.sockets.iter().enumerate() {
            let Ok(mut stream) = UnixStream::connect(socket) else {
                continue;
            };
            let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
            let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
            if let Ok(ShardReply::Workloads(list)) =
                round_trip(&mut stream, &ShardRequest::Workloads)
            {
                for info in list {
                    table.by_workload.insert(info.name.clone(), (index, info));
                }
            }
        }
        let count = table.by_workload.len();
        *self.routes.write().unwrap() = table;
        count
    }

    /// Rebuilds the routing table, at most once per second across all
    /// handler threads.
    fn rebuild_routes(&self) {
        let mut gate = self.rebuild_gate.lock().unwrap();
        if let Some(last) = *gate {
            if last.elapsed() < Duration::from_secs(1) {
                return;
            }
        }
        *gate = Some(Instant::now());
        drop(gate);
        self.stats.route_rebuilds.fetch_add(1, Ordering::Relaxed);
        self.sweep_routes();
    }

    fn route(&self, workload: &str) -> Option<usize> {
        self.routes
            .read()
            .unwrap()
            .by_workload
            .get(workload)
            .map(|(shard, _)| *shard)
    }

    /// Forwards one request to `shard`, reusing a pooled connection
    /// when one exists. A failed round-trip on a pooled connection is
    /// retried once on a fresh connect (the pooled stream may simply
    /// predate a shard restart); a failure on a fresh connection means
    /// the shard is down *now* → `Unavailable`.
    fn forward(&self, shard: usize, request: &ShardRequest) -> ShardReply {
        for _attempt in 0..2 {
            let (mut stream, fresh) = match self.pool.checkout(shard) {
                Ok(pair) => pair,
                Err(e) => {
                    self.pool.purge(shard);
                    return unavailable(shard, &format!("connect failed: {e}"));
                }
            };
            match round_trip(&mut stream, request) {
                Ok(reply) => {
                    self.pool.checkin(shard, stream);
                    return reply;
                }
                Err(e) => {
                    // The stream is dead either way; a pooled one earns
                    // a retry against a fresh connection.
                    self.pool.purge(shard);
                    if fresh {
                        return unavailable(shard, &format!("round-trip failed: {e}"));
                    }
                }
            }
        }
        unavailable(shard, "retry exhausted")
    }

    fn handle(&self, request: ShardRequest) -> ShardReply {
        self.stats.received.fetch_add(1, Ordering::Relaxed);
        // Predicts and session ops route identically: every session op
        // carries its workload, so a tenant's whole exploration stays
        // pinned to the shard owning its model (and its point cache).
        let reply = match request.routing_workload() {
            Some(workload) => {
                let shard = match self.route(workload) {
                    Some(shard) => Some(shard),
                    None => {
                        // Never-seen workload: maybe published after
                        // launch — sweep once, then decide.
                        self.rebuild_routes();
                        self.route(workload)
                    }
                };
                match shard {
                    Some(shard) => {
                        self.stats.per_shard[shard].fetch_add(1, Ordering::Relaxed);
                        self.forward(shard, &request)
                    }
                    None => ShardReply::Error(ShardError::new(
                        ErrorCode::UnknownWorkload,
                        format!("no shard serves workload {workload:?}"),
                    )),
                }
            }
            None => {
                let routes = self.routes.read().unwrap();
                let mut list: Vec<WorkloadInfo> = routes
                    .by_workload
                    .values()
                    .map(|(_, info)| info.clone())
                    .collect();
                list.sort_by(|a, b| a.name.cmp(&b.name));
                ShardReply::Workloads(list)
            }
        };
        match &reply {
            ShardReply::Error(e) if e.code == ErrorCode::Unavailable => {
                self.stats.unavailable.fetch_add(1, Ordering::Relaxed);
            }
            ShardReply::Error(_) => {
                self.stats.errored.fetch_add(1, Ordering::Relaxed);
            }
            _ => {
                self.stats.served.fetch_add(1, Ordering::Relaxed);
            }
        }
        reply
    }
}

fn unavailable(shard: usize, detail: &str) -> ShardReply {
    ShardReply::Error(ShardError::new(
        ErrorCode::Unavailable,
        format!("shard {shard} unavailable ({detail}); retry"),
    ))
}

/// Introspection responder for the front process.
struct FrontResponder {
    core: Arc<FrontCore>,
}

impl Respond for FrontResponder {
    fn respond(&self, command: &str) -> Response {
        let stats = &self.core.stats;
        match command {
            "ready" => {
                if self.core.stop.load(Ordering::Acquire) {
                    return Response::err("not ready: front stopped");
                }
                let workloads = self.core.routes.read().unwrap().by_workload.len();
                Response::ok(format!(
                    "ready\nshards {}\nworkloads {workloads}\n",
                    self.core.pool.sockets.len()
                ))
            }
            "health" => Response::ok("ok\n".to_string()),
            "metrics" => {
                let mut out = String::new();
                out.push_str(&format!(
                    "counter front/received_total {}\n",
                    stats.received.load(Ordering::Relaxed)
                ));
                out.push_str(&format!(
                    "counter front/served_total {}\n",
                    stats.served.load(Ordering::Relaxed)
                ));
                out.push_str(&format!(
                    "counter front/unavailable_total {}\n",
                    stats.unavailable.load(Ordering::Relaxed)
                ));
                out.push_str(&format!(
                    "counter front/errored_total {}\n",
                    stats.errored.load(Ordering::Relaxed)
                ));
                out.push_str(&format!(
                    "counter front/route_rebuilds {}\n",
                    stats.route_rebuilds.load(Ordering::Relaxed)
                ));
                for (i, n) in stats.per_shard.iter().enumerate() {
                    out.push_str(&format!(
                        "counter front/shard{}_forwarded {}\n",
                        i,
                        n.load(Ordering::Relaxed)
                    ));
                }
                Response::ok(out)
            }
            other => Response::err(format!(
                "unknown command {other:?} (try health, ready, metrics)"
            )),
        }
    }
}

/// A running front-door process. Drop (or [`shutdown`](Front::shutdown))
/// stops the listeners.
pub struct Front {
    core: Arc<FrontCore>,
    data: FrameServer,
    _intro: FrameServer,
}

impl Front {
    /// Builds the routing table (retrying until every shard answered at
    /// least once or `route_timeout` elapsed), binds the client socket
    /// and the introspection socket, and starts accepting.
    ///
    /// # Errors
    ///
    /// Any socket bind or thread-spawn error. An incomplete routing
    /// sweep is *not* an error — missing shards stay unroutable until
    /// a later rebuild finds them.
    pub fn start(config: FrontConfig) -> io::Result<Front> {
        let shard_count = config.shards.len();
        let core = Arc::new(FrontCore {
            pool: Pool::new(config.shards),
            routes: RwLock::new(Routes::default()),
            rebuild_gate: Mutex::new(None),
            stats: FrontStats::new(shard_count),
            stop: AtomicBool::new(false),
        });

        // Initial sweep: keep asking until every shard has contributed
        // (workload counts can legitimately be zero on small fleets) or
        // the budget runs out.
        let deadline = Instant::now() + config.route_timeout;
        loop {
            let routed = core.sweep_routes();
            if routed > 0 || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(20));
        }

        let responder = Arc::new(FrontResponder {
            core: Arc::clone(&core),
        });
        let intro = obs::introspect::serve_unix(&intro_socket(&config.socket), responder)?;
        let handler_core = Arc::clone(&core);
        let data = FrameServer::bind(&config.socket, "metadse-front", move |payload: &[u8]| {
            answer(payload, |request| handler_core.handle(request))
        })?;

        obs::report::line(format!(
            "front: {} shard(s), {} workload(s) routed, listening on {}",
            shard_count,
            core.routes.read().unwrap().by_workload.len(),
            config.socket.display()
        ));
        Ok(Front {
            core,
            data,
            _intro: intro,
        })
    }

    /// The client-socket path.
    pub fn socket(&self) -> &Path {
        self.data.path()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &FrontStats {
        &self.core.stats
    }

    /// Workloads currently routed, sorted.
    pub fn routed_workloads(&self) -> Vec<String> {
        let routes = self.core.routes.read().unwrap();
        let mut names: Vec<String> = routes.by_workload.keys().cloned().collect();
        names.sort_unstable();
        names
    }

    /// Stops accepting and joins every handler thread.
    pub fn shutdown(mut self) {
        self.close();
    }

    fn close(&mut self) {
        self.core.stop.store(true, Ordering::Release);
        self.data.shutdown();
    }
}

impl Drop for Front {
    fn drop(&mut self) {
        self.close();
    }
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// A prediction as decoded by a client, with the value rebuilt from its
/// wire bits (bit-identical to the serving shard's serial `predict`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardPrediction {
    /// Predicted metric value.
    pub value: f64,
    /// Registry generation of the serving model.
    pub generation: u64,
    /// Coalesced batch size on the owning shard.
    pub batch_size: usize,
    /// Trace id on the owning shard's introspection endpoint.
    pub trace_id: u64,
    /// Which shard executed the forward.
    pub shard: usize,
}

impl From<WirePrediction> for ShardPrediction {
    fn from(w: WirePrediction) -> ShardPrediction {
        ShardPrediction {
            value: f64::from_bits(w.value_bits),
            generation: w.generation,
            batch_size: w.batch_size as usize,
            trace_id: w.trace_id,
            shard: w.shard as usize,
        }
    }
}

/// A blocking client connection to a [`Front`] (or directly to one
/// shard — the protocol is identical).
pub struct FrontClient {
    stream: UnixStream,
}

impl FrontClient {
    /// Connects to the front (or shard) socket at `path`.
    ///
    /// # Errors
    ///
    /// Any connect error.
    pub fn connect(path: &Path) -> io::Result<FrontClient> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(5)))?;
        Ok(FrontClient { stream })
    }

    /// One predict round-trip. Transport failures (the front died, the
    /// stream broke) come back as [`ErrorCode::Unavailable`] so callers
    /// have a single retry policy; reconnect before retrying.
    ///
    /// # Errors
    ///
    /// Typed [`ShardError`] — see [`ShardError::retryable`].
    pub fn predict(
        &mut self,
        workload: &str,
        config: &[f64],
        timeout: Option<Duration>,
    ) -> Result<ShardPrediction, ShardError> {
        let request = ShardRequest::Predict {
            workload: workload.to_string(),
            config: config.to_vec(),
            timeout_us: timeout.map_or(0, |t| t.as_micros() as u64),
        };
        match self.round_trip(&request)? {
            ShardReply::Value(w) => Ok(w.into()),
            ShardReply::Error(e) => Err(e),
            _ => Err(ShardError::new(
                ErrorCode::BadRequest,
                "peer answered predict with a different reply kind",
            )),
        }
    }

    /// Lists the workloads the peer routes/serves.
    ///
    /// # Errors
    ///
    /// Typed [`ShardError`] (transport failures map to `Unavailable`).
    pub fn workloads(&mut self) -> Result<Vec<WorkloadInfo>, ShardError> {
        match self.round_trip(&ShardRequest::Workloads)? {
            ShardReply::Workloads(list) => Ok(list),
            ShardReply::Error(e) => Err(e),
            _ => Err(ShardError::new(
                ErrorCode::BadRequest,
                "peer answered workload listing with a different reply kind",
            )),
        }
    }

    /// Opens (idempotently) an exploration session for `spec`. A
    /// session that already exists — or resumes from a checkpoint on
    /// the owning shard — reports its `rounds_done` so the client can
    /// continue stepping where it left off.
    ///
    /// # Errors
    ///
    /// Typed [`ShardError`] (transport failures map to `Unavailable`).
    pub fn open_session(
        &mut self,
        spec: &crate::session::SessionSpec,
    ) -> Result<crate::session::OpenInfo, ShardError> {
        match self.round_trip(&ShardRequest::OpenSession(spec.clone()))? {
            ShardReply::SessionOpened(info) => Ok(info),
            ShardReply::Error(e) => Err(e),
            _ => Err(ShardError::new(
                ErrorCode::BadRequest,
                "peer answered open-session with a different reply kind",
            )),
        }
    }

    /// Steps one exploration round (execute `rounds_done + 1` or replay
    /// `rounds_done` — see `SessionEngine::step` for the protocol).
    ///
    /// # Errors
    ///
    /// Typed [`ShardError`]; [`ErrorCode::UnknownSession`] means the
    /// shard lost the session (restart without persistence) — re-open,
    /// then retry.
    pub fn step_session(
        &mut self,
        workload: &str,
        session: u64,
        round: u64,
    ) -> Result<crate::session::RoundReport, ShardError> {
        let request = ShardRequest::StepSession {
            workload: workload.to_string(),
            session,
            round,
        };
        match self.round_trip(&request)? {
            ShardReply::SessionDelta { report, .. } => Ok(report),
            ShardReply::Error(e) => Err(e),
            _ => Err(ShardError::new(
                ErrorCode::BadRequest,
                "peer answered step-session with a different reply kind",
            )),
        }
    }

    /// Closes a session on its owning shard; `Ok(true)` when it was
    /// open there.
    ///
    /// # Errors
    ///
    /// Typed [`ShardError`] (transport failures map to `Unavailable`).
    pub fn close_session(&mut self, workload: &str, session: u64) -> Result<bool, ShardError> {
        let request = ShardRequest::CloseSession {
            workload: workload.to_string(),
            session,
        };
        match self.round_trip(&request)? {
            ShardReply::SessionClosed(existed) => Ok(existed),
            ShardReply::Error(e) => Err(e),
            _ => Err(ShardError::new(
                ErrorCode::BadRequest,
                "peer answered close-session with a different reply kind",
            )),
        }
    }

    fn round_trip(&mut self, request: &ShardRequest) -> Result<ShardReply, ShardError> {
        round_trip(&mut self.stream, request)
            .map_err(|e| ShardError::new(ErrorCode::Unavailable, format!("transport: {e}")))
    }
}
