//! One shard of the multi-process serving fleet: the binary wire
//! protocol and the worker-process runtime behind it.
//!
//! ## Topology
//!
//! ```text
//! client ──frames──▶ metadse-front ──frames──▶ metadse-serve (shard 0)
//!                        │                     metadse-serve (shard 1)
//!                        └──── routes by ────▶ metadse-serve (shard …)
//!                              fingerprint
//! ```
//!
//! Each worker process runs a [`ShardServer`]: a [`ModelRegistry`]
//! opened with [`ModelRegistry::open_sharded`] (it loads only the
//! workloads its [`ShardSpec`] owns), an in-process [`Server`] for
//! batched execution, a data socket on the workspace's frame server
//! ([`metadse_obs::frame::FrameServer`], one thread per connection), and
//! the standard introspection endpoint at `<socket>.intro` for the
//! supervisor's readiness barrier.
//!
//! ## Wire protocol
//!
//! Every message is one length-prefixed frame (u32-LE, ≤ 1 MiB — the
//! same framing as the introspection plane). Payloads are binary,
//! little-endian, tag-discriminated, and written with the checkpoint
//! codec ([`metadse_nn::format::ByteWriter`]): session specs and round
//! reports travel in exactly the bytes an `MDSESESS` session checkpoint
//! stores them in, through the same encoders in [`crate::session`].
//!
//! ```text
//! request  := 'P' predict   workload:str config:f64s timeout_us:u64
//!                           (timeout 0 = none)
//!           | 'W' workloads (no body)
//!           | 'O' open      spec
//!           | 'S' step      workload:str session:u64 round:u64
//!           | 'C' close     workload:str session:u64
//! reply    := 'V' value     bits:u64 generation:u64 batch:u32
//!                           trace_id:u64 shard:u32
//!           | 'L' list      n:u32 · (name:str fp:u64 gen:u64)*
//!           | 'O' opened    session:u64 fp:u64 rounds_done:u64
//!                           rounds_total:u64 resumed:u8
//!           | 'D' delta     session:u64 report
//!           | 'K' closed    existed:u8
//!           | 'E' error     code:u8 message:str
//! spec     := workload:str seed:u64 initial:u32 rounds:u32 beam:u32
//!             timeout_us:u64
//! report   := round:u64 done:u32 hv:f64 proposed:u32 predicted:u32
//!             hits:u32 shed:u32 added:(n:u32 · entry*)
//!             removed:(n:u32 · point*)
//! entry    := point ipc:f64 power:f64;   point := n:u32 · idx:u32*
//! str      := len:u32 bytes;             f64s  := n:u64 · f64*
//! ```
//!
//! Every width is the checkpoint's (u32 counts and indices): fleet
//! workers re-execute the launching binary ([`run_worker_if_flagged`]),
//! so both ends of a connection always run the same codec. Frames carry
//! no checksum, so every count is checked against the bytes left in the
//! frame before it sizes an allocation; a frame claiming more elements
//! than it holds is `InvalidData`. [`ShardRequest::encode`] and
//! [`ShardReply::encode`] refuse a payload over [`MAX_FRAME`].
//!
//! Session ops (`'O'`/`'S'`/`'C'`) carry their workload so the front
//! door routes them statelessly exactly like predicts — sessions for a
//! workload always land on the shard that owns its model.
//!
//! `f64`s travel as raw IEEE-754 bits ([`f64::to_bits`]) in both
//! directions, so a value crossing two process boundaries arrives
//! **bit-identical** to the serial `predict` that produced it — the
//! property the shard soak asserts end to end.
//!
//! One request per round-trip; connections are reused for further
//! round-trips. A connection that dies mid-flight (the shard was
//! SIGKILLed) surfaces as an I/O error to the peer, which maps it to
//! [`ErrorCode::Unavailable`] — predictions are pure, so retrying a
//! lost round-trip is always safe.

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use metadse::shard::ShardSpec;
use metadse_nn::format::{ByteReader, ByteWriter};
use metadse_obs as obs;
#[cfg(unix)]
use metadse_obs::frame::FrameServer;
use metadse_obs::frame::{read_frame, write_frame, MAX_FRAME};
use metadse_obs::introspect::{Respond, Response};

use crate::registry::ModelRegistry;
use crate::server::{Prediction, ServeConfig, ServeError, Server};
use crate::session;

/// Suffix appended to a shard's (or the front's) data socket to name
/// its introspection socket.
pub const INTRO_SUFFIX: &str = ".intro";

/// The introspection socket path for a data socket: `<sock>.intro`.
pub fn intro_socket(socket: &Path) -> PathBuf {
    let mut os = socket.as_os_str().to_os_string();
    os.push(INTRO_SUFFIX);
    PathBuf::from(os)
}

/// The data-socket path for shard `index` under `dir`.
pub fn shard_socket(dir: &Path, index: usize) -> PathBuf {
    dir.join(format!("shard-{index}.sock"))
}

// ---------------------------------------------------------------------
// Wire protocol
// ---------------------------------------------------------------------

/// Error classes carried on the wire (`'E'` replies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Admission queue full; retry with backoff.
    Shed = 1,
    /// The serving process is shutting down.
    Closed = 2,
    /// The request's deadline passed while queued.
    DeadlineMiss = 3,
    /// No shard serves this workload.
    UnknownWorkload = 4,
    /// Configuration vector has the wrong arity.
    BadArity = 5,
    /// The model artifact does not compile into a serving plan.
    Artifact = 6,
    /// The owning shard is down (crashed / restarting); the request was
    /// **not** executed-and-acknowledged — retry.
    Unavailable = 7,
    /// The peer sent a frame this side cannot decode.
    BadRequest = 8,
    /// The session id is not open on this shard (and no checkpoint was
    /// found); re-open the session, then retry the step.
    UnknownSession = 9,
}

impl ErrorCode {
    fn from_u8(v: u8) -> Option<ErrorCode> {
        Some(match v {
            1 => ErrorCode::Shed,
            2 => ErrorCode::Closed,
            3 => ErrorCode::DeadlineMiss,
            4 => ErrorCode::UnknownWorkload,
            5 => ErrorCode::BadArity,
            6 => ErrorCode::Artifact,
            7 => ErrorCode::Unavailable,
            8 => ErrorCode::BadRequest,
            9 => ErrorCode::UnknownSession,
            _ => return None,
        })
    }
}

/// A typed failure from the sharded serving fabric, as seen by clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardError {
    /// Failure class (drives retry policy).
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ShardError {
    /// Shorthand constructor.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> ShardError {
        ShardError {
            code,
            message: message.into(),
        }
    }

    /// Whether a client may safely retry this request (predictions are
    /// pure, so anything that did not *deterministically* fail is
    /// retryable).
    pub fn retryable(&self) -> bool {
        matches!(
            self.code,
            ErrorCode::Shed | ErrorCode::Closed | ErrorCode::Unavailable
        )
    }
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:?}: {}", self.code, self.message)
    }
}

impl std::error::Error for ShardError {}

impl From<ServeError> for ShardError {
    fn from(e: ServeError) -> ShardError {
        let code = match &e {
            ServeError::Shed => ErrorCode::Shed,
            ServeError::Closed => ErrorCode::Closed,
            ServeError::DeadlineMiss => ErrorCode::DeadlineMiss,
            ServeError::UnknownWorkload(_) => ErrorCode::UnknownWorkload,
            ServeError::BadArity { .. } => ErrorCode::BadArity,
            ServeError::Artifact(_) => ErrorCode::Artifact,
        };
        ShardError::new(code, e.to_string())
    }
}

impl From<session::SessionError> for ShardError {
    fn from(e: session::SessionError) -> ShardError {
        use session::SessionError;
        let code = match &e {
            SessionError::UnknownWorkload(_) => ErrorCode::UnknownWorkload,
            SessionError::UnknownSession(_) => ErrorCode::UnknownSession,
            SessionError::BadRound { .. }
            | SessionError::Exhausted
            | SessionError::WorkloadMismatch => ErrorCode::BadRequest,
        };
        ShardError::new(code, e.to_string())
    }
}

/// One request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardRequest {
    /// Predict one configuration for `workload`.
    Predict {
        /// Target workload name.
        workload: String,
        /// Configuration vector (model input).
        config: Vec<f64>,
        /// Queue-residency deadline in µs; 0 = none.
        timeout_us: u64,
    },
    /// List the workloads this process serves.
    Workloads,
    /// Open (or idempotently re-open / resume) an exploration session.
    OpenSession(session::SessionSpec),
    /// Execute or replay one exploration round.
    StepSession {
        /// Session workload (the routing key).
        workload: String,
        /// Session id from the open reply.
        session: u64,
        /// 1-based round to execute (`rounds_done + 1`) or replay
        /// (`rounds_done`).
        round: u64,
    },
    /// Close a session (final checkpoint, then release).
    CloseSession {
        /// Session workload (the routing key).
        workload: String,
        /// Session id from the open reply.
        session: u64,
    },
}

impl ShardRequest {
    /// The workload a front door routes this request by; `None` for
    /// fleet-wide requests answered by any shard.
    pub fn routing_workload(&self) -> Option<&str> {
        match self {
            ShardRequest::Predict { workload, .. }
            | ShardRequest::StepSession { workload, .. }
            | ShardRequest::CloseSession { workload, .. } => Some(workload),
            ShardRequest::OpenSession(spec) => Some(&spec.workload),
            ShardRequest::Workloads => None,
        }
    }
}

/// One workload a shard serves, as reported by [`ShardRequest::Workloads`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadInfo {
    /// Workload name.
    pub name: String,
    /// Artifact fingerprint (the sharding key).
    pub fingerprint: u64,
    /// Registry generation currently served.
    pub generation: u64,
}

/// A successful prediction as it crosses the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WirePrediction {
    /// IEEE-754 bits of the predicted value ([`f64::to_bits`]).
    pub value_bits: u64,
    /// Registry generation of the serving model.
    pub generation: u64,
    /// Coalesced batch size.
    pub batch_size: u32,
    /// Server-unique trace id on the owning shard.
    pub trace_id: u64,
    /// Index of the shard that executed the forward.
    pub shard: u32,
}

/// One reply frame.
#[derive(Debug, Clone, PartialEq)]
pub enum ShardReply {
    /// Prediction succeeded.
    Value(WirePrediction),
    /// Workload listing.
    Workloads(Vec<WorkloadInfo>),
    /// Session opened (or resumed).
    SessionOpened(session::OpenInfo),
    /// One round's incremental front delta.
    SessionDelta {
        /// Session the round belongs to.
        session: u64,
        /// The round's report (delta, hypervolume, accounting).
        report: session::RoundReport,
    },
    /// Session closed; whether it was open here.
    SessionClosed(bool),
    /// Typed failure.
    Error(ShardError),
}

/// Refuses a payload the frame codec would refuse to send.
fn frame_payload(w: ByteWriter) -> io::Result<Vec<u8>> {
    let out = w.into_bytes();
    if out.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("message of {} bytes exceeds MAX_FRAME", out.len()),
        ));
    }
    Ok(out)
}

/// Rejects bytes left over after a complete message.
fn finish(r: &ByteReader) -> io::Result<()> {
    match r.remaining() {
        0 => Ok(()),
        n => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{n} trailing bytes after message"),
        )),
    }
}

fn unknown_tag(kind: &str, tag: u8) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unknown {kind} tag {tag:#04x}"),
    )
}

impl ShardRequest {
    /// Serializes to one frame payload.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the payload exceeds [`MAX_FRAME`].
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        let mut w = ByteWriter::new();
        match self {
            ShardRequest::Predict {
                workload,
                config,
                timeout_us,
            } => {
                w.u8(b'P');
                w.str(workload);
                w.f64_slice(config);
                w.u64(*timeout_us);
            }
            ShardRequest::Workloads => w.u8(b'W'),
            ShardRequest::OpenSession(spec) => {
                w.u8(b'O');
                session::put_spec(&mut w, spec);
            }
            ShardRequest::StepSession {
                workload,
                session,
                round,
            } => {
                w.u8(b'S');
                w.str(workload);
                w.u64(*session);
                w.u64(*round);
            }
            ShardRequest::CloseSession { workload, session } => {
                w.u8(b'C');
                w.str(workload);
                w.u64(*session);
            }
        }
        frame_payload(w)
    }

    /// Parses one frame payload.
    ///
    /// # Errors
    ///
    /// `InvalidData` on unknown tags, truncation, counts larger than the
    /// frame, or trailing bytes.
    pub fn decode(payload: &[u8]) -> io::Result<ShardRequest> {
        let mut r = ByteReader::new(payload);
        let request = match r.u8()? {
            b'P' => ShardRequest::Predict {
                workload: r.str()?,
                config: r.f64_vec()?,
                timeout_us: r.u64()?,
            },
            b'W' => ShardRequest::Workloads,
            b'O' => ShardRequest::OpenSession(session::get_spec(&mut r)?),
            b'S' => ShardRequest::StepSession {
                workload: r.str()?,
                session: r.u64()?,
                round: r.u64()?,
            },
            b'C' => ShardRequest::CloseSession {
                workload: r.str()?,
                session: r.u64()?,
            },
            tag => return Err(unknown_tag("request", tag)),
        };
        finish(&r)?;
        Ok(request)
    }
}

impl ShardReply {
    /// Serializes to one frame payload.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the payload exceeds [`MAX_FRAME`].
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        let mut w = ByteWriter::new();
        match self {
            ShardReply::Value(p) => {
                w.u8(b'V');
                w.u64(p.value_bits);
                w.u64(p.generation);
                w.u32(p.batch_size);
                w.u64(p.trace_id);
                w.u32(p.shard);
            }
            ShardReply::Workloads(list) => {
                w.u8(b'L');
                w.u32(list.len() as u32);
                for info in list {
                    w.str(&info.name);
                    w.u64(info.fingerprint);
                    w.u64(info.generation);
                }
            }
            ShardReply::SessionOpened(info) => {
                w.u8(b'O');
                w.u64(info.session_id);
                w.u64(info.fingerprint);
                w.u64(info.rounds_done);
                w.u64(info.rounds_total);
                w.u8(u8::from(info.resumed));
            }
            ShardReply::SessionDelta { session, report } => {
                w.u8(b'D');
                w.u64(*session);
                session::put_report(&mut w, report);
            }
            ShardReply::SessionClosed(existed) => {
                w.u8(b'K');
                w.u8(u8::from(*existed));
            }
            ShardReply::Error(e) => {
                w.u8(b'E');
                w.u8(e.code as u8);
                w.str(&e.message);
            }
        }
        frame_payload(w)
    }

    /// Parses one frame payload.
    ///
    /// # Errors
    ///
    /// `InvalidData` on unknown tags or codes, truncation, counts larger
    /// than the frame, or trailing bytes.
    pub fn decode(payload: &[u8]) -> io::Result<ShardReply> {
        let mut r = ByteReader::new(payload);
        let reply = match r.u8()? {
            b'V' => ShardReply::Value(WirePrediction {
                value_bits: r.u64()?,
                generation: r.u64()?,
                batch_size: r.u32()?,
                trace_id: r.u64()?,
                shard: r.u32()?,
            }),
            b'L' => {
                let n = r.count(4 + 16)?;
                let list = (0..n)
                    .map(|_| {
                        Ok(WorkloadInfo {
                            name: r.str()?,
                            fingerprint: r.u64()?,
                            generation: r.u64()?,
                        })
                    })
                    .collect::<io::Result<_>>()?;
                ShardReply::Workloads(list)
            }
            b'O' => ShardReply::SessionOpened(session::OpenInfo {
                session_id: r.u64()?,
                fingerprint: r.u64()?,
                rounds_done: r.u64()?,
                rounds_total: r.u64()?,
                resumed: r.u8()? != 0,
            }),
            b'D' => ShardReply::SessionDelta {
                session: r.u64()?,
                report: session::get_report(&mut r)?,
            },
            b'K' => ShardReply::SessionClosed(r.u8()? != 0),
            b'E' => {
                let raw = r.u8()?;
                let code = ErrorCode::from_u8(raw).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unknown error code {raw}"),
                    )
                })?;
                ShardReply::Error(ShardError {
                    code,
                    message: r.str()?,
                })
            }
            tag => return Err(unknown_tag("reply", tag)),
        };
        finish(&r)?;
        Ok(reply)
    }
}

/// One blocking round-trip on an established stream: write the request
/// frame, read the reply frame.
///
/// # Errors
///
/// Any frame I/O or decode error (the peer died, the stream timed out,
/// or the bytes are malformed).
pub fn round_trip(
    stream: &mut (impl Read + Write),
    request: &ShardRequest,
) -> io::Result<ShardReply> {
    write_frame(stream, &request.encode()?)?;
    ShardReply::decode(&read_frame(stream)?)
}

// ---------------------------------------------------------------------
// Shard worker runtime
// ---------------------------------------------------------------------

/// Configuration for one shard worker process.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardOptions {
    /// Data socket this shard listens on; the introspection endpoint
    /// binds `<socket>.intro`.
    pub socket: PathBuf,
    /// Registry root shared by the whole fleet.
    pub registry_root: PathBuf,
    /// This worker's position in the fleet (drives registry filtering).
    pub spec: ShardSpec,
    /// Generations retained per workload.
    pub keep: usize,
    /// In-process serving runtime tuning.
    pub config: ServeConfig,
    /// Exploration-session checkpoint root; `None` falls back to
    /// `METADSE_SESSION_DIR` (and in-memory-only sessions when that is
    /// unset too).
    pub session_dir: Option<PathBuf>,
}

impl ShardOptions {
    /// Options serving everything (a single-shard fleet) from
    /// `registry_root` on `socket`, with default runtime tuning.
    pub fn single(socket: impl Into<PathBuf>, registry_root: impl Into<PathBuf>) -> ShardOptions {
        ShardOptions {
            socket: socket.into(),
            registry_root: registry_root.into(),
            spec: ShardSpec::single(),
            keep: 4,
            config: ServeConfig::default(),
            session_dir: None,
        }
    }
}

#[cfg(unix)]
/// Readiness wrapper around the standard serve responder: a shard that
/// owns *zero* workloads (small fleets leave some shards empty) is
/// still ready — it simply serves nothing — whereas the unsharded
/// responder treats an empty registry as "not ready yet".
struct ShardResponder {
    serve: crate::introspect::ServeResponder,
    spec: ShardSpec,
    engine: Arc<session::SessionEngine>,
}

#[cfg(unix)]
impl Respond for ShardResponder {
    fn respond(&self, command: &str) -> Response {
        if command == "ready" {
            let closed = self
                .serve
                .shared
                .core
                .lock()
                .expect("queue poisoned")
                .is_closed();
            if closed {
                return Response::err("not ready: server closed");
            }
            let workloads = self.serve.shared.registry.workloads();
            return Response::ok(format!(
                "ready\nshard {}\nworkloads {}\n",
                self.spec,
                workloads.len()
            ));
        }
        let mut response = self.serve.respond(command);
        if command == "metrics" && response.ok {
            // The session plane's metrics ride the same exposition.
            response.body.push_str(&self.engine.exposition());
        }
        response
    }
}

#[cfg(unix)]
/// A running shard worker: filtered registry, batched server, data
/// socket, introspection socket. Drop (or [`shutdown`](ShardServer::shutdown))
/// stops the listeners and drains the server.
pub struct ShardServer {
    spec: ShardSpec,
    registry: Arc<ModelRegistry>,
    server: Option<Arc<Server>>,
    data: FrameServer,
    _intro: FrameServer,
    served: Arc<AtomicU64>,
}

#[cfg(unix)]
impl ShardServer {
    /// Opens the sharded registry, starts the in-process server, binds
    /// the data socket and the introspection socket, and begins
    /// accepting connections.
    ///
    /// # Errors
    ///
    /// Any socket bind or thread-spawn error.
    pub fn start(opts: ShardOptions) -> io::Result<ShardServer> {
        let registry = Arc::new(ModelRegistry::open_sharded(
            &opts.registry_root,
            opts.keep,
            opts.spec,
        ));
        let server = Arc::new(Server::start(Arc::clone(&registry), opts.config));
        let mut engine_config = session::SessionEngineConfig::from_env();
        if opts.session_dir.is_some() {
            engine_config.dir = opts.session_dir.clone();
        }
        let engine = Arc::new(session::SessionEngine::new(engine_config));
        // The supervisor's readiness barrier and CI probes speak the
        // standard introspection protocol against `<socket>.intro`.
        let responder = Arc::new(ShardResponder {
            serve: crate::introspect::ServeResponder {
                shared: server.shared_handle(),
            },
            spec: opts.spec,
            engine: Arc::clone(&engine),
        });
        let intro = obs::introspect::serve_unix(&intro_socket(&opts.socket), responder)?;

        let served = Arc::new(AtomicU64::new(0));
        let ctx = ConnContext {
            server: Arc::clone(&server),
            registry: Arc::clone(&registry),
            engine,
            spec: opts.spec,
            served: Arc::clone(&served),
        };
        let data = FrameServer::bind(
            &opts.socket,
            &format!("metadse-shard-{}", opts.spec.index),
            move |payload: &[u8]| answer(payload, |request| handle_request(&ctx, request)),
        )?;

        obs::report::line(format!(
            "shard {}: serving {} workload(s) on {}",
            opts.spec,
            registry.workloads().len(),
            opts.socket.display()
        ));
        Ok(ShardServer {
            spec: opts.spec,
            registry,
            server: Some(server),
            data,
            _intro: intro,
            served,
        })
    }

    /// The data-socket path.
    pub fn socket(&self) -> &Path {
        self.data.path()
    }

    /// This worker's shard spec.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// The filtered registry backing this shard.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// Predictions this shard has answered over the socket.
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Stops accepting, joins connection handlers, drains the server.
    pub fn shutdown(mut self) {
        self.close();
    }

    fn close(&mut self) {
        self.data.shutdown();
        // Every handler thread (each holding the data handler and so a
        // `ConnContext`) has been joined, so this is the last `Server`
        // reference; dropping it drains queued requests and joins the
        // worker pool.
        drop(self.server.take());
    }
}

#[cfg(unix)]
impl Drop for ShardServer {
    fn drop(&mut self) {
        self.close();
    }
}

/// Decodes one request frame, answers it with `handle`, and encodes the
/// reply — the frame handler of both fleet hops. An undecodable frame
/// is answered with [`ErrorCode::BadRequest`].
///
/// # Errors
///
/// A reply the wire cannot carry (over [`MAX_FRAME`]); the frame server
/// then closes the connection.
#[cfg(unix)]
pub(crate) fn answer(
    payload: &[u8],
    handle: impl FnOnce(ShardRequest) -> ShardReply,
) -> io::Result<Vec<u8>> {
    let reply = match ShardRequest::decode(payload) {
        Ok(request) => handle(request),
        Err(e) => ShardReply::Error(ShardError::new(
            ErrorCode::BadRequest,
            format!("bad request frame: {e}"),
        )),
    };
    reply.encode()
}

#[cfg(unix)]
/// What a shard's connection handlers share.
struct ConnContext {
    server: Arc<Server>,
    registry: Arc<ModelRegistry>,
    engine: Arc<session::SessionEngine>,
    spec: ShardSpec,
    served: Arc<AtomicU64>,
}

#[cfg(unix)]
fn handle_request(ctx: &ConnContext, request: ShardRequest) -> ShardReply {
    match request {
        ShardRequest::Predict {
            workload,
            config,
            timeout_us,
        } => {
            let timeout = (timeout_us > 0).then(|| Duration::from_micros(timeout_us));
            match ctx.server.submit(&workload, &config, timeout).wait() {
                Ok(Prediction {
                    value,
                    generation,
                    batch_size,
                    trace_id,
                }) => {
                    ctx.served.fetch_add(1, Ordering::Relaxed);
                    ShardReply::Value(WirePrediction {
                        value_bits: value.to_bits(),
                        generation,
                        batch_size: batch_size as u32,
                        trace_id,
                        shard: ctx.spec.index as u32,
                    })
                }
                Err(e) => ShardReply::Error(ShardError::from(e)),
            }
        }
        ShardRequest::Workloads => {
            let list = ctx
                .registry
                .workloads()
                .into_iter()
                .filter_map(|name| {
                    let entry = ctx.registry.get(&name)?;
                    Some(WorkloadInfo {
                        name,
                        fingerprint: entry.servable.fingerprint(),
                        generation: entry.generation,
                    })
                })
                .collect();
            ShardReply::Workloads(list)
        }
        ShardRequest::OpenSession(spec) => match ctx.engine.open(&ctx.server, &spec) {
            Ok(info) => ShardReply::SessionOpened(info),
            Err(e) => ShardReply::Error(ShardError::from(e)),
        },
        ShardRequest::StepSession {
            workload,
            session,
            round,
        } => match ctx.engine.step(&ctx.server, &workload, session, round) {
            Ok(report) => ShardReply::SessionDelta { session, report },
            Err(e) => ShardReply::Error(ShardError::from(e)),
        },
        ShardRequest::CloseSession { session, .. } => {
            ShardReply::SessionClosed(ctx.engine.close(session))
        }
    }
}

// ---------------------------------------------------------------------
// Worker process entry
// ---------------------------------------------------------------------

/// Flag marking a process invocation as a shard worker. Fleet launchers
/// (`metadse-front`, `serve_bench --shards`, the soak harness) respawn
/// `std::env::current_exe()` with this flag so one binary carries both
/// the driver and the worker.
pub const WORKER_FLAG: &str = "--shard-worker";

impl ShardOptions {
    /// The worker flags that [`parse_worker_args`] reads back into these
    /// options — the one place fleet launchers spell them.
    pub fn to_args(&self) -> Vec<String> {
        let mut args: Vec<String> = [
            ("--socket", self.socket.display().to_string()),
            ("--registry", self.registry_root.display().to_string()),
            ("--shard-index", self.spec.index.to_string()),
            ("--shard-count", self.spec.count.to_string()),
            ("--keep", self.keep.to_string()),
            ("--workers", self.config.workers.to_string()),
            ("--max-batch", self.config.batch.max_batch.to_string()),
            ("--max-wait-us", self.config.batch.max_wait_us.to_string()),
            (
                "--queue-capacity",
                self.config.batch.queue_capacity.to_string(),
            ),
        ]
        .into_iter()
        .flat_map(|(flag, value)| [flag.to_string(), value])
        .collect();
        if let Some(dir) = &self.session_dir {
            args.extend(["--session-dir".to_string(), dir.display().to_string()]);
        }
        args
    }
}

/// Parses shard-worker CLI flags:
///
/// ```text
/// --socket PATH --registry DIR [--shard-index I --shard-count N]
/// [--keep K] [--workers W] [--max-batch B] [--max-wait-us U]
/// [--queue-capacity Q] [--session-dir DIR]
/// ```
///
/// # Errors
///
/// A usage message on unknown/missing flags or malformed values.
pub fn parse_worker_args(args: &[String]) -> Result<ShardOptions, String> {
    let mut socket: Option<PathBuf> = None;
    let mut registry: Option<PathBuf> = None;
    let mut index = 0usize;
    let mut count = 1usize;
    let mut keep = 4usize;
    let mut config = ServeConfig::default();
    let mut session_dir: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<&String, String> {
            it.next().ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--socket" => socket = Some(PathBuf::from(value("--socket")?)),
            "--registry" => registry = Some(PathBuf::from(value("--registry")?)),
            "--shard-index" => {
                index = value("--shard-index")?
                    .parse()
                    .map_err(|e| format!("--shard-index: {e}"))?;
            }
            "--shard-count" => {
                count = value("--shard-count")?
                    .parse()
                    .map_err(|e| format!("--shard-count: {e}"))?;
            }
            "--keep" => {
                keep = value("--keep")?
                    .parse()
                    .map_err(|e| format!("--keep: {e}"))?
            }
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("--workers: {e}"))?;
            }
            "--max-batch" => {
                config.batch.max_batch = value("--max-batch")?
                    .parse()
                    .map_err(|e| format!("--max-batch: {e}"))?;
            }
            "--max-wait-us" => {
                config.batch.max_wait_us = value("--max-wait-us")?
                    .parse()
                    .map_err(|e| format!("--max-wait-us: {e}"))?;
            }
            "--queue-capacity" => {
                config.batch.queue_capacity = value("--queue-capacity")?
                    .parse()
                    .map_err(|e| format!("--queue-capacity: {e}"))?;
            }
            "--session-dir" => session_dir = Some(PathBuf::from(value("--session-dir")?)),
            other => return Err(format!("unknown shard-worker flag {other:?}")),
        }
    }
    let socket = socket.ok_or("--socket is required")?;
    let registry = registry.ok_or("--registry is required")?;
    let spec = ShardSpec::new(index, count)?;
    Ok(ShardOptions {
        socket,
        registry_root: registry,
        spec,
        keep,
        config,
        session_dir,
    })
}

/// Runs a shard worker until the process is killed: start the
/// [`ShardServer`], then park. Never returns `Ok` — the supervisor ends
/// workers with SIGKILL; a graceful return only happens on startup
/// failure.
///
/// # Errors
///
/// Any [`ShardServer::start`] failure.
#[cfg(unix)]
pub fn worker_main(opts: ShardOptions) -> io::Result<std::convert::Infallible> {
    let _server = ShardServer::start(opts)?;
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

/// Self-reexec hook: when the process argv carries [`WORKER_FLAG`],
/// runs the shard worker and returns its exit code (never on success —
/// the worker parks until killed); returns `None` when this invocation
/// is not a worker. Fleet-launching binaries call this first in `main`.
#[cfg(unix)]
pub fn run_worker_if_flagged() -> Option<i32> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some(WORKER_FLAG) {
        return None;
    }
    match parse_worker_args(&args[1..]) {
        Ok(opts) => match worker_main(opts) {
            Ok(never) => match never {},
            Err(e) => {
                eprintln!("shard worker failed to start: {e}");
                Some(1)
            }
        },
        Err(usage) => {
            eprintln!("shard worker: {usage}");
            Some(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_args_parse_full_and_minimal() {
        let to_vec = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let opts = parse_worker_args(&to_vec(
            "--socket /tmp/s.sock --registry /tmp/reg --shard-index 2 --shard-count 4 \
             --keep 3 --workers 1 --max-batch 16 --max-wait-us 50 --queue-capacity 99",
        ))
        .unwrap();
        assert_eq!(opts.socket, PathBuf::from("/tmp/s.sock"));
        assert_eq!(opts.spec, ShardSpec::new(2, 4).unwrap());
        assert_eq!(opts.keep, 3);
        assert_eq!(opts.config.workers, 1);
        assert_eq!(opts.config.batch.max_batch, 16);
        assert_eq!(opts.config.batch.max_wait_us, 50);
        assert_eq!(opts.config.batch.queue_capacity, 99);

        let minimal = parse_worker_args(&to_vec("--socket /a --registry /b")).unwrap();
        assert_eq!(minimal.spec, ShardSpec::single());

        assert!(parse_worker_args(&to_vec("--registry /b")).is_err());
        assert!(parse_worker_args(&to_vec("--socket /a --registry /b --bogus 1")).is_err());
        assert!(parse_worker_args(&to_vec(
            "--socket /a --registry /b --shard-index 4 --shard-count 4"
        ))
        .is_err());
    }

    #[test]
    fn worker_args_round_trip_through_to_args() {
        let mut opts = ShardOptions {
            socket: PathBuf::from("/tmp/fleet/shard-2.sock"),
            registry_root: PathBuf::from("/tmp/fleet/models"),
            spec: ShardSpec::new(2, 3).unwrap(),
            keep: 7,
            config: ServeConfig {
                batch: crate::BatchConfig {
                    max_batch: 16,
                    max_wait_us: 250,
                    queue_capacity: 99,
                },
                workers: 3,
            },
            session_dir: Some(PathBuf::from("/tmp/fleet/sessions")),
        };
        assert_eq!(parse_worker_args(&opts.to_args()), Ok(opts.clone()));
        opts.session_dir = None;
        assert_eq!(parse_worker_args(&opts.to_args()), Ok(opts.clone()));
        let single = ShardOptions::single("/a.sock", "/models");
        assert_eq!(parse_worker_args(&single.to_args()), Ok(single));
    }

    #[test]
    fn request_frames_round_trip() {
        let requests = [
            ShardRequest::Predict {
                workload: "mcf".to_string(),
                config: vec![0.25, -1.5, f64::from_bits(0x7ff8_0000_0000_0001)],
                timeout_us: 1_500,
            },
            ShardRequest::Predict {
                workload: String::new(),
                config: vec![],
                timeout_us: 0,
            },
            ShardRequest::Workloads,
            ShardRequest::OpenSession(session::SessionSpec {
                workload: "astar".to_string(),
                seed: 7,
                initial_samples: 64,
                refinement_rounds: 3,
                beam: 4,
                round_timeout_us: 250_000,
            }),
            ShardRequest::StepSession {
                workload: "astar".to_string(),
                session: 0xABCD,
                round: 2,
            },
            ShardRequest::CloseSession {
                workload: "astar".to_string(),
                session: 0xABCD,
            },
        ];
        for request in requests {
            let wire = request.encode().unwrap();
            let back = ShardRequest::decode(&wire).unwrap();
            // NaN payloads defeat PartialEq; compare the re-encoding,
            // which is bit-exact by construction.
            assert_eq!(back.encode().unwrap(), wire);
        }
    }

    #[test]
    fn reply_frames_round_trip() {
        let replies = [
            ShardReply::Value(WirePrediction {
                value_bits: 0.125f64.to_bits(),
                generation: 3,
                batch_size: 8,
                trace_id: 42,
                shard: 1,
            }),
            ShardReply::Workloads(vec![
                WorkloadInfo {
                    name: "mcf".to_string(),
                    fingerprint: 0xdead_beef,
                    generation: 2,
                },
                WorkloadInfo {
                    name: "gcc".to_string(),
                    fingerprint: 7,
                    generation: 1,
                },
            ]),
            ShardReply::Workloads(vec![]),
            ShardReply::SessionOpened(session::OpenInfo {
                session_id: 99,
                fingerprint: 0xF00D,
                rounds_done: 1,
                rounds_total: 4,
                resumed: true,
            }),
            ShardReply::SessionDelta {
                session: 99,
                report: session::RoundReport {
                    round: 2,
                    done: false,
                    hypervolume: 1.5,
                    proposed: 10,
                    predicted: 6,
                    cache_hits: 3,
                    shed: 1,
                    added: vec![metadse::explorer::ParetoEntry {
                        point: metadse_sim::ConfigPoint::new(vec![1, 2, 3]),
                        ipc: 2.25,
                        power: 4.5,
                    }],
                    removed: vec![metadse_sim::ConfigPoint::new(vec![0, 0, 7])],
                },
            },
            ShardReply::SessionClosed(true),
            ShardReply::Error(ShardError::new(ErrorCode::Shed, "queue full")),
            ShardReply::Error(ShardError::new(ErrorCode::Unavailable, "")),
        ];
        for reply in replies {
            let wire = reply.encode().unwrap();
            assert_eq!(ShardReply::decode(&wire).unwrap(), reply);
        }
    }

    #[test]
    fn malformed_frames_are_errors_not_panics() {
        assert!(ShardRequest::decode(b"").is_err());
        assert!(ShardRequest::decode(b"Z").is_err());
        assert!(ShardReply::decode(&[b'E', 99, 0, 0]).is_err());
        // Truncated at every prefix of a valid predict frame.
        let wire = ShardRequest::Predict {
            workload: "w".to_string(),
            config: vec![1.0, 2.0],
            timeout_us: 9,
        }
        .encode()
        .unwrap();
        for cut in 0..wire.len() {
            assert!(ShardRequest::decode(&wire[..cut]).is_err(), "cut {cut}");
        }
        // Trailing garbage is rejected, not silently ignored.
        let mut padded = wire.clone();
        padded.push(0);
        assert!(ShardRequest::decode(&padded).is_err());
    }

    /// A count claiming `u32::MAX` points, entries, list items or string
    /// bytes is `InvalidData` before it sizes an allocation.
    #[test]
    fn counts_beyond_the_frame_are_invalid_data() {
        let invalid = |frame: &[u8]| ShardReply::decode(frame).unwrap_err().kind();
        let delta = ShardReply::SessionDelta {
            session: 1,
            report: session::RoundReport::default(),
        }
        .encode()
        .unwrap();
        // The frame ends with the `added` and `removed` counts.
        let head = &delta[..delta.len() - 8];
        let max = u32::MAX.to_le_bytes();
        let zero = 0u32.to_le_bytes();
        let one_entry = [head, &1u32.to_le_bytes(), &max, &[0u8; 64]].concat();
        for frame in [
            [head, &max, &zero].concat(),
            [head, &zero, &max].concat(),
            one_entry,
            [&[b'L'][..], &max].concat(),
            [&[b'E', ErrorCode::Shed as u8][..], &max].concat(),
        ] {
            assert_eq!(invalid(&frame), io::ErrorKind::InvalidData);
        }
        let workload = [&[b'S'][..], &max, &[0u8; 16]].concat();
        assert_eq!(
            ShardRequest::decode(&workload).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    #[test]
    fn encode_refuses_a_payload_over_max_frame() {
        let request = ShardRequest::Predict {
            workload: "mcf".to_string(),
            config: vec![0.5; MAX_FRAME / 8],
            timeout_us: 0,
        };
        assert_eq!(
            request.encode().unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
        let reply = ShardReply::Error(ShardError::new(ErrorCode::Shed, "x".repeat(MAX_FRAME)));
        assert_eq!(
            reply.encode().unwrap_err().kind(),
            io::ErrorKind::InvalidInput
        );
    }

    #[test]
    fn error_codes_map_retry_policy() {
        for (code, retryable) in [
            (ErrorCode::Shed, true),
            (ErrorCode::Closed, true),
            (ErrorCode::Unavailable, true),
            (ErrorCode::DeadlineMiss, false),
            (ErrorCode::UnknownWorkload, false),
            (ErrorCode::BadArity, false),
            (ErrorCode::Artifact, false),
            (ErrorCode::BadRequest, false),
            (ErrorCode::UnknownSession, false),
        ] {
            assert_eq!(ShardError::new(code, "x").retryable(), retryable);
        }
        let e: ShardError = ServeError::Shed.into();
        assert_eq!(e.code, ErrorCode::Shed);
        let e: ShardError = ServeError::BadArity {
            expected: 6,
            got: 2,
        }
        .into();
        assert_eq!(e.code, ErrorCode::BadArity);
    }

    #[test]
    fn socket_naming_helpers() {
        let dir = Path::new("/tmp/fleet");
        assert_eq!(
            shard_socket(dir, 2),
            PathBuf::from("/tmp/fleet/shard-2.sock")
        );
        assert_eq!(
            intro_socket(&shard_socket(dir, 0)),
            PathBuf::from("/tmp/fleet/shard-0.sock.intro")
        );
    }
}
