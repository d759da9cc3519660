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
//! batched execution, a unix-socket listener speaking the frame codec
//! from [`metadse_obs::frame`], and the standard introspection endpoint
//! at `<socket>.intro` for the supervisor's readiness barrier.
//!
//! ## Wire protocol
//!
//! Every message is one length-prefixed frame (u32-LE, ≤ 1 MiB — the
//! same framing as the introspection plane). Payloads are binary,
//! little-endian, tag-discriminated:
//!
//! ```text
//! request  := 'P' predict   workload:str16 config:vec16<f64-bits>
//!                           timeout_us:u64 (0 = none)
//!           | 'W' workloads (no body)
//!           | 'O' open      workload:str16 seed:u64 initial:u32
//!                           rounds:u32 beam:u32 timeout_us:u64
//!           | 'S' step      workload:str16 session:u64 round:u64
//!           | 'C' close     workload:str16 session:u64
//! reply    := 'V' value     bits:u64 generation:u64 batch:u32
//!                           trace_id:u64 shard:u32
//!           | 'L' list      count:u16 · (name:str16 fp:u64 gen:u64)*
//!           | 'O' opened    session:u64 fp:u64 rounds_done:u64
//!                           rounds_total:u64 resumed:u8
//!           | 'D' delta     session:u64 round:u64 done:u8 hv:f64-bits
//!                           proposed:u32 predicted:u32 hits:u32 shed:u32
//!                           added:vec16<entry> removed:vec16<point>
//!           | 'K' closed    existed:u8
//!           | 'E' error     code:u8 message:str16
//! point    := n:u16 · idx:u16 each; entry := point ipc:u64 power:u64
//! str16    := len:u16-LE bytes; vec16 := len:u16-LE elems
//! ```
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
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use metadse::shard::ShardSpec;
use metadse_obs as obs;
use metadse_obs::frame::{read_frame, write_frame};
use metadse_obs::introspect::{Respond, Response};

use crate::registry::ModelRegistry;
use crate::server::{Prediction, ServeConfig, ServeError, Server};

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

impl From<crate::session::SessionError> for ShardError {
    fn from(e: crate::session::SessionError) -> ShardError {
        use crate::session::SessionError;
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
    OpenSession(crate::session::SessionSpec),
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
    SessionOpened(crate::session::OpenInfo),
    /// One round's incremental front delta.
    SessionDelta {
        /// Session the round belongs to.
        session: u64,
        /// The round's report (delta, hypervolume, accounting).
        report: crate::session::RoundReport,
    },
    /// Session closed; whether it was open here.
    SessionClosed(bool),
    /// Typed failure.
    Error(ShardError),
}

fn put_point16(out: &mut Vec<u8>, point: &metadse_sim::ConfigPoint) -> io::Result<()> {
    let indices = point.indices();
    let len = u16::try_from(indices.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "point exceeds u16 length"))?;
    out.extend_from_slice(&len.to_le_bytes());
    for &i in indices {
        let idx = u16::try_from(i)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "index exceeds u16"))?;
        out.extend_from_slice(&idx.to_le_bytes());
    }
    Ok(())
}

fn put_entry16(out: &mut Vec<u8>, entry: &metadse::explorer::ParetoEntry) -> io::Result<()> {
    put_point16(out, &entry.point)?;
    out.extend_from_slice(&entry.ipc.to_bits().to_le_bytes());
    out.extend_from_slice(&entry.power.to_bits().to_le_bytes());
    Ok(())
}

fn put_str16(out: &mut Vec<u8>, s: &str) -> io::Result<()> {
    let len = u16::try_from(s.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "string exceeds u16 length"))?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Sequential decoder over one frame payload; every read is
/// bounds-checked so a malformed frame is an error, never a panic.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        let Some(end) = end else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame payload truncated",
            ));
        };
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str16(&mut self) -> io::Result<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    fn point16(&mut self) -> io::Result<metadse_sim::ConfigPoint> {
        let n = self.u16()? as usize;
        let mut indices = Vec::with_capacity(n);
        for _ in 0..n {
            indices.push(self.u16()? as usize);
        }
        Ok(metadse_sim::ConfigPoint::new(indices))
    }

    fn entry16(&mut self) -> io::Result<metadse::explorer::ParetoEntry> {
        let point = self.point16()?;
        let ipc = f64::from_bits(self.u64()?);
        let power = f64::from_bits(self.u64()?);
        Ok(metadse::explorer::ParetoEntry { point, ipc, power })
    }

    fn finish(self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "trailing bytes after message",
            ))
        }
    }
}

impl ShardRequest {
    /// Serializes to one frame payload.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when a workload name or configuration exceeds the
    /// u16 length fields.
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        match self {
            ShardRequest::Predict {
                workload,
                config,
                timeout_us,
            } => {
                out.push(b'P');
                put_str16(&mut out, workload)?;
                let len = u16::try_from(config.len()).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidInput, "config exceeds u16 length")
                })?;
                out.extend_from_slice(&len.to_le_bytes());
                for v in config {
                    out.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                out.extend_from_slice(&timeout_us.to_le_bytes());
            }
            ShardRequest::Workloads => out.push(b'W'),
            ShardRequest::OpenSession(spec) => {
                out.push(b'O');
                put_str16(&mut out, &spec.workload)?;
                out.extend_from_slice(&spec.seed.to_le_bytes());
                out.extend_from_slice(&spec.initial_samples.to_le_bytes());
                out.extend_from_slice(&spec.refinement_rounds.to_le_bytes());
                out.extend_from_slice(&spec.beam.to_le_bytes());
                out.extend_from_slice(&spec.round_timeout_us.to_le_bytes());
            }
            ShardRequest::StepSession {
                workload,
                session,
                round,
            } => {
                out.push(b'S');
                put_str16(&mut out, workload)?;
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&round.to_le_bytes());
            }
            ShardRequest::CloseSession { workload, session } => {
                out.push(b'C');
                put_str16(&mut out, workload)?;
                out.extend_from_slice(&session.to_le_bytes());
            }
        }
        Ok(out)
    }

    /// Parses one frame payload.
    ///
    /// # Errors
    ///
    /// `InvalidData` on unknown tags, truncation, or trailing bytes.
    pub fn decode(payload: &[u8]) -> io::Result<ShardRequest> {
        let mut c = Cursor::new(payload);
        let request = match c.u8()? {
            b'P' => {
                let workload = c.str16()?;
                let n = c.u16()? as usize;
                let mut config = Vec::with_capacity(n);
                for _ in 0..n {
                    config.push(f64::from_bits(c.u64()?));
                }
                ShardRequest::Predict {
                    workload,
                    config,
                    timeout_us: c.u64()?,
                }
            }
            b'W' => ShardRequest::Workloads,
            b'O' => ShardRequest::OpenSession(crate::session::SessionSpec {
                workload: c.str16()?,
                seed: c.u64()?,
                initial_samples: c.u32()?,
                refinement_rounds: c.u32()?,
                beam: c.u32()?,
                round_timeout_us: c.u64()?,
            }),
            b'S' => ShardRequest::StepSession {
                workload: c.str16()?,
                session: c.u64()?,
                round: c.u64()?,
            },
            b'C' => ShardRequest::CloseSession {
                workload: c.str16()?,
                session: c.u64()?,
            },
            tag => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown request tag {tag:#04x}"),
                ))
            }
        };
        c.finish()?;
        Ok(request)
    }
}

impl ShardReply {
    /// Serializes to one frame payload.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when a name or message exceeds the u16 length
    /// fields.
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        match self {
            ShardReply::Value(p) => {
                out.push(b'V');
                out.extend_from_slice(&p.value_bits.to_le_bytes());
                out.extend_from_slice(&p.generation.to_le_bytes());
                out.extend_from_slice(&p.batch_size.to_le_bytes());
                out.extend_from_slice(&p.trace_id.to_le_bytes());
                out.extend_from_slice(&p.shard.to_le_bytes());
            }
            ShardReply::Workloads(list) => {
                out.push(b'L');
                let len = u16::try_from(list.len()).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidInput, "workload list exceeds u16")
                })?;
                out.extend_from_slice(&len.to_le_bytes());
                for w in list {
                    put_str16(&mut out, &w.name)?;
                    out.extend_from_slice(&w.fingerprint.to_le_bytes());
                    out.extend_from_slice(&w.generation.to_le_bytes());
                }
            }
            ShardReply::SessionOpened(info) => {
                out.push(b'O');
                out.extend_from_slice(&info.session_id.to_le_bytes());
                out.extend_from_slice(&info.fingerprint.to_le_bytes());
                out.extend_from_slice(&info.rounds_done.to_le_bytes());
                out.extend_from_slice(&info.rounds_total.to_le_bytes());
                out.push(u8::from(info.resumed));
            }
            ShardReply::SessionDelta { session, report } => {
                out.push(b'D');
                out.extend_from_slice(&session.to_le_bytes());
                out.extend_from_slice(&report.round.to_le_bytes());
                out.push(u8::from(report.done));
                out.extend_from_slice(&report.hypervolume.to_bits().to_le_bytes());
                out.extend_from_slice(&report.proposed.to_le_bytes());
                out.extend_from_slice(&report.predicted.to_le_bytes());
                out.extend_from_slice(&report.cache_hits.to_le_bytes());
                out.extend_from_slice(&report.shed.to_le_bytes());
                let added = u16::try_from(report.added.len()).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidInput, "delta added exceeds u16")
                })?;
                out.extend_from_slice(&added.to_le_bytes());
                for entry in &report.added {
                    put_entry16(&mut out, entry)?;
                }
                let removed = u16::try_from(report.removed.len()).map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidInput, "delta removed exceeds u16")
                })?;
                out.extend_from_slice(&removed.to_le_bytes());
                for point in &report.removed {
                    put_point16(&mut out, point)?;
                }
            }
            ShardReply::SessionClosed(existed) => {
                out.push(b'K');
                out.push(u8::from(*existed));
            }
            ShardReply::Error(e) => {
                out.push(b'E');
                out.push(e.code as u8);
                put_str16(&mut out, &e.message)?;
            }
        }
        Ok(out)
    }

    /// Parses one frame payload.
    ///
    /// # Errors
    ///
    /// `InvalidData` on unknown tags or codes, truncation, or trailing
    /// bytes.
    pub fn decode(payload: &[u8]) -> io::Result<ShardReply> {
        let mut c = Cursor::new(payload);
        let reply = match c.u8()? {
            b'V' => ShardReply::Value(WirePrediction {
                value_bits: c.u64()?,
                generation: c.u64()?,
                batch_size: c.u32()?,
                trace_id: c.u64()?,
                shard: c.u32()?,
            }),
            b'L' => {
                let n = c.u16()? as usize;
                let mut list = Vec::with_capacity(n);
                for _ in 0..n {
                    list.push(WorkloadInfo {
                        name: c.str16()?,
                        fingerprint: c.u64()?,
                        generation: c.u64()?,
                    });
                }
                ShardReply::Workloads(list)
            }
            b'O' => ShardReply::SessionOpened(crate::session::OpenInfo {
                session_id: c.u64()?,
                fingerprint: c.u64()?,
                rounds_done: c.u64()?,
                rounds_total: c.u64()?,
                resumed: c.u8()? != 0,
            }),
            b'D' => {
                let session = c.u64()?;
                let round = c.u64()?;
                let done = c.u8()? != 0;
                let hypervolume = f64::from_bits(c.u64()?);
                let proposed = c.u32()?;
                let predicted = c.u32()?;
                let cache_hits = c.u32()?;
                let shed = c.u32()?;
                let n = c.u16()? as usize;
                let mut added = Vec::with_capacity(n);
                for _ in 0..n {
                    added.push(c.entry16()?);
                }
                let n = c.u16()? as usize;
                let mut removed = Vec::with_capacity(n);
                for _ in 0..n {
                    removed.push(c.point16()?);
                }
                ShardReply::SessionDelta {
                    session,
                    report: crate::session::RoundReport {
                        round,
                        done,
                        hypervolume,
                        proposed,
                        predicted,
                        cache_hits,
                        shed,
                        added,
                        removed,
                    },
                }
            }
            b'K' => ShardReply::SessionClosed(c.u8()? != 0),
            b'E' => {
                let raw = c.u8()?;
                let code = ErrorCode::from_u8(raw).ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("unknown error code {raw}"),
                    )
                })?;
                ShardReply::Error(ShardError {
                    code,
                    message: c.str16()?,
                })
            }
            tag => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown reply tag {tag:#04x}"),
                ))
            }
        };
        c.finish()?;
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

/// Waits for the next frame on a stream whose read timeout is short
/// (the handler's idle poll), returning `Ok(None)` when `stop` was
/// raised while the connection sat idle.
///
/// The idle poll may only fire *between* frames: this reads the first
/// header byte under the short timeout, then switches the stream to a
/// generous per-frame timeout for the remainder, so a slow peer can
/// never desynchronize the framing by straddling a poll boundary.
///
/// # Errors
///
/// Peer hangup (`UnexpectedEof`), oversize frames (`InvalidData`), or
/// any underlying I/O error once a frame has started.
#[cfg(unix)]
pub(crate) fn read_frame_or_stop(
    stream: &mut std::os::unix::net::UnixStream,
    stop: &AtomicBool,
) -> io::Result<Option<Vec<u8>>> {
    use metadse_obs::frame::MAX_FRAME;

    const FRAME_TIMEOUT: Duration = Duration::from_secs(5);

    let mut first = [0u8; 1];
    loop {
        if stop.load(Ordering::Acquire) {
            return Ok(None);
        }
        match stream.read(&mut first) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(_) => break,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(e) => return Err(e),
        }
    }
    stream.set_read_timeout(Some(FRAME_TIMEOUT))?;
    let result = (|| {
        let mut rest = [0u8; 3];
        stream.read_exact(&mut rest)?;
        let len = u32::from_le_bytes([first[0], rest[0], rest[1], rest[2]]) as usize;
        if len > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame of {len} bytes exceeds cap {MAX_FRAME}"),
            ));
        }
        let mut payload = vec![0u8; len];
        stream.read_exact(&mut payload)?;
        Ok(payload)
    })();
    stream.set_read_timeout(Some(IDLE_POLL))?;
    result.map(Some)
}

/// Short read timeout letting connection handlers observe the stop flag
/// while a peer holds the connection open idle.
#[cfg(unix)]
pub(crate) const IDLE_POLL: Duration = Duration::from_millis(100);

// ---------------------------------------------------------------------
// Shard worker runtime
// ---------------------------------------------------------------------

/// Configuration for one shard worker process.
#[derive(Debug, Clone)]
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
    engine: Arc<crate::session::SessionEngine>,
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
    socket: PathBuf,
    spec: ShardSpec,
    registry: Arc<ModelRegistry>,
    server: Option<Arc<Server>>,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    conn_threads: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
    _intro: obs::introspect::Listener,
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
        use std::os::unix::net::UnixListener;

        let registry = Arc::new(ModelRegistry::open_sharded(
            &opts.registry_root,
            opts.keep,
            opts.spec,
        ));
        let server = Arc::new(Server::start(Arc::clone(&registry), opts.config));
        let mut engine_config = crate::session::SessionEngineConfig::from_env();
        if opts.session_dir.is_some() {
            engine_config.dir = opts.session_dir.clone();
        }
        let engine = Arc::new(crate::session::SessionEngine::new(engine_config));
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

        let _ = std::fs::remove_file(&opts.socket);
        let listener = UnixListener::bind(&opts.socket)?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let conn_threads = Arc::new(Mutex::new(Vec::new()));
        let served = Arc::new(AtomicU64::new(0));

        let ctx = Arc::new(ConnContext {
            server: Arc::clone(&server),
            registry: Arc::clone(&registry),
            engine,
            spec: opts.spec,
            stop: Arc::clone(&stop),
            served: Arc::clone(&served),
        });
        let accept_stop = Arc::clone(&stop);
        let accept_conns = Arc::clone(&conn_threads);
        let accept_thread = std::thread::Builder::new()
            .name(format!("metadse-shard-{}", opts.spec.index))
            .spawn(move || accept_loop(&listener, &ctx, &accept_stop, &accept_conns))?;

        obs::report::line(format!(
            "shard {}: serving {} workload(s) on {}",
            opts.spec,
            registry.workloads().len(),
            opts.socket.display()
        ));
        Ok(ShardServer {
            socket: opts.socket,
            spec: opts.spec,
            registry,
            server: Some(server),
            stop,
            accept_thread: Some(accept_thread),
            conn_threads,
            _intro: intro,
            served,
        })
    }

    /// The data-socket path.
    pub fn socket(&self) -> &Path {
        &self.socket
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
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let handles: Vec<_> = self.conn_threads.lock().unwrap().drain(..).collect();
        for t in handles {
            let _ = t.join();
        }
        // Every handler thread (each holding a ConnContext Arc) has
        // been joined, so this is the last `Server` reference; dropping
        // it drains queued requests and joins the worker pool.
        drop(self.server.take());
        let _ = std::fs::remove_file(&self.socket);
    }
}

#[cfg(unix)]
impl Drop for ShardServer {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(unix)]
/// Shared state of every connection-handler thread.
struct ConnContext {
    server: Arc<Server>,
    registry: Arc<ModelRegistry>,
    engine: Arc<crate::session::SessionEngine>,
    spec: ShardSpec,
    stop: Arc<AtomicBool>,
    served: Arc<AtomicU64>,
}

#[cfg(unix)]
fn accept_loop(
    listener: &std::os::unix::net::UnixListener,
    ctx: &Arc<ConnContext>,
    stop: &AtomicBool,
    conns: &Mutex<Vec<std::thread::JoinHandle<()>>>,
) {
    const POLL: Duration = Duration::from_millis(1);
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let ctx = Arc::clone(ctx);
                if let Ok(handle) =
                    std::thread::Builder::new().spawn(move || serve_connection(stream, &ctx))
                {
                    let mut guard = conns.lock().unwrap();
                    // Reap finished handlers so a long-lived shard does
                    // not accumulate dead JoinHandles.
                    guard.retain(|h| !h.is_finished());
                    guard.push(handle);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

#[cfg(unix)]
fn serve_connection(mut stream: std::os::unix::net::UnixStream, ctx: &ConnContext) {
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    loop {
        let payload = match read_frame_or_stop(&mut stream, &ctx.stop) {
            Ok(Some(p)) => p,
            // Stop raised while idle, peer hung up, or the stream died.
            Ok(None) | Err(_) => return,
        };
        let reply = match ShardRequest::decode(&payload) {
            Ok(request) => handle_request(ctx, request),
            Err(e) => ShardReply::Error(ShardError::new(
                ErrorCode::BadRequest,
                format!("bad request frame: {e}"),
            )),
        };
        let Ok(encoded) = reply.encode() else { return };
        if write_frame(&mut stream, &encoded).is_err() {
            return;
        }
    }
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
            ShardRequest::OpenSession(crate::session::SessionSpec {
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
            ShardReply::SessionOpened(crate::session::OpenInfo {
                session_id: 99,
                fingerprint: 0xF00D,
                rounds_done: 1,
                rounds_total: 4,
                resumed: true,
            }),
            ShardReply::SessionDelta {
                session: 99,
                report: crate::session::RoundReport {
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
