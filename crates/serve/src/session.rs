//! Multi-tenant online DSE exploration sessions.
//!
//! The paper's end goal is a design-space *search*, not one prediction;
//! this module closes that loop as a service. Each tenant opens a
//! session bound to a workload (and thereby to the fingerprint of the
//! model generation serving it) and drives propose → batched-predict →
//! front-update rounds through [`SessionEngine::step`], receiving an
//! incremental Pareto-front delta per round. The exploration cursor is
//! the resumable [`Explorer`] stepper from `metadse::explorer`, so a
//! session killed between rounds resumes bit-identically.
//!
//! # Determinism contract
//!
//! For a fixed [`SessionSpec`], the sequence of round deltas — and
//! therefore the final front — is a pure function of the spec and the
//! served model generation. Concurrency, cache hits, checkpoint/resume,
//! and even re-executed rounds after a lost checkpoint cannot change
//! it, because:
//!
//! - the RNG stream words are part of the session state ([`Explorer`]
//!   owns no hidden randomness),
//! - point objectives travel as `f64` bit patterns, and the serving
//!   plans are bit-stable per row regardless of batch composition,
//! - the archive is extended in proposal order, so the stable sort
//!   inside `pareto_front` breaks ties identically everywhere,
//! - rounds are executed at-most-once: a re-step of the last completed
//!   round replays the stored delta instead of re-running it.
//!
//! # Dedup point cache
//!
//! The [`PointCache`] is shared by every session on a shard and keyed
//! `(fingerprint, config point)`: no design point is predicted twice
//! fleet-wide (sessions for a workload all route to the same shard).
//! Claiming is exactly-once: the first session to propose a point owns
//! its prediction; concurrent proposers of the same in-flight point
//! *block* on the owner's result rather than duplicate-predict.
//! Deadlock-freedom holds because every session resolves all the points
//! it owns **before** blocking on points owned by others. A hot-swapped
//! model generation purges exactly its old fingerprint's entries.
//!
//! # Checkpoints
//!
//! Session state rides the same generation store as training
//! checkpoints: a sealed (`MDSESESS`) payload written through
//! [`GenerationStore::save_bytes`] — durable once it returns, generation
//! rotation, corrupt-fallback on load. A round is checkpointed *before*
//! its delta is returned, so a kill or a power loss at any instant loses
//! at most one unacknowledged round, which the client's retry
//! re-executes deterministically.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use metadse::checkpoint::{CkptIo, GenerationStore, StdIo};
use metadse::explorer::{
    front_delta, hypervolume, Explorer, ExplorerConfig, ExplorerState, ParetoEntry,
};
use metadse_nn::format::{fnv1a, seal, unseal, ByteReader, ByteWriter, FormatError};
use metadse_nn::serialize::CheckpointError;
use metadse_obs as obs;
use metadse_sim::{ConfigPoint, DesignSpace};

use crate::server::{ServeError, Server};

const MAGIC: &[u8; 8] = b"MDSESESS";
const VERSION: u32 = 1;

/// Hypervolume reference IPC (maximize objective lower bound).
pub const HV_IPC_REF: f64 = 0.0;
/// Hypervolume reference power (minimize objective upper bound).
pub const HV_POWER_REF: f64 = 32.0;

/// Deterministic analytic power proxy over the normalized feature
/// encoding, giving sessions their second objective while the registry
/// serves a single (IPC) model per workload — one prediction per point
/// keeps the exactly-once law clean. Replacing this with a served power
/// head is an open item tracked in DESIGN §3.10.
pub fn power_proxy(encoded: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (i, &x) in encoded.iter().enumerate() {
        let w = 0.35 + 0.1 * ((i % 7) as f64);
        acc = x.mul_add(w, acc);
    }
    1.0 + acc
}

// ---------------------------------------------------------------------------
// Dedup point cache
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Slot {
    /// A session owns the prediction and will fulfil or abandon it.
    InFlight,
    /// The predicted IPC, as bits.
    Ready(u64),
}

/// Outcome of [`PointCache::try_claim`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Claim {
    /// The caller now owns this point and must fulfil or abandon it.
    Owed,
    /// Already predicted; the IPC bits.
    Ready(u64),
    /// Another session owns the in-flight prediction; block on it.
    InFlight,
}

/// Cross-session deduplicating point cache keyed
/// `(model fingerprint, design point)`.
#[derive(Debug, Default)]
pub struct PointCache {
    slots: Mutex<HashMap<u64, HashMap<ConfigPoint, Slot>>>,
    wake: Condvar,
    /// Fulfils that found the slot already `Ready` — i.e. the same
    /// point was predicted twice. The exactly-once law is exactly
    /// "this counter stays zero".
    duplicate_fulfils: AtomicU64,
}

impl PointCache {
    /// An empty cache.
    pub fn new() -> PointCache {
        PointCache::default()
    }

    /// Claims `(fp, point)`: a vacant slot becomes `InFlight` owned by
    /// the caller ([`Claim::Owed`]); otherwise the current state is
    /// reported without blocking.
    pub fn try_claim(&self, fp: u64, point: &ConfigPoint) -> Claim {
        let mut slots = self.slots.lock().unwrap();
        match slots.entry(fp).or_default().entry(point.clone()) {
            std::collections::hash_map::Entry::Occupied(e) => match *e.get() {
                Slot::Ready(bits) => Claim::Ready(bits),
                Slot::InFlight => Claim::InFlight,
            },
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(Slot::InFlight);
                Claim::Owed
            }
        }
    }

    /// Blocks while `(fp, point)` is in flight. `Some(bits)` once the
    /// owner fulfils; `None` when the slot was abandoned (or vanished)
    /// or `timeout` elapsed — either way the caller should re-claim.
    pub fn await_ready(&self, fp: u64, point: &ConfigPoint, timeout: Duration) -> Option<u64> {
        let deadline = std::time::Instant::now() + timeout;
        let mut slots = self.slots.lock().unwrap();
        loop {
            match slots.get(&fp).and_then(|m| m.get(point)) {
                Some(Slot::Ready(bits)) => return Some(*bits),
                None => return None,
                Some(Slot::InFlight) => {}
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, result) = self.wake.wait_timeout(slots, deadline - now).unwrap();
            slots = guard;
            if result.timed_out() {
                match slots.get(&fp).and_then(|m| m.get(point)) {
                    Some(Slot::Ready(bits)) => return Some(*bits),
                    _ => return None,
                }
            }
        }
    }

    /// Publishes the predicted bits for `(fp, point)` and wakes
    /// waiters. A slot that was already `Ready` means the point was
    /// predicted twice; that is counted, never silently absorbed.
    pub fn fulfil(&self, fp: u64, point: &ConfigPoint, bits: u64) {
        let mut slots = self.slots.lock().unwrap();
        let prev = slots
            .entry(fp)
            .or_default()
            .insert(point.clone(), Slot::Ready(bits));
        if matches!(prev, Some(Slot::Ready(_))) {
            self.duplicate_fulfils.fetch_add(1, Ordering::Relaxed);
            obs::counter("session/duplicate_predictions", 1);
        }
        drop(slots);
        self.wake.notify_all();
    }

    /// Releases an in-flight claim without a result (shed, deadline
    /// miss) so waiters unblock and a later proposer can retry.
    pub fn abandon(&self, fp: u64, point: &ConfigPoint) {
        let mut slots = self.slots.lock().unwrap();
        if let Some(m) = slots.get_mut(&fp) {
            if m.get(point) == Some(&Slot::InFlight) {
                m.remove(point);
            }
        }
        drop(slots);
        self.wake.notify_all();
    }

    /// Drops every entry of one fingerprint (model hot-swap coherence);
    /// returns how many points were purged. Other fingerprints are
    /// untouched.
    pub fn purge_fingerprint(&self, fp: u64) -> usize {
        let purged = self
            .slots
            .lock()
            .unwrap()
            .remove(&fp)
            .map_or(0, |m| m.len());
        self.wake.notify_all();
        purged
    }

    /// Seeds `Ready` entries (checkpoint restore). Occupied slots win —
    /// a live owner's in-flight claim is never clobbered.
    pub fn restore(&self, fp: u64, entries: &[(ConfigPoint, u64)]) {
        let mut slots = self.slots.lock().unwrap();
        let m = slots.entry(fp).or_default();
        for (point, bits) in entries {
            m.entry(point.clone()).or_insert(Slot::Ready(*bits));
        }
        drop(slots);
        self.wake.notify_all();
    }

    /// The `Ready` entries of one fingerprint, sorted by point indices
    /// for a deterministic checkpoint encoding.
    pub fn ready_entries(&self, fp: u64) -> Vec<(ConfigPoint, u64)> {
        let slots = self.slots.lock().unwrap();
        let mut entries: Vec<(ConfigPoint, u64)> = slots
            .get(&fp)
            .map(|m| {
                m.iter()
                    .filter_map(|(p, s)| match s {
                        Slot::Ready(bits) => Some((p.clone(), *bits)),
                        Slot::InFlight => None,
                    })
                    .collect()
            })
            .unwrap_or_default();
        entries.sort_by(|a, b| a.0.indices().cmp(b.0.indices()));
        entries
    }

    /// Total `Ready` points across all fingerprints.
    pub fn ready_points(&self) -> usize {
        self.slots
            .lock()
            .unwrap()
            .values()
            .map(|m| m.values().filter(|s| matches!(s, Slot::Ready(_))).count())
            .sum()
    }

    /// How often a fulfil found the slot already `Ready` (a duplicate
    /// prediction). Zero iff the exactly-once law held.
    pub fn duplicate_fulfils(&self) -> u64 {
        self.duplicate_fulfils.load(Ordering::Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Session spec / state / round report
// ---------------------------------------------------------------------------

/// Everything that identifies a session. Opening the same spec twice is
/// idempotent: the session id is a pure hash of the spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionSpec {
    /// Workload the session explores (routes to that workload's shard).
    pub workload: String,
    /// Exploration RNG seed.
    pub seed: u64,
    /// Initial random sweep size.
    pub initial_samples: u32,
    /// Hill-climbing rounds after the sweep.
    pub refinement_rounds: u32,
    /// Front entries expanded per refinement round.
    pub beam: u32,
    /// Per-round prediction deadline in microseconds; `0` uses the
    /// engine default. Requests past the deadline shed gracefully via
    /// the batcher's existing admission control.
    pub round_timeout_us: u64,
}

impl SessionSpec {
    /// The session id: a stable FNV-1a hash of the spec, so re-opening
    /// after a reconnect (or crash) lands on the same session.
    pub fn session_id(&self) -> u64 {
        let mut w = ByteWriter::new();
        put_spec(&mut w, self);
        fnv1a(&w.into_bytes())
    }

    fn explorer_config(&self) -> ExplorerConfig {
        ExplorerConfig {
            initial_samples: self.initial_samples as usize,
            refinement_rounds: self.refinement_rounds as usize,
            beam: self.beam as usize,
            seed: self.seed,
        }
    }
}

/// Reply to a successful open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenInfo {
    /// The session id ([`SessionSpec::session_id`]).
    pub session_id: u64,
    /// Fingerprint of the model generation the session is bound to.
    pub fingerprint: u64,
    /// Rounds already completed (> 0 when an existing or checkpointed
    /// session was picked up).
    pub rounds_done: u64,
    /// Total rounds the spec will run.
    pub rounds_total: u64,
    /// Whether state was resumed from a checkpoint.
    pub resumed: bool,
}

/// One round's incremental result: the front delta plus accounting.
/// `proposed == predicted + cache_hits + shed` holds per round.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoundReport {
    /// 1-based round number this report describes.
    pub round: u64,
    /// True once the exploration budget is exhausted.
    pub done: bool,
    /// Hypervolume of the front after this round, against the fixed
    /// ([`HV_IPC_REF`], [`HV_POWER_REF`]) reference point.
    pub hypervolume: f64,
    /// Fresh (never-seen) points proposed this round.
    pub proposed: u32,
    /// Points this session predicted itself.
    pub predicted: u32,
    /// Points resolved from the dedup cache (ready or another
    /// session's in-flight prediction).
    pub cache_hits: u32,
    /// Points dropped on deadline/shed — excluded from the archive.
    pub shed: u32,
    /// Entries that joined the front this round.
    pub added: Vec<ParetoEntry>,
    /// Points that left the front this round.
    pub removed: Vec<ConfigPoint>,
}

/// Complete session state at a round boundary — the checkpoint payload.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionState {
    /// The opening spec (identity; resume refuses a mismatch).
    pub spec: SessionSpec,
    /// Model fingerprint the session was last bound to.
    pub fingerprint: u64,
    /// The exploration cursor (RNG words, round, seen set, archive).
    pub explorer: ExplorerState,
    /// Lifetime predictions issued by this session.
    pub predictions: u64,
    /// Lifetime cache hits.
    pub cache_hits: u64,
    /// Lifetime shed points.
    pub shed: u64,
    /// Lifetime fresh points proposed.
    pub proposed: u64,
    /// The last completed round's report (replayed on a duplicate
    /// step after e.g. a lost reply).
    pub last_report: Option<RoundReport>,
    /// `Ready` dedup-cache entries of this session's fingerprint,
    /// restored on resume so exactly-once spans a crash.
    pub cache_entries: Vec<(ConfigPoint, u64)>,
}

// The one encoding of each session type, shared by the `MDSESESS`
// checkpoint and the shard wire (`crate::shard`). Every count is read
// through `ByteReader::count`, which checks it against the bytes left
// before it sizes an allocation: wire frames carry no checksum.

/// `point := n:u32 · idx:u32*`.
fn put_point(w: &mut ByteWriter, point: &ConfigPoint) {
    let indices = point.indices();
    w.u32(indices.len() as u32);
    for &i in indices {
        w.u32(i as u32);
    }
}

fn get_point(r: &mut ByteReader) -> Result<ConfigPoint, FormatError> {
    let n = r.count(4)?;
    let mut indices = Vec::with_capacity(n);
    for _ in 0..n {
        indices.push(r.u32()? as usize);
    }
    Ok(ConfigPoint::new(indices))
}

fn put_points(w: &mut ByteWriter, points: &[ConfigPoint]) {
    w.u32(points.len() as u32);
    for p in points {
        put_point(w, p);
    }
}

fn get_points(r: &mut ByteReader) -> Result<Vec<ConfigPoint>, FormatError> {
    let n = r.count(4)?;
    (0..n).map(|_| get_point(r)).collect()
}

/// `entries := n:u32 · (point ipc:f64 power:f64)*`.
fn put_entries(w: &mut ByteWriter, entries: &[ParetoEntry]) {
    w.u32(entries.len() as u32);
    for e in entries {
        put_point(w, &e.point);
        w.f64(e.ipc);
        w.f64(e.power);
    }
}

fn get_entries(r: &mut ByteReader) -> Result<Vec<ParetoEntry>, FormatError> {
    let n = r.count(4 + 16)?;
    (0..n)
        .map(|_| {
            Ok(ParetoEntry {
                point: get_point(r)?,
                ipc: r.f64()?,
                power: r.f64()?,
            })
        })
        .collect()
}

/// `spec := workload:str seed:u64 initial:u32 rounds:u32 beam:u32
/// timeout_us:u64` — also the bytes [`SessionSpec::session_id`] hashes.
pub(crate) fn put_spec(w: &mut ByteWriter, spec: &SessionSpec) {
    w.str(&spec.workload);
    w.u64(spec.seed);
    w.u32(spec.initial_samples);
    w.u32(spec.refinement_rounds);
    w.u32(spec.beam);
    w.u64(spec.round_timeout_us);
}

pub(crate) fn get_spec(r: &mut ByteReader) -> Result<SessionSpec, FormatError> {
    Ok(SessionSpec {
        workload: r.str()?,
        seed: r.u64()?,
        initial_samples: r.u32()?,
        refinement_rounds: r.u32()?,
        beam: r.u32()?,
        round_timeout_us: r.u64()?,
    })
}

/// `report := round:u64 done:u32 hv:f64 proposed:u32 predicted:u32
/// hits:u32 shed:u32 added:entries removed:(n:u32 · point*)`.
pub(crate) fn put_report(w: &mut ByteWriter, report: &RoundReport) {
    w.u64(report.round);
    w.u32(u32::from(report.done));
    w.f64(report.hypervolume);
    w.u32(report.proposed);
    w.u32(report.predicted);
    w.u32(report.cache_hits);
    w.u32(report.shed);
    put_entries(w, &report.added);
    put_points(w, &report.removed);
}

pub(crate) fn get_report(r: &mut ByteReader) -> Result<RoundReport, FormatError> {
    Ok(RoundReport {
        round: r.u64()?,
        done: r.u32()? != 0,
        hypervolume: r.f64()?,
        proposed: r.u32()?,
        predicted: r.u32()?,
        cache_hits: r.u32()?,
        shed: r.u32()?,
        added: get_entries(r)?,
        removed: get_points(r)?,
    })
}

/// Encodes a [`SessionState`] into a sealed `MDSESESS` container
/// (checksummed; every `f64` travels as its exact bit pattern).
pub fn encode_session(state: &SessionState) -> Vec<u8> {
    let mut w = ByteWriter::new();
    put_spec(&mut w, &state.spec);
    w.u64(state.fingerprint);
    for word in state.explorer.rng {
        w.u64(word);
    }
    w.u64(state.explorer.rounds_done);
    put_points(&mut w, &state.explorer.seen);
    put_entries(&mut w, &state.explorer.archive);
    w.u64(state.predictions);
    w.u64(state.cache_hits);
    w.u64(state.shed);
    w.u64(state.proposed);
    match &state.last_report {
        Some(report) => {
            w.u32(1);
            put_report(&mut w, report);
        }
        None => w.u32(0),
    }
    w.u32(state.cache_entries.len() as u32);
    for (p, bits) in &state.cache_entries {
        put_point(&mut w, p);
        w.u64(*bits);
    }
    seal(MAGIC, VERSION, &w.into_bytes())
}

/// Decodes a sealed session checkpoint, rejecting bad checksums, wrong
/// versions, truncation, and trailing bytes.
///
/// # Errors
///
/// [`CheckpointError::Format`] on any integrity or layout violation.
pub fn decode_session(bytes: &[u8]) -> Result<SessionState, CheckpointError> {
    let (version, payload) = unseal(MAGIC, bytes)?;
    if version != VERSION {
        return Err(CheckpointError::Format(format!(
            "unsupported session state version {version}"
        )));
    }
    let mut r = ByteReader::new(payload);
    let spec = get_spec(&mut r)?;
    let fingerprint = r.u64()?;
    let mut rng = [0u64; 4];
    for word in &mut rng {
        *word = r.u64()?;
    }
    let rounds_done = r.u64()?;
    let seen = get_points(&mut r)?;
    let archive = get_entries(&mut r)?;
    let predictions = r.u64()?;
    let cache_hits = r.u64()?;
    let shed = r.u64()?;
    let proposed = r.u64()?;
    let last_report = match r.u32()? {
        0 => None,
        1 => Some(get_report(&mut r)?),
        tag => {
            return Err(CheckpointError::Format(format!(
                "bad last-report tag {tag}"
            )))
        }
    };
    let n = r.count(4 + 8)?;
    let mut cache_entries = Vec::with_capacity(n);
    for _ in 0..n {
        let p = get_point(&mut r)?;
        let bits = r.u64()?;
        cache_entries.push((p, bits));
    }
    if r.remaining() != 0 {
        return Err(CheckpointError::Format(format!(
            "{} trailing bytes after session state",
            r.remaining()
        )));
    }
    Ok(SessionState {
        spec,
        fingerprint,
        explorer: ExplorerState {
            rng,
            rounds_done,
            seen,
            archive,
        },
        predictions,
        cache_hits,
        shed,
        proposed,
        last_report,
        cache_entries,
    })
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Session-layer failures, kept separate from [`ServeError`] so the
/// wire layer can map protocol misuse to `BadRequest` rather than a
/// serving fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// No model is registered for the workload.
    UnknownWorkload(String),
    /// The session id is not open here and no checkpoint was found.
    UnknownSession(u64),
    /// The step's round number does not match the protocol (must be
    /// `rounds_done` to replay or `rounds_done + 1` to advance).
    BadRound {
        /// The next round the session would execute.
        expected: u64,
        /// The round the client asked for.
        got: u64,
    },
    /// The session is already complete; no further rounds exist.
    Exhausted,
    /// The step's workload does not match the session's.
    WorkloadMismatch,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::UnknownWorkload(w) => write!(f, "unknown workload '{w}'"),
            SessionError::UnknownSession(id) => write!(f, "unknown session {id:#018x}"),
            SessionError::BadRound { expected, got } => {
                write!(f, "bad round {got} (next executable round is {expected})")
            }
            SessionError::Exhausted => write!(f, "session exploration budget exhausted"),
            SessionError::WorkloadMismatch => write!(f, "step workload differs from session's"),
        }
    }
}

impl std::error::Error for SessionError {}

/// Where and how the engine persists session state.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionEngineConfig {
    /// Checkpoint root; each session writes generations under
    /// `<dir>/session-<id:016x>/`. `None` keeps sessions in memory
    /// only (a killed shard then loses them).
    pub dir: Option<PathBuf>,
    /// Checkpoint generations to retain per session.
    pub keep: usize,
    /// Round prediction deadline when the spec leaves it 0.
    pub default_round_timeout: Duration,
}

impl Default for SessionEngineConfig {
    fn default() -> Self {
        SessionEngineConfig {
            dir: None,
            keep: 3,
            default_round_timeout: Duration::from_secs(5),
        }
    }
}

impl SessionEngineConfig {
    /// Reads the environment: `METADSE_SESSION_DIR` enables
    /// checkpointing, `METADSE_SESSION_CKPT_KEEP` sets retention,
    /// `METADSE_SESSION_ROUND_TIMEOUT_US` the default round deadline.
    pub fn from_env() -> SessionEngineConfig {
        let mut config = SessionEngineConfig::default();
        if let Ok(dir) = std::env::var("METADSE_SESSION_DIR") {
            if !dir.is_empty() {
                config.dir = Some(PathBuf::from(dir));
            }
        }
        if let Some(keep) = std::env::var("METADSE_SESSION_CKPT_KEEP")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            config.keep = keep;
        }
        if let Some(us) = std::env::var("METADSE_SESSION_ROUND_TIMEOUT_US")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            config.default_round_timeout = Duration::from_micros(us);
        }
        config
    }
}

struct Session {
    spec: SessionSpec,
    fingerprint: u64,
    explorer: Explorer,
    space: DesignSpace,
    predictions: u64,
    cache_hits: u64,
    shed: u64,
    proposed: u64,
    last_report: Option<RoundReport>,
    ckpt: Option<GenerationStore>,
}

/// Per-shard session runtime: owns the open sessions, the shared
/// [`PointCache`], and the checkpoint plumbing. Prediction itself is
/// delegated to the [`Server`] passed into each call, so sessions ride
/// the same batching, deadlines, and hot-swap path as plain predicts.
pub struct SessionEngine {
    config: SessionEngineConfig,
    cache: PointCache,
    sessions: Mutex<HashMap<u64, Arc<Mutex<Session>>>>,
    opened: AtomicU64,
    resumed: AtomicU64,
    rounds: AtomicU64,
    checkpoints: AtomicU64,
    swap_purged: AtomicU64,
    /// Session checkpoints' IO ([`StdIo`]; fault injection in tests).
    io: Arc<dyn CkptIo>,
}

impl std::fmt::Debug for SessionEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionEngine")
            .field("config", &self.config)
            .field("active", &self.active())
            .finish()
    }
}

impl SessionEngine {
    /// An engine over `config`.
    pub fn new(config: SessionEngineConfig) -> SessionEngine {
        SessionEngine {
            config,
            io: Arc::new(StdIo),
            cache: PointCache::new(),
            sessions: Mutex::new(HashMap::new()),
            opened: AtomicU64::new(0),
            resumed: AtomicU64::new(0),
            rounds: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            swap_purged: AtomicU64::new(0),
        }
    }

    /// An engine configured from `METADSE_SESSION_*`.
    pub fn from_env() -> SessionEngine {
        SessionEngine::new(SessionEngineConfig::from_env())
    }

    /// The shared dedup point cache.
    pub fn cache(&self) -> &PointCache {
        &self.cache
    }

    /// Open sessions currently held in memory.
    pub fn active(&self) -> usize {
        self.sessions.lock().unwrap().len()
    }

    fn store_for(&self, session_id: u64) -> Option<GenerationStore> {
        let dir = self.config.dir.as_ref()?;
        Some(GenerationStore::new(
            dir.join(format!("session-{session_id:016x}")),
            "ckpt",
            "ckpt",
            self.config.keep,
            self.io.clone(),
        ))
    }

    fn install(&self, session_id: u64, session: Session) -> Arc<Mutex<Session>> {
        let handle = Arc::new(Mutex::new(session));
        self.sessions
            .lock()
            .unwrap()
            .entry(session_id)
            .or_insert_with(|| handle.clone())
            .clone()
    }

    /// Tries to rebuild a session from its newest readable checkpoint.
    fn resume_from_disk(&self, session_id: u64) -> Option<Arc<Mutex<Session>>> {
        let mut ckpt = self.store_for(session_id)?;
        let (state, _generation) = ckpt.load_latest_with(decode_session)?;
        if state.spec.session_id() != session_id {
            obs::counter("session/resume_spec_mismatches", 1);
            return None;
        }
        self.cache.restore(state.fingerprint, &state.cache_entries);
        let session = Session {
            explorer: Explorer::from_state(&state.spec.explorer_config(), &state.explorer),
            spec: state.spec,
            fingerprint: state.fingerprint,
            space: DesignSpace::new(),
            predictions: state.predictions,
            cache_hits: state.cache_hits,
            shed: state.shed,
            proposed: state.proposed,
            last_report: state.last_report,
            ckpt: Some(ckpt),
        };
        self.resumed.fetch_add(1, Ordering::Relaxed);
        obs::counter("session/resumed", 1);
        Some(self.install(session_id, session))
    }

    /// Opens (or idempotently re-opens, or resumes from checkpoint)
    /// the session identified by `spec`.
    ///
    /// # Errors
    ///
    /// [`SessionError::UnknownWorkload`] when no model serves the
    /// spec's workload.
    pub fn open(&self, server: &Server, spec: &SessionSpec) -> Result<OpenInfo, SessionError> {
        let session_id = spec.session_id();
        let rounds_total = u64::from(spec.refinement_rounds) + 1;
        if let Some(handle) = self.sessions.lock().unwrap().get(&session_id).cloned() {
            let s = handle.lock().unwrap();
            return Ok(OpenInfo {
                session_id,
                fingerprint: s.fingerprint,
                rounds_done: s.explorer.rounds_done(),
                rounds_total,
                resumed: false,
            });
        }
        if let Some(handle) = self.resume_from_disk(session_id) {
            let s = handle.lock().unwrap();
            return Ok(OpenInfo {
                session_id,
                fingerprint: s.fingerprint,
                rounds_done: s.explorer.rounds_done(),
                rounds_total,
                resumed: true,
            });
        }
        let entry = server
            .registry()
            .get(&spec.workload)
            .ok_or_else(|| SessionError::UnknownWorkload(spec.workload.clone()))?;
        let fingerprint = entry.servable.fingerprint();
        let session = Session {
            spec: spec.clone(),
            fingerprint,
            explorer: Explorer::new(&spec.explorer_config()),
            space: DesignSpace::new(),
            predictions: 0,
            cache_hits: 0,
            shed: 0,
            proposed: 0,
            last_report: None,
            ckpt: self.store_for(session_id),
        };
        self.install(session_id, session);
        self.opened.fetch_add(1, Ordering::Relaxed);
        obs::counter("session/opened", 1);
        Ok(OpenInfo {
            session_id,
            fingerprint,
            rounds_done: 0,
            rounds_total,
            resumed: false,
        })
    }

    /// Executes (or replays) one exploration round.
    ///
    /// The round protocol makes steps idempotent: `round ==
    /// rounds_done` replays the stored report (a retry after a lost
    /// reply), `round == rounds_done + 1` executes the next round and
    /// checkpoints it *before* replying, anything else is
    /// [`SessionError::BadRound`].
    ///
    /// # Errors
    ///
    /// [`SessionError`] on protocol misuse or an unknown
    /// session/workload. Prediction-level failures (shed, deadline)
    /// are not errors: the affected points are dropped and counted in
    /// [`RoundReport::shed`].
    pub fn step(
        &self,
        server: &Server,
        workload: &str,
        session_id: u64,
        round: u64,
    ) -> Result<RoundReport, SessionError> {
        let handle = {
            let existing = self.sessions.lock().unwrap().get(&session_id).cloned();
            match existing {
                Some(h) => h,
                None => self
                    .resume_from_disk(session_id)
                    .ok_or(SessionError::UnknownSession(session_id))?,
            }
        };
        let mut s = handle.lock().unwrap();
        if s.spec.workload != workload {
            return Err(SessionError::WorkloadMismatch);
        }
        let rounds_done = s.explorer.rounds_done();
        if round == rounds_done {
            if let Some(report) = s.last_report.clone() {
                if report.round == round {
                    obs::counter("session/replays", 1);
                    return Ok(report);
                }
            }
            return Err(SessionError::BadRound {
                expected: rounds_done + 1,
                got: round,
            });
        }
        if s.explorer.is_done() {
            return Err(SessionError::Exhausted);
        }
        if round != rounds_done + 1 {
            return Err(SessionError::BadRound {
                expected: rounds_done + 1,
                got: round,
            });
        }

        // Hot-swap coherence: rebind to the current generation and
        // purge exactly the old fingerprint's cached points.
        let entry = server
            .registry()
            .get(workload)
            .ok_or_else(|| SessionError::UnknownWorkload(workload.to_string()))?;
        let fingerprint = entry.servable.fingerprint();
        if fingerprint != s.fingerprint {
            let purged = self.cache.purge_fingerprint(s.fingerprint);
            self.swap_purged.fetch_add(purged as u64, Ordering::Relaxed);
            obs::counter("session/swap_purged_points", purged as u64);
            s.fingerprint = fingerprint;
        }

        let timeout = if s.spec.round_timeout_us > 0 {
            Duration::from_micros(s.spec.round_timeout_us)
        } else {
            self.config.default_round_timeout
        };
        let prev_front = s.explorer.front();
        let s = &mut *s;
        let points = s.explorer.propose(&s.space).expect("budget checked above");
        let encoded: Vec<Vec<f64>> = points.iter().map(|p| s.space.encode(p)).collect();

        // Phase 1: classify every point. Owned points are resolved
        // before any blocking on other sessions' in-flight points —
        // that ordering is the deadlock-freedom argument.
        let mut values: Vec<Option<u64>> = vec![None; points.len()];
        let mut owned = Vec::new();
        let mut waiting = Vec::new();
        let mut predicted = 0u32;
        let mut cache_hits = 0u32;
        let mut shed = 0u32;
        for (i, point) in points.iter().enumerate() {
            match self.cache.try_claim(fingerprint, point) {
                Claim::Ready(bits) => {
                    values[i] = Some(bits);
                    cache_hits += 1;
                }
                Claim::Owed => owned.push(i),
                Claim::InFlight => waiting.push(i),
            }
        }

        // Phase 2: batch-submit the owned points and fulfil them.
        let tickets: Vec<(usize, crate::server::Ticket)> = owned
            .iter()
            .map(|&i| (i, server.submit(workload, &encoded[i], Some(timeout))))
            .collect();
        for (i, ticket) in tickets {
            match ticket.wait() {
                Ok(prediction) => {
                    let bits = prediction.value.to_bits();
                    self.cache.fulfil(fingerprint, &points[i], bits);
                    values[i] = Some(bits);
                    predicted += 1;
                }
                Err(e) => {
                    // Shed/deadline (and any serving fault) drops the
                    // point from the archive; the claim is released so
                    // a later round or session can retry it.
                    self.cache.abandon(fingerprint, &points[i]);
                    shed += 1;
                    if !matches!(
                        e,
                        ServeError::Shed | ServeError::DeadlineMiss | ServeError::Closed
                    ) {
                        obs::counter("session/predict_errors", 1);
                    }
                }
            }
        }

        // Phase 3: block on points owned elsewhere. If an owner
        // vanishes (abandon, crash) the claim is retaken here; the
        // escape hatch after repeated timeouts predicts redundantly
        // rather than hang — any real duplicate is counted, not hidden.
        for i in waiting {
            let mut attempts = 0u32;
            loop {
                match self.cache.await_ready(fingerprint, &points[i], timeout) {
                    Some(bits) => {
                        values[i] = Some(bits);
                        cache_hits += 1;
                        break;
                    }
                    None => match self.cache.try_claim(fingerprint, &points[i]) {
                        Claim::Ready(bits) => {
                            values[i] = Some(bits);
                            cache_hits += 1;
                            break;
                        }
                        Claim::Owed => {
                            match server.submit(workload, &encoded[i], Some(timeout)).wait() {
                                Ok(prediction) => {
                                    let bits = prediction.value.to_bits();
                                    self.cache.fulfil(fingerprint, &points[i], bits);
                                    values[i] = Some(bits);
                                    predicted += 1;
                                }
                                Err(_) => {
                                    self.cache.abandon(fingerprint, &points[i]);
                                    shed += 1;
                                }
                            }
                            break;
                        }
                        Claim::InFlight => {
                            attempts += 1;
                            if attempts >= 3 {
                                match server.submit(workload, &encoded[i], Some(timeout)).wait() {
                                    Ok(prediction) => {
                                        let bits = prediction.value.to_bits();
                                        self.cache.fulfil(fingerprint, &points[i], bits);
                                        values[i] = Some(bits);
                                        predicted += 1;
                                    }
                                    Err(_) => {
                                        shed += 1;
                                    }
                                }
                                break;
                            }
                        }
                    },
                }
            }
        }

        // Archive entries in proposal order (stable-sort tie-breaking
        // depends on it); shed points are simply absent.
        let proposed = points.len() as u32;
        let mut entries = Vec::with_capacity(points.len());
        for (i, point) in points.into_iter().enumerate() {
            if let Some(bits) = values[i] {
                entries.push(ParetoEntry {
                    point,
                    ipc: f64::from_bits(bits),
                    power: power_proxy(&encoded[i]),
                });
            }
        }
        s.explorer.record(entries);
        let next_front = s.explorer.front();
        let delta = front_delta(&prev_front, &next_front);
        let report = RoundReport {
            round,
            done: s.explorer.is_done(),
            hypervolume: hypervolume(&next_front, HV_IPC_REF, HV_POWER_REF),
            proposed,
            predicted,
            cache_hits,
            shed,
            added: delta.added,
            removed: delta.removed,
        };
        s.predictions += u64::from(predicted);
        s.cache_hits += u64::from(cache_hits);
        s.shed += u64::from(shed);
        s.proposed += u64::from(proposed);
        s.last_report = Some(report.clone());
        self.rounds.fetch_add(1, Ordering::Relaxed);
        obs::counter("session/rounds", 1);

        // Checkpoint before replying. A failed save is survivable (the
        // client's next steps re-execute deterministically from the
        // previous generation), so it is counted, not fatal.
        self.checkpoint(s, session_id);
        Ok(report)
    }

    fn snapshot(&self, s: &Session) -> SessionState {
        SessionState {
            spec: s.spec.clone(),
            fingerprint: s.fingerprint,
            explorer: s.explorer.state(),
            predictions: s.predictions,
            cache_hits: s.cache_hits,
            shed: s.shed,
            proposed: s.proposed,
            last_report: s.last_report.clone(),
            cache_entries: self.cache.ready_entries(s.fingerprint),
        }
    }

    fn checkpoint(&self, s: &mut Session, session_id: u64) {
        let state = self.snapshot(s);
        if let Some(ckpt) = s.ckpt.as_mut() {
            match ckpt.save_bytes(&encode_session(&state)) {
                Ok(_) => {
                    self.checkpoints.fetch_add(1, Ordering::Relaxed);
                    obs::counter("session/checkpoints", 1);
                }
                Err(e) => {
                    obs::counter("session/checkpoint_errors", 1);
                    metadse_obs::report::warn(format!(
                        "session {session_id:#018x} checkpoint failed: {e}"
                    ));
                }
            }
        }
    }

    /// Captures a session's full state (tests and diagnostics).
    pub fn state_of(&self, session_id: u64) -> Option<SessionState> {
        let handle = self.sessions.lock().unwrap().get(&session_id).cloned()?;
        let s = handle.lock().unwrap();
        Some(self.snapshot(&s))
    }

    /// Closes a session: a final checkpoint (when persistence is on),
    /// then removal from memory. Returns whether it was open.
    pub fn close(&self, session_id: u64) -> bool {
        let Some(handle) = self.sessions.lock().unwrap().remove(&session_id) else {
            return false;
        };
        let mut s = handle.lock().unwrap();
        self.checkpoint(&mut s, session_id);
        obs::counter("session/closed", 1);
        true
    }

    /// `session/*` metrics in the introspection exposition format,
    /// including a per-tenant hypervolume gauge line per open session's
    /// fingerprint.
    pub fn exposition(&self) -> String {
        let mut out = String::new();
        let mut push = |line: String| {
            out.push_str(&line);
            out.push('\n');
        };
        push(format!(
            "counter session/opened_total {}",
            self.opened.load(Ordering::Relaxed)
        ));
        push(format!(
            "counter session/resumed_total {}",
            self.resumed.load(Ordering::Relaxed)
        ));
        push(format!(
            "counter session/rounds_total {}",
            self.rounds.load(Ordering::Relaxed)
        ));
        push(format!(
            "counter session/checkpoints_total {}",
            self.checkpoints.load(Ordering::Relaxed)
        ));
        push(format!(
            "counter session/duplicate_predictions_total {}",
            self.cache.duplicate_fulfils()
        ));
        push(format!(
            "counter session/swap_purged_points_total {}",
            self.swap_purged.load(Ordering::Relaxed)
        ));
        push(format!("gauge session/active {}", self.active()));
        push(format!(
            "gauge session/cache_points {}",
            self.cache.ready_points()
        ));
        let mut predictions = 0u64;
        let mut cache_hits = 0u64;
        let mut shed = 0u64;
        // Best (max) hypervolume per tenant fingerprint across its
        // open sessions.
        let mut tenants: Vec<(u64, String, u64, f64)> = Vec::new();
        let handles: Vec<Arc<Mutex<Session>>> =
            self.sessions.lock().unwrap().values().cloned().collect();
        for handle in handles {
            let s = handle.lock().unwrap();
            predictions += s.predictions;
            cache_hits += s.cache_hits;
            shed += s.shed;
            let hv = s.last_report.as_ref().map_or(0.0, |r| r.hypervolume);
            match tenants
                .iter_mut()
                .find(|(fp, _, _, _)| *fp == s.fingerprint)
            {
                Some(t) => {
                    t.2 += 1;
                    if hv > t.3 {
                        t.3 = hv;
                    }
                }
                None => tenants.push((s.fingerprint, s.spec.workload.clone(), 1, hv)),
            }
        }
        push(format!("counter session/predictions_total {predictions}"));
        push(format!("counter session/cache_hits_total {cache_hits}"));
        push(format!("counter session/shed_total {shed}"));
        tenants.sort_by_key(|(fp, _, _, _)| *fp);
        for (fp, workload, sessions, hv) in tenants {
            push(format!(
                "tenant {fp:016x} workload {workload} sessions {sessions} hypervolume {hv:.6}"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelRegistry, ServeConfig};
    use metadse::checkpoint::{FaultIo, FaultMode, FaultSpec};
    use metadse::predictor::{PredictorConfig, TransformerPredictor};
    use metadse::ServablePredictor;

    /// A state exercising every encoded field: spec, RNG words, seen
    /// points, archive, counters, a last report with added and removed
    /// points, and cache entries.
    fn fixed_state() -> SessionState {
        let entry = |indices: Vec<usize>, ipc: f64, power: f64| ParetoEntry {
            point: ConfigPoint::new(indices),
            ipc,
            power,
        };
        SessionState {
            spec: SessionSpec {
                workload: "mcf".into(),
                seed: 11,
                initial_samples: 8,
                refinement_rounds: 2,
                beam: 2,
                round_timeout_us: 250_000,
            },
            fingerprint: 0xF00D_CAFE,
            explorer: ExplorerState {
                rng: [1, 2, 3, u64::MAX],
                rounds_done: 2,
                seen: vec![
                    ConfigPoint::new(vec![0, 1, 2]),
                    ConfigPoint::new(vec![3, 4, 5]),
                ],
                archive: vec![entry(vec![3, 4, 5], 1.25, 2.5)],
            },
            predictions: 5,
            cache_hits: 3,
            shed: 1,
            proposed: 9,
            last_report: Some(RoundReport {
                round: 2,
                done: true,
                hypervolume: 0.75,
                proposed: 4,
                predicted: 2,
                cache_hits: 1,
                shed: 1,
                added: vec![entry(vec![3, 4, 5], 1.25, 2.5)],
                removed: vec![ConfigPoint::new(vec![0, 1, 2])],
            }),
            cache_entries: vec![
                (ConfigPoint::new(vec![0, 1, 2]), 0.5f64.to_bits()),
                (ConfigPoint::new(vec![3, 4, 5]), 1.25f64.to_bits()),
            ],
        }
    }

    /// The checkpoint bytes of a fixed state are pinned, so sessions
    /// checkpointed by earlier builds still resume.
    #[test]
    fn checkpoint_bytes_are_pinned() {
        let state = fixed_state();
        let bytes = encode_session(&state);
        assert_eq!((bytes.len(), fnv1a(&bytes)), (363, 0x828d_7731_4097_5535));
        assert_eq!(decode_session(&bytes).unwrap(), state);
    }

    /// Cuts the power at every operation of a session's first two round
    /// checkpoints in turn. The first one also creates `sessions/` and
    /// `session-<id>/`, so a round acknowledged on a checkpoint that did
    /// not sync those directories into their parents would vanish with
    /// them. After each cut, a fresh engine resumes exactly the rounds
    /// whose checkpoint was acknowledged.
    #[test]
    fn acknowledged_rounds_survive_power_loss() {
        let dir =
            std::env::temp_dir().join(format!("metadse-session-power-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let geometry = PredictorConfig {
            num_params: 21,
            d_model: 4,
            heads: 2,
            depth: 1,
            d_hidden: 8,
            head_hidden: 4,
        };
        let registry = ModelRegistry::new(dir.join("models"), 2);
        let model = TransformerPredictor::new(geometry, 7);
        registry
            .publish("mcf", &ServablePredictor::capture(&model, None, "ipc"))
            .unwrap();
        let server = Server::start(
            Arc::new(registry),
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        );
        let spec = SessionSpec {
            workload: "mcf".into(),
            seed: 11,
            initial_samples: 8,
            refinement_rounds: 2,
            beam: 2,
            round_timeout_us: 0,
        };
        let config = SessionEngineConfig {
            dir: Some(dir.join("sessions")),
            ..SessionEngineConfig::default()
        };
        for fail_at in 0.. {
            let _ = std::fs::remove_dir_all(dir.join("sessions"));
            let io = Arc::new(FaultIo::new(FaultSpec {
                fail_at,
                mode: FaultMode::PowerLoss,
            }));
            let mut engine = SessionEngine::new(config.clone());
            engine.io = io.clone();
            let id = engine.open(&server, &spec).unwrap().session_id;
            for round in 1..=2 {
                engine.step(&server, "mcf", id, round).unwrap();
            }
            let acknowledged = engine.checkpoints.load(Ordering::Relaxed);

            let rebooted = SessionEngine::new(config.clone());
            let info = rebooted.open(&server, &spec).unwrap();
            assert_eq!(
                (info.resumed, info.rounds_done),
                (acknowledged > 0, acknowledged),
                "power cut at operation {fail_at}"
            );
            // One more operation: it succeeds only if the power never
            // went, i.e. every operation of both checkpoints was covered.
            if io.sync_dir(&dir).is_ok() {
                break;
            }
        }
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
