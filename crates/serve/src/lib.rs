//! # metadse-serve
//!
//! Batched inference serving for trained MetaDSE predictors: the
//! missing layer between "a model finished meta-training" and "a DSE
//! tool is querying it at scale".
//!
//! Four pieces compose the crate:
//!
//! * [`registry`] — a directory of generation-rotated, sealed
//!   [`ServablePredictor`](metadse::ServablePredictor) artifacts per
//!   workload, loaded fingerprint-checked with newest-first fallback
//!   past corrupt generations, hot-swappable while serving.
//! * [`batcher`] — the micro-batching policy as a pure state machine
//!   over a virtual clock: bounded admission with shed-on-full,
//!   `max_batch`/`max_wait_us` coalescing, per-request deadlines, and
//!   graceful drain — all unit-testable with no threads or timers.
//! * [`Plan`] / [`PlanArena`] — compiled fixed-shape plans
//!   ([`metadse::plan`], re-exported here): the IR lowered once per
//!   artifact × batch capacity, executed over one preallocated arena
//!   sized by op liveness, with bit-exact parity with the layer-stack
//!   `predict`. Plans are the only serving forward; training runs the
//!   same op list with a compiled backward.
//! * [`server`] — the runtime: a worker pool (on
//!   [`metadse_parallel::WorkerPool`]) pops batches, groups them by
//!   model fingerprint, and runs one compiled-plan forward per group;
//!   callers block on per-request [`Ticket`]s, and an artifact that
//!   does not compile is refused at admission.
//!
//! Because every op in the `metadse-nn` forward path computes each
//! output element independently of batch row count, a batched forward
//! is **bit-identical** to running each request alone — coalescing is
//! purely a throughput optimization, never an accuracy trade. The soak
//! test in `tests/concurrency.rs` asserts this across thread counts.
//!
//! ## Example
//!
//! ```no_run
//! use std::sync::Arc;
//! use metadse_serve::{ModelRegistry, ServeConfig, Server};
//!
//! let registry = Arc::new(ModelRegistry::open("results/models", 4));
//! let server = Server::start(registry, ServeConfig::default());
//! let ticket = server.submit("mcf", &[0.1, 0.5, 0.9, 0.2, 0.7, 0.3], None);
//! let prediction = ticket.wait().unwrap();
//! println!("ipc = {}", prediction.value);
//! server.shutdown();
//! ```

pub mod batcher;
pub mod front;
pub mod introspect;
pub mod registry;
pub mod server;
pub mod session;
pub mod shard;
pub mod stats;
pub mod supervisor;

pub use batcher::{Admission, BatchConfig, Pending, PopOutcome, QueueCore};
pub use introspect::ServeHealth;
pub use metadse::plan::{Plan, PlanArena, PlanProfile};
pub use registry::{ModelEntry, ModelRegistry, PlanCacheStats};
pub use server::{Prediction, ServeConfig, ServeError, Server, Ticket};
pub use session::{
    OpenInfo, PointCache, RoundReport, SessionEngine, SessionEngineConfig, SessionError,
    SessionSpec, SessionState,
};
pub use shard::{ErrorCode, ShardError, ShardOptions, ShardReply, ShardRequest, WirePrediction};
pub use stats::{RequestTrace, ServerStats, TenantStats, TraceTable};

#[cfg(unix)]
pub use front::{Front, FrontClient, FrontConfig, ShardPrediction};
#[cfg(unix)]
pub use shard::ShardServer;
#[cfg(unix)]
pub use supervisor::{ShardPlan, Supervisor, SupervisorConfig};
