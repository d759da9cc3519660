//! # metadse
//!
//! Reproduction of **MetaDSE** (DAC 2025): cross-workload CPU design-space
//! exploration as a few-shot meta-learning problem.
//!
//! The crate implements the paper's two-stage pipeline on top of the
//! workspace substrates:
//!
//! 1. **Upstream pre-training** ([`maml`]): a transformer surrogate
//!    ([`predictor::TransformerPredictor`]) is meta-trained with MAML
//!    (Algorithm 1) across source workloads, treating each workload as a
//!    task distribution; meta-validation selects the shipped θ*.
//! 2. **Downstream adaptation** ([`wam`]): the workload-adaptive
//!    architectural mask is distilled from pre-training attention
//!    statistics (Fig. 4) and fine-tuned — together with the model — on a
//!    few shots from the unseen target workload (Algorithm 2).
//!
//! Both stages train through compiled first-order steps ([`step`]) over
//! the same fixed-shape op list that serves predictions ([`plan`]), and
//! the mask's attention statistics come from that op list too; the `Rc`
//! autograd graph remains for second-order MAML and as the test oracle.
//!
//! Baselines ([`trendse`]), per-task evaluation ([`evaluation`]),
//! experiment harnesses for every paper table/figure ([`experiment`]), a
//! surrogate-driven explorer ([`explorer`]), and crash-safe training
//! checkpoints with fault-injectable IO ([`checkpoint`]) complete the
//! system.
//!
//! # Example
//!
//! ```no_run
//! use metadse::experiment::{Environment, Scale};
//!
//! // Build per-workload datasets with the analytical simulator, pre-train
//! // with MAML, adapt with WAM, and evaluate on the paper's test split.
//! let env = Environment::build(&Scale::quick(), 7);
//! let result = metadse::experiment::run_fig5(&env, &Scale::quick());
//! for row in &result.rows {
//!     println!("{}: MetaDSE RMSE {:.3}", row.workload, row.metadse);
//! }
//! ```

pub mod ablation;
pub mod checkpoint;
pub mod evaluation;
mod exec;
pub mod experiment;
pub mod explorer;
pub mod maml;
pub mod plan;
pub mod predictor;
pub mod servable;
pub mod shard;
pub mod step;
pub mod trendse;
pub mod wam;

pub use checkpoint::{CheckpointConfig, Checkpointer, FaultMode, FaultSpec, TrainState};
pub use evaluation::{EvalSummary, TaskScores};
pub use explorer::{Explorer, ExplorerConfig, ExplorerState, FrontDelta, ParetoEntry};
pub use maml::{MamlConfig, PretrainReport};
pub use plan::{Plan, PlanArena, PlanProfile};
pub use predictor::{PredictorConfig, TransformerPredictor};
pub use servable::ServablePredictor;
pub use shard::{shard_of, ShardSpec};
pub use step::Step;
pub use trendse::{TrEnDse, TrEnDseConfig, TrEnDseTransformer};
pub use wam::{AdaptConfig, AttentionStats, WamConfig};
