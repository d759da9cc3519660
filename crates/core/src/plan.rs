//! Compiled fixed-shape plans: one op list for serving, adaptation and
//! meta-training.
//!
//! The predictor's geometry is fixed, so the layer-stack walk a
//! [`TransformerPredictor`] forward performs — graph-node allocation,
//! shape re-derivation, per-forward weight packing, pool churn — can be
//! compiled away once. Compilation lowers a predictor (a sealed
//! [`ServablePredictor`] through [`Plan::compile`], or a live model and
//! its installed masks through [`Plan::from_model`]) into a flat
//! sequence of shape-specialized ops (`Op`) over preallocated arena
//! buffers:
//!
//! ```text
//! Embed → { LayerNorm → Linear×3 → AttnScores → Softmax →
//!           AttnContext → Linear+residual → LayerNorm →
//!           Linear(gelu) → Linear+residual }×depth
//!       → LayerNorm → MeanPool → Linear(gelu) → Linear [→ Mse]
//! ```
//!
//! **Attention plans.** WAM's mask statistics read the last encoder
//! layer's attention probabilities (paper Fig. 4). An attention plan is
//! the inference op list cut after that layer's softmax, whose in-place
//! `[b, heads, seq, seq]` block is the plan's output: it skips the last
//! layer's context, feed-forward and the head, and its probabilities are
//! the bits the graph records with `set_record_attention`.
//!
//! Three structural savings fall out of compile-time scheduling: an
//! inference plan runs softmax **in place** on the logits block (the
//! graph materializes a separate probability tensor), each residual add
//! is **folded into the bias pass** of the linear that produces its
//! right-hand side, and the attention ops read each head **in place**
//! from the `[b, s, h·dk]` projections and write the context (and, in a
//! training plan, the `q`, `k` and `v` gradients) **merged**, so the
//! graph's head split and merge are no ops at all. All keep the
//! per-element expression trees — and therefore the bits — identical;
//! they only drop buffers and memory passes.
//!
//! **Training plans.** [`Step`](crate::step::Step) compiles the same op
//! list with a loss op and a flat backward op list: the first-order
//! gradient of the mean-squared error with respect to every parameter,
//! in [`Module::params`] order (a learnable mask included). The forward
//! of a training plan keeps what the backward reads: softmax writes its
//! exponentials in place and its probabilities and lane denominators to
//! buffers of their own (the in-place probabilities cannot give back the
//! exponentials bit-exactly), the GELU linears keep their pre-activation
//! matmul and `tanh` values, and every layernorm input and matmul operand
//! (the projections `q`, `k`, `v` among them) stays live until its
//! gradient op has read it. The liveness scan runs
//! over forward and backward ops together, so each buffer dies after its
//! last reader on either side. Parameter gradients live at fixed offsets
//! at the front of the arena, in parameter order.
//!
//! **Accumulation order.** Each backward op computes one contribution
//! into a fresh buffer; a tensor with several consumers adds them in the
//! order autograd's reverse-topological walk delivers them, the first
//! taken as is and each later one added to the running sum
//! (`sum = sum + next`): a layernorm output feeding `wq`, `wk` and `wv`
//! sums `(q + k) + v`; the residual stream takes the skip connection's
//! gradient first and the layernorm's second; a mask shared by every
//! layer sums its contributions from the last layer down.
//!
//! Everything dynamic about the layer stack is resolved at compile
//! time: shapes and strides are burned into each op, dense weights are
//! pre-packed transposed (the per-forward `pack_transposed` the tensor
//! matmul pays per distinct weight), the attention scale, masks and
//! layernorm constants are folded in, and every intermediate gets a
//! fixed offset in one arena buffer sized by a linear scan over op
//! def/use liveness. The only per-run decisions left are the ones that
//! are *data-dependent by contract*: each matmul's sparse/dense path
//! choice counts zeros at run time with the same
//! [`metadse_nn::prims::SPARSE_ZERO_FRACTION`] threshold the tensor
//! kernel uses.
//!
//! **Bit-exactness.** Execution (the `exec` module) dispatches onto the
//! same backend primitives as the tensor ops ([`metadse_nn::prims`]) and
//! reproduces each op's exact accumulation order — the fused-kernel
//! order, which the `metadse-nn` contracts pin bit-identical to the
//! composite forms with the buffer pool on or off, per backend. The
//! linear, layernorm, softmax and loss backward ops call the very
//! kernels the graph's first-order backward closures run; the four
//! attention ops run `metadse-nn`'s block kernels, one call per `(b, h)`
//! block, which replay the graph's per-element operations (the graph
//! keeps its own kernels as the oracle). A plan forward is therefore bit-identical to
//! `TransformerPredictor::predict`, and a step's loss and gradients to
//! `mse_on` followed by `autograd::grad(.., false)`, on the same thread;
//! `tests/plan.rs` and `tests/step.rs` assert this across the whole
//! backend × pool × fused mode matrix. On poison inputs every non-NaN
//! result keeps its bits, and a NaN stays a NaN; which NaN payload
//! survives an add is not fixed by source order (the compiler may
//! commute it), so no kernel pins it.
//!
//! **Compile is the serving gate.** A server runs nothing but plans, so
//! [`Plan::compile`] rejects every artifact it cannot lower — `heads` not
//! dividing `d_model`, a missing or misshapen parameter, a mask of the
//! wrong size — and [`ServablePredictor::from_bytes`] runs the same
//! weight lookup, so an artifact that decodes always compiles.
//!
//! **Batch capacity.** A plan is compiled for a maximum batch
//! (`capacity`) and serves any batch `1 ≤ b ≤ capacity`: every buffer is
//! `rows × fixed-width` with the row count scaling in `b`, so smaller
//! batches just use a prefix of each region. Per-row independence of
//! every forward op keeps results identical to a capacity-sized run.

use std::collections::HashMap;

use metadse_nn::layers::{Module, Param};
use metadse_nn::serialize::{CheckpointError, ParamEntry};
use metadse_nn::{Elem, Tensor};

use crate::predictor::{PredictorConfig, TransformerPredictor};
use crate::servable::ServablePredictor;

pub use crate::exec::{PlanArena, PlanProfile};

/// LayerNorm epsilon, fixed by `metadse_nn::layers::LayerNorm::new`.
pub(crate) const LN_EPS: Elem = 1e-5;

/// One virtual buffer in the plan; resolved to an arena range.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct BufId(pub(crate) usize);

/// A virtual buffer's geometry and its assigned arena placement.
#[derive(Clone, Debug)]
pub(crate) struct BufSpec {
    /// Elements per batch row (0 for batch-independent buffers).
    pub(crate) per_item: usize,
    /// Batch-independent elements (scratch reused across a batch loop,
    /// or a parameter gradient).
    pub(crate) fixed: usize,
    /// Arena offset in elements; assigned by the liveness scan, or fixed
    /// at creation for a parameter gradient.
    pub(crate) offset: usize,
    /// A parameter gradient: placed at its parameter's offset in the
    /// gradient region at the front of the arena, never freed.
    pub(crate) pinned: bool,
}

impl BufSpec {
    /// Live length at runtime batch `b`.
    pub(crate) fn len_at(&self, b: usize) -> usize {
        self.fixed + self.per_item * b
    }
}

/// Number of op kinds: the ten serving kinds, the two training-only
/// ones, then the bias+GELU pass a GELU linear times apart.
pub const OP_KINDS: usize = 13;

/// Display names for each op kind, indexed by `Op::kind`; the label
/// vocabulary of the per-op attribution counters
/// (`serve/plan_op/<name>_us`). Indices 0–9 are the serving kinds and
/// stay fixed, retired kinds included (`split_heads`, `merge_heads` and
/// `residual`, which no program emits any more); a backward op is
/// attributed to the kind of the forward op it differentiates. `gelu` ([`GELU_KIND`]) is no op of its own: a
/// profiled run moves the time of a GELU linear's bias+GELU pass, forward
/// or backward, out of `linear` into it.
pub const OP_KIND_NAMES: [&str; OP_KINDS] = [
    "embed",
    "layernorm",
    "linear",
    "split_heads",
    "merge_heads",
    "attn_scores",
    "softmax",
    "attn_context",
    "residual",
    "mean_pool",
    "mse",
    "accumulate",
    "gelu",
];

/// Index of `gelu` in [`OP_KIND_NAMES`].
pub const GELU_KIND: usize = 12;

/// One op of the IR. Shapes and strides come from the plan's compiled
/// geometry; buffers are arena ranges, weights offsets into the plan's
/// weight vector.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    /// `out[b,s,:] = table[s,:] + x[b,s] * dir[s,:]` — token identity
    /// embedding plus the value-direction encoding, fused.
    Embed { x: BufId, out: BufId },
    /// Row-wise affine layernorm (`norms[norm]`, eps [`LN_EPS`]).
    LayerNorm { src: BufId, dst: BufId, norm: usize },
    /// `dst = src · W + bias`, optionally through GELU
    /// (`linears[lin]`). `rows_per_item` rows per batch row; the
    /// GELU form stages the matmul in `mm` and keeps its `tanh` values.
    /// `add` folds a residual connection into the bias pass:
    /// `dst = add + (src · W + bias)` with the standalone residual
    /// op's exact rounding sequence (never combined with `gelu`).
    Linear {
        src: BufId,
        dst: BufId,
        lin: usize,
        rows_per_item: usize,
        gelu: Option<(BufId, BufId)>,
        add: Option<BufId>,
    },
    /// `dst = (q · kᵀ) * scale (+ mask)` per `(b, h)` block into `[b, h,
    /// s, s]`, with the tensor matmul's per-block sparse/dense choice;
    /// `q` and `key` are the `[b, s, h·dk]` projections, each head read
    /// in place. `mask` is the weight offset of this layer's additive
    /// `[seq, seq]` mask.
    AttnScores {
        q: BufId,
        key: BufId,
        dst: BufId,
        mask: Option<usize>,
    },
    /// Row-wise softmax over the trailing axis. `src` is overwritten with
    /// the exponentials and `dst` receives the probabilities (`src ==
    /// dst` runs in place); `denom`, when present, keeps the row
    /// denominators for the backward.
    Softmax {
        src: BufId,
        dst: BufId,
        denom: Option<BufId>,
    },
    /// `dst = probs · v` per `(b, h)` block, `v` read in place from its
    /// projection and `dst` written merged, `[b, s, h·dk]`.
    AttnContext { probs: BufId, v: BufId, dst: BufId },
    /// `dst[b,:] = mean over s of src[b,s,:]`.
    MeanPool { src: BufId, dst: BufId },
    /// `loss = mean((pred − target)²)` — the fused `sq_err_mean`.
    Mse {
        pred: BufId,
        target: BufId,
        loss: BufId,
    },
    /// `dst = ∂loss/∂pred`.
    MseGrad {
        pred: BufId,
        target: BufId,
        dst: BufId,
    },
    /// Gradients of [`Op::Embed`]: the token table (summed over the
    /// batch) and the value directions (`g · x`, summed over the batch).
    EmbedGrad {
        x: BufId,
        g: BufId,
        table: BufId,
        dir: BufId,
    },
    /// Gradients of [`Op::LayerNorm`] from its input `src`: `dst` (input
    /// gradient), `gamma`, `beta`; `scratch` holds `3 · dim`.
    LayerNormGrad {
        src: BufId,
        g: BufId,
        norm: usize,
        dst: BufId,
        gamma: BufId,
        beta: BufId,
        scratch: BufId,
    },
    /// Gradients of [`Op::Linear`] from its input `src`: through the GELU
    /// backward into `gelu.2` first when `gelu` holds the forward's
    /// `(mm, tanh)`, then the bias (row fold) and the matmul's input
    /// (`dst`) and weight gradients.
    LinearGrad {
        src: BufId,
        g: BufId,
        lin: usize,
        rows_per_item: usize,
        gelu: Option<(BufId, BufId, BufId)>,
        dst: BufId,
        weight: BufId,
        bias: BufId,
    },
    /// Gradients of [`Op::AttnScores`]: the mask's (summed over every
    /// `(b, h)` block) when it is learnable, then — after scaling `g` in
    /// place — `dq` and `dk` (merged) through the `matmul_nt` backward's
    /// terms.
    AttnScoresGrad {
        q: BufId,
        key: BufId,
        g: BufId,
        dq: BufId,
        dk: BufId,
        mask: Option<BufId>,
    },
    /// Gradient of [`Op::Softmax`] from the kept exponentials and
    /// denominators; `terms` is `seq` elements of scratch.
    SoftmaxGrad {
        g: BufId,
        exps: BufId,
        denom: BufId,
        dst: BufId,
        terms: BufId,
    },
    /// Gradients of [`Op::AttnContext`] from the merged context gradient
    /// `g`: `dprobs` and `dv` (merged).
    AttnContextGrad {
        probs: BufId,
        v: BufId,
        g: BufId,
        dprobs: BufId,
        dv: BufId,
    },
    /// Gradient of [`Op::MeanPool`]: `dst[b,s,:] = g[b,:] · (1/seq)`.
    MeanPoolGrad { g: BufId, dst: BufId },
    /// `dst = dst + src`: a later contribution to a gradient.
    AddInto { dst: BufId, src: BufId },
}

impl Op {
    /// Kind index into [`OP_KIND_NAMES`]; a gradient op counts as the
    /// kind it differentiates.
    pub(crate) fn kind(&self) -> usize {
        match self {
            Op::Embed { .. } | Op::EmbedGrad { .. } => 0,
            Op::LayerNorm { .. } | Op::LayerNormGrad { .. } => 1,
            Op::Linear { .. } | Op::LinearGrad { .. } => 2,
            // Kinds 3 and 4 ("split_heads", "merge_heads") are retired:
            // the attention ops read and write heads in place.
            Op::AttnScores { .. } | Op::AttnScoresGrad { .. } => 5,
            Op::Softmax { .. } | Op::SoftmaxGrad { .. } => 6,
            Op::AttnContext { .. } | Op::AttnContextGrad { .. } => 7,
            // Kind 8 ("residual") is retired: residual adds are folded
            // into `Op::Linear::add`. The name stays in
            // [`OP_KIND_NAMES`] so counter indices remain stable.
            Op::MeanPool { .. } | Op::MeanPoolGrad { .. } => 9,
            Op::Mse { .. } | Op::MseGrad { .. } => 10,
            Op::AddInto { .. } => 11,
        }
    }

    /// Every buffer the op touches (reads and writes).
    pub(crate) fn bufs(&self) -> Vec<BufId> {
        match *self {
            Op::Embed { x, out } => vec![x, out],
            Op::LayerNorm { src, dst, .. } => vec![src, dst],
            Op::Linear {
                src,
                dst,
                gelu,
                add,
                ..
            } => {
                let mut v = vec![src, dst];
                v.extend(gelu.map(|(mm, tanh)| [mm, tanh]).into_iter().flatten());
                v.extend(add);
                v
            }
            Op::AttnScores { q, key, dst, .. } => vec![q, key, dst],
            Op::Softmax { src, dst, denom } => {
                let mut v = vec![src, dst];
                v.extend(denom);
                v
            }
            Op::AttnContext { probs, v, dst } => vec![probs, v, dst],
            Op::MeanPool { src, dst } => vec![src, dst],
            Op::Mse { pred, target, loss } => vec![pred, target, loss],
            Op::MseGrad { pred, target, dst } => vec![pred, target, dst],
            Op::EmbedGrad { x, g, table, dir } => vec![x, g, table, dir],
            Op::LayerNormGrad {
                src,
                g,
                dst,
                gamma,
                beta,
                scratch,
                ..
            } => vec![src, g, dst, gamma, beta, scratch],
            Op::LinearGrad {
                src,
                g,
                gelu,
                dst,
                weight,
                bias,
                ..
            } => {
                let mut v = vec![src, g, dst, weight, bias];
                v.extend(
                    gelu.map(|(mm, tanh, gsum)| [mm, tanh, gsum])
                        .into_iter()
                        .flatten(),
                );
                v
            }
            Op::AttnScoresGrad {
                q,
                key,
                g,
                dq,
                dk,
                mask,
            } => {
                let mut v = vec![q, key, g, dq, dk];
                v.extend(mask);
                v
            }
            Op::SoftmaxGrad {
                g,
                exps,
                denom,
                dst,
                terms,
            } => vec![g, exps, denom, dst, terms],
            Op::AttnContextGrad {
                probs,
                v,
                g,
                dprobs,
                dv,
            } => vec![probs, v, g, dprobs, dv],
            Op::MeanPoolGrad { g, dst } => vec![g, dst],
            Op::AddInto { dst, src } => vec![dst, src],
        }
    }
}

/// One linear layer's compiled weights: offsets into the plan's weight
/// vector (`w`, `bias`) and its packed panels (`wt`).
#[derive(Clone, Debug)]
pub(crate) struct LinearW {
    /// Input width.
    pub(crate) k: usize,
    /// Output width.
    pub(crate) n: usize,
    /// Row-major `[k, n]` weight — the sparse (axpy) path operand.
    pub(crate) w: usize,
    /// Pre-packed transpose `[n, k]` — the dense (dot) path panel,
    /// packed when the weights are set instead of once per forward.
    pub(crate) wt: usize,
    /// Bias `[n]`.
    pub(crate) bias: usize,
}

/// One layernorm's compiled affine parameters (weight offsets).
#[derive(Clone, Debug)]
pub(crate) struct NormW {
    pub(crate) dim: usize,
    pub(crate) gamma: usize,
    pub(crate) beta: usize,
}

/// A parameter's place in the plan's weight vector: the layout of
/// [`Plan::values`] and of a training step's gradients.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ParamSlot {
    pub(crate) name: String,
    pub(crate) shape: Vec<usize>,
    pub(crate) offset: usize,
    pub(crate) len: usize,
}

/// A compiled, shape-specialized plan for one predictor at one batch
/// capacity. Plain `Send + Sync` data — server workers share one by
/// `Arc` and bring their own [`PlanArena`]; a fan-out hands each worker
/// a clone of the plan its caller compiled.
#[derive(Clone, Debug)]
pub struct Plan {
    pub(crate) fingerprint: u64,
    pub(crate) capacity: usize,
    /// The geometry the plan was lowered from.
    pub(crate) config: PredictorConfig,
    pub(crate) dk: usize,
    /// Attention logit scale `1/sqrt(dk)`.
    pub(crate) scale: Elem,
    /// Mean-pool multiplier `1/seq` (the tensor `div_scalar` form).
    pub(crate) inv_seq: Elem,
    /// Every value the ops read: the parameters in layout order
    /// (`params`), then the frozen attention masks.
    pub(crate) weights: Vec<Elem>,
    /// Transposed dense panels of every linear weight.
    pub(crate) packed: Vec<Elem>,
    pub(crate) params: Vec<ParamSlot>,
    /// Elements of `weights` the parameters occupy (and, in a training
    /// plan, of the gradient region at the front of the arena).
    pub(crate) n_params: usize,
    pub(crate) table: usize,
    pub(crate) dir: usize,
    pub(crate) linears: Vec<LinearW>,
    pub(crate) norms: Vec<NormW>,
    /// The forward ops (ending in [`Op::Mse`] for a training plan).
    pub(crate) ops: Vec<Op>,
    /// The backward ops of a training plan; empty otherwise.
    pub(crate) grad_ops: Vec<Op>,
    pub(crate) bufs: Vec<BufSpec>,
    pub(crate) input: BufId,
    pub(crate) output: BufId,
    /// A training plan's label input and loss.
    pub(crate) target: Option<(BufId, BufId)>,
    arena_len: usize,
}

impl Plan {
    /// Lowers `servable` into an inference plan serving batches of up to
    /// `capacity` rows (min 1).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Format`] when the geometry fails
    /// [`PredictorConfig::validate`], or the embedded parameter payload
    /// is missing a tensor or carries one at the wrong shape (which
    /// [`ServablePredictor::from_bytes`] already refuses).
    pub fn compile(servable: &ServablePredictor, capacity: usize) -> Result<Plan, CheckpointError> {
        let cfg = *servable.config();
        let mut weights = Weights::from_entries(servable.param_entries()?);
        let mask = servable
            .mask_values()
            .map(|m| weights.constant(m, cfg.num_params))
            .transpose()?;
        let masks = vec![mask; cfg.depth];
        let mut plan = lower(&cfg, weights, &masks, capacity, Form::Inference)?;
        plan.fingerprint = servable.fingerprint();
        Ok(plan)
    }

    /// Lowers a live model — its current parameter values and the masks
    /// installed on its layers — into an inference plan for batches of
    /// up to `capacity` rows. The plan's fingerprint is 0.
    ///
    /// # Panics
    ///
    /// Panics if an installed mask is not `[num_params, num_params]`
    /// (the model's own forward would too).
    pub fn from_model(model: &TransformerPredictor, capacity: usize) -> Plan {
        Plan::lower_model(model, capacity, Form::Inference)
    }

    /// A training plan: forward, loss and backward, from a live model.
    pub(crate) fn training(model: &TransformerPredictor, capacity: usize) -> Plan {
        Plan::lower_model(model, capacity, Form::Training)
    }

    /// An attention plan from a live model: its output is the last
    /// encoder layer's attention probabilities, `[b, heads, seq, seq]`
    /// per batch.
    ///
    /// # Panics
    ///
    /// Panics if the model has no encoder layer, or as
    /// [`Plan::from_model`] does.
    pub(crate) fn attention(model: &TransformerPredictor, capacity: usize) -> Plan {
        assert!(model.config().depth > 0, "attention needs an encoder layer");
        Plan::lower_model(model, capacity, Form::Attention)
    }

    fn lower_model(model: &TransformerPredictor, capacity: usize, form: Form) -> Plan {
        let (weights, masks) = Weights::from_model(model);
        lower(model.config(), weights, &masks, capacity, form)
            .expect("a live model lowers to a plan")
    }

    /// Rebuilds a live predictor from a plan compiled from one: its
    /// geometry, every parameter value, and each layer's mask — a
    /// learnable one (in the parameter list) as a trainable leaf under
    /// its name, a frozen one as a constant, and layers that shared a
    /// mask sharing one slot again. The predictor computes what the model
    /// the plan was compiled from computed.
    pub(crate) fn to_model(&self) -> TransformerPredictor {
        let s = self.config.num_params;
        let model = TransformerPredictor::new(self.config, 0);
        let mut built: Vec<(usize, Param)> = Vec::new();
        let masks: Vec<Option<Param>> = self
            .layer_masks()
            .map(|mask| {
                let off = mask?;
                if let Some((_, param)) = built.iter().find(|(o, _)| *o == off) {
                    return Some(param.clone());
                }
                let values = self.weights[off..off + s * s].to_vec();
                let param = match self.params.iter().find(|slot| slot.offset == off) {
                    Some(slot) => {
                        Param::new(slot.name.clone(), Tensor::param_from_vec(values, &[s, s]))
                    }
                    None => Param::new("frozen.mask", Tensor::from_vec(values, &[s, s])),
                };
                built.push((off, param.clone()));
                Some(param)
            })
            .collect();
        model.set_masks(&masks);
        self.store(&model);
        model
    }

    /// The weight offset of each encoder layer's mask, in layer order.
    fn layer_masks(&self) -> impl Iterator<Item = Option<usize>> + '_ {
        self.ops.iter().filter_map(|op| match *op {
            Op::AttnScores { mask, .. } => Some(mask),
            _ => None,
        })
    }

    /// Fingerprint of the artifact this plan was compiled from (0 for a
    /// plan compiled from a live model).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Maximum batch rows a single [`Plan::run`] accepts.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Arena elements one execution needs at full capacity — the peak
    /// of the liveness scan (plus a training plan's gradient region),
    /// not the sum of all buffers.
    pub fn arena_len(&self) -> usize {
        self.arena_len
    }

    /// Ops in the compiled sequence (forward and backward).
    pub fn num_ops(&self) -> usize {
        self.ops.len() + self.grad_ops.len()
    }

    /// Input arity (`num_params` of the compiled geometry).
    pub fn arity(&self) -> usize {
        self.config.num_params
    }

    /// The parameter values, concatenated in [`Module::params`] order of
    /// the model (or artifact payload) the plan was compiled from.
    pub fn values(&self) -> &[Elem] {
        &self.weights[..self.n_params]
    }

    /// Replaces the parameter values (same layout as [`Plan::values`])
    /// and repacks the dense panels; the frozen masks are kept.
    ///
    /// # Panics
    ///
    /// Panics if `values` has the wrong length.
    pub fn set_values(&mut self, values: &[Elem]) {
        assert_eq!(values.len(), self.n_params, "parameter count mismatch");
        self.weights[..self.n_params].copy_from_slice(values);
        self.repack();
    }

    /// Writes the parameter values into `model`'s parameter slots as
    /// fresh trainable leaves (a learnable mask's slot included).
    ///
    /// # Panics
    ///
    /// Panics if the model's parameters do not match the compiled
    /// layout.
    pub(crate) fn store(&self, model: &TransformerPredictor) {
        let params = model.params();
        assert_eq!(params.len(), self.params.len(), "parameter count mismatch");
        for (p, slot) in params.iter().zip(&self.params) {
            assert_eq!(p.name(), slot.name, "parameter order changed since compile");
            let values = self.weights[slot.offset..slot.offset + slot.len].to_vec();
            p.set(Tensor::param_from_vec(values, &slot.shape));
        }
    }

    /// Each parameter's name and element range in [`Plan::values`].
    pub fn param_ranges(&self) -> impl Iterator<Item = (&str, std::ops::Range<usize>)> {
        self.params
            .iter()
            .map(|s| (s.name.as_str(), s.offset..s.offset + s.len))
    }

    /// Re-derives every linear's transposed panel from `weights`:
    /// `wt[j, kk] = w[kk, j]`, a pure copy, so the dense dot consumes
    /// bit-identical operands.
    pub(crate) fn repack(&mut self) {
        for lw in &self.linears {
            let (k, n) = (lw.k, lw.n);
            let w = &self.weights[lw.w..lw.w + k * n];
            let wt = &mut self.packed[lw.wt..lw.wt + n * k];
            for kk in 0..k {
                for j in 0..n {
                    wt[j * k + kk] = w[kk * n + j];
                }
            }
        }
    }
}

/// The flat parameter layout a plan reads, indexed by name.
#[derive(Default)]
struct Weights {
    values: Vec<Elem>,
    slots: Vec<ParamSlot>,
    by_name: HashMap<String, usize>,
    n_params: usize,
}

impl Weights {
    /// Parameters from named entries, in entry order.
    fn from_entries(entries: Vec<ParamEntry>) -> Weights {
        let mut w = Weights::default();
        for e in entries {
            w.push(e.name, e.shape, &e.data);
        }
        w.n_params = w.values.len();
        w
    }

    /// A live model's parameters in [`Module::params`] order, and the
    /// weight offset of each layer's installed mask: a learnable mask in
    /// the parameter list is read from its parameter slot, any other
    /// mask is appended as a constant (once per shared slot).
    fn from_model(model: &TransformerPredictor) -> (Weights, Vec<Option<usize>>) {
        let params = model.params();
        let mut w = Weights::default();
        for p in &params {
            let t = p.get();
            w.push(p.name().to_string(), t.shape().to_vec(), &t.data());
        }
        w.n_params = w.values.len();
        let seq = model.config().num_params;
        let mut constants: Vec<(Param, usize)> = Vec::new();
        let masks = model
            .masks()
            .into_iter()
            .map(|mask| {
                let mask = mask?;
                if let Some(i) = params.iter().position(|p| p.shares_slot(&mask)) {
                    let slot = &w.slots[i];
                    assert_eq!(
                        slot.shape,
                        [seq, seq],
                        "attention mask shape must be [{seq}, {seq}]"
                    );
                    return Some(slot.offset);
                }
                if let Some((_, off)) = constants.iter().find(|(m, _)| m.shares_slot(&mask)) {
                    return Some(*off);
                }
                let t = mask.get();
                assert_eq!(
                    t.shape(),
                    [seq, seq],
                    "attention mask shape must be [{seq}, {seq}]"
                );
                let off = w
                    .constant(&t.data(), seq)
                    .expect("mask shape checked above");
                constants.push((mask, off));
                Some(off)
            })
            .collect();
        (w, masks)
    }

    fn push(&mut self, name: String, shape: Vec<usize>, data: &[Elem]) {
        self.by_name.insert(name.clone(), self.slots.len());
        self.slots.push(ParamSlot {
            name,
            shape,
            offset: self.values.len(),
            len: data.len(),
        });
        self.values.extend_from_slice(data);
    }

    /// Appends a constant `[seq, seq]` attention mask after the
    /// parameters; returns its offset.
    fn constant(&mut self, mask: &[Elem], seq: usize) -> Result<usize, CheckpointError> {
        if mask.len() != seq * seq {
            return Err(CheckpointError::Format(format!(
                "mask has {} entries for {seq} tokens",
                mask.len()
            )));
        }
        let off = self.values.len();
        self.values.extend_from_slice(mask);
        Ok(off)
    }

    /// The offset of parameter `name`, which must have `shape`.
    fn tensor(&self, name: &str, shape: &[usize]) -> Result<usize, CheckpointError> {
        let slot = self
            .by_name
            .get(name)
            .map(|&i| &self.slots[i])
            .ok_or_else(|| {
                CheckpointError::Format(format!("plan compile: parameter {name:?} missing"))
            })?;
        if slot.shape != shape {
            return Err(CheckpointError::Format(format!(
                "plan compile: parameter {name:?} has shape {:?}, expected {shape:?}",
                slot.shape
            )));
        }
        Ok(slot.offset)
    }

    fn linear(&self, prefix: &str, k: usize, n: usize) -> Result<LinearW, CheckpointError> {
        Ok(LinearW {
            k,
            n,
            w: self.tensor(&format!("{prefix}.weight"), &[k, n])?,
            wt: 0,
            bias: self.tensor(&format!("{prefix}.bias"), &[n])?,
        })
    }

    fn norm(&self, prefix: &str, dim: usize) -> Result<NormW, CheckpointError> {
        Ok(NormW {
            dim,
            gamma: self.tensor(&format!("{prefix}.gamma"), &[dim])?,
            beta: self.tensor(&format!("{prefix}.beta"), &[dim])?,
        })
    }
}

/// Every weight the geometry `cfg` reads, looked up by name and shape:
/// `(table, dir, linears, norms)`. `linears` holds six per layer (`wq`,
/// `wk`, `wv`, `wo`, `lift`, `project`) then the two head layers;
/// `norms` two per layer (`ln1`, `ln2`) then the final one.
type Resolved = (usize, usize, Vec<LinearW>, Vec<NormW>);

fn resolve(cfg: &PredictorConfig, weights: &Weights) -> Result<Resolved, CheckpointError> {
    let (s, d, f, hh) = (cfg.num_params, cfg.d_model, cfg.d_hidden, cfg.head_hidden);
    let table = weights.tensor("predictor.token.table", &[s, d])?;
    let dir = weights.tensor("predictor.value_direction", &[s, d])?;
    let mut linears = Vec::with_capacity(6 * cfg.depth + 2);
    let mut norms = Vec::with_capacity(2 * cfg.depth + 1);
    for i in 0..cfg.depth {
        let p = format!("predictor.encoder.layer{i}");
        norms.push(weights.norm(&format!("{p}.ln1"), d)?);
        norms.push(weights.norm(&format!("{p}.ln2"), d)?);
        for wname in ["wq", "wk", "wv", "wo"] {
            linears.push(weights.linear(&format!("{p}.attn.{wname}"), d, d)?);
        }
        linears.push(weights.linear(&format!("{p}.ffn.lift"), d, f)?);
        linears.push(weights.linear(&format!("{p}.ffn.project"), f, d)?);
    }
    norms.push(weights.norm("predictor.encoder.final_ln", d)?);
    linears.push(weights.linear("predictor.head.0", d, hh)?);
    linears.push(weights.linear("predictor.head.1", hh, 1)?);
    Ok((table, dir, linears, norms))
}

/// Checks that a decoded parameter payload holds every tensor the
/// geometry `cfg` reads, at the right shape: the plan compiler's own
/// lookup, so a payload that passes always compiles.
///
/// # Errors
///
/// [`CheckpointError::Format`] naming the missing or misshapen
/// parameter.
pub(crate) fn check_entries(
    cfg: &PredictorConfig,
    entries: Vec<ParamEntry>,
) -> Result<(), CheckpointError> {
    resolve(cfg, &Weights::from_entries(entries)).map(|_| ())
}

/// What a lowered plan computes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Form {
    /// One prediction per row.
    Inference,
    /// The last encoder layer's attention probabilities: the inference
    /// ops up to that layer's softmax.
    Attention,
    /// Predictions, their mean-squared error against labels, and its
    /// first-order gradient.
    Training,
}

/// Lowers geometry `cfg` over `weights` (with `masks[l]` the weight
/// offset of layer `l`'s mask) into a plan of the given form.
fn lower(
    cfg: &PredictorConfig,
    weights: Weights,
    masks: &[Option<usize>],
    capacity: usize,
    form: Form,
) -> Result<Plan, CheckpointError> {
    let train = form == Form::Training;
    let capacity = capacity.max(1);
    cfg.validate().map_err(CheckpointError::Format)?;
    assert_eq!(masks.len(), cfg.depth, "one mask entry per layer");
    let (s, d, h, f, hh) = (
        cfg.num_params,
        cfg.d_model,
        cfg.heads,
        cfg.d_hidden,
        cfg.head_hidden,
    );
    let dk = d / h;
    let (table, dir, mut linears, norms) = resolve(cfg, &weights)?;
    let mut packed_len = 0;
    for lw in &mut linears {
        lw.wt = packed_len;
        packed_len += lw.k * lw.n;
    }

    // --- Emit the forward op sequence over fresh virtual buffers. ----
    let mut b = Builder::default();
    let x = b.buf(s);
    let tok = b.buf(s * d);
    b.push(Op::Embed { x, out: tok });
    let mut hcur = tok;
    let mut layers = Vec::with_capacity(cfg.depth);
    let mut attention = None;
    for (i, &mask) in masks.iter().enumerate() {
        // norms: [ln1, ln2] per layer; linears: 6 per layer.
        let (nrm, lin) = (2 * i, 6 * i);
        let ln1 = b.buf(s * d);
        b.push(Op::LayerNorm {
            src: hcur,
            dst: ln1,
            norm: nrm,
        });
        let mut qkv = [BufId(0); 3];
        for (w, slot) in qkv.iter_mut().enumerate() {
            *slot = b.buf(s * d);
            b.push(Op::Linear {
                src: ln1,
                dst: *slot,
                lin: lin + w,
                rows_per_item: s,
                gelu: None,
                add: None,
            });
        }
        let [qh, kh, vh] = qkv;
        let logits = b.buf(h * s * s);
        b.push(Op::AttnScores {
            q: qh,
            key: kh,
            dst: logits,
            mask,
        });
        // Inference runs softmax in place on the logits block — the
        // graph's separate probability tensor never exists there. A
        // training plan keeps the exponentials (in the logits block),
        // the probabilities and the row denominators for the backward.
        let (probs, denom) = if train {
            (b.buf(h * s * s), Some(b.buf(h * s)))
        } else {
            (logits, None)
        };
        b.push(Op::Softmax {
            src: logits,
            dst: probs,
            denom,
        });
        if form == Form::Attention && i + 1 == cfg.depth {
            attention = Some(probs);
            break;
        }
        let ctx = b.buf(s * d);
        b.push(Op::AttnContext {
            probs,
            v: vh,
            dst: ctx,
        });
        // The attention-output projection writes straight into the
        // residual sum (`res1 = hcur + ctx·wo + bias`), folding the
        // graph's standalone elementwise add into the bias pass.
        let res1 = b.buf(s * d);
        b.push(Op::Linear {
            src: ctx,
            dst: res1,
            lin: lin + 3,
            rows_per_item: s,
            gelu: None,
            add: Some(hcur),
        });
        let ln2 = b.buf(s * d);
        b.push(Op::LayerNorm {
            src: res1,
            dst: ln2,
            norm: nrm + 1,
        });
        let (mm, tanh, lift) = (b.buf(s * f), b.buf(s * f), b.buf(s * f));
        b.push(Op::Linear {
            src: ln2,
            dst: lift,
            lin: lin + 4,
            rows_per_item: s,
            gelu: Some((mm, tanh)),
            add: None,
        });
        let res2 = b.buf(s * d);
        b.push(Op::Linear {
            src: lift,
            dst: res2,
            lin: lin + 5,
            rows_per_item: s,
            gelu: None,
            add: Some(res1),
        });
        layers.push(LayerBufs {
            input: hcur,
            ln1,
            qkv,
            logits,
            probs,
            denom,
            ctx,
            res1,
            ln2,
            mm,
            tanh,
            lift,
        });
        hcur = res2;
    }
    // An attention plan ends at the last softmax; the others run the
    // final layernorm, the mean pool and the head.
    let (out, head) = match attention {
        Some(probs) => (probs, None),
        None => {
            let enc = b.buf(s * d);
            b.push(Op::LayerNorm {
                src: hcur,
                dst: enc,
                norm: 2 * cfg.depth,
            });
            let pooled = b.buf(d);
            b.push(Op::MeanPool {
                src: enc,
                dst: pooled,
            });
            let (hmm, htanh, hid) = (b.buf(hh), b.buf(hh), b.buf(hh));
            b.push(Op::Linear {
                src: pooled,
                dst: hid,
                lin: 6 * cfg.depth,
                rows_per_item: 1,
                gelu: Some((hmm, htanh)),
                add: None,
            });
            let out = b.buf(1);
            b.push(Op::Linear {
                src: hid,
                dst: out,
                lin: 6 * cfg.depth + 1,
                rows_per_item: 1,
                gelu: None,
                add: None,
            });
            (out, Some((pooled, (hmm, htanh, hid))))
        }
    };

    let mut outputs = vec![out];
    let mut target = None;
    let mut grad_ops = Vec::new();
    if train {
        let (y, loss) = (b.buf(1), b.scratch(1));
        b.push(Op::Mse {
            pred: out,
            target: y,
            loss,
        });
        target = Some((y, loss));
        outputs.push(loss);
        let forward = std::mem::take(&mut b.ops);
        let (pooled, head) = head.expect("a training plan has a head");
        let mut g = Backward::new(&mut b, &weights);
        g.emit(&Forward {
            cfg,
            x,
            layers: &layers,
            hcur,
            pooled,
            head,
            out,
            y,
            linears: &linears,
            norms: &norms,
            table,
            dir,
            masks,
        });
        grad_ops = std::mem::replace(&mut b.ops, forward);
    }

    let Builder { mut bufs, ops } = b;
    let reserved = if train { weights.n_params } else { 0 };
    let inputs: Vec<BufId> = std::iter::once(x).chain(target.map(|(y, _)| y)).collect();
    let arena_len = assign_arena(
        &mut bufs,
        ops.iter().chain(&grad_ops),
        (&inputs, &outputs),
        capacity,
        reserved,
    );
    let mut plan = Plan {
        fingerprint: 0,
        capacity,
        config: *cfg,
        dk,
        scale: 1.0 / (dk as Elem).sqrt(),
        inv_seq: 1.0 / (s as Elem),
        weights: weights.values,
        packed: vec![0.0; packed_len],
        params: weights.slots,
        n_params: weights.n_params,
        table,
        dir,
        linears,
        norms,
        ops,
        grad_ops,
        bufs,
        input: x,
        output: out,
        target,
        arena_len,
    };
    plan.repack();
    Ok(plan)
}

/// The forward buffers of one encoder layer a backward reads.
struct LayerBufs {
    input: BufId,
    ln1: BufId,
    /// The projections `q`, `k` and `v`, `[b, s, h·dk]`.
    qkv: [BufId; 3],
    /// The scores (the exponentials, after a training softmax).
    logits: BufId,
    probs: BufId,
    denom: Option<BufId>,
    /// The merged attention context.
    ctx: BufId,
    res1: BufId,
    ln2: BufId,
    mm: BufId,
    tanh: BufId,
    lift: BufId,
}

/// The forward's buffers and resolved weights, as the backward reads
/// them.
struct Forward<'a> {
    cfg: &'a PredictorConfig,
    x: BufId,
    layers: &'a [LayerBufs],
    /// The last layer's output (the final layernorm's input).
    hcur: BufId,
    pooled: BufId,
    /// The first head layer's `(mm, tanh)` and output.
    head: (BufId, BufId, BufId),
    out: BufId,
    y: BufId,
    linears: &'a [LinearW],
    norms: &'a [NormW],
    table: usize,
    dir: usize,
    masks: &'a [Option<usize>],
}

/// Emits the first-order backward: every op computes one contribution
/// into a fresh buffer, and the gradient of a tensor with several
/// consumers sums its contributions in arrival order (autograd's
/// reverse-topological order), the first as is, each later one added
/// to it.
struct Backward<'b> {
    b: &'b mut Builder,
    /// Each activation's gradient buffer, once its first contribution
    /// has arrived.
    slots: HashMap<BufId, BufId>,
    /// Each parameter's pinned gradient buffer, by weight offset, and
    /// whether it holds a contribution yet.
    params: HashMap<usize, (BufId, bool)>,
    /// Later parameter contributions the next op writes, as
    /// `(pinned, scratch)`: added in once it has run.
    pending: Vec<(BufId, BufId)>,
}

impl<'b> Backward<'b> {
    fn new(b: &'b mut Builder, weights: &Weights) -> Backward<'b> {
        let params = weights
            .slots
            .iter()
            .map(|slot| (slot.offset, (b.pinned(slot.offset, slot.len), false)))
            .collect();
        Backward {
            b,
            slots: HashMap::new(),
            params,
            pending: Vec::new(),
        }
    }

    /// Pushes `op`, then adds in each later parameter contribution it
    /// wrote.
    fn push(&mut self, op: Op) {
        self.b.push(op);
        for (pinned, scratch) in std::mem::take(&mut self.pending) {
            self.b.push(Op::AddInto {
                dst: pinned,
                src: scratch,
            });
        }
    }

    /// Adds `grad` as the next contribution to `act`'s gradient.
    fn contribute(&mut self, act: BufId, grad: BufId) {
        match self.slots.get(&act) {
            None => {
                self.slots.insert(act, grad);
            }
            Some(&sum) => self.b.push(Op::AddInto {
                dst: sum,
                src: grad,
            }),
        }
    }

    /// `act`'s gradient, once every contribution has been emitted.
    fn grad(&self, act: BufId) -> BufId {
        self.slots[&act]
    }

    /// Where the op pushed next writes the gradient of the parameter at
    /// weight offset `offset`: its pinned buffer for the first
    /// contribution, else a scratch buffer [`Backward::push`] adds in.
    fn param(&mut self, offset: usize) -> BufId {
        let (pinned, written) = self.params[&offset];
        if !written {
            self.params.insert(offset, (pinned, true));
            return pinned;
        }
        let scratch = self.b.scratch(self.b.bufs[pinned.0].fixed);
        self.pending.push((pinned, scratch));
        scratch
    }

    /// The backward of a linear layer reading `src`, given its output
    /// gradient `g`; returns the input gradient buffer.
    fn linear(
        &mut self,
        lin: &LinearW,
        index: usize,
        src: BufId,
        g: BufId,
        rows_per_item: usize,
        gelu: Option<(BufId, BufId)>,
    ) -> BufId {
        let (k, n) = (lin.k, lin.n);
        let dst = self.b.buf(rows_per_item * k);
        let gelu = gelu.map(|(mm, tanh)| (mm, tanh, self.b.buf(rows_per_item * n)));
        let (weight, bias) = (self.param(lin.w), self.param(lin.bias));
        self.push(Op::LinearGrad {
            src,
            g,
            lin: index,
            rows_per_item,
            gelu,
            dst,
            weight,
            bias,
        });
        dst
    }

    /// The backward of a layernorm reading `src`, given its output
    /// gradient `g`; returns the input gradient buffer.
    fn layernorm(&mut self, norm: &NormW, index: usize, src: BufId, g: BufId) -> BufId {
        let dst = self.b.buf(norm.dim * self.per_row(src, norm.dim));
        let scratch = self.b.scratch(3 * norm.dim);
        let (gamma, beta) = (self.param(norm.gamma), self.param(norm.beta));
        self.push(Op::LayerNormGrad {
            src,
            g,
            norm: index,
            dst,
            gamma,
            beta,
            scratch,
        });
        dst
    }

    /// Rows per batch item of a buffer `width` elements wide.
    fn per_row(&self, buf: BufId, width: usize) -> usize {
        self.b.bufs[buf.0].per_item / width
    }

    fn emit(&mut self, fw: &Forward) {
        let cfg = fw.cfg;
        let (s, d, h) = (cfg.num_params, cfg.d_model, cfg.heads);
        let depth = cfg.depth;
        let gpred = self.b.buf(1);
        self.push(Op::MseGrad {
            pred: fw.out,
            target: fw.y,
            dst: gpred,
        });
        let (hmm, htanh, hid) = fw.head;
        let ghid = self.linear(
            &fw.linears[6 * depth + 1],
            6 * depth + 1,
            hid,
            gpred,
            1,
            None,
        );
        let gpooled = self.linear(
            &fw.linears[6 * depth],
            6 * depth,
            fw.pooled,
            ghid,
            1,
            Some((hmm, htanh)),
        );
        let genc = self.b.buf(s * d);
        self.push(Op::MeanPoolGrad {
            g: gpooled,
            dst: genc,
        });
        let gx = self.layernorm(&fw.norms[2 * depth], 2 * depth, fw.hcur, genc);
        self.contribute(fw.hcur, gx);

        for (i, l) in fw.layers.iter().enumerate().rev() {
            let (nrm, lin) = (2 * i, 6 * i);
            // The layer's output is `res1 + project(lift)`: the skip
            // connection's gradient reaches `res1` first.
            let res2 = if i + 1 == depth {
                fw.hcur
            } else {
                fw.layers[i + 1].input
            };
            let gres2 = self.grad(res2);
            self.contribute(l.res1, gres2);
            let glift = self.linear(&fw.linears[lin + 5], lin + 5, l.lift, gres2, s, None);
            let gln2 = self.linear(
                &fw.linears[lin + 4],
                lin + 4,
                l.ln2,
                glift,
                s,
                Some((l.mm, l.tanh)),
            );
            let gx2 = self.layernorm(&fw.norms[nrm + 1], nrm + 1, l.res1, gln2);
            self.contribute(l.res1, gx2);
            // `res1 = input + wo(ctx)`: likewise for the layer input.
            let gres1 = self.grad(l.res1);
            self.contribute(l.input, gres1);
            let gctx = self.linear(&fw.linears[lin + 3], lin + 3, l.ctx, gres1, s, None);
            let (gprobs, gv) = (self.b.buf(h * s * s), self.b.buf(s * d));
            self.push(Op::AttnContextGrad {
                probs: l.probs,
                v: l.qkv[2],
                g: gctx,
                dprobs: gprobs,
                dv: gv,
            });
            let glogits = self.b.buf(h * s * s);
            let terms = self.b.scratch(s);
            self.push(Op::SoftmaxGrad {
                g: gprobs,
                exps: l.logits,
                denom: l.denom.expect("training plans keep softmax denominators"),
                dst: glogits,
                terms,
            });
            let (gq, gk) = (self.b.buf(s * d), self.b.buf(s * d));
            // Only a mask in the parameter list (learnable) gets a
            // gradient; a frozen one sits past the parameters.
            let learnable = fw.masks[i].filter(|off| self.params.contains_key(off));
            let mask = learnable.map(|off| self.param(off));
            self.push(Op::AttnScoresGrad {
                q: l.qkv[0],
                key: l.qkv[1],
                g: glogits,
                dq: gq,
                dk: gk,
                mask,
            });
            // `q`, `k` and `v` each read the layernorm output; autograd
            // delivers their contributions in that order.
            for (w, gproj) in [gq, gk, gv].into_iter().enumerate() {
                let gln1 = self.linear(&fw.linears[lin + w], lin + w, l.ln1, gproj, s, None);
                self.contribute(l.ln1, gln1);
            }
            let gln1 = self.grad(l.ln1);
            let gx1 = self.layernorm(&fw.norms[nrm], nrm, l.input, gln1);
            self.contribute(l.input, gx1);
        }

        let gtok = self.grad(fw.layers.first().map_or(fw.hcur, |l| l.input));
        let (table, dir) = (self.param(fw.table), self.param(fw.dir));
        self.push(Op::EmbedGrad {
            x: fw.x,
            g: gtok,
            table,
            dir,
        });
    }
}

/// Accumulates virtual buffers and ops during lowering.
#[derive(Default)]
struct Builder {
    bufs: Vec<BufSpec>,
    ops: Vec<Op>,
}

impl Builder {
    fn add(&mut self, per_item: usize, fixed: usize, offset: usize, pinned: bool) -> BufId {
        self.bufs.push(BufSpec {
            per_item,
            fixed,
            offset,
            pinned,
        });
        BufId(self.bufs.len() - 1)
    }

    /// A buffer of `per_item` elements per batch row.
    fn buf(&mut self, per_item: usize) -> BufId {
        self.add(per_item, 0, usize::MAX, false)
    }

    /// A batch-independent scratch buffer of `fixed` elements.
    fn scratch(&mut self, fixed: usize) -> BufId {
        self.add(0, fixed, usize::MAX, false)
    }

    /// A parameter gradient at `offset` of the gradient region.
    fn pinned(&mut self, offset: usize, len: usize) -> BufId {
        self.add(0, len, offset, true)
    }

    fn push(&mut self, op: Op) {
        self.ops.push(op);
    }
}

/// Arena granule in elements: 4 × f64 = 32 bytes, so every buffer
/// offset keeps the pool [`metadse_nn::tensor::pool::Buf`] alignment.
const ALIGN_ELEMS: usize = 4;

fn align_up(n: usize) -> usize {
    n.div_ceil(ALIGN_ELEMS) * ALIGN_ELEMS
}

/// Assigns arena offsets by a linear scan over op def/use: each buffer
/// is allocated at its defining op and released after its last use, so
/// non-overlapping lifetimes share arena ranges. Inputs are written
/// before the first op and outputs read after the last, so their
/// lifetimes stretch to the ends. The first `reserved` elements hold the
/// pinned parameter gradients. Returns the arena length (in elements) at
/// full `capacity` — the peak simultaneous liveness, which is what
/// "sized exactly" means here.
fn assign_arena<'a>(
    bufs: &mut [BufSpec],
    ops: impl Iterator<Item = &'a Op>,
    (inputs, outputs): (&[BufId], &[BufId]),
    capacity: usize,
    reserved: usize,
) -> usize {
    let ops: Vec<&Op> = ops.collect();
    let (mut def, mut last) = live_ranges(bufs.len(), &ops);
    for input in inputs {
        def[input.0] = 0;
    }
    for out in outputs {
        last[out.0] = usize::MAX;
    }

    let mut alloc = FreeList {
        free: Vec::new(),
        top: align_up(reserved),
    };
    for i in 0..ops.len() {
        // Allocate every buffer defined here before releasing anything:
        // an op's outputs must never alias its still-live inputs.
        for (spec, _) in bufs
            .iter_mut()
            .zip(&def)
            .filter(|(s, &d)| d == i && !s.pinned)
        {
            spec.offset = alloc.alloc(align_up(spec.len_at(capacity)));
        }
        for (spec, _) in bufs.iter().zip(&last).filter(|(s, &l)| l == i && !s.pinned) {
            alloc.free(spec.offset, align_up(spec.len_at(capacity)));
        }
    }
    debug_assert!(
        bufs.iter().all(|s| s.offset != usize::MAX),
        "every plan buffer must be placed"
    );
    alloc.top
}

/// Each buffer's first and last op index.
fn live_ranges(n: usize, ops: &[&Op]) -> (Vec<usize>, Vec<usize>) {
    let mut def = vec![usize::MAX; n];
    let mut last = vec![0usize; n];
    for (i, op) in ops.iter().enumerate() {
        for BufId(b) in op.bufs() {
            if def[b] == usize::MAX {
                def[b] = i;
            }
            last[b] = i;
        }
    }
    (def, last)
}

/// First-fit free-list allocator over one contiguous arena, with
/// coalescing on free. Offsets/lengths are in elements, always
/// [`ALIGN_ELEMS`]-aligned.
#[derive(Default)]
struct FreeList {
    /// Free `(offset, len)` ranges, sorted by offset, coalesced.
    free: Vec<(usize, usize)>,
    /// High-water mark — the arena length.
    top: usize,
}

impl FreeList {
    fn alloc(&mut self, len: usize) -> usize {
        if let Some(i) = self.free.iter().position(|&(_, l)| l >= len) {
            let (off, l) = self.free[i];
            if l == len {
                self.free.remove(i);
            } else {
                self.free[i] = (off + len, l - len);
            }
            return off;
        }
        let off = self.top;
        self.top += len;
        off
    }

    fn free(&mut self, offset: usize, len: usize) {
        if len == 0 {
            return;
        }
        let i = self
            .free
            .iter()
            .position(|&(o, _)| o > offset)
            .unwrap_or(self.free.len());
        self.free.insert(i, (offset, len));
        // Coalesce with the successor, then the predecessor.
        if i + 1 < self.free.len() && self.free[i].0 + self.free[i].1 == self.free[i + 1].0 {
            self.free[i].1 += self.free[i + 1].1;
            self.free.remove(i + 1);
        }
        if i > 0 && self.free[i - 1].0 + self.free[i - 1].1 == self.free[i].0 {
            self.free[i - 1].1 += self.free[i].1;
            self.free.remove(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(depth: usize) -> TransformerPredictor {
        TransformerPredictor::new(
            PredictorConfig {
                num_params: 6,
                d_model: 8,
                heads: 2,
                depth,
                d_hidden: 12,
                head_hidden: 8,
            },
            7,
        )
    }

    fn servable(depth: usize) -> ServablePredictor {
        ServablePredictor::capture(&model(depth), None, "ipc")
    }

    #[test]
    fn compile_shapes_the_expected_sequence() {
        let plan = Plan::compile(&servable(2), 4).unwrap();
        // 1 prologue op (embed) + 11 per layer (residual adds are
        // folded into their linears, heads are read and written in
        // place) + 4 epilogue ops.
        assert_eq!(plan.num_ops(), 1 + 11 * 2 + 4);
        assert_eq!(plan.capacity(), 4);
        assert_eq!(plan.arity(), 6);
        assert_eq!(plan.linears.len(), 6 * 2 + 2);
        assert_eq!(plan.norms.len(), 2 * 2 + 1);
    }

    /// The sum of every scanned buffer's aligned length and the arena
    /// the scan placed them in (past the gradient region).
    fn footprint(plan: &Plan, reserved: usize) -> (usize, usize) {
        let total = plan
            .bufs
            .iter()
            .filter(|s| !s.pinned)
            .map(|s| align_up(s.len_at(plan.capacity())))
            .sum();
        (total, plan.arena_len() - align_up(reserved))
    }

    #[test]
    fn liveness_reuse_beats_sum_of_buffers() {
        let (total, used) = footprint(&Plan::compile(&servable(3), 8).unwrap(), 0);
        assert!(
            used < total / 2,
            "liveness sharing should reclaim most of {total}, got {used}"
        );
        // A training forward keeps what its backward reads, but the
        // gradients still reuse what dies.
        let plan = Plan::training(&model(3), 8);
        let (total, used) = footprint(&plan, plan.n_params);
        assert!(used < total * 3 / 4, "{used} of {total}");
    }

    #[test]
    fn live_ranges_never_overlap() {
        for plan in [
            Plan::compile(&servable(2), 4).unwrap(),
            Plan::training(&model(2), 4),
        ] {
            // Recompute def/last and walk the schedule asserting that
            // simultaneously-live buffers occupy disjoint arena ranges.
            let ops: Vec<&Op> = plan.ops.iter().chain(&plan.grad_ops).collect();
            let n = plan.bufs.len();
            let (mut def, mut last) = live_ranges(n, &ops);
            last[plan.output.0] = usize::MAX;
            if let Some((y, loss)) = plan.target {
                def[y.0] = 0;
                last[loss.0] = usize::MAX;
            }
            for i in 0..ops.len() {
                let live: Vec<usize> = (0..n).filter(|&b| def[b] <= i && last[b] >= i).collect();
                for (ai, &a) in live.iter().enumerate() {
                    for &b in &live[ai + 1..] {
                        let (sa, sb) = (&plan.bufs[a], &plan.bufs[b]);
                        let (ea, eb) = (
                            sa.offset + sa.len_at(plan.capacity()),
                            sb.offset + sb.len_at(plan.capacity()),
                        );
                        assert!(
                            ea <= sb.offset || eb <= sa.offset,
                            "buffers {a} and {b} overlap while both live at op {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn offsets_are_32_byte_aligned() {
        let plan = Plan::compile(&servable(2), 3).unwrap();
        for spec in &*plan.bufs {
            assert_eq!(spec.offset % ALIGN_ELEMS, 0);
        }
    }

    #[test]
    fn compile_rejects_capacity_zero_by_clamping() {
        let plan = Plan::compile(&servable(1), 0).unwrap();
        assert_eq!(plan.capacity(), 1);
    }

    #[test]
    fn training_plan_keeps_gradients_in_parameter_order() {
        let m = model(2);
        let plan = Plan::training(&m, 3);
        let names: Vec<String> = m.params().iter().map(|p| p.name().to_string()).collect();
        let ranges: Vec<&str> = plan.param_ranges().map(|(n, _)| n).collect();
        assert_eq!(names, ranges);
        // Every parameter gradient is pinned inside the reserved front
        // region; nothing the liveness scan places overlaps it.
        let reserved = align_up(plan.n_params);
        for spec in &plan.bufs {
            if spec.pinned {
                assert!(spec.offset + spec.fixed <= plan.n_params);
            } else {
                assert!(spec.offset >= reserved);
            }
        }
    }

    /// `model(2)` with no mask, a frozen one or a learnable one installed
    /// on both layers.
    fn masked_model(learnable: Option<bool>) -> TransformerPredictor {
        let m = model(2);
        if let Some(learnable) = learnable {
            let values: Vec<Elem> = (0..36).map(|i| -0.1 * (i % 7) as Elem).collect();
            let tensor = if learnable {
                Tensor::param_from_vec(values, &[6, 6])
            } else {
                Tensor::from_vec(values, &[6, 6])
            };
            m.install_mask(Param::new("wam.mask", tensor));
        }
        m
    }

    fn inputs() -> Vec<Vec<Elem>> {
        (0..5)
            .map(|i| (0..6).map(|j| ((i * 6 + j) as Elem * 0.37).sin()).collect())
            .collect()
    }

    #[test]
    fn a_plan_rebuilds_the_model_it_was_compiled_from() {
        for learnable in [None, Some(false), Some(true)] {
            let original = masked_model(learnable);
            let rebuilt = Plan::from_model(&original, 1).to_model();
            let bits = |m: &TransformerPredictor| -> Vec<u64> {
                m.predict(&inputs()).iter().map(|v| v.to_bits()).collect()
            };
            assert_eq!(bits(&rebuilt), bits(&original), "mask {learnable:?}");
            let describe = |m: &TransformerPredictor| -> Vec<(String, Vec<Elem>, bool)> {
                m.params()
                    .iter()
                    .map(|p| {
                        (
                            p.name().to_string(),
                            p.get().to_vec(),
                            p.get().requires_grad(),
                        )
                    })
                    .collect()
            };
            assert_eq!(
                describe(&rebuilt),
                describe(&original),
                "mask {learnable:?}"
            );
            // Both layers hold one shared mask again, frozen or learnable
            // as it was.
            let masks = rebuilt.masks();
            match (&masks[0], &masks[1]) {
                (Some(a), Some(b)) => {
                    assert!(a.shares_slot(b));
                    assert_eq!(Some(a.get().requires_grad()), learnable);
                }
                (None, None) => assert_eq!(learnable, None),
                _ => panic!("mask {learnable:?}: layers disagree"),
            }
        }
    }

    #[test]
    fn attention_plan_outputs_the_recorded_attention() {
        for learnable in [None, Some(false), Some(true)] {
            let m = masked_model(learnable);
            let plan = Plan::attention(&m, 5);
            let got = plan.output(&inputs(), &mut PlanArena::new(), None).to_vec();
            m.set_record_attention(true);
            m.predict(&inputs());
            let recorded = m.last_attention().expect("recorded");
            assert_eq!(recorded.shape(), [5, 2, 6, 6]);
            let bits = |v: &[Elem]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&recorded.to_vec()), "mask {learnable:?}");
        }
        // The plan stops at the last softmax: the embedding, one whole
        // layer, then the last layer's layernorm, three projections,
        // scores and softmax.
        let ops = Plan::attention(&model(2), 1).ops.len();
        assert_eq!(ops, 1 + 11 + 6);
    }

    #[test]
    fn free_list_coalesces() {
        let mut fl = FreeList::default();
        let a = fl.alloc(8);
        let b = fl.alloc(8);
        let c = fl.alloc(8);
        fl.free(a, 8);
        fl.free(c, 8);
        fl.free(b, 8);
        // All three coalesced: the next fit reuses offset 0.
        assert_eq!(fl.alloc(24), 0);
        assert_eq!(fl.top, 24);
    }
}
