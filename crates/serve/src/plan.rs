//! Compiled fixed-shape inference plans: a tiny serving IR.
//!
//! Serving geometry is frozen at artifact-seal time, so the layer-stack
//! walk a [`ServablePredictor`] instantiation performs on every forward
//! — graph-node allocation, shape re-derivation, per-forward weight
//! packing, pool churn — can be compiled away once. [`Plan::compile`]
//! lowers an artifact into a flat sequence of ten shape-specialized ops
//! (`Op`) over preallocated arena buffers:
//!
//! ```text
//! Embed → { LayerNorm → Linear×3 → SplitHeads×3 → AttnScores →
//!           Softmax (in place) → AttnContext → MergeHeads →
//!           Linear+residual → LayerNorm → Linear(gelu) →
//!           Linear+residual }×depth
//!       → LayerNorm → MeanPool → Linear(gelu) → Linear
//! ```
//!
//! Two structural savings fall out of compile-time scheduling: softmax
//! runs **in place** on the logits block (the graph materializes a
//! separate probability tensor), and each residual add is **folded
//! into the bias pass** of the linear that produces its right-hand
//! side (the graph runs a separate elementwise add over a third
//! buffer). Both keep the per-element expression trees — and therefore
//! the bits — identical; they only drop a buffer and a memory pass.
//!
//! Everything dynamic about the layer stack is resolved at compile
//! time: shapes and strides are burned into each op, dense weights are
//! pre-packed transposed (the per-forward `pack_transposed` the tensor
//! matmul pays per distinct weight), the attention scale, mask, and
//! layernorm constants are folded in, and every intermediate gets a
//! fixed offset in one arena buffer sized by a linear-scan over op
//! def/use liveness (buffers whose lifetimes don't overlap share
//! memory). The only per-forward decisions left are the ones that are
//! *data-dependent by contract*: each matmul's sparse/dense path choice
//! counts zeros at run time with the same
//! [`metadse_nn::prims::SPARSE_ZERO_FRACTION`] threshold the tensor kernel uses.
//!
//! **Bit-exactness.** Plan execution ([`Plan::run`], in
//! [`crate::exec`]) dispatches onto the same backend primitives as the
//! tensor ops ([`metadse_nn::prims`]) and reproduces each op's exact
//! accumulation order — the fused-kernel order, which the `metadse-nn`
//! contracts pin bit-identical to the composite forms with the buffer
//! pool on or off, per backend. A plan forward is therefore
//! bit-identical to `servable.instantiate().predict(...)` on the same
//! thread; the parity suite in `tests/plan.rs` asserts this across the
//! whole backend × pool × fused mode matrix, poison inputs included.
//!
//! **Compile is the serving gate.** The server runs nothing but plans,
//! so [`Plan::compile`] rejects every artifact it cannot lower —
//! `heads` not dividing `d_model`, a missing or misshapen parameter, a
//! mask of the wrong size — and the server refuses that workload's
//! requests at admission instead of handing a worker something it
//! cannot run.
//!
//! **Batch capacity.** A plan is compiled for a maximum batch
//! (`capacity`, the server's `max_batch`) and serves any batch `1 ≤ b ≤
//! capacity`: every buffer is `rows × fixed-width` with the row count
//! scaling in `b`, so smaller batches just use a prefix of each region.
//! Per-row independence of every op keeps results identical to a
//! capacity-sized run — the registry therefore caches **one** plan per
//! `fingerprint × capacity` ([`crate::registry::ModelRegistry::plan_for`]).

use metadse::predictor::PredictorConfig;
use metadse::ServablePredictor;
use metadse_nn::serialize::{CheckpointError, ParamEntry};
use metadse_nn::Elem;

/// LayerNorm epsilon, fixed by `metadse_nn::layers::LayerNorm::new`.
pub(crate) const LN_EPS: Elem = 1e-5;

/// One virtual buffer in the plan; resolved to an arena range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct BufId(pub(crate) usize);

/// A virtual buffer's geometry and its assigned arena placement.
#[derive(Clone, Debug)]
pub(crate) struct BufSpec {
    /// Elements per batch row (0 for batch-independent scratch).
    pub(crate) per_item: usize,
    /// Batch-independent elements (per-batch scratch like attention
    /// packing panels, reused across the `b × heads` batch loop).
    pub(crate) fixed: usize,
    /// Arena offset in elements, 32-byte aligned; assigned by the
    /// liveness scan.
    pub(crate) offset: usize,
}

impl BufSpec {
    /// Live length at runtime batch `b`.
    pub(crate) fn len_at(&self, b: usize) -> usize {
        self.fixed + self.per_item * b
    }
}

/// Number of `Op` kinds (the IR's op set).
pub const OP_KINDS: usize = 10;

/// Display names for each op kind, indexed by `Op::kind`; the label
/// vocabulary of the per-op attribution counters
/// (`serve/plan_op/<name>_us`).
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
];

/// One op of the serving IR. Shapes and strides come from the plan's
/// compiled geometry; buffers are arena ranges.
#[derive(Clone, Debug)]
pub(crate) enum Op {
    /// `out[b,s,:] = table[s,:] + x[b,s] * dir[s,:]` — token identity
    /// embedding plus the value-direction encoding, fused.
    Embed { x: BufId, out: BufId },
    /// Row-wise affine layernorm (`norms[norm]`, eps [`LN_EPS`]).
    LayerNorm { src: BufId, dst: BufId, norm: usize },
    /// `dst = src · W + bias`, optionally through GELU
    /// (`linears[lin]`). `rows_per_item` rows per batch row; the
    /// GELU form stages the matmul in `mm` and needs a tanh scratch.
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
    /// `[b, s, h·dk] → [b, h, s, dk]` head split (strided copy).
    SplitHeads { src: BufId, dst: BufId },
    /// `[b, h, s, dk] → [b, s, h·dk]` head merge (strided copy).
    MergeHeads { src: BufId, dst: BufId },
    /// `dst = (q · kᵀ) * scale (+ mask)` per `(b, h)` block, with the
    /// tensor matmul's per-block sparse/dense choice.
    AttnScores { q: BufId, key: BufId, dst: BufId },
    /// Row-wise softmax over the trailing axis.
    Softmax { src: BufId, dst: BufId },
    /// `dst = probs · v` per `(b, h)` block; dense blocks pack `v`
    /// transposed into the `pack` scratch (the compile-time analogue
    /// of the matmul's per-forward packing).
    AttnContext {
        probs: BufId,
        v: BufId,
        dst: BufId,
        pack: BufId,
    },
    /// `dst[b,:] = mean over s of src[b,s,:]`.
    MeanPool { src: BufId, dst: BufId },
}

impl Op {
    /// Kind index into [`OP_KIND_NAMES`].
    pub(crate) fn kind(&self) -> usize {
        match self {
            Op::Embed { .. } => 0,
            Op::LayerNorm { .. } => 1,
            Op::Linear { .. } => 2,
            Op::SplitHeads { .. } => 3,
            Op::MergeHeads { .. } => 4,
            Op::AttnScores { .. } => 5,
            Op::Softmax { .. } => 6,
            Op::AttnContext { .. } => 7,
            // Kind 8 ("residual") is retired: residual adds are folded
            // into `Op::Linear::add`. The name stays in
            // [`OP_KIND_NAMES`] so counter indices remain stable.
            Op::MeanPool { .. } => 9,
        }
    }

    /// Every buffer the op touches (reads and writes).
    fn bufs(&self) -> Vec<BufId> {
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
                if let Some((mm, tanh)) = gelu {
                    v.push(mm);
                    v.push(tanh);
                }
                if let Some(a) = add {
                    v.push(a);
                }
                v
            }
            Op::SplitHeads { src, dst } | Op::MergeHeads { src, dst } => vec![src, dst],
            Op::AttnScores { q, key, dst } => vec![q, key, dst],
            Op::Softmax { src, dst } => vec![src, dst],
            Op::AttnContext {
                probs,
                v,
                dst,
                pack,
            } => vec![probs, v, dst, pack],
            Op::MeanPool { src, dst } => vec![src, dst],
        }
    }
}

/// One linear layer's compiled weights.
#[derive(Clone, Debug)]
pub(crate) struct LinearW {
    /// Input width.
    pub(crate) k: usize,
    /// Output width.
    pub(crate) n: usize,
    /// Row-major `[k, n]` weight — the sparse (axpy) path operand.
    pub(crate) w: Vec<Elem>,
    /// Pre-packed transpose `[n, k]` — the dense (dot) path panel,
    /// packed once at compile time instead of once per forward.
    pub(crate) wt: Vec<Elem>,
    /// Bias `[n]`.
    pub(crate) bias: Vec<Elem>,
}

/// One layernorm's compiled affine parameters.
#[derive(Clone, Debug)]
pub(crate) struct NormW {
    pub(crate) dim: usize,
    pub(crate) gamma: Vec<Elem>,
    pub(crate) beta: Vec<Elem>,
}

/// A compiled, shape-specialized inference plan for one artifact at one
/// batch capacity. Plain `Send + Sync` data — workers share it by
/// `Arc` and bring their own [`crate::exec::PlanArena`].
#[derive(Debug)]
pub struct Plan {
    pub(crate) fingerprint: u64,
    pub(crate) capacity: usize,
    pub(crate) seq: usize,
    pub(crate) d_model: usize,
    pub(crate) heads: usize,
    pub(crate) dk: usize,
    /// Attention logit scale `1/sqrt(dk)`.
    pub(crate) scale: Elem,
    /// Mean-pool multiplier `1/seq` (the tensor `div_scalar` form).
    pub(crate) inv_seq: Elem,
    pub(crate) table: Vec<Elem>,
    pub(crate) dir: Vec<Elem>,
    /// Additive WAM attention-logit mask `[seq, seq]`, if captured.
    pub(crate) mask: Option<Vec<Elem>>,
    pub(crate) linears: Vec<LinearW>,
    pub(crate) norms: Vec<NormW>,
    pub(crate) ops: Vec<Op>,
    pub(crate) bufs: Vec<BufSpec>,
    pub(crate) input: BufId,
    pub(crate) output: BufId,
    arena_len: usize,
}

impl Plan {
    /// Lowers `servable` into a plan serving batches of up to
    /// `capacity` rows (min 1).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Format`] when the geometry fails
    /// [`PredictorConfig::validate`], or the embedded parameter payload
    /// is missing a tensor or carries one at the wrong shape — possible
    /// only for hand-built artifacts (decoded ones are validated).
    pub fn compile(servable: &ServablePredictor, capacity: usize) -> Result<Plan, CheckpointError> {
        let capacity = capacity.max(1);
        let cfg: PredictorConfig = *servable.config();
        let (s, d, h, f, hh) = (
            cfg.num_params,
            cfg.d_model,
            cfg.heads,
            cfg.d_hidden,
            cfg.head_hidden,
        );
        cfg.validate().map_err(CheckpointError::Format)?;
        let dk = d / h;
        let entries = Weights::new(servable.param_entries()?);

        let table = entries.tensor("predictor.token.table", &[s, d])?;
        let dir = entries.tensor("predictor.value_direction", &[s, d])?;
        let mut linears = Vec::with_capacity(6 * cfg.depth + 2);
        let mut norms = Vec::with_capacity(2 * cfg.depth + 1);
        for i in 0..cfg.depth {
            let p = format!("predictor.encoder.layer{i}");
            norms.push(entries.norm(&format!("{p}.ln1"), d)?);
            norms.push(entries.norm(&format!("{p}.ln2"), d)?);
            for wname in ["wq", "wk", "wv", "wo"] {
                linears.push(entries.linear(&format!("{p}.attn.{wname}"), d, d)?);
            }
            linears.push(entries.linear(&format!("{p}.ffn.lift"), d, f)?);
            linears.push(entries.linear(&format!("{p}.ffn.project"), f, d)?);
        }
        norms.push(entries.norm("predictor.encoder.final_ln", d)?);
        linears.push(entries.linear("predictor.head.0", d, hh)?);
        linears.push(entries.linear("predictor.head.1", hh, 1)?);

        let mask = servable.mask_values().map(<[Elem]>::to_vec);
        if let Some(m) = &mask {
            if m.len() != s * s {
                return Err(CheckpointError::Format(format!(
                    "mask has {} entries for {s} tokens",
                    m.len()
                )));
            }
        }

        // --- Emit the op sequence over fresh virtual buffers. --------
        let mut b = Builder::default();
        let x = b.buf(s);
        let tok = b.buf(s * d);
        b.push(Op::Embed { x, out: tok });
        let mut hcur = tok;
        for i in 0..cfg.depth {
            // norms: [ln1, ln2] per layer; linears: 6 per layer.
            let (nrm, lin) = (2 * i, 6 * i);
            let ln1 = b.buf(s * d);
            b.push(Op::LayerNorm {
                src: hcur,
                dst: ln1,
                norm: nrm,
            });
            let mut heads_split = [BufId(0); 3];
            for (w, slot) in heads_split.iter_mut().enumerate() {
                let flat = b.buf(s * d);
                b.push(Op::Linear {
                    src: ln1,
                    dst: flat,
                    lin: lin + w,
                    rows_per_item: s,
                    gelu: None,
                    add: None,
                });
                let split = b.buf(s * d);
                b.push(Op::SplitHeads {
                    src: flat,
                    dst: split,
                });
                *slot = split;
            }
            let [qh, kh, vh] = heads_split;
            let logits = b.buf(h * s * s);
            b.push(Op::AttnScores {
                q: qh,
                key: kh,
                dst: logits,
            });
            // Softmax runs in place on the logits block — the graph's
            // separate probability tensor never exists here.
            b.push(Op::Softmax {
                src: logits,
                dst: logits,
            });
            let pack = b.scratch(s * dk);
            let ctx = b.buf(s * d);
            b.push(Op::AttnContext {
                probs: logits,
                v: vh,
                dst: ctx,
                pack,
            });
            let merged = b.buf(s * d);
            b.push(Op::MergeHeads {
                src: ctx,
                dst: merged,
            });
            // The attention-output projection writes straight into the
            // residual sum (`res1 = hcur + merged·wo + bias`), folding
            // the graph's standalone elementwise add into the bias
            // pass.
            let res1 = b.buf(s * d);
            b.push(Op::Linear {
                src: merged,
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
            hcur = res2;
        }
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

        let Builder { mut bufs, ops } = b;
        let arena_len = assign_arena(&mut bufs, &ops, out, capacity);
        Ok(Plan {
            fingerprint: servable.fingerprint(),
            capacity,
            seq: s,
            d_model: d,
            heads: h,
            dk,
            scale: 1.0 / (dk as Elem).sqrt(),
            inv_seq: 1.0 / (s as Elem),
            table,
            dir,
            mask,
            linears,
            norms,
            ops,
            bufs,
            input: x,
            output: out,
            arena_len,
        })
    }

    /// Fingerprint of the artifact this plan was compiled from.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Maximum batch rows a single [`Plan::run`] accepts.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Arena elements one execution needs at full capacity — the peak
    /// of the liveness scan, not the sum of all buffers.
    pub fn arena_len(&self) -> usize {
        self.arena_len
    }

    /// Ops in the compiled sequence.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Input arity (`num_params` of the compiled geometry).
    pub fn arity(&self) -> usize {
        self.seq
    }
}

/// Decoded parameter payload indexed by name.
struct Weights {
    by_name: std::collections::HashMap<String, ParamEntry>,
}

impl Weights {
    fn new(entries: Vec<ParamEntry>) -> Weights {
        Weights {
            by_name: entries.into_iter().map(|e| (e.name.clone(), e)).collect(),
        }
    }

    fn tensor(&self, name: &str, shape: &[usize]) -> Result<Vec<Elem>, CheckpointError> {
        let entry = self.by_name.get(name).ok_or_else(|| {
            CheckpointError::Format(format!("plan compile: parameter {name:?} missing"))
        })?;
        if entry.shape != shape {
            return Err(CheckpointError::Format(format!(
                "plan compile: parameter {name:?} has shape {:?}, expected {shape:?}",
                entry.shape
            )));
        }
        Ok(entry.data.clone())
    }

    fn linear(&self, prefix: &str, k: usize, n: usize) -> Result<LinearW, CheckpointError> {
        let w = self.tensor(&format!("{prefix}.weight"), &[k, n])?;
        let bias = self.tensor(&format!("{prefix}.bias"), &[n])?;
        // Pack the dense panel exactly as the matmul's `pack_transposed`
        // would per forward: `wt[j, kk] = w[kk, j]` (a pure copy, so the
        // dense dot consumes bit-identical operands).
        let mut wt = vec![0.0; n * k];
        for kk in 0..k {
            for j in 0..n {
                wt[j * k + kk] = w[kk * n + j];
            }
        }
        Ok(LinearW { k, n, w, wt, bias })
    }

    fn norm(&self, prefix: &str, dim: usize) -> Result<NormW, CheckpointError> {
        Ok(NormW {
            dim,
            gamma: self.tensor(&format!("{prefix}.gamma"), &[dim])?,
            beta: self.tensor(&format!("{prefix}.beta"), &[dim])?,
        })
    }
}

/// Accumulates virtual buffers and ops during lowering.
#[derive(Default)]
struct Builder {
    bufs: Vec<BufSpec>,
    ops: Vec<Op>,
}

impl Builder {
    /// A buffer of `per_item` elements per batch row.
    fn buf(&mut self, per_item: usize) -> BufId {
        self.bufs.push(BufSpec {
            per_item,
            fixed: 0,
            offset: usize::MAX,
        });
        BufId(self.bufs.len() - 1)
    }

    /// A batch-independent scratch buffer of `fixed` elements.
    fn scratch(&mut self, fixed: usize) -> BufId {
        self.bufs.push(BufSpec {
            per_item: 0,
            fixed,
            offset: usize::MAX,
        });
        BufId(self.bufs.len() - 1)
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
/// non-overlapping lifetimes share arena ranges. Returns the arena
/// length (in elements) at full `capacity` — the peak simultaneous
/// liveness, which is what "sized exactly" means here.
fn assign_arena(bufs: &mut [BufSpec], ops: &[Op], output: BufId, capacity: usize) -> usize {
    let n = bufs.len();
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
    // The output must survive past the final op so `run` can read it.
    last[output.0] = usize::MAX;

    let mut alloc = FreeList::default();
    for (i, _) in ops.iter().enumerate() {
        // Allocate every buffer defined here before releasing anything:
        // an op's outputs must never alias its still-live inputs.
        for b in 0..n {
            if def[b] == i {
                bufs[b].offset = alloc.alloc(align_up(bufs[b].len_at(capacity)));
            }
        }
        for b in 0..n {
            if last[b] == i {
                alloc.free(bufs[b].offset, align_up(bufs[b].len_at(capacity)));
            }
        }
    }
    debug_assert!(
        bufs.iter().all(|s| s.offset != usize::MAX),
        "every plan buffer must be placed"
    );
    alloc.top
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
    use metadse::predictor::TransformerPredictor;

    fn servable(depth: usize) -> ServablePredictor {
        let model = TransformerPredictor::new(
            PredictorConfig {
                num_params: 6,
                d_model: 8,
                heads: 2,
                depth,
                d_hidden: 12,
                head_hidden: 8,
            },
            7,
        );
        ServablePredictor::capture(&model, None, "ipc")
    }

    #[test]
    fn compile_shapes_the_expected_sequence() {
        let plan = Plan::compile(&servable(2), 4).unwrap();
        // 1 prologue op (embed) + 15 per layer (residual adds are
        // folded into their linears) + 4 epilogue ops.
        assert_eq!(plan.num_ops(), 1 + 15 * 2 + 4);
        assert_eq!(plan.capacity(), 4);
        assert_eq!(plan.arity(), 6);
        assert_eq!(plan.linears.len(), 6 * 2 + 2);
        assert_eq!(plan.norms.len(), 2 * 2 + 1);
    }

    #[test]
    fn liveness_reuse_beats_sum_of_buffers() {
        let plan = Plan::compile(&servable(3), 8).unwrap();
        let total: usize = plan
            .bufs
            .iter()
            .map(|s| align_up(s.len_at(plan.capacity())))
            .sum();
        assert!(
            plan.arena_len() < total / 2,
            "liveness sharing should reclaim most of {total}, got {}",
            plan.arena_len()
        );
    }

    #[test]
    fn live_ranges_never_overlap() {
        let plan = Plan::compile(&servable(2), 4).unwrap();
        // Recompute def/last and walk the schedule asserting that
        // simultaneously-live buffers occupy disjoint arena ranges.
        let n = plan.bufs.len();
        let mut def = vec![usize::MAX; n];
        let mut last = vec![0usize; n];
        for (i, op) in plan.ops.iter().enumerate() {
            for BufId(b) in op.bufs() {
                if def[b] == usize::MAX {
                    def[b] = i;
                }
                last[b] = i;
            }
        }
        last[plan.output.0] = usize::MAX;
        for i in 0..plan.ops.len() {
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
