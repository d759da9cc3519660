//! Arena execution of compiled [`Plan`]s.
//!
//! [`Plan::run`] walks the flat op sequence over one preallocated arena
//! slab — no graph nodes, no per-op `Vec` or `HashMap` bookkeeping, no
//! pool traffic beyond the arena itself. A training step
//! ([`crate::step::Step`]) runs the same forward ops, its loss, and then
//! the backward ops over the same slab. Every op dispatches onto the
//! resolved backend primitives ([`metadse_nn::prims::kernels`], looked up
//! once per pass so thread-local backend overrides behave exactly like a
//! graph forward) and reproduces the tensor ops' accumulation orders
//! bit-for-bit; see the module docs in [`crate::plan`] for the contract.
//! The four attention ops make one block-kernel call per `(b, h)`
//! ([`Kernels::attn_scores`] and its siblings): each head is read in
//! place from the `[b, s, h·dk]` projections at column `h·dk` and row
//! stride `d_model`, and the context and the `q`, `k`, `v` gradients are
//! written there too, so no op splits or merges heads.
//!
//! The only `unsafe` here is `views_mut`, which splits one arena slab
//! into the disjoint per-op views the borrow checker cannot prove
//! disjoint itself; every call asserts pairwise disjointness and
//! bounds, and the plan compiler's liveness allocator guarantees an
//! op's outputs never overlap its still-live inputs (property-checked
//! in `plan::tests::live_ranges_never_overlap`).

use std::ops::Range;
use std::time::{Duration, Instant};

use metadse_nn::prims::{self, AttnGeom, Kernels};
use metadse_nn::tensor::pool::Buf;
use metadse_nn::Elem;

use crate::plan::{BufId, LinearW, Op, Plan, GELU_KIND, LN_EPS, OP_KINDS, OP_KIND_NAMES};

/// A worker-owned execution arena. One slab backs every intermediate of
/// a plan forward (and a training step's backward); it grows to the
/// largest [`Plan::arena_len`] it has served and is reused across
/// batches (and across plans — hot-swaps don't reallocate). The slab is
/// the 32-byte-aligned pool buffer type, so arena offsets inherit the
/// pool's SIMD alignment.
#[derive(Debug, Default)]
pub struct PlanArena {
    slab: Buf,
}

impl PlanArena {
    pub fn new() -> PlanArena {
        PlanArena::default()
    }

    /// Current slab capacity in elements (diagnostics/tests).
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slab.len() == 0
    }

    /// Grows the slab to at least `len` elements and returns it.
    pub(crate) fn ensure(&mut self, len: usize) -> &mut [Elem] {
        if self.slab.len() < len {
            self.slab.resize(len, 0.0);
        }
        &mut self.slab[..len]
    }

    /// The first `len` elements of the slab.
    pub(crate) fn head(&self, len: usize) -> &[Elem] {
        &self.slab[..len]
    }
}

/// Per-op wall-time attribution for profiled runs, bucketed by op kind:
/// forward ops in `ns`, backward ops (a training step's) in
/// `backward_ns`, each indexed like [`crate::plan::OP_KIND_NAMES`]. A
/// GELU linear's bias+GELU pass counts as `gelu`, its matmul and bias
/// fold as `linear`.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlanProfile {
    /// Forward nanoseconds per op kind.
    pub ns: [u64; OP_KINDS],
    /// Backward nanoseconds per op kind (the kind of the forward op
    /// each gradient op differentiates).
    pub backward_ns: [u64; OP_KINDS],
}

impl PlanProfile {
    /// `(kind name, total µs)` forward rows for kinds that actually ran.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        rows_of(&self.ns)
    }

    /// `(kind name, total µs)` backward rows for kinds that actually ran.
    pub fn backward_rows(&self) -> Vec<(&'static str, u64)> {
        rows_of(&self.backward_ns)
    }

    /// Adds one op's wall time: `total`, of which `gelu` was its
    /// bias+GELU pass.
    fn add(&mut self, kind: usize, backward: bool, total: Duration, gelu: Duration) {
        let ns = if backward {
            &mut self.backward_ns
        } else {
            &mut self.ns
        };
        ns[kind] += total.saturating_sub(gelu).as_nanos() as u64;
        ns[GELU_KIND] += gelu.as_nanos() as u64;
    }
}

fn rows_of(ns: &[u64; OP_KINDS]) -> Vec<(&'static str, u64)> {
    OP_KIND_NAMES
        .iter()
        .zip(ns)
        .filter(|&(_, &ns)| ns >= 1000)
        .map(|(&name, &ns)| (name, ns / 1000))
        .collect()
}

/// Runs `f`, adding its wall time to `clock` when a profiled run passes
/// one.
fn clocked(clock: Option<&mut Duration>, f: impl FnOnce()) {
    match clock {
        Some(clock) => {
            let t0 = Instant::now();
            f();
            *clock += t0.elapsed();
        }
        None => f(),
    }
}

/// Splits `arena` into `N` mutable views over the given ranges.
///
/// # Panics
///
/// Panics if any range is out of bounds or any two ranges overlap —
/// the executor's guard against a miscompiled arena layout.
fn views_mut<const N: usize>(arena: &mut [Elem], ranges: [Range<usize>; N]) -> [&mut [Elem]; N] {
    for (i, r) in ranges.iter().enumerate() {
        assert!(
            r.start <= r.end && r.end <= arena.len(),
            "plan view out of bounds"
        );
        for q in &ranges[i + 1..] {
            assert!(
                r.end <= q.start || q.end <= r.start,
                "plan views must be disjoint ({r:?} vs {q:?})"
            );
        }
    }
    let base = arena.as_mut_ptr();
    // SAFETY: every range is in bounds of `arena` and pairwise disjoint
    // (asserted above), so the derived slices never alias each other or
    // anything else reachable while the `&mut [Elem]` borrow is held.
    ranges.map(|r| unsafe { std::slice::from_raw_parts_mut(base.add(r.start), r.end - r.start) })
}

impl Plan {
    /// Runs the plan on `inputs` (one configuration row per batch
    /// element), returning one prediction per row. Bit-identical to
    /// `TransformerPredictor::predict` on the model the plan was
    /// compiled from, on the same thread.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty, exceeds [`Plan::capacity`], or any
    /// row's arity differs from the compiled geometry.
    pub fn run(&self, inputs: &[Vec<Elem>], arena: &mut PlanArena) -> Vec<Elem> {
        self.output(inputs, arena, None).to_vec()
    }

    /// As [`Plan::run`], also accumulating per-op wall time into
    /// `profile`. Timing costs two `Instant` reads per op (four for a
    /// GELU linear), so callers keep it off the hot path unless
    /// observability is on.
    pub fn run_profiled(
        &self,
        inputs: &[Vec<Elem>],
        arena: &mut PlanArena,
        profile: &mut PlanProfile,
    ) -> Vec<Elem> {
        self.output(inputs, arena, Some(profile)).to_vec()
    }

    /// Runs the forward on `inputs` and returns the output where it lies
    /// in the arena: one prediction per row, or an attention plan's
    /// `[b, heads, seq, seq]` probabilities.
    pub(crate) fn output<'a>(
        &self,
        inputs: &[Vec<Elem>],
        arena: &'a mut PlanArena,
        profile: Option<&mut PlanProfile>,
    ) -> &'a [Elem] {
        let range = self.range(self.output, inputs.len());
        &self.execute(inputs, None, false, arena, profile)[range]
    }

    /// Runs the forward on `inputs` — through the loss against `targets`
    /// for a training plan, an inference plan takes none — and then, when
    /// `backward` is set, every gradient. Returns the slab: a training
    /// plan's loss and parameter gradients are read from it.
    pub(crate) fn execute<'a>(
        &self,
        inputs: &[Vec<Elem>],
        targets: Option<&[Elem]>,
        backward: bool,
        arena: &'a mut PlanArena,
        mut profile: Option<&mut PlanProfile>,
    ) -> &'a mut [Elem] {
        let b = inputs.len();
        assert!(b >= 1, "plan run needs at least one input row");
        assert!(
            b <= self.capacity,
            "batch of {b} exceeds plan capacity {}",
            self.capacity
        );
        // Resolve the backend once per pass, exactly like a tensor
        // forward — thread-local mode guards apply to this run.
        let kb = prims::kernels();
        let slab = arena.ensure(self.arena_len());

        {
            let [xs] = views_mut(slab, [self.range(self.input, b)]);
            let seq = self.config.num_params;
            for (row, dst) in inputs.iter().zip(xs.chunks_exact_mut(seq)) {
                assert_eq!(
                    row.len(),
                    seq,
                    "input row arity {} does not match plan arity {seq}",
                    row.len(),
                );
                dst.copy_from_slice(row);
            }
        }
        match (targets, self.target) {
            (None, None) => {}
            (Some(targets), Some((y, _))) => {
                assert_eq!(targets.len(), b, "one label per input row");
                let [ys] = views_mut(slab, [self.range(y, b)]);
                ys.copy_from_slice(targets);
            }
            _ => panic!("a training plan runs with labels, an inference plan without"),
        }

        let mut timed = |ops: &[Op], backward: bool, slab: &mut [Elem]| {
            for op in ops {
                let t0 = profile.as_ref().map(|_| Instant::now());
                let mut gelu = Duration::ZERO;
                self.step(op, b, kb, slab, t0.map(|_| &mut gelu));
                if let (Some(p), Some(t0)) = (profile.as_deref_mut(), t0) {
                    p.add(op.kind(), backward, t0.elapsed(), gelu);
                }
            }
        };
        timed(&self.ops, false, slab);
        if backward {
            // Parameters no op reads keep a zero gradient, as autograd
            // gives an input the output does not depend on.
            slab[..self.n_params].fill(0.0);
            timed(&self.grad_ops, true, slab);
        }
        slab
    }

    pub(crate) fn range(&self, id: BufId, b: usize) -> Range<usize> {
        let spec = &self.bufs[id.0];
        spec.offset..spec.offset + spec.len_at(b)
    }

    /// [`Plan::range`] of an optional buffer; an absent one is empty.
    fn maybe_range(&self, id: Option<BufId>, b: usize) -> Range<usize> {
        id.map_or(0..0, |id| self.range(id, b))
    }

    fn linear(&self, lin: usize) -> (&LinearW, &[Elem], &[Elem], &[Elem]) {
        let lw = &self.linears[lin];
        (
            lw,
            &self.weights[lw.w..lw.w + lw.k * lw.n],
            &self.packed[lw.wt..lw.wt + lw.k * lw.n],
            &self.weights[lw.bias..lw.bias + lw.n],
        )
    }

    /// Runs one op over the slab. A profiled run passes `clock`, which
    /// receives the time of a GELU linear's bias+GELU pass.
    fn step(
        &self,
        op: &Op,
        b: usize,
        kb: Kernels,
        slab: &mut [Elem],
        clock: Option<&mut Duration>,
    ) {
        let cfg = &self.config;
        let (s, d, h, dk) = (cfg.num_params, cfg.d_model, cfg.heads, self.dk);
        let geom = AttnGeom {
            seq: s,
            dk,
            stride: d,
        };
        match *op {
            // out[bi,s,:] = table[s,:] + x[bi,s] * dir[s,:] — the token
            // identity embedding plus the value-direction encoding
            // (`identity.add(values)` in the predictor), one mul and
            // one add rounding per element.
            Op::Embed { x, out } => {
                let [xs, dst] = views_mut(slab, [self.range(x, b), self.range(out, b)]);
                let table = &self.weights[self.table..self.table + s * d];
                let dir = &self.weights[self.dir..self.dir + s * d];
                for bi in 0..b {
                    for si in 0..s {
                        let xv = xs[bi * s + si];
                        let t_row = &table[si * d..(si + 1) * d];
                        let d_row = &dir[si * d..(si + 1) * d];
                        let o_row = &mut dst[(bi * s + si) * d..(bi * s + si + 1) * d];
                        for ((o, &t), &dir) in o_row.iter_mut().zip(t_row).zip(d_row) {
                            *o = t + xv * dir;
                        }
                    }
                }
            }
            // The fused layernorm_affine row kernel: backend sum for
            // the mean, centering pass, backend sum_sq (or the fused
            // sequential square-accumulate for tiny rows), then the
            // affine normalize — identical expression trees.
            Op::LayerNorm { src, dst, norm } => {
                let nw = &self.norms[norm];
                let dim = nw.dim;
                let gamma = &self.weights[nw.gamma..nw.gamma + dim];
                let beta = &self.weights[nw.beta..nw.beta + dim];
                let inv = 1.0 / dim as Elem;
                let [sx, out] = views_mut(slab, [self.range(src, b), self.range(dst, b)]);
                let rows = sx.len() / dim;
                for r in 0..rows {
                    let base = r * dim;
                    let mean = kb.sum(&sx[base..base + dim]) * inv;
                    let o_row = &mut out[base..base + dim];
                    let s2 = if dim <= prims::SEQ_EQUIV_MAX {
                        let mut s2 = 0.0;
                        for (o, &v) in o_row.iter_mut().zip(&sx[base..base + dim]) {
                            let c = v - mean;
                            *o = c;
                            s2 += c * c;
                        }
                        s2
                    } else {
                        for (o, &v) in o_row.iter_mut().zip(&sx[base..base + dim]) {
                            *o = v - mean;
                        }
                        kb.sum_sq(o_row)
                    };
                    let sd = (s2 * inv + LN_EPS).sqrt();
                    for ((o, &gm), &bt) in o_row.iter_mut().zip(gamma).zip(beta) {
                        let hv = *o / sd;
                        *o = hv * gm + bt;
                    }
                }
            }
            // dst = src · W (+ bias | gelu(·+bias)). The sparse/dense
            // choice replays the matmul kernel's per-call decision on
            // the runtime activations; the dense panel is the
            // compile-time pre-pack of the same transposed copy.
            Op::Linear {
                src,
                dst,
                lin,
                rows_per_item,
                gelu,
                add,
            } => {
                let (lw, w, wt, bias) = self.linear(lin);
                let (k, n) = (lw.k, lw.n);
                let rows = rows_per_item * b;
                match gelu {
                    None => match add {
                        None => {
                            let [sx, out] =
                                views_mut(slab, [self.range(src, b), self.range(dst, b)]);
                            matmul_rows(kb, (k, n), (w, wt), &sx[..rows * k], &mut out[..rows * n]);
                            // Identity bias: the tensor suffix-broadcast
                            // add, one rounding per element.
                            for o_row in out[..rows * n].chunks_exact_mut(n) {
                                for (o, &bv) in o_row.iter_mut().zip(bias) {
                                    *o += bv;
                                }
                            }
                        }
                        Some(res) => {
                            // Folded residual: bias add then residual
                            // add per element — `av + (o + bv)` is the
                            // rounding sequence of the tensor bias
                            // broadcast followed by the standalone
                            // residual op (`a + b` with `a` the skip
                            // connection), so the bits match the
                            // two-op graph form exactly.
                            let [sx, out, rv] = views_mut(
                                slab,
                                [self.range(src, b), self.range(dst, b), self.range(res, b)],
                            );
                            matmul_rows(kb, (k, n), (w, wt), &sx[..rows * k], &mut out[..rows * n]);
                            for (o_row, a_row) in out[..rows * n]
                                .chunks_exact_mut(n)
                                .zip(rv[..rows * n].chunks_exact(n))
                            {
                                for ((o, &bv), &av) in o_row.iter_mut().zip(bias).zip(a_row) {
                                    *o = av + (*o + bv);
                                }
                            }
                        }
                    },
                    Some((mm, tanh)) => {
                        debug_assert!(add.is_none(), "gelu linears never fold a residual");
                        // GELU linears stage the matmul in `mm` because
                        // the fused bias+GELU kernel reads its input
                        // while writing its output — they cannot alias.
                        let [sx, out, stage, tc] = views_mut(
                            slab,
                            [
                                self.range(src, b),
                                self.range(dst, b),
                                self.range(mm, b),
                                self.range(tanh, b),
                            ],
                        );
                        matmul_rows(kb, (k, n), (w, wt), &sx[..rows * k], &mut stage[..rows * n]);
                        clocked(clock, || {
                            kb.bias_gelu_forward(
                                &stage[..rows * n],
                                bias,
                                &mut out[..rows * n],
                                &mut tc[..rows * n],
                            )
                        });
                    }
                }
            }
            // One block kernel call per (b, h): q · kᵀ with the matmul_nt
            // kernel's per-block sparse/dense choice, then the scale (and
            // additive mask) per element. `q` and `k` are read in place
            // from the projections, head `hi` at columns `hi·dk ..`.
            Op::AttnScores { q, key, dst, mask } => {
                let mask = mask.map(|off| &self.weights[off..off + s * s]);
                let [qs, ks, out] = views_mut(
                    slab,
                    [self.range(q, b), self.range(key, b), self.range(dst, b)],
                );
                for (blk, ob) in out.chunks_exact_mut(s * s).enumerate() {
                    let at = head_at(blk, s, d, h, dk);
                    kb.attn_scores(&qs[at..], &ks[at..], geom, self.scale, mask, ob);
                }
            }
            // The fused trailing-axis softmax row kernel: running max,
            // exponentials (the backend's `exp_shifted` pass, written over
            // `src`), backend-sum denominator (sequential for tiny rows),
            // divide into `dst`. Inference
            // emits `src == dst` — each element is read before it is
            // overwritten at the same index, so running in place
            // reproduces the two-buffer kernel's bits while skipping a
            // whole `[b, h, s, s]` materialization. A training plan keeps
            // the exponentials, probabilities and denominators apart.
            Op::Softmax { src, dst, denom } => {
                let apart = (src != dst).then_some(dst);
                let [xs, probs, dens] = views_mut(
                    slab,
                    [
                        self.range(src, b),
                        self.maybe_range(apart, b),
                        self.maybe_range(denom, b),
                    ],
                );
                for (r, row) in xs.chunks_exact_mut(s).enumerate() {
                    let mut maxv = Elem::NEG_INFINITY;
                    for &v in row.iter() {
                        if v > maxv {
                            maxv = v;
                        }
                    }
                    let den = if s > prims::SEQ_EQUIV_MAX {
                        kb.exp_shifted(row, maxv);
                        kb.sum(row)
                    } else {
                        let mut acc = 0.0;
                        for v in row.iter_mut() {
                            let e = prims::exp(*v - maxv);
                            *v = e;
                            acc += e;
                        }
                        acc
                    };
                    if let Some(slot) = dens.get_mut(r) {
                        *slot = den;
                    }
                    if probs.is_empty() {
                        for v in row.iter_mut() {
                            *v /= den;
                        }
                    } else {
                        for (o, &e) in probs[r * s..(r + 1) * s].iter_mut().zip(row.iter()) {
                            *o = e / den;
                        }
                    }
                }
            }
            // One block kernel call per (b, h): probs · v with the
            // matmul's per-block sparse/dense choice, `v` read in place
            // and the context written merged, `[b, s, h·dk]`.
            Op::AttnContext { probs, v, dst } => {
                let [ps, vs, out] = views_mut(
                    slab,
                    [self.range(probs, b), self.range(v, b), self.range(dst, b)],
                );
                for (blk, pb) in ps.chunks_exact(s * s).enumerate() {
                    let at = head_at(blk, s, d, h, dk);
                    kb.attn_context(pb, &vs[at..], geom, &mut out[at..]);
                }
            }
            // mean over the sequence axis: ascending-row accumulation
            // per feature (both the strided walker and the fold_rows
            // fast path add in this order), then the 1/seq multiply.
            Op::MeanPool { src, dst } => {
                let [sx, out] = views_mut(slab, [self.range(src, b), self.range(dst, b)]);
                for bi in 0..b {
                    for j in 0..d {
                        let mut acc = 0.0;
                        for si in 0..s {
                            acc += sx[(bi * s + si) * d + j];
                        }
                        out[bi * d + j] = acc * self.inv_seq;
                    }
                }
            }
            // The fused mean-squared error: backend sum of squared
            // differences times `1/b`.
            Op::Mse { pred, target, loss } => {
                let [p, t, l] = views_mut(
                    slab,
                    [
                        self.range(pred, b),
                        self.range(target, b),
                        self.range(loss, b),
                    ],
                );
                l[0] = kb.sum_sq_diff(p, t) * (1.0 / b as Elem);
            }
            // The loss is seeded with 1, so `∂loss/∂pred` starts from
            // `1/b` (the graph's `1 · inv`).
            Op::MseGrad { pred, target, dst } => {
                let [p, t, g] = views_mut(
                    slab,
                    [
                        self.range(pred, b),
                        self.range(target, b),
                        self.range(dst, b),
                    ],
                );
                prims::sq_err_mean_backward(1.0 / b as Elem, p, t, g);
            }
            // The identity table's gradient is the token gradient summed
            // over the batch (the broadcast's row fold, then the gather's
            // scatter into a zeroed table); the value directions' is
            // `g · x`, summed over the batch in the same order.
            Op::EmbedGrad { x, g, table, dir } => {
                let [xs, gs, gt, gd] = views_mut(
                    slab,
                    [
                        self.range(x, b),
                        self.range(g, b),
                        self.range(table, b),
                        self.range(dir, b),
                    ],
                );
                sum_rows(kb, gs, gt);
                if gd.len() == 1 {
                    // One token of one feature: `sum_to` reduces the
                    // products as one column sum.
                    let products: Vec<Elem> =
                        gs.iter().zip(xs.iter()).map(|(&g, &x)| g * x).collect();
                    gd[0] = kb.sum(&products);
                    return;
                }
                gd.fill(0.0);
                for bi in 0..b {
                    for si in 0..s {
                        let xv = xs[bi * s + si];
                        let g_row = &gs[(bi * s + si) * d..(bi * s + si + 1) * d];
                        for (o, &gv) in gd[si * d..(si + 1) * d].iter_mut().zip(g_row) {
                            *o += gv * xv;
                        }
                    }
                }
            }
            Op::LayerNormGrad {
                src,
                g,
                norm,
                dst,
                gamma,
                beta,
                scratch,
            } => {
                let nw = &self.norms[norm];
                let [sx, gs, gx, gg, gb, sc] = views_mut(
                    slab,
                    [
                        self.range(src, b),
                        self.range(g, b),
                        self.range(dst, b),
                        self.range(gamma, b),
                        self.range(beta, b),
                        self.range(scratch, b),
                    ],
                );
                prims::layernorm_backward(
                    kb,
                    sx,
                    &self.weights[nw.gamma..nw.gamma + nw.dim],
                    gs,
                    LN_EPS,
                    gx,
                    (gg, gb),
                    sc,
                );
            }
            // Through the GELU first (into `gsum`), then the bias row
            // fold and the matmul's input and weight gradients.
            Op::LinearGrad {
                src,
                g,
                lin,
                rows_per_item,
                gelu,
                dst,
                weight,
                bias,
            } => {
                let (lw, w, _, bv) = self.linear(lin);
                let (k, n) = (lw.k, lw.n);
                let rows = rows_per_item * b;
                let [mm, tanh, gsum] = gelu.map_or([None; 3], |(mm, tanh, gsum)| {
                    [Some(mm), Some(tanh), Some(gsum)]
                });
                let [sx, gs, gx, gw, gb, mms, tc, gz] = views_mut(
                    slab,
                    [
                        self.range(src, b),
                        self.range(g, b),
                        self.range(dst, b),
                        self.range(weight, b),
                        self.range(bias, b),
                        self.maybe_range(mm, b),
                        self.maybe_range(tanh, b),
                        self.maybe_range(gsum, b),
                    ],
                );
                let gz: &[Elem] = if gelu.is_some() {
                    clocked(clock, || {
                        kb.bias_gelu_backward(&gs[..rows * n], mms, bv, tc, gz)
                    });
                    gz
                } else {
                    &gs[..rows * n]
                };
                sum_rows(kb, gz, gb);
                gx.fill(0.0);
                gw.fill(0.0);
                prims::matmul_backward(kb, gz, sx, w, (rows, k, n), Some(gx), Some(gw));
            }
            // Gradients of `probs · v` per (b, h) block, from the merged
            // context gradient; `dv` lands merged.
            Op::AttnContextGrad {
                probs,
                v,
                g,
                dprobs,
                dv,
            } => {
                let [ps, vs, gs, gp, gv] = views_mut(
                    slab,
                    [
                        self.range(probs, b),
                        self.range(v, b),
                        self.range(g, b),
                        self.range(dprobs, b),
                        self.range(dv, b),
                    ],
                );
                gp.fill(0.0);
                gv.fill(0.0);
                for (blk, (pb, gpb)) in ps
                    .chunks_exact(s * s)
                    .zip(gp.chunks_exact_mut(s * s))
                    .enumerate()
                {
                    let at = head_at(blk, s, d, h, dk);
                    kb.attn_context_backward(&gs[at..], pb, &vs[at..], geom, gpb, &mut gv[at..]);
                }
            }
            Op::SoftmaxGrad {
                g,
                exps,
                denom,
                dst,
                terms,
            } => {
                let [gs, es, dn, gx, tm] = views_mut(
                    slab,
                    [
                        self.range(g, b),
                        self.range(exps, b),
                        self.range(denom, b),
                        self.range(dst, b),
                        self.range(terms, b),
                    ],
                );
                prims::softmax_backward(kb, gs, es, dn, (s, 1), gx, tm);
            }
            // The mask's gradient is the scores' summed over every (b, h)
            // block; the scale multiplies the scores' gradient in place
            // before the `q · kᵀ` backward reads it. `dq` and `dk` land
            // merged.
            Op::AttnScoresGrad {
                q,
                key,
                g,
                dq,
                dk: dkey,
                mask,
            } => {
                let [qs, ks, gs, gq, gk, gm] = views_mut(
                    slab,
                    [
                        self.range(q, b),
                        self.range(key, b),
                        self.range(g, b),
                        self.range(dq, b),
                        self.range(dkey, b),
                        self.maybe_range(mask, b),
                    ],
                );
                if mask.is_some() {
                    sum_rows(kb, gs, gm);
                }
                for v in gs.iter_mut() {
                    *v *= self.scale;
                }
                gq.fill(0.0);
                gk.fill(0.0);
                for (blk, gb) in gs.chunks_exact(s * s).enumerate() {
                    let at = head_at(blk, s, d, h, dk);
                    let (gqb, gkb) = (&mut gq[at..], &mut gk[at..]);
                    kb.attn_scores_backward(gb, &qs[at..], &ks[at..], geom, gqb, gkb);
                }
            }
            Op::MeanPoolGrad { g, dst } => {
                let [gs, gx] = views_mut(slab, [self.range(g, b), self.range(dst, b)]);
                for bi in 0..b {
                    for j in 0..d {
                        let gv = gs[bi * d + j] * self.inv_seq;
                        for si in 0..s {
                            gx[(bi * s + si) * d + j] = gv;
                        }
                    }
                }
            }
            Op::AddInto { dst, src } => {
                let [acc, add] = views_mut(slab, [self.range(dst, b), self.range(src, b)]);
                for (a, &v) in acc.iter_mut().zip(add.iter()) {
                    *a += v;
                }
            }
        }
    }
}

/// `out = Σ` over the rows of `src` (rows of `out.len()` elements), as
/// `sum_to` reduces a broadcast leading axis: a one-element row is one
/// backend `sum` down the column (its trailing-axis fast path), wider
/// rows fold in ascending row order into zeros.
fn sum_rows(kb: Kernels, src: &[Elem], out: &mut [Elem]) {
    if out.len() == 1 {
        out[0] = kb.sum(src);
    } else {
        out.fill(0.0);
        kb.fold_rows(src, out);
    }
}

/// Where head `blk % h` of batch row `blk / h` starts in a `[b, s, h·dk]`
/// projection: its first token's first feature.
fn head_at(blk: usize, s: usize, d: usize, h: usize, dk: usize) -> usize {
    (blk / h) * s * d + (blk % h) * dk
}

/// `out[i, :] = src[i, :] · W` with the matmul kernel's data-dependent
/// path choice over the whole activation block (linears are a single
/// "batch", so the decision covers all rows — exactly the tensor
/// kernel's granularity for a 2-D matmul).
fn matmul_rows(
    kb: Kernels,
    (k, n): (usize, usize),
    (w, wt): (&[Elem], &[Elem]),
    src: &[Elem],
    out: &mut [Elem],
) {
    let rows = src.len() / k;
    if prims::is_sparse(src) {
        out.fill(0.0);
        for i in 0..rows {
            for kk in 0..k {
                let a = src[i * k + kk];
                if a == 0.0 {
                    continue;
                }
                kb.axpy(a, &w[kk * n..(kk + 1) * n], &mut out[i * n..(i + 1) * n]);
            }
        }
    } else {
        for i in 0..rows {
            kb.dot_block(
                &src[i * k..(i + 1) * k],
                wt,
                k,
                &mut out[i * n..(i + 1) * n],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::{PredictorConfig, TransformerPredictor};
    use crate::ServablePredictor;
    use metadse_nn::autograd;

    fn servable(seed: u64) -> ServablePredictor {
        let model = TransformerPredictor::new(
            PredictorConfig {
                num_params: 6,
                d_model: 8,
                heads: 2,
                depth: 2,
                d_hidden: 12,
                head_hidden: 8,
            },
            seed,
        );
        ServablePredictor::capture(&model, None, "ipc")
    }

    fn rows(n: usize, arity: usize, seed: u64) -> Vec<Vec<Elem>> {
        (0..n)
            .map(|i| {
                (0..arity)
                    .map(|j| {
                        let v = ((i * 31 + j * 7) as Elem + seed as Elem).sin();
                        (v * 8.0).round() / 8.0
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn plan_matches_predict_bitwise() {
        let sv = servable(11);
        let plan = Plan::compile(&sv, 8).unwrap();
        let model = sv.instantiate().unwrap();
        let inputs = rows(8, 6, 3);
        let expected = autograd::no_grad(|| model.predict(&inputs));
        let mut arena = PlanArena::new();
        let got = plan.run(&inputs, &mut arena);
        assert_eq!(got.len(), expected.len());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(
                g.to_bits(),
                e.to_bits(),
                "plan output must be bit-identical"
            );
        }
    }

    #[test]
    fn partial_batches_match_full_capacity_prefix() {
        let sv = servable(5);
        let plan = Plan::compile(&sv, 8).unwrap();
        let model = sv.instantiate().unwrap();
        let mut arena = PlanArena::new();
        for b in [1usize, 3, 8] {
            let inputs = rows(b, 6, 9);
            let expected = autograd::no_grad(|| model.predict(&inputs));
            let got = plan.run(&inputs, &mut arena);
            for (g, e) in got.iter().zip(&expected) {
                assert_eq!(g.to_bits(), e.to_bits(), "batch {b} must be bit-identical");
            }
        }
    }

    #[test]
    fn arena_reuse_does_not_leak_state_between_runs() {
        let sv = servable(2);
        let plan = Plan::compile(&sv, 4).unwrap();
        let mut arena = PlanArena::new();
        let a = rows(4, 6, 1);
        let first = plan.run(&a, &mut arena);
        // Poison the slab indirectly by running different inputs, then
        // re-run the originals: results must not depend on residue.
        let _ = plan.run(&rows(2, 6, 77), &mut arena);
        let again = plan.run(&a, &mut arena);
        for (x, y) in first.iter().zip(&again) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn profiled_run_matches_and_attributes() {
        let sv = servable(4);
        let plan = Plan::compile(&sv, 4).unwrap();
        let mut arena = PlanArena::new();
        let inputs = rows(4, 6, 2);
        let plain = plan.run(&inputs, &mut arena);
        let mut profile = PlanProfile::default();
        let profiled = plan.run_profiled(&inputs, &mut arena, &mut profile);
        for (x, y) in plain.iter().zip(&profiled) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Rows only name known kinds; an inference run has no backward.
        for (name, _) in profile.rows() {
            assert!(OP_KIND_NAMES.contains(&name));
        }
        assert!(profile.backward_rows().is_empty());
        // The feed-forward linears' bias+GELU passes are timed apart
        // from their matmuls.
        let linear = OP_KIND_NAMES.iter().position(|&n| n == "linear").unwrap();
        assert!(profile.ns[linear] > 0);
        assert!(profile.ns[GELU_KIND] > 0);
    }

    #[test]
    #[should_panic(expected = "exceeds plan capacity")]
    fn over_capacity_batch_panics() {
        let sv = servable(3);
        let plan = Plan::compile(&sv, 2).unwrap();
        let mut arena = PlanArena::new();
        let _ = plan.run(&rows(3, 6, 0), &mut arena);
    }

    #[test]
    #[should_panic(expected = "must be disjoint")]
    fn views_mut_rejects_overlap() {
        let mut slab = vec![0.0; 16];
        let _ = views_mut(&mut slab, [0..8, 4..12]);
    }
}
