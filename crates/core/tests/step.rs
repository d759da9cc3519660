//! Compiled-step parity suite: a [`Step`]'s loss and every gradient must
//! equal `mse_on` followed by `autograd::grad(.., false)` bit for bit,
//! under every backend × pool × fused mode combination (selected
//! in-process by the mode guards), at every batch size and depth, with
//! no mask, a frozen mask and a learnable one, on inputs with exact
//! zeros and on poison (NaN, ±inf, subnormals, −0.0), at geometries that
//! reach every branch of the attention block kernels. The graph loops
//! kept here are the oracles for the compiled training paths
//! (`wam::adapt`, `maml::inner_adapt` and the first-order
//! meta-gradient, `trendse::train_supervised`), and the fan-outs that
//! run steps on workers must stay bit-identical at every thread count.

use metadse::maml::{self, MamlConfig};
use metadse::predictor::{PredictorConfig, TransformerPredictor};
use metadse::trendse::train_supervised;
use metadse::wam::{self, AdaptConfig};
use metadse::Step;
use metadse_nn::autograd;
use metadse_nn::layers::{self, Module, Param};
use metadse_nn::optim::{Adam, CosineAnnealing, Optimizer};
use metadse_nn::tensor::fused::FusedModeGuard;
use metadse_nn::tensor::pool::PoolModeGuard;
use metadse_nn::{BackendKind, BackendModeGuard, Elem, Tensor};
use metadse_parallel::ParallelConfig;
use metadse_workloads::{Dataset, Metric, Sample, Task, TaskSampler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn geometry(depth: usize) -> PredictorConfig {
    PredictorConfig {
        num_params: 6,
        d_model: 8,
        heads: 2,
        depth,
        d_hidden: 12,
        head_hidden: 8,
    }
}

#[derive(Clone, Copy, Debug)]
enum Mask {
    None,
    Frozen,
    Learnable,
}

/// A graded logit bias with strongly suppressed pairs: the `-1e9`
/// entries underflow to exact-zero probabilities, which sends attention
/// blocks down the sparse matmul paths.
fn mask_values(s: usize) -> Vec<Elem> {
    (0..s * s)
        .map(|i| {
            let (r, c) = (i / s, i % s);
            if r == c {
                0.0
            } else if (r + 2 * c) % 3 == 0 {
                -1e9
            } else {
                -0.3 * (i % 5) as Elem
            }
        })
        .collect()
}

fn model(cfg: PredictorConfig, seed: u64, mask: Mask) -> TransformerPredictor {
    let m = TransformerPredictor::new(cfg, seed);
    let s = cfg.num_params;
    let values = mask_values(s);
    match mask {
        Mask::None => {}
        Mask::Frozen => m.install_mask(Param::new("wam.mask", Tensor::from_vec(values, &[s, s]))),
        Mask::Learnable => m.install_mask(Param::new(
            "wam.mask",
            Tensor::param_from_vec(values, &[s, s]),
        )),
    }
    m
}

/// Deterministic quantized rows; every third row is mostly exact zeros.
fn rows(n: usize, arity: usize, seed: u64) -> (Vec<Vec<Elem>>, Vec<Elem>) {
    let x: Vec<Vec<Elem>> = (0..n)
        .map(|i| {
            (0..arity)
                .map(|j| {
                    if i % 3 == 2 && j % 4 != 0 {
                        return 0.0;
                    }
                    let v = ((i * 31 + j * 7) as Elem + seed as Elem).sin();
                    (v * 8.0).round() / 8.0
                })
                .collect()
        })
        .collect();
    let y = (0..n)
        .map(|i| ((i as Elem + seed as Elem) * 0.37).cos())
        .collect();
    (x, y)
}

/// Adversarial rows: NaN, ±inf, subnormals, −0.0 and all-zero rows, and
/// single poisoned lanes in ordinary data.
fn poison_rows(arity: usize) -> (Vec<Vec<Elem>>, Vec<Elem>) {
    let mut x = vec![
        vec![0.0; arity],
        vec![-0.0; arity],
        vec![Elem::MIN_POSITIVE / 2.0; arity],
        vec![-Elem::MIN_POSITIVE; arity],
    ];
    for (lane, v) in [
        (0, Elem::NAN),
        (2, Elem::INFINITY),
        (1, Elem::NEG_INFINITY),
        (4, 1e-310),
        (5, -0.0),
    ] {
        let mut row: Vec<Elem> = (0..arity).map(|j| (j as Elem) * 0.125).collect();
        row[lane % arity] = v;
        x.push(row);
    }
    let n = x.len();
    let mut y: Vec<Elem> = (0..n).map(|i| i as Elem * 0.1).collect();
    y[3] = -0.0;
    (x, y)
}

/// The oracle: graph loss and first-order gradients, in `params()`
/// order.
fn graph_grads(m: &TransformerPredictor, x: &[Vec<Elem>], y: &[Elem]) -> (Elem, Vec<Vec<Elem>>) {
    let loss = m.mse_on(x, y);
    let tensors = layers::snapshot(&m.params());
    let grads = autograd::grad(&loss, &tensors, false);
    (loss.value(), grads.iter().map(Tensor::to_vec).collect())
}

fn step_grads(m: &TransformerPredictor, x: &[Vec<Elem>], y: &[Elem]) -> (Elem, Vec<Vec<Elem>>) {
    let mut step = Step::compile(m, x.len());
    let loss = step.loss_and_grad(x, y);
    let grads = step
        .param_ranges()
        .map(|(_, r)| step.grads()[r].to_vec())
        .collect();
    (loss, grads)
}

/// Bit equality, with every NaN equal to every NaN: the compiler may
/// commute a floating-point add, so which of two NaN operands' payload
/// survives is not part of any kernel's contract (the fused and
/// composite graph paths differ in it too).
fn same(g: Elem, w: Elem) -> bool {
    g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan())
}

fn assert_bits(got: &[Elem], want: &[Elem], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            same(*g, *w),
            "{context}: element {i} diverged (step {g:?} vs graph {w:?})"
        );
    }
}

fn assert_step_matches_graph(m: &TransformerPredictor, x: &[Vec<Elem>], y: &[Elem], ctx: &str) {
    let (want_loss, want) = graph_grads(m, x, y);
    let (got_loss, got) = step_grads(m, x, y);
    assert!(
        same(got_loss, want_loss),
        "{ctx}: loss {got_loss:?} vs {want_loss:?}"
    );
    let names: Vec<String> = m.params().iter().map(|p| p.name().to_string()).collect();
    assert_eq!(got.len(), names.len(), "{ctx}: one gradient per parameter");
    for ((g, w), name) in got.iter().zip(&want).zip(&names) {
        assert_bits(g, w, &format!("{ctx} {name}"));
    }
}

/// The tentpole matrix: every backend × pool × fused combination, batch
/// rows {1, 3, 5, 10, 45}, depth {1, 2}, each mask kind.
#[test]
fn step_matches_graph_across_backend_pool_fused_matrix() {
    for depth in [1, 2] {
        for mask in [Mask::None, Mask::Frozen, Mask::Learnable] {
            let m = model(geometry(depth), 11 + depth as u64, mask);
            for kind in [BackendKind::Scalar, BackendKind::Simd] {
                let _backend = BackendModeGuard::set(kind);
                for pool in [false, true] {
                    let _pool = PoolModeGuard::set(pool);
                    for fused in [false, true] {
                        let _fused = FusedModeGuard::set(fused);
                        for n in [1, 3, 5, 10, 45] {
                            let (x, y) = rows(n, 6, n as u64);
                            assert_step_matches_graph(
                                &m,
                                &x,
                                &y,
                                &format!(
                                    "depth={depth} mask={mask:?} backend={} pool={pool} \
                                     fused={fused} rows={n}",
                                    kind.name()
                                ),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Poison must not open a gap: NaN payloads, infinities, subnormals and
/// signed zeros flow through the same kernels in the same order.
#[test]
fn step_matches_graph_on_poison_inputs() {
    for depth in [1, 2] {
        for mask in [Mask::None, Mask::Frozen, Mask::Learnable] {
            let m = model(geometry(depth), 23, mask);
            for kind in [BackendKind::Scalar, BackendKind::Simd] {
                let _backend = BackendModeGuard::set(kind);
                for fused in [false, true] {
                    let _fused = FusedModeGuard::set(fused);
                    let (x, y) = poison_rows(6);
                    let ctx = format!(
                        "poison depth={depth} mask={mask:?} backend={} fused={fused}",
                        kind.name()
                    );
                    assert_step_matches_graph(&m, &x, &y, &ctx);
                    // One poisoned row taints every parameter gradient of
                    // its batch, so each row also runs alone.
                    for (i, (row, label)) in x.iter().zip(&y).enumerate() {
                        let (x1, y1) = (std::slice::from_ref(row), std::slice::from_ref(label));
                        assert_step_matches_graph(&m, x1, y1, &format!("{ctx} row={i}"));
                    }
                }
            }
        }
    }
}

/// The default geometry (21 tokens, 4 heads, widths past every SIMD
/// chunk) at the few-shot and query batch sizes.
#[test]
fn step_matches_graph_at_the_default_geometry() {
    for mask in [Mask::None, Mask::Learnable] {
        let m = model(PredictorConfig::default(), 3, mask);
        for kind in [BackendKind::Scalar, BackendKind::Simd] {
            let _backend = BackendModeGuard::set(kind);
            for n in [5, 10] {
                let (x, y) = rows(n, 21, 7);
                assert_step_matches_graph(
                    &m,
                    &x,
                    &y,
                    &format!("default mask={mask:?} backend={} rows={n}", kind.name()),
                );
            }
        }
    }
}

/// Geometries that reach every branch of the attention block kernels:
/// the default (21 tokens, heads of 8), heads of 3 and 1 (contractions
/// within `SEQ_EQUIV_MAX`), 5 (partial tiles) and 16, and 37 tokens
/// (contractions past the 32-row stack panel's tail and partial score
/// tiles).
fn kernel_geometries() -> Vec<PredictorConfig> {
    let mut out = vec![PredictorConfig::default()];
    for (num_params, d_model, heads) in [(6, 6, 2), (5, 4, 4), (7, 10, 2), (9, 32, 2), (37, 16, 2)]
    {
        out.push(PredictorConfig {
            num_params,
            d_model,
            heads,
            depth: 2,
            d_hidden: 12,
            head_hidden: 8,
        });
    }
    out
}

/// Zeroes three eighths (rounded up) of head 0's query features in every
/// layer, so its score blocks take the sparse (zero-skipping) path on
/// the features left while the other heads stay dense.
fn zero_first_query_head(m: &TransformerPredictor) {
    let cfg = *m.config();
    let dk = (3 * (cfg.d_model / cfg.heads)).div_ceil(8);
    for p in m.params() {
        if !(p.name().ends_with("attn.wq.weight") || p.name().ends_with("attn.wq.bias")) {
            continue;
        }
        let t = p.get();
        let mut values = t.to_vec();
        let width = *t.shape().last().unwrap();
        for (i, v) in values.iter_mut().enumerate() {
            if i % width < dk {
                *v = 0.0;
            }
        }
        p.set(Tensor::param_from_vec(values, t.shape()));
    }
}

/// Every attention kernel branch against the graph: each geometry above,
/// rows {1, 10, 45} (every third one mostly zeros) and the poison rows,
/// no, frozen and learnable masks (the −1e9 entries send probability
/// blocks down the sparse context path), a partly zeroed query head (the
/// sparse scores path), both backends.
#[test]
fn step_matches_graph_at_every_kernel_branch() {
    for cfg in kernel_geometries() {
        let s = cfg.num_params;
        for mask in [Mask::None, Mask::Frozen, Mask::Learnable] {
            for zero_head in [false, true] {
                let m = model(cfg, 17, mask);
                if zero_head {
                    zero_first_query_head(&m);
                }
                for kind in [BackendKind::Scalar, BackendKind::Simd] {
                    let _backend = BackendModeGuard::set(kind);
                    let ctx = format!(
                        "seq={s} d={} heads={} mask={mask:?} zero_head={zero_head} backend={}",
                        cfg.d_model,
                        cfg.heads,
                        kind.name()
                    );
                    for n in [1, 10, 45] {
                        let (x, y) = rows(n, s, 3 + n as u64);
                        assert_step_matches_graph(&m, &x, &y, &format!("{ctx} rows={n}"));
                    }
                    let (x, y) = poison_rows(s);
                    assert_step_matches_graph(&m, &x, &y, &format!("{ctx} poison"));
                }
            }
        }
    }
}

/// A step's values and gradients stay in place across runs at smaller
/// batches: a capacity-45 step at 5 rows gives the 5-row gradients.
#[test]
fn a_step_serves_any_batch_up_to_its_capacity() {
    let m = model(geometry(2), 5, Mask::Learnable);
    let mut step = Step::compile(&m, 45);
    for n in [45, 5, 1, 10] {
        let (x, y) = rows(n, 6, 9 + n as u64);
        let loss = step.loss_and_grad(&x, &y);
        let (want_loss, want) = graph_grads(&m, &x, &y);
        assert_eq!(loss.to_bits(), want_loss.to_bits(), "rows={n}");
        let ranges: Vec<_> = step.param_ranges().map(|(_, r)| r).collect();
        for (r, w) in ranges.into_iter().zip(&want) {
            assert_bits(&step.grads()[r], w, &format!("rows={n}"));
        }
        assert_eq!(step.loss(&x, &y).to_bits(), want_loss.to_bits());
    }
}

fn dataset(seed: u64, dim: usize, n: usize) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let samples = (0..n)
        .map(|_| {
            let features: Vec<Elem> = (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect();
            let y = features
                .iter()
                .enumerate()
                .map(|(j, v)| v * (j as Elem * 0.4).cos())
                .sum::<Elem>()
                / dim as Elem;
            Sample {
                features,
                ipc: y,
                power_w: 10.0 * y,
            }
        })
        .collect();
    Dataset::from_samples(format!("step-{seed}"), samples)
}

fn task(seed: u64, support: usize, query: usize) -> Task {
    let ds = dataset(seed, 6, 120);
    TaskSampler::new(support, query).sample(&ds, Metric::Ipc, &mut StdRng::seed_from_u64(seed))
}

/// The oracle for `wam::adapt`: cosine-annealed functional SGD on the
/// graph, through `mse_on` and `autograd::grad`.
fn graph_adapt(m: &TransformerPredictor, task: &Task, config: &AdaptConfig) -> Vec<Tensor> {
    let params = m.params();
    let theta = layers::snapshot(&params);
    let schedule = CosineAnnealing::new(config.lr, config.lr_min, config.steps.max(1));
    let scales: Vec<Elem> = params
        .iter()
        .map(|p| {
            if p.name() == "wam.mask" {
                config.mask_lr_multiplier
            } else {
                1.0
            }
        })
        .collect();
    let mut current = theta.clone();
    for step in 0..config.steps {
        let loss = m.mse_on(&task.support_x, &task.support_y);
        let grads = autograd::grad(&loss, &current, false);
        let lr = schedule.lr_at(step);
        let updated: Vec<Tensor> = current
            .iter()
            .zip(&grads)
            .zip(&scales)
            .map(|((t, g), &scale)| t.sub(&g.mul_scalar(lr * scale)))
            .collect();
        layers::restore(&params, &updated);
        current = updated;
    }
    theta
}

fn values(m: &TransformerPredictor) -> Vec<Vec<Elem>> {
    m.params().iter().map(|p| p.get().to_vec()).collect()
}

/// Twenty compiled `wam::adapt` steps land on the graph loop's bits —
/// the learnable mask's slot, reached through its own handle, included
/// — and return the original tensors.
#[test]
fn twenty_compiled_adapt_steps_equal_the_graph_loop() {
    let config = AdaptConfig::default();
    assert_eq!(config.steps, 20);
    let t = task(31, 10, 8);
    for mask in [Mask::None, Mask::Frozen, Mask::Learnable] {
        for depth in [1, 2] {
            let oracle = model(geometry(depth), 4, mask);
            let compiled = model(geometry(depth), 4, mask);
            let before = values(&compiled);
            let handle = compiled.masks()[0].clone();
            graph_adapt(&oracle, &t, &config);
            let theta = wam::adapt(&compiled, &t.support_x, &t.support_y, &config);
            let ctx = format!("mask={mask:?} depth={depth}");
            for ((g, w), name) in values(&compiled)
                .iter()
                .zip(&values(&oracle))
                .zip(compiled.params().iter().map(|p| p.name().to_string()))
            {
                assert_bits(g, w, &format!("{ctx} {name}"));
            }
            if let (Mask::Learnable, Some(handle)) = (mask, handle) {
                assert_ne!(handle.get().to_vec(), mask_values(6), "{ctx}: mask adapted");
                assert_bits(
                    &handle.get().to_vec(),
                    &oracle.masks()[0].as_ref().unwrap().get().to_vec(),
                    &ctx,
                );
            }
            let originals: Vec<Vec<Elem>> = theta.iter().map(Tensor::to_vec).collect();
            assert_eq!(originals, before, "{ctx}: adapt returns the originals");
        }
    }
}

/// Five compiled inner-loop steps, then the first-order meta-gradient
/// (the step's gradient at the adapted parameters), equal the graph's
/// inner loop followed by `grad(query_loss, θ, false)` through the
/// fast-weight chain.
#[test]
fn inner_adapt_and_meta_gradient_equal_the_graph() {
    let config = MamlConfig::paper();
    assert!(!config.second_order);
    let t = task(41, config.support_size, config.query_size);
    for mask in [Mask::None, Mask::Learnable] {
        let oracle = model(geometry(2), 6, mask);
        let compiled = model(geometry(2), 6, mask);
        // Graph oracle: functional fast weights, then the query loss
        // differentiated with respect to the pre-adaptation tensors.
        let params = oracle.params();
        let theta = layers::snapshot(&params);
        let mut current = theta.clone();
        for _ in 0..5 {
            let loss = oracle.mse_on(&t.support_x, &t.support_y);
            let grads = autograd::grad(&loss, &current, false);
            let updated: Vec<Tensor> = current
                .iter()
                .zip(&grads)
                .map(|(p, g)| p.sub(&g.mul_scalar(config.inner_lr)))
                .collect();
            layers::restore(&params, &updated);
            current = updated;
        }
        let query_loss = oracle.mse_on(&t.query_x, &t.query_y);
        let meta = autograd::grad(&query_loss, &theta, false);

        let before = values(&compiled);
        let originals = maml::inner_adapt(
            &compiled,
            &t.support_x,
            &t.support_y,
            5,
            config.inner_lr,
            false,
        );
        for (g, w) in values(&compiled).iter().zip(&values(&oracle)) {
            assert_bits(g, w, &format!("mask={mask:?} adapted"));
        }
        let mut step = Step::compile(&compiled, t.query_x.len());
        let loss = step.loss_and_grad(&t.query_x, &t.query_y);
        assert_eq!(loss.to_bits(), query_loss.value().to_bits());
        let ranges: Vec<_> = step.param_ranges().map(|(_, r)| r).collect();
        for (r, w) in ranges.into_iter().zip(&meta) {
            assert_bits(
                &step.grads()[r],
                &w.to_vec(),
                &format!("mask={mask:?} meta"),
            );
        }
        let originals: Vec<Vec<Elem>> = originals.iter().map(Tensor::to_vec).collect();
        assert_eq!(originals, before);
    }
}

/// TrEnDSE-Transformer's supervised fit feeds the compiled step's
/// gradients to Adam; it lands on the bits of the graph loop it
/// replaced.
#[test]
fn supervised_training_equals_the_graph_loop() {
    let (x, y) = rows(21, 6, 5);
    let (epochs, lr, batch, seed) = (2, 2e-3, 8, 13);
    let oracle = model(geometry(2), 9, Mask::None);
    let compiled = model(geometry(2), 9, Mask::None);
    {
        // The oracle: `train_supervised`'s shuffled mini-batch Adam on
        // the graph.
        let params = oracle.params();
        let mut optimizer = Adam::new(params.clone(), lr);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..x.len()).collect();
        for _ in 0..epochs {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            for chunk in order.chunks(batch) {
                let bx: Vec<Vec<Elem>> = chunk.iter().map(|&i| x[i].clone()).collect();
                let by: Vec<Elem> = chunk.iter().map(|&i| y[i]).collect();
                let loss = oracle.mse_on(&bx, &by);
                let grads = autograd::grad(&loss, &layers::snapshot(&params), false);
                optimizer.step(&grads);
            }
        }
    }
    train_supervised(&compiled, &x, &y, epochs, lr, batch, seed);
    for (g, w) in values(&compiled).iter().zip(&values(&oracle)) {
        assert_bits(g, w, "supervised");
    }
}

fn forced(threads: usize) -> ParallelConfig {
    ParallelConfig::with_threads(threads).oversubscribed()
}

/// Sweeps and pre-training run steps on fan-out workers; their results
/// are the same at 1, 2 and 3 forced threads.
#[test]
fn sweeps_and_pretraining_are_bit_identical_at_every_thread_count() {
    let tasks: Vec<Task> = (0..4).map(|i| task(50 + i, 10, 70)).collect();
    let prior = Param::new(
        "wam.mask",
        Tensor::param_from_vec(
            mask_values(6).iter().map(|v| v.max(-2.0)).collect(),
            &[6, 6],
        ),
    );
    let adapt = AdaptConfig {
        steps: 4,
        ..AdaptConfig::default()
    };
    let train: Vec<Dataset> = (0..3).map(|i| dataset(60 + i, 6, 80)).collect();
    let val = vec![dataset(70, 6, 80)];
    let run = |parallel: ParallelConfig| {
        let m = model(geometry(2), 8, Mask::None);
        let swept = wam::adapt_sweep(&m, &tasks, Some(&prior), &adapt, &parallel);
        let report = maml::pretrain(
            &m,
            &train,
            &val,
            Metric::Ipc,
            &MamlConfig {
                parallel,
                ..MamlConfig::tiny()
            },
        );
        (swept, format!("{report:?}"), values(&m))
    };
    let serial = run(forced(1));
    for threads in [2, 3] {
        assert_eq!(serial, run(forced(threads)), "{threads} threads");
    }
}
