//! Compiled-plan parity suite: the plan executor must be bit-identical
//! to `TransformerPredictor::predict` under every backend × pool × fused
//! mode combination (selected in-process by the mode guards), on
//! poisoned inputs (NaN, ±inf, subnormals, zero-heavy rows), with and
//! without a WAM attention mask, whether compiled from a sealed artifact
//! or straight from a live model and its installed masks.
//!
//! The WAM mask, built from an attention plan, must equal the mask built
//! from the graph's recorded attention, bit for bit.
//!
//! Run through `scripts/test-matrix.sh` this suite also pins the plan
//! outputs and the masks to per-backend cross-build digests
//! (`$METADSE_DIGEST_FILE.plan{,.simd}` and `.mask{,.simd}`).

use metadse::plan::{Plan, PlanArena};
use metadse::predictor::{PredictorConfig, TransformerPredictor};
use metadse::wam::{self, AttentionStats, WamConfig};
use metadse::ServablePredictor;
use metadse_nn::layers::{Module, Param};
use metadse_nn::tensor::fused::FusedModeGuard;
use metadse_nn::tensor::pool::PoolModeGuard;
use metadse_nn::{autograd, backend, BackendKind, BackendModeGuard, Elem, Tensor};
use metadse_parallel::ParallelConfig;
use metadse_workloads::{Dataset, Sample};

const GEOMETRY: PredictorConfig = PredictorConfig {
    num_params: 6,
    d_model: 8,
    heads: 2,
    depth: 2,
    d_hidden: 12,
    head_hidden: 8,
};

/// A WAM-style additive attention mask: a few strongly suppressed pairs.
fn mask_values() -> Vec<Elem> {
    let s = GEOMETRY.num_params;
    let mut values = vec![0.0; s * s];
    for i in 0..s {
        for j in 0..s {
            if (i + 2 * j) % 3 == 0 && i != j {
                values[i * s + j] = -1e9;
            }
        }
    }
    values
}

/// A captured artifact; `masked` adds the mask so the plan's
/// compile-time mask fold gets exercised.
fn servable(seed: u64, masked: bool) -> ServablePredictor {
    let model = TransformerPredictor::new(GEOMETRY, seed);
    let s = GEOMETRY.num_params;
    let mask = masked.then(|| Param::new("wam.mask", Tensor::from_vec(mask_values(), &[s, s])));
    ServablePredictor::capture(&model, mask.as_ref(), "ipc")
}

/// Deterministic quantized inputs (exactly representable after the
/// round, so digests are stable across build flavors).
fn rows(n: usize, seed: u64) -> Vec<Vec<Elem>> {
    (0..n)
        .map(|i| {
            (0..GEOMETRY.num_params)
                .map(|j| {
                    let v = ((i * 31 + j * 7) as Elem + seed as Elem).sin();
                    (v * 8.0).round() / 8.0
                })
                .collect()
        })
        .collect()
}

/// Adversarial rows: NaN, ±inf, subnormals, and zero-heavy rows that
/// push zero fractions toward the sparse-kernel threshold.
fn poison_rows() -> Vec<Vec<Elem>> {
    let arity = GEOMETRY.num_params;
    let mut batch = vec![
        vec![0.0; arity],
        vec![Elem::NAN; arity],
        vec![Elem::INFINITY; arity],
        vec![Elem::NEG_INFINITY; arity],
        vec![Elem::MIN_POSITIVE / 2.0; arity],
        vec![-Elem::MIN_POSITIVE; arity],
    ];
    // Mixed rows: a single poisoned lane in otherwise ordinary data.
    for (lane, v) in [(0, Elem::NAN), (2, Elem::INFINITY), (4, 1e-310), (5, -0.0)] {
        let mut row: Vec<Elem> = (0..arity).map(|j| (j as Elem) * 0.125).collect();
        row[lane] = v;
        batch.push(row);
    }
    batch
}

fn assert_plan_matches_predict(sv: &ServablePredictor, inputs: &[Vec<Elem>], context: &str) {
    let plan = Plan::compile(sv, inputs.len()).unwrap();
    let model = sv.instantiate().unwrap();
    let expected = autograd::no_grad(|| model.predict(inputs));
    let mut arena = PlanArena::new();
    let got = plan.run(inputs, &mut arena);
    assert_eq!(got.len(), expected.len());
    for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
        assert_eq!(
            g.to_bits(),
            e.to_bits(),
            "{context}: row {i} diverged (plan {g:?} vs predict {e:?})"
        );
    }
}

/// The tentpole parity matrix: every backend × pool × fused combination,
/// masked and unmasked, must agree with `predict` bit-for-bit. The plan
/// always executes fused-path accumulation orders on the thread's
/// backend; the fused≡composite and pool-neutrality contracts make the
/// graph side land on the same bits from either configuration.
#[test]
fn plan_parity_across_backend_pool_fused_matrix() {
    for masked in [false, true] {
        let sv = servable(11 + masked as u64, masked);
        for kind in [BackendKind::Scalar, BackendKind::Simd] {
            let _backend = BackendModeGuard::set(kind);
            for pool in [false, true] {
                let _pool = PoolModeGuard::set(pool);
                for fused in [false, true] {
                    let _fused = FusedModeGuard::set(fused);
                    assert_plan_matches_predict(
                        &sv,
                        &rows(8, 3),
                        &format!(
                            "masked={masked} backend={} pool={pool} fused={fused}",
                            kind.name()
                        ),
                    );
                }
            }
        }
    }
}

/// Poisoned inputs must not open a gap between the two paths: NaN
/// payloads, infinities and subnormals propagate through identical
/// kernel sequences, and zero-heavy intermediates must make the same
/// data-dependent dense/sparse choice on both sides.
#[test]
fn plan_parity_on_poison_inputs() {
    for masked in [false, true] {
        let sv = servable(23 + masked as u64, masked);
        for kind in [BackendKind::Scalar, BackendKind::Simd] {
            let _backend = BackendModeGuard::set(kind);
            for fused in [false, true] {
                let _fused = FusedModeGuard::set(fused);
                assert_plan_matches_predict(
                    &sv,
                    &poison_rows(),
                    &format!(
                        "poison masked={masked} backend={} fused={fused}",
                        kind.name()
                    ),
                );
            }
        }
    }
}

/// Every attention kernel branch against `predict`: the default geometry
/// (21 tokens, heads of 8), heads of 3 and 1 (contractions within
/// `SEQ_EQUIV_MAX`), 5 (partial tiles) and 16, and 37 tokens; batches
/// of 1, 10 and 45 rows (every third one zero-heavy) and the poison
/// rows; no, frozen and learnable masks with −1e9 entries (exact-zero
/// probabilities: the sparse context path); a partly zeroed query head
/// (the sparse scores path); both backends. Plans compiled from a live model
/// and from its sealed artifact run the same ops.
#[test]
fn plan_parity_at_every_kernel_branch() {
    let mut geometries = vec![PredictorConfig::default()];
    for (num_params, d_model, heads) in [(6, 6, 2), (5, 4, 4), (7, 10, 2), (9, 32, 2), (37, 16, 2)]
    {
        geometries.push(PredictorConfig {
            num_params,
            d_model,
            heads,
            depth: 2,
            d_hidden: 12,
            head_hidden: 8,
        });
    }
    for cfg in geometries {
        let s = cfg.num_params;
        // Three eighths (rounded up) of head 0's query features.
        let zeroed = (3 * (cfg.d_model / cfg.heads)).div_ceil(8);
        for learnable in [None, Some(false), Some(true)] {
            for zero_head in [false, true] {
                let model = TransformerPredictor::new(cfg, 19);
                if zero_head {
                    for p in model.params() {
                        let name = p.name();
                        if name.ends_with("attn.wq.weight") || name.ends_with("attn.wq.bias") {
                            let t = p.get();
                            let width = *t.shape().last().unwrap();
                            let values = t
                                .to_vec()
                                .iter()
                                .enumerate()
                                .map(|(i, &v)| if i % width < zeroed { 0.0 } else { v })
                                .collect();
                            p.set(Tensor::param_from_vec(values, t.shape()));
                        }
                    }
                }
                if let Some(learnable) = learnable {
                    let values: Vec<Elem> = (0..s * s)
                        .map(|i| {
                            if i % 3 == 1 {
                                -1e9
                            } else {
                                -0.2 * (i % 5) as Elem
                            }
                        })
                        .collect();
                    let tensor = if learnable {
                        Tensor::param_from_vec(values, &[s, s])
                    } else {
                        Tensor::from_vec(values, &[s, s])
                    };
                    model.install_mask(Param::new("wam.mask", tensor));
                }
                for kind in [BackendKind::Scalar, BackendKind::Simd] {
                    let _backend = BackendModeGuard::set(kind);
                    let mut batches: Vec<Vec<Vec<Elem>>> = [1, 10, 45]
                        .into_iter()
                        .map(|n| {
                            (0..n)
                                .map(|i| {
                                    (0..s)
                                        .map(|j| {
                                            if i % 3 == 2 && j % 4 != 0 {
                                                0.0
                                            } else {
                                                ((i * 31 + j * 7) as Elem * 0.1).sin()
                                            }
                                        })
                                        .collect()
                                })
                                .collect()
                        })
                        .collect();
                    let mut poison = vec![vec![0.0; s], vec![Elem::MIN_POSITIVE / 2.0; s]];
                    for (lane, v) in [(0, Elem::NAN), (1, Elem::INFINITY), (2, -0.0), (3, 1e-310)] {
                        let mut row: Vec<Elem> = (0..s).map(|j| j as Elem * 0.125).collect();
                        row[lane % s] = v;
                        poison.push(row);
                    }
                    batches.push(poison);
                    let sv = ServablePredictor::capture(&model, None, "ipc");
                    for inputs in &batches {
                        let context = format!(
                            "seq={s} d={} heads={} mask={learnable:?} zero_head={zero_head} \
                             backend={} rows={}",
                            cfg.d_model,
                            cfg.heads,
                            kind.name(),
                            inputs.len()
                        );
                        let expected = model.predict(inputs);
                        let got = Plan::from_model(&model, inputs.len())
                            .run(inputs, &mut PlanArena::new());
                        for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                            assert!(
                                g.to_bits() == e.to_bits() || (g.is_nan() && e.is_nan()),
                                "{context}: row {i} diverged (plan {g:?} vs predict {e:?})"
                            );
                        }
                        if learnable.is_none() {
                            assert_plan_matches_predict(&sv, inputs, &format!("{context} sealed"));
                        }
                    }
                }
            }
        }
    }
}

/// Records the FNV-1a digest of `values`' bits in
/// `$METADSE_DIGEST_FILE.<what>` (`….<what>.<backend>` for a backend other
/// than scalar), or, when an earlier build recorded one there, asserts it
/// is reproduced: the determinism suite's cross-build convention.
fn pin_cross_build_digest(what: &str, kind: BackendKind, values: &[Elem]) {
    let Ok(base) = std::env::var("METADSE_DIGEST_FILE") else {
        return;
    };
    let base = format!("{base}.{what}");
    let path = match kind {
        BackendKind::Scalar => base,
        kind => format!("{base}.{}", kind.name()),
    };
    let bytes: Vec<u8> = values
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    let digest = format!("{:016x}", metadse_nn::format::fnv1a(&bytes));

    match std::fs::read_to_string(&path) {
        Ok(previous) if !previous.trim().is_empty() => assert_eq!(
            previous.trim(),
            digest,
            "{what} digest diverged from the one recorded in {path} — a \
             differently-configured build changed the numerics"
        ),
        _ => metadse_obs::atomic_write(&metadse_obs::StdIo, &path, digest.as_bytes())
            .unwrap_or_else(|e| panic!("could not record {what} digest in {path}: {e}")),
    }
}

/// Cross-build digest pin for the plan path: the scalar backend records
/// `$METADSE_DIGEST_FILE.plan`, other backends `….plan.<backend>`.
#[test]
fn plan_outputs_pin_cross_build_digest() {
    let sv = servable(41, true);
    let plan = Plan::compile(&sv, 8).unwrap();
    let mut arena = PlanArena::new();
    let outputs = plan.run(&rows(8, 17), &mut arena);
    pin_cross_build_digest("plan", backend::kind(), &outputs);
}

/// Two source workloads whose sizes (37 and 29 rows) the mask's batch
/// size of 8 does not divide.
fn mask_sources() -> Vec<Dataset> {
    [(37, 3), (29, 9)]
        .into_iter()
        .map(|(n, seed)| {
            let samples = rows(n, seed)
                .into_iter()
                .map(|features| Sample {
                    features,
                    ipc: 1.0,
                    power_w: 1.0,
                })
                .collect();
            Dataset::from_samples(format!("source-{seed}"), samples)
        })
        .collect()
}

/// The mask built from the attention the graph records on the last
/// layer, batch by batch: the oracle of `wam::generate_mask_with`.
fn graph_recorded_mask(
    model: &TransformerPredictor,
    sources: &[Dataset],
    config: &WamConfig,
    batch_size: usize,
) -> Vec<Elem> {
    let mut stats = AttentionStats::new(GEOMETRY.num_params);
    model.set_record_attention(true);
    for dataset in sources {
        for batch in dataset.samples().chunks(batch_size) {
            let batch: Vec<Vec<Elem>> = batch.iter().map(|s| s.features.clone()).collect();
            model.predict(&batch);
            let attention = model.last_attention().expect("attention recorded");
            stats.observe(&attention.to_vec(), config.top_k);
        }
    }
    model.set_record_attention(false);
    stats.build_mask(config).to_vec()
}

/// The mask from the compiled attention plan equals the one built from
/// the graph's recorded attention, bit for bit: under both backends,
/// with no installed mask, a frozen one and a learnable one (shared by
/// both layers), on batches that do not divide the sources, at 1 and 3
/// forced threads. The masks of each backend are pinned to
/// `$METADSE_DIGEST_FILE.mask{,.simd}`.
#[test]
fn attention_plan_masks_match_the_graph_recording() {
    let s = GEOMETRY.num_params;
    let sources = mask_sources();
    // Two of six interactions per row count as active, so the mask
    // keeps some pairs and penalizes others.
    let config = WamConfig {
        top_k: 2,
        frequency_threshold: 0.3,
        penalty: 2.0,
    };
    let batch_size = 8;
    for kind in [BackendKind::Scalar, BackendKind::Simd] {
        let _backend = BackendModeGuard::set(kind);
        let mut pinned = Vec::new();
        for learnable in [None, Some(false), Some(true)] {
            let model = TransformerPredictor::new(GEOMETRY, 51);
            if let Some(learnable) = learnable {
                let tensor = if learnable {
                    Tensor::param_from_vec(mask_values(), &[s, s])
                } else {
                    Tensor::from_vec(mask_values(), &[s, s])
                };
                model.install_mask(Param::new("wam.mask", tensor));
            }
            let context = format!("backend={} mask={learnable:?}", kind.name());
            let expected = graph_recorded_mask(&model, &sources, &config, batch_size);
            assert!(
                expected.contains(&0.0) && expected.iter().any(|&v| v < 0.0),
                "{context}: the mask must keep some pairs and penalize others"
            );
            for threads in [1, 3] {
                let parallel = ParallelConfig::with_threads(threads).oversubscribed();
                let mask =
                    wam::generate_mask_with(&model, &sources, &config, batch_size, &parallel);
                let got = mask.get().to_vec();
                let bits = |v: &[Elem]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&got), bits(&expected), "{context} threads={threads}");
            }
            pinned.extend(expected);
        }
        pin_cross_build_digest("mask", kind, &pinned);
    }
}

/// A plan compiled straight from a live model reads its current values
/// and the masks installed on its layers — frozen, or learnable and in
/// the parameter list — and predicts its bits.
#[test]
fn plans_compiled_from_a_live_model_match_predict() {
    let s = GEOMETRY.num_params;
    for learnable in [None, Some(false), Some(true)] {
        let model = TransformerPredictor::new(GEOMETRY, 31);
        if let Some(learnable) = learnable {
            let tensor = if learnable {
                Tensor::param_from_vec(mask_values(), &[s, s])
            } else {
                Tensor::from_vec(mask_values(), &[s, s])
            };
            model.install_mask(Param::new("wam.mask", tensor));
        }
        for kind in [BackendKind::Scalar, BackendKind::Simd] {
            let _backend = BackendModeGuard::set(kind);
            for inputs in [rows(8, 5), poison_rows()] {
                let plan = Plan::from_model(&model, inputs.len());
                let expected = model.predict(&inputs);
                let got = plan.run(&inputs, &mut PlanArena::new());
                for (i, (g, e)) in got.iter().zip(&expected).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        e.to_bits(),
                        "mask={learnable:?} backend={} row {i}",
                        kind.name()
                    );
                }
            }
        }
    }
}
