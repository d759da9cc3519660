//! Compiled-plan parity suite: the plan executor must be bit-identical
//! to `TransformerPredictor::predict` under every backend × pool × fused
//! mode combination (selected in-process by the mode guards), on
//! poisoned inputs (NaN, ±inf, subnormals, zero-heavy rows), with and
//! without a WAM attention mask — and the server's plan cache must
//! invalidate atomically across a hot swap, never serving a stale
//! generation's plan.
//!
//! Run through `scripts/test-matrix.sh` this suite also pins the plan
//! outputs to per-backend cross-build digests (`$METADSE_DIGEST_FILE
//! .plan{,.simd}`).

use std::sync::Arc;

use metadse::predictor::{PredictorConfig, TransformerPredictor};
use metadse::ServablePredictor;
use metadse_nn::layers::Param;
use metadse_nn::tensor::fused::FusedModeGuard;
use metadse_nn::tensor::pool::PoolModeGuard;
use metadse_nn::{autograd, backend, BackendKind, BackendModeGuard, Elem, Tensor};
use metadse_serve::{BatchConfig, ModelRegistry, Plan, PlanArena, ServeConfig, Server};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const GEOMETRY: PredictorConfig = PredictorConfig {
    num_params: 6,
    d_model: 8,
    heads: 2,
    depth: 2,
    d_hidden: 12,
    head_hidden: 8,
};

/// A captured artifact; `masked` adds a WAM-style additive attention
/// mask (a few strongly suppressed pairs) so the plan's compile-time
/// mask fold gets exercised.
fn servable(seed: u64, masked: bool) -> ServablePredictor {
    let model = TransformerPredictor::new(GEOMETRY, seed);
    let s = GEOMETRY.num_params;
    let mask = masked.then(|| {
        let mut values = vec![0.0; s * s];
        for i in 0..s {
            for j in 0..s {
                if (i + 2 * j) % 3 == 0 && i != j {
                    values[i * s + j] = -1e9;
                }
            }
        }
        Param::new("wam.mask", Tensor::from_vec(values, &[s, s]))
    });
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

/// Cross-build digest pin for the plan path, composed with the
/// determinism suite's convention: the scalar backend records
/// `$METADSE_DIGEST_FILE.plan`, other backends `….plan.<backend>`.
#[test]
fn plan_outputs_pin_cross_build_digest() {
    let Ok(base) = std::env::var("METADSE_DIGEST_FILE") else {
        return;
    };
    let base = format!("{base}.plan");
    let path = match backend::kind() {
        BackendKind::Scalar => base,
        kind => format!("{base}.{}", kind.name()),
    };

    let sv = servable(41, true);
    let plan = Plan::compile(&sv, 8).unwrap();
    let mut arena = PlanArena::new();
    let outputs = plan.run(&rows(8, 17), &mut arena);
    let mut bytes = Vec::with_capacity(outputs.len() * 8);
    for v in &outputs {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    let digest = format!("{:016x}", metadse_nn::format::fnv1a(&bytes));

    match std::fs::read_to_string(&path) {
        Ok(previous) if !previous.trim().is_empty() => assert_eq!(
            previous.trim(),
            digest,
            "plan digest diverged from the one recorded in {path} — a \
             differently-configured build changed the plan numerics"
        ),
        _ => metadse_obs::atomic_write(&metadse_obs::StdIo, &path, digest.as_bytes())
            .unwrap_or_else(|e| panic!("could not record plan digest in {path}: {e}")),
    }
}

// ---------------------------------------------------------------------
// Server-level plan cache and hot-swap invalidation
// ---------------------------------------------------------------------

fn temp_registry(tag: &str) -> Arc<ModelRegistry> {
    let root =
        std::env::temp_dir().join(format!("metadse-serve-plan-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    Arc::new(ModelRegistry::new(root, 4))
}

fn sample_config(rng: &mut StdRng) -> Vec<f64> {
    (0..GEOMETRY.num_params)
        .map(|_| rng.gen_range(0.0..1.0))
        .collect()
}

fn plan_server(registry: &Arc<ModelRegistry>, max_batch: usize, workers: usize) -> Server {
    Server::start(
        Arc::clone(registry),
        ServeConfig {
            batch: BatchConfig {
                max_batch,
                max_wait_us: 150,
                queue_capacity: 256,
            },
            workers,
        },
    )
}

/// One workload served through the plan path compiles exactly one plan
/// (batch-capacity keyed), reuses it for every subsequent admission
/// group, and still answers bit-identically to serial `predict`.
#[test]
fn server_compiles_one_plan_per_workload_and_reuses_it() {
    let artifact = servable(51, false);
    let reference = artifact.instantiate().unwrap();
    let registry = temp_registry("cache");
    registry.publish("mcf", &artifact).unwrap();
    let server = plan_server(&registry, 8, 2);

    let mut rng = StdRng::seed_from_u64(52);
    for _ in 0..4 {
        let pairs: Vec<(Vec<f64>, _)> = (0..8)
            .map(|_| {
                let config = sample_config(&mut rng);
                let ticket = server.submit("mcf", &config, None);
                (config, ticket)
            })
            .collect();
        for (config, ticket) in pairs {
            let served = ticket.wait().unwrap();
            let serial = reference.predict(std::slice::from_ref(&config))[0];
            assert_eq!(serial.to_bits(), served.value.to_bits());
        }
    }
    server.shutdown();

    let stats = registry.plan_cache_stats();
    assert_eq!(stats.misses, 1, "one workload → one compile, got {stats:?}");
    assert!(stats.compile_us > 0, "compile time attributed: {stats:?}");
    assert_eq!(
        registry.cached_plan_shapes(),
        vec![(artifact.fingerprint(), 8)],
        "plan keyed by fingerprint × batch capacity"
    );
    std::fs::remove_dir_all(registry.root()).ok();
}

/// Deterministic invalidation: a hot swap between two load phases must
/// purge the old generation's plan atomically (cache empty right after
/// `publish`) and the next phase must recompile for — and answer
/// bit-identically as — the new generation only.
#[test]
fn hot_swap_purges_cached_plans_between_soaks() {
    let v1 = servable(61, false);
    let v2 = servable(62, true);
    let ref1 = v1.instantiate().unwrap();
    let ref2 = v2.instantiate().unwrap();

    let registry = temp_registry("purge");
    registry.publish("mcf", &v1).unwrap();
    let server = plan_server(&registry, 4, 2);

    let mut rng = StdRng::seed_from_u64(63);
    let mut drive = |reference: &TransformerPredictor, generation: u64| {
        for _ in 0..3 {
            let pairs: Vec<(Vec<f64>, _)> = (0..4)
                .map(|_| {
                    let config = sample_config(&mut rng);
                    let ticket = server.submit("mcf", &config, None);
                    (config, ticket)
                })
                .collect();
            for (config, ticket) in pairs {
                let served = ticket.wait().unwrap();
                assert_eq!(served.generation, generation);
                let serial = reference.predict(std::slice::from_ref(&config))[0];
                assert_eq!(serial.to_bits(), served.value.to_bits());
            }
        }
    };

    drive(&ref1, 1);
    assert_eq!(registry.cached_plan_shapes(), vec![(v1.fingerprint(), 4)]);

    registry.publish("mcf", &v2).unwrap();
    assert!(
        registry.cached_plan_shapes().is_empty(),
        "swap must purge the stale plan before any new-generation request"
    );

    drive(&ref2, 2);
    assert_eq!(
        registry.cached_plan_shapes(),
        vec![(v2.fingerprint(), 4)],
        "only the live generation's plan may be cached after the swap"
    );

    server.shutdown();
    std::fs::remove_dir_all(registry.root()).ok();
}

/// Hot swap in the middle of a concurrent soak: whichever generation a
/// response reports, its value must be bit-identical to that
/// generation's serial `predict` — a request must never run through a
/// plan compiled for the other generation's weights.
#[test]
fn hot_swap_mid_soak_serves_each_generation_bit_identically() {
    const CLIENTS: usize = 3;
    const REQUESTS_PER_CLIENT: usize = 60;

    let v1 = servable(71, false);
    let v2 = servable(72, false);

    let registry = temp_registry("midsoak");
    registry.publish("mcf", &v1).unwrap();
    let server = plan_server(&registry, 4, 2);

    let mut outcomes: Vec<(Vec<f64>, f64, u64)> = Vec::new();
    std::thread::scope(|scope| {
        let server = &server;
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(700 + client as u64);
                    let mut got = Vec::with_capacity(REQUESTS_PER_CLIENT);
                    for _ in 0..REQUESTS_PER_CLIENT {
                        let config = sample_config(&mut rng);
                        let served = server.submit("mcf", &config, None).wait().unwrap();
                        got.push((config, served.value, served.generation));
                    }
                    got
                })
            })
            .collect();
        // Swap mid-load, roughly when the clients are in full flight.
        std::thread::sleep(std::time::Duration::from_millis(5));
        registry.publish("mcf", &v2).unwrap();
        for handle in handles {
            outcomes.extend(handle.join().unwrap());
        }
    });

    // Requests submitted after the publish resolve the new generation.
    let last = server.submit("mcf", &[0.5; 6], None).wait().unwrap();
    assert_eq!(last.generation, 2);
    server.shutdown();

    let ref1 = v1.instantiate().unwrap();
    let ref2 = v2.instantiate().unwrap();
    assert_eq!(outcomes.len(), CLIENTS * REQUESTS_PER_CLIENT);
    for (config, served, generation) in &outcomes {
        let reference = match generation {
            1 => &ref1,
            2 => &ref2,
            g => panic!("impossible generation {g}"),
        };
        let serial = reference.predict(std::slice::from_ref(config))[0];
        assert_eq!(
            serial.to_bits(),
            served.to_bits(),
            "generation {generation} answer diverged across the mid-soak swap"
        );
    }
    std::fs::remove_dir_all(registry.root()).ok();
}
