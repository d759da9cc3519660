//! The server's plan cache: one compiled plan per workload × batch
//! capacity, reused across admission groups, and invalidated atomically
//! across a hot swap, never serving a stale generation's plan. (The
//! plan's own parity suite lives with the plan, in
//! `crates/core/tests/plan.rs`.)

use std::sync::Arc;

use metadse::predictor::{PredictorConfig, TransformerPredictor};
use metadse::ServablePredictor;
use metadse_serve::{BatchConfig, ModelRegistry, ServeConfig, Server};
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
/// mask (a few strongly suppressed pairs).
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
        metadse_nn::layers::Param::new("wam.mask", metadse_nn::Tensor::from_vec(values, &[s, s]))
    });
    ServablePredictor::capture(&model, mask.as_ref(), "ipc")
}

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
