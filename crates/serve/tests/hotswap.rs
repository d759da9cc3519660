//! Hot-swap race suite: `ModelRegistry::publish` swapping generations
//! at full tilt while `Server::submit` traffic resolves through the
//! per-epoch plan-cache memo.
//!
//! The property under test: a prediction's `generation` field names the
//! model that actually computed it, and its value is bit-identical to
//! that generation's serial `predict` — a swap can change *which*
//! generation answers, never hand a request generation G's plan with
//! generation H's weights. Afterwards the plan cache must hold plans
//! only for the fingerprint still being served (stale plans were purged
//! by the swaps, not leaked).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use metadse::predictor::{PredictorConfig, TransformerPredictor};
use metadse::ServablePredictor;
use metadse_serve::{BatchConfig, ModelRegistry, ServeConfig, ServeError, Server};

const GEOMETRY: PredictorConfig = PredictorConfig {
    num_params: 6,
    d_model: 8,
    heads: 2,
    depth: 1,
    d_hidden: 16,
    head_hidden: 8,
};

/// Two artifacts that alternate generations: odd generations serve
/// seed 21, even generations seed 42.
fn artifacts() -> [ServablePredictor; 2] {
    [21u64, 42].map(|seed| {
        ServablePredictor::capture(&TransformerPredictor::new(GEOMETRY, seed), None, "ipc")
    })
}

fn request_config(i: usize) -> Vec<f64> {
    (0..GEOMETRY.num_params)
        .map(|j| ((i * 13 + j * 5) % 23) as f64 / 23.0)
        .collect()
}

#[test]
fn hot_swap_race_never_serves_stale_plan_or_mismatched_generation() {
    let root = std::env::temp_dir().join(format!("metadse-serve-hotswap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let registry = Arc::new(ModelRegistry::new(&root, 4));
    let pair = artifacts();
    // Generation 1 = pair[0] (odd → seed 21); the swapper continues the
    // alternation, so generation g is always pair[(g + 1) % 2].
    registry.publish("mcf", &pair[0]).unwrap();

    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            batch: BatchConfig {
                max_batch: 8,
                max_wait_us: 50,
                queue_capacity: 256,
            },
            workers: 2,
        },
    );

    const SWAPS: u64 = 150;
    let swapping = AtomicBool::new(true);
    let checked = AtomicU64::new(0);
    let swap_generations = AtomicU64::new(0);
    std::thread::scope(|s| {
        let registry_ref = &registry;
        let swapping_ref = &swapping;
        let swap_generations = &swap_generations;
        let pair_ref = &pair;
        s.spawn(move || {
            for _ in 0..SWAPS {
                // Alternation invariant: next generation is the parity
                // opposite of the one just published.
                let next = registry_ref.get("mcf").unwrap().generation + 1;
                let generation = registry_ref
                    .publish("mcf", &pair_ref[(next as usize + 1) % 2])
                    .unwrap();
                assert_eq!(generation, next, "single publisher, no gaps");
                swap_generations.store(generation, Ordering::Release);
                std::thread::sleep(Duration::from_micros(300));
            }
            swapping_ref.store(false, Ordering::Release);
        });

        for worker in 0..2usize {
            let server_ref = &server;
            let swapping_ref = &swapping;
            let checked_ref = &checked;
            s.spawn(move || {
                // Live predictors are not Sync — every checker owns its
                // own pair, instantiated from the same sealed bytes.
                let models =
                    artifacts().map(|servable| servable.instantiate().expect("reference model"));
                let mut i = worker * 1_000_000;
                let deadline = Instant::now() + Duration::from_secs(60);
                while swapping_ref.load(Ordering::Acquire) && Instant::now() < deadline {
                    i += 1;
                    let config = request_config(i);
                    match server_ref.submit("mcf", &config, None).wait() {
                        Ok(prediction) => {
                            // The generation the server claims answered
                            // must reproduce the value bit for bit.
                            let expect = models[(prediction.generation as usize + 1) % 2]
                                .predict(std::slice::from_ref(&config))[0];
                            assert_eq!(
                                prediction.value.to_bits(),
                                expect.to_bits(),
                                "request {i}: generation {} answered with foreign bits \
                                 (stale plan or torn swap)",
                                prediction.generation
                            );
                            checked_ref.fetch_add(1, Ordering::Relaxed);
                        }
                        // Back-pressure under the swap storm is a valid
                        // outcome; losing the workload is not.
                        Err(ServeError::Shed) => std::thread::sleep(Duration::from_micros(100)),
                        Err(e) => panic!("request {i}: unexpected outcome {e}"),
                    }
                }
            });
        }
    });

    let verified = checked.load(Ordering::Relaxed);
    assert!(
        verified > 500,
        "checkers only verified {verified} predictions — the race never raced"
    );
    assert_eq!(swap_generations.load(Ordering::Acquire), SWAPS + 1);

    // Post-race: the memo must already be (or harmlessly re-resolve to)
    // the final generation, and the plan cache must hold plans for the
    // surviving fingerprint only — every superseded plan was purged.
    let last = registry.get("mcf").unwrap();
    let prediction = server
        .submit("mcf", &request_config(7), None)
        .wait()
        .unwrap();
    assert_eq!(prediction.generation, last.generation);
    let live_fp = last.servable.fingerprint();
    for (fp, _capacity) in registry.cached_plan_shapes() {
        assert_eq!(
            fp, live_fp,
            "plan cache retains fingerprint {fp:#x} after its generation was swapped out"
        );
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
