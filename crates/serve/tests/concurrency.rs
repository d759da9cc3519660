//! Batcher concurrency suite: a deterministic virtual-clock harness for
//! the queue policy, end-to-end server behavior under contention, and
//! the multi-threaded soak test proving batched serving is bit-identical
//! to serial `TransformerPredictor::predict`.
//!
//! The harness tests replay a scripted schedule of pushes against a
//! [`QueueCore`] with a hand-advanced integer clock — no threads, no
//! timers — so every boundary (a flush landing exactly at `max_wait_us`,
//! a batch filling exactly to `max_batch`, a deadline expiring while
//! queued) is exercised on its exact tick, deterministically, every run.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use metadse::predictor::{PredictorConfig, TransformerPredictor};
use metadse::ServablePredictor;
use metadse_serve::{
    BatchConfig, ModelRegistry, PopOutcome, QueueCore, ServeConfig, ServeError, Server,
};

// ---------------------------------------------------------------------
// Virtual-clock harness
// ---------------------------------------------------------------------

/// Everything the policy did during a replay, stamped with virtual time.
#[derive(Debug, Default, PartialEq, Eq)]
struct Trace {
    /// `(release_time_us, request ids)` per batch, in release order.
    batches: Vec<(u64, Vec<u32>)>,
    /// `(expiry_time_us, request ids)` per expiry sweep.
    expired: Vec<(u64, Vec<u32>)>,
}

/// Replays `schedule` — `(push_time_us, id, deadline_us)` sorted by push
/// time — against a fresh [`QueueCore`] the way a single worker would:
/// time jumps straight to the next scheduled push or policy wake-up, so
/// the trace records the *exact* virtual instant of every transition.
fn replay(config: BatchConfig, schedule: &[(u64, u32, Option<u64>)]) -> Trace {
    let mut core = QueueCore::new(config);
    let mut trace = Trace::default();
    let mut next = 0; // next schedule index to admit
    let mut now = 0u64;
    loop {
        while next < schedule.len() && schedule[next].0 <= now {
            let (at, id, deadline) = schedule[next];
            assert!(
                matches!(
                    core.push(id, at, deadline),
                    metadse_serve::Admission::Accepted
                ),
                "harness schedules must stay within queue_capacity"
            );
            next += 1;
        }
        let dead: Vec<u32> = core
            .take_expired(now)
            .into_iter()
            .map(|p| p.payload)
            .collect();
        if !dead.is_empty() {
            trace.expired.push((now, dead));
        }
        match core.pop(now) {
            PopOutcome::Batch(batch) => {
                trace
                    .batches
                    .push((now, batch.into_iter().map(|p| p.payload).collect()));
            }
            PopOutcome::WaitUntil(wake) => {
                now = match schedule.get(next) {
                    Some(&(at, _, _)) => wake.min(at),
                    None => wake,
                };
            }
            PopOutcome::Idle => match schedule.get(next) {
                Some(&(at, _, _)) => now = at,
                None => core.close(),
            },
            PopOutcome::Closed => return trace,
        }
    }
}

#[test]
fn empty_schedule_never_flushes() {
    let trace = replay(BatchConfig::default(), &[]);
    assert_eq!(
        trace,
        Trace::default(),
        "an empty queue must not emit batches"
    );
}

#[test]
fn exactly_full_batch_releases_on_the_filling_push() {
    let config = BatchConfig {
        max_batch: 4,
        max_wait_us: 1_000_000,
        queue_capacity: 64,
    };
    // Staggered pushes; the 4th arrives at t=90, far before any flush.
    let schedule: Vec<(u64, u32, Option<u64>)> = (0..4).map(|i| (i * 30, i as u32, None)).collect();
    let trace = replay(config, &schedule);
    assert_eq!(trace.batches, vec![(90, vec![0, 1, 2, 3])]);
    assert!(trace.expired.is_empty());
}

#[test]
fn partial_batch_flushes_exactly_at_max_wait() {
    let config = BatchConfig {
        max_batch: 32,
        max_wait_us: 250,
        queue_capacity: 64,
    };
    let trace = replay(config, &[(40, 7, None), (90, 8, None)]);
    // The oldest request anchors the flush: 40 + 250 = 290, both ride.
    assert_eq!(trace.batches, vec![(290, vec![7, 8])]);
}

#[test]
fn deadline_expiring_while_queued_is_evicted_on_its_tick() {
    let config = BatchConfig {
        max_batch: 32,
        max_wait_us: 10_000,
        queue_capacity: 64,
    };
    let trace = replay(
        config,
        &[
            (0, 1, None),
            (10, 2, Some(500)), // dies at t=500, long before the t=10_000 flush
            (20, 3, None),
        ],
    );
    assert_eq!(
        trace.expired,
        vec![(500, vec![2])],
        "evicted exactly at its deadline"
    );
    assert_eq!(
        trace.batches,
        vec![(10_000, vec![1, 3])],
        "survivors flush on time"
    );
}

#[test]
fn oversize_burst_drains_in_back_to_back_full_batches() {
    let config = BatchConfig {
        max_batch: 3,
        max_wait_us: 100,
        queue_capacity: 64,
    };
    let schedule: Vec<(u64, u32, Option<u64>)> = (0..7).map(|i| (0, i, None)).collect();
    let trace = replay(config, &schedule);
    assert_eq!(
        trace.batches,
        vec![
            (0, vec![0, 1, 2]),
            (0, vec![3, 4, 5]),
            (100, vec![6]), // the remainder waits out max_wait alone
        ]
    );
}

// ---------------------------------------------------------------------
// End-to-end server behavior
// ---------------------------------------------------------------------

const GEOMETRY: PredictorConfig = PredictorConfig {
    num_params: 6,
    d_model: 8,
    heads: 2,
    depth: 1,
    d_hidden: 16,
    head_hidden: 8,
};

fn servable(seed: u64) -> ServablePredictor {
    ServablePredictor::capture(&TransformerPredictor::new(GEOMETRY, seed), None, "ipc")
}

fn temp_registry(tag: &str) -> Arc<ModelRegistry> {
    let root = std::env::temp_dir().join(format!(
        "metadse-serve-concurrency-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    Arc::new(ModelRegistry::new(root, 4))
}

fn sample_config(rng: &mut StdRng) -> Vec<f64> {
    (0..GEOMETRY.num_params)
        .map(|_| rng.gen_range(0.0..1.0))
        .collect()
}

#[test]
fn unknown_workload_and_bad_arity_fail_fast() {
    let registry = temp_registry("fastfail");
    registry.publish("mcf", &servable(1)).unwrap();
    let server = Server::start(registry.clone(), ServeConfig::default());
    assert_eq!(
        server.submit("gcc", &[0.0; 6], None).wait(),
        Err(ServeError::UnknownWorkload("gcc".into()))
    );
    assert_eq!(
        server.submit("mcf", &[0.0; 4], None).wait(),
        Err(ServeError::BadArity {
            expected: 6,
            got: 4
        })
    );
    server.shutdown();
    std::fs::remove_dir_all(registry.root()).ok();
}

#[test]
fn graceful_shutdown_drains_every_admitted_request() {
    let registry = temp_registry("drain");
    registry.publish("mcf", &servable(2)).unwrap();
    // A coalescing window far longer than the test: only the drain can
    // release these requests.
    let server = Server::start(
        registry.clone(),
        ServeConfig {
            batch: BatchConfig {
                max_batch: 64,
                max_wait_us: 60_000_000,
                queue_capacity: 64,
            },
            workers: 2,
        },
    );
    let mut rng = StdRng::seed_from_u64(3);
    let tickets: Vec<_> = (0..10)
        .map(|_| server.submit("mcf", &sample_config(&mut rng), None))
        .collect();
    server.shutdown();
    for ticket in tickets {
        let prediction = ticket.wait().expect("drained, not dropped");
        assert!(prediction.value.is_finite());
    }
    std::fs::remove_dir_all(registry.root()).ok();
}

#[test]
fn overload_sheds_rather_than_blocking() {
    let registry = temp_registry("shed");
    registry.publish("mcf", &servable(4)).unwrap();
    // workers=1 with a long wait window: the queue can only empty on
    // drain, so pushes past capacity must shed immediately.
    let server = Server::start(
        registry.clone(),
        ServeConfig {
            batch: BatchConfig {
                max_batch: 64,
                max_wait_us: 60_000_000,
                queue_capacity: 4,
            },
            workers: 1,
        },
    );
    let mut rng = StdRng::seed_from_u64(5);
    let tickets: Vec<_> = (0..12)
        .map(|_| server.submit("mcf", &sample_config(&mut rng), None))
        .collect();
    server.shutdown();
    let outcomes: Vec<_> = tickets.into_iter().map(|t| t.wait()).collect();
    let shed = outcomes
        .iter()
        .filter(|o| **o == Err(ServeError::Shed))
        .count();
    let served = outcomes.iter().filter(|o| o.is_ok()).count();
    assert!(
        shed >= 8,
        "at most capacity requests fit; {shed} shed of 12"
    );
    assert_eq!(served + shed, 12, "every ticket resolves exactly once");
    std::fs::remove_dir_all(registry.root()).ok();
}

#[test]
fn queued_past_deadline_misses_instead_of_serving_late() {
    let registry = temp_registry("deadline");
    registry.publish("mcf", &servable(6)).unwrap();
    // The flush window dwarfs the request deadline, so the worker's
    // deadline-aware wake must fire first and fail the request.
    let server = Server::start(
        registry.clone(),
        ServeConfig {
            batch: BatchConfig {
                max_batch: 64,
                max_wait_us: 60_000_000,
                queue_capacity: 64,
            },
            workers: 1,
        },
    );
    let ticket = server.submit("mcf", &[0.5; 6], Some(Duration::from_millis(5)));
    assert_eq!(ticket.wait(), Err(ServeError::DeadlineMiss));
    server.shutdown();
    std::fs::remove_dir_all(registry.root()).ok();
}

#[test]
fn hot_swap_serves_the_new_generation_to_new_requests() {
    let registry = temp_registry("hotswap");
    registry.publish("mcf", &servable(7)).unwrap();
    let server = Server::start(
        registry.clone(),
        ServeConfig {
            batch: BatchConfig {
                max_batch: 1,
                max_wait_us: 0,
                queue_capacity: 64,
            },
            workers: 1,
        },
    );
    let first = server.submit("mcf", &[0.25; 6], None).wait().unwrap();
    assert_eq!(first.generation, 1);
    registry.publish("mcf", &servable(8)).unwrap();
    let second = server.submit("mcf", &[0.25; 6], None).wait().unwrap();
    assert_eq!(second.generation, 2, "swap picked up without restart");
    assert_ne!(
        first.value.to_bits(),
        second.value.to_bits(),
        "distinct models must answer distinctly for this input"
    );
    server.shutdown();
    std::fs::remove_dir_all(registry.root()).ok();
}

// ---------------------------------------------------------------------
// Soak: batched serving is bit-identical to serial predict
// ---------------------------------------------------------------------

/// 4 client threads hammer the server concurrently; every response must
/// be bit-for-bit what a serial `predict` on a predictor instantiated
/// from the *same artifact* returns — across ≥ 2 worker counts, so the
/// identity holds regardless of how requests happen to coalesce.
#[test]
fn soak_batched_results_are_bit_identical_to_serial_predict() {
    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 48;

    let artifact = servable(42);
    let reference = artifact.instantiate().unwrap();

    let registry = temp_registry("soak");
    registry.publish("spec", &artifact).unwrap();

    for workers in [2usize, 4] {
        let server = Server::start(
            registry.clone(),
            ServeConfig {
                batch: BatchConfig {
                    max_batch: 8,
                    max_wait_us: 300,
                    queue_capacity: 256,
                },
                workers,
            },
        );
        let mut outcomes: Vec<(Vec<f64>, f64, usize)> = Vec::new();
        std::thread::scope(|scope| {
            let server = &server;
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(1000 * workers as u64 + client as u64);
                        let mut got = Vec::with_capacity(REQUESTS_PER_CLIENT);
                        for _ in 0..REQUESTS_PER_CLIENT {
                            let config = sample_config(&mut rng);
                            let prediction = server.submit("spec", &config, None).wait().unwrap();
                            got.push((config, prediction.value, prediction.batch_size));
                        }
                        got
                    })
                })
                .collect();
            for handle in handles {
                outcomes.extend(handle.join().unwrap());
            }
        });
        server.shutdown();

        assert_eq!(outcomes.len(), CLIENTS * REQUESTS_PER_CLIENT);
        let coalesced = outcomes.iter().filter(|(_, _, b)| *b > 1).count();
        let mut mismatches = 0;
        for (config, served, _) in &outcomes {
            let serial = reference.predict(std::slice::from_ref(config))[0];
            if serial.to_bits() != served.to_bits() {
                mismatches += 1;
            }
        }
        assert_eq!(
            mismatches,
            0,
            "{workers} workers: {mismatches} of {} batched results diverged from serial predict \
             ({coalesced} were served in multi-request batches)",
            outcomes.len()
        );
    }
    std::fs::remove_dir_all(registry.root()).ok();
}

/// Mixed-workload soak: two models served through the same queue must
/// never cross answers, even when their requests coalesce into one
/// scheduler batch.
#[test]
fn soak_mixed_workloads_never_cross_models() {
    let artifacts: HashMap<&str, ServablePredictor> =
        [("mcf", servable(21)), ("gcc", servable(22))].into();

    let registry = temp_registry("mixed");
    for (workload, artifact) in &artifacts {
        registry.publish(workload, artifact).unwrap();
    }
    let server = Server::start(
        registry.clone(),
        ServeConfig {
            batch: BatchConfig {
                max_batch: 16,
                max_wait_us: 300,
                queue_capacity: 256,
            },
            workers: 2,
        },
    );
    std::thread::scope(|scope| {
        let server = &server;
        let artifacts = &artifacts;
        for (client, workload) in ["mcf", "gcc", "mcf", "gcc"].into_iter().enumerate() {
            scope.spawn(move || {
                // Predictors are thread-bound (Rc tensors): each client
                // rebuilds its own reference from the shared artifact.
                let reference = artifacts[workload].instantiate().unwrap();
                let mut rng = StdRng::seed_from_u64(77 + client as u64);
                for _ in 0..32 {
                    let config = sample_config(&mut rng);
                    let served = server.submit(workload, &config, None).wait().unwrap();
                    let serial = reference.predict(std::slice::from_ref(&config))[0];
                    assert_eq!(
                        serial.to_bits(),
                        served.value.to_bits(),
                        "{workload} answer diverged under mixed-workload batching"
                    );
                }
            });
        }
    });
    server.shutdown();
    std::fs::remove_dir_all(registry.root()).ok();
}
