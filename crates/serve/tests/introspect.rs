//! Introspection-plane integration suite: endpoint round-trips over the
//! unix socket, watchdog health transitions under fault injection, and
//! the introspection soak — proving that polling the endpoint at full
//! tilt while the server is loaded does not perturb served results by a
//! single bit.
#![cfg(unix)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use metadse::predictor::{PredictorConfig, TransformerPredictor};
use metadse::ServablePredictor;
use metadse_obs::introspect::query;
use metadse_obs::window::Health;
use metadse_serve::{BatchConfig, ModelRegistry, ServeConfig, ServeError, Server};

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
        "metadse-serve-introspect-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&root);
    Arc::new(ModelRegistry::new(root, 4))
}

fn sock_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mdse-{tag}-{}.sock", std::process::id()))
}

fn sample_config(rng: &mut StdRng) -> Vec<f64> {
    (0..GEOMETRY.num_params)
        .map(|_| rng.gen_range(0.0..1.0))
        .collect()
}

/// Extracts the value following `key` on the line starting with
/// `line_prefix` in a metrics exposition.
fn field(body: &str, line_prefix: &str, key: &str) -> Option<f64> {
    let line = body.lines().find(|l| l.starts_with(line_prefix))?;
    let mut tokens = line.split_whitespace();
    while let Some(tok) = tokens.next() {
        if tok == key {
            return tokens.next()?.parse().ok();
        }
    }
    None
}

#[test]
fn endpoint_answers_health_ready_metrics_and_trace() {
    let registry = temp_registry("roundtrip");
    registry.publish("mcf", &servable(11)).unwrap();
    let mut server = Server::start(
        registry.clone(),
        ServeConfig {
            batch: BatchConfig {
                max_batch: 8,
                max_wait_us: 100,
                queue_capacity: 64,
            },
            workers: 2,
        },
    );
    let sock = sock_path("roundtrip");
    server.enable_introspection(&sock).unwrap();

    let ready = query(&sock, "ready").unwrap();
    assert!(ready.ok, "published workload → ready, got {:?}", ready.body);

    let health = query(&sock, "health").unwrap();
    assert!(health.ok);
    assert_eq!(health.body.lines().next(), Some("ok"));

    // Serve a few requests, then read them back through the endpoint.
    let mut rng = StdRng::seed_from_u64(12);
    let mut last_trace_id = 0;
    for _ in 0..16 {
        let prediction = server
            .submit("mcf", &sample_config(&mut rng), None)
            .wait()
            .unwrap();
        assert!(prediction.trace_id > 0);
        last_trace_id = prediction.trace_id;
    }

    // Stats bookkeeping happens-before each reply is sent, so the
    // moment the last `.wait()` above returned, all 16 completions are
    // visible — a single direct read must observe them.
    let metrics = query(&sock, "metrics").unwrap();
    assert!(metrics.ok);
    let body = &metrics.body;
    assert_eq!(
        field(
            body,
            "counter serve/completed_total",
            "serve/completed_total"
        ),
        Some(16.0)
    );
    let count = field(body, "window serve/e2e_latency_us", "count").unwrap();
    let p50 = field(body, "window serve/e2e_latency_us", "p50").unwrap();
    let p99 = field(body, "window serve/e2e_latency_us", "p99").unwrap();
    assert_eq!(count, 16.0);
    assert!(
        p50 > 0.0 && p99 >= p50,
        "live quantiles: p50 {p50} p99 {p99}"
    );
    assert!(
        field(body, "window serve/batch_size", "count") == Some(16.0),
        "batch-size window populated"
    );
    // Plan-cache counters come off the registry atomics, so they must
    // appear in the exposition even in builds without the obs feature.
    for line in [
        "counter serve/plan_cache_hits",
        "counter serve/plan_cache_misses",
        "counter serve/plan_compile_us",
    ] {
        assert!(
            body.lines().any(|l| l.starts_with(line)),
            "metrics exposition must carry {line:?}"
        );
    }
    assert!(
        field(
            body,
            "counter serve/plan_cache_misses",
            "serve/plan_cache_misses"
        )
        .is_some_and(|v| v >= 1.0),
        "at least one plan compiled"
    );
    // Tenant attribution: one fingerprint, 16 requests, nonzero forward.
    let tenant_line = body
        .lines()
        .find(|l| l.starts_with("tenant "))
        .expect("tenant row present");
    assert!(tenant_line.contains("workload mcf"));
    assert!(field(body, "tenant ", "requests") == Some(16.0));
    assert!(field(body, "tenant ", "forward_us").unwrap() > 0.0);

    // Phase breakdown for a specific request.
    let trace = query(&sock, &format!("trace?id={last_trace_id}")).unwrap();
    assert!(trace.ok, "{}", trace.body);
    assert!(trace.body.contains("outcome served"));
    assert!(trace.body.contains("workload mcf"));
    let e2e = field(&trace.body, "queue_wait_us", "e2e_us").unwrap();
    assert!(e2e > 0.0);

    // Unknown ids and commands answer with errors, not hangs.
    assert!(!query(&sock, "trace?id=999999").unwrap().ok);
    assert!(!query(&sock, "flush").unwrap().ok);

    server.shutdown();
    assert!(!sock.exists(), "socket removed on shutdown");
    std::fs::remove_dir_all(registry.root()).ok();
}

/// Fault injection: a single worker pinned behind an enormous coalescing
/// window plus millisecond deadlines forces every queued request to miss,
/// driving the trailing-window miss rate far past the 10 % threshold —
/// the watchdog must flip Ok → Degraded.
#[test]
fn health_transitions_ok_to_degraded_on_forced_deadline_misses() {
    let registry = temp_registry("degrade");
    registry.publish("mcf", &servable(31)).unwrap();
    let mut server = Server::start(
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
    let sock = sock_path("degrade");
    server.enable_introspection(&sock).unwrap();

    // Healthy while serving normally.
    let mut rng = StdRng::seed_from_u64(32);
    for _ in 0..5 {
        server
            .submit("mcf", &sample_config(&mut rng), None)
            .wait()
            .unwrap();
    }
    assert_eq!(server.health(), Health::Ok);
    assert_eq!(
        query(&sock, "health").unwrap().body.lines().next(),
        Some("ok")
    );

    // Force misses: 1 µs deadlines are already past by the time the
    // worker's expiry sweep runs, so every one of these requests dies
    // queued.
    let tickets: Vec<_> = (0..10)
        .map(|_| {
            server.submit(
                "mcf",
                &sample_config(&mut rng),
                Some(Duration::from_micros(1)),
            )
        })
        .collect();
    let mut misses = 0;
    for t in tickets {
        if t.wait() == Err(ServeError::DeadlineMiss) {
            misses += 1;
        }
    }
    assert!(misses >= 2, "fault injection produced {misses} misses");

    // 10+ misses over ~15 admitted is far past 100 ‰: Degraded, on both
    // the in-process API and the endpoint.
    assert_eq!(server.health(), Health::Degraded);
    let health = query(&sock, "health").unwrap();
    assert_eq!(health.body.lines().next(), Some("degraded"));

    server.shutdown();
    std::fs::remove_dir_all(registry.root()).ok();
}

/// The introspection soak (acceptance criterion): with workers ∈ {2,4}
/// and a poller hammering `health` + `metrics` concurrently while 4
/// client threads drive ≥ 100 req/s, every served result must stay
/// bit-identical to serial `predict` — observation cannot perturb the
/// data path.
#[test]
fn soak_polling_the_endpoint_never_perturbs_served_bits() {
    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 48;

    let artifact = servable(42);
    let reference = artifact.instantiate().unwrap();

    let registry = temp_registry("soak");
    registry.publish("spec", &artifact).unwrap();

    for workers in [2usize, 4] {
        let mut server = Server::start(
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
        let sock = sock_path(&format!("soak{workers}"));
        server.enable_introspection(&sock).unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let polls = Arc::new(AtomicU64::new(0));
        let mut outcomes: Vec<(Vec<f64>, f64)> = Vec::new();
        std::thread::scope(|scope| {
            let server = &server;
            // The poller: continuous health+metrics round-trips for the
            // whole duration of the load.
            {
                let stop = Arc::clone(&stop);
                let polls = Arc::clone(&polls);
                let sock = sock.clone();
                scope.spawn(move || {
                    while !stop.load(Ordering::Acquire) {
                        let health = query(&sock, "health").unwrap();
                        assert!(health.ok);
                        let metrics = query(&sock, "metrics").unwrap();
                        assert!(metrics.ok);
                        polls.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
            let handles: Vec<_> = (0..CLIENTS)
                .map(|client| {
                    scope.spawn(move || {
                        let mut rng = StdRng::seed_from_u64(9000 * workers as u64 + client as u64);
                        let mut got = Vec::with_capacity(REQUESTS_PER_CLIENT);
                        for _ in 0..REQUESTS_PER_CLIENT {
                            let config = sample_config(&mut rng);
                            let prediction = server.submit("spec", &config, None).wait().unwrap();
                            got.push((config, prediction.value));
                        }
                        got
                    })
                })
                .collect();
            for handle in handles {
                outcomes.extend(handle.join().unwrap());
            }
            stop.store(true, Ordering::Release);
        });
        let elapsed_us = server.now_us();
        let polled = polls.load(Ordering::Relaxed);
        server.shutdown();

        assert_eq!(outcomes.len(), CLIENTS * REQUESTS_PER_CLIENT);
        // ≥ 100 req/s under concurrent polling (the load is far faster
        // in practice; this guards against the endpoint throttling the
        // data path).
        let rate = outcomes.len() as f64 / (elapsed_us as f64 / 1e6);
        assert!(
            rate >= 100.0,
            "{workers} workers: only {rate:.0} req/s with poller attached"
        );
        assert!(
            polled >= 3,
            "{workers} workers: poller completed only {polled} round-trips"
        );
        for (config, served) in &outcomes {
            let serial = reference.predict(std::slice::from_ref(config))[0];
            assert_eq!(
                serial.to_bits(),
                served.to_bits(),
                "{workers} workers: result diverged from serial predict under polling"
            );
        }
    }
    std::fs::remove_dir_all(registry.root()).ok();
}
