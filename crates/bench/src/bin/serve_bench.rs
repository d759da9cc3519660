//! Load generator for the batched serving layer (`metadse-serve`).
//!
//! Stands up a [`Server`] over a scratch [`ModelRegistry`] and measures
//! serving throughput and end-to-end latency under three load shapes:
//!
//! - **closed-loop single-query**: one client, batching disabled
//!   (`max_batch = 1`) — the per-query cost a caller pays without
//!   coalescing, and the baseline for the speedup row;
//! - **closed-loop batch-32**: 32 clients each keeping one request in
//!   flight against `max_batch = 32`, so workers coalesce full batches;
//! - **open-loop**: a dispatcher submitting at a fixed arrival rate
//!   (~half the measured batch-32 capacity) without waiting for
//!   completions, the shape that exposes queueing delay.
//!
//! Every family reports mean wall per request plus p50/p99 end-to-end
//! latency into `BENCH_results.json` (merge-written: `bench_report`
//! owns the other row families). The headline `serve/speedup_x1000`
//! row is batch-32 throughput over single-query throughput, ×1000.
//!
//! The serving geometry is deliberately **dispatch-bound** (2 tokens,
//! `d_model` 2, depth 16): per-op dispatch overhead dominates per-row
//! math, which is the regime micro-batching exists for — one forward
//! per batch amortizes the op dispatch across every queued row. The
//! paper-scale geometry (21 tokens, `d_model` 32, depth 2) is reported
//! alongside for transparency: there a single row already saturates
//! the dense kernels, so coalescing buys far less.
//!
//! ```text
//! cargo run --release -p metadse-bench --bin serve_bench            # full report
//! cargo run --release -p metadse-bench --bin serve_bench -- --smoke # CI p99 gate
//! ```

use std::path::Path;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use metadse::predictor::{PredictorConfig, TransformerPredictor};
use metadse::ServablePredictor;
use metadse_bench::serving::{request_row, BATCH, DISPATCH_GEOM};
use metadse_bench::timing::{black_box, human_ns, Harness, Sample};
use metadse_bench::{report, serving};
use metadse_nn::{backend, BackendKind};
use metadse_serve::{
    BatchConfig, ModelRegistry, ServeConfig, Server, SessionEngine, SessionEngineConfig,
    SessionSpec,
};

/// Name of the row the `--smoke` gate checks.
const SMOKE_ROW: &str = "serve/batch32_p99";

/// Paper-geometry row the `--smoke` gate also checks.
const PLAN_SMOKE_ROW: &str = "serve/paper_batch32_p99";

/// Session-round latency row the `--smoke` gate also checks.
const SESSION_SMOKE_ROW: &str = "serve/session_round_p99";

/// A server wired for benchmarking: fresh scratch registry publishing
/// one generation of `workload` with the given geometry.
fn bench_server(workload: &str, geom: PredictorConfig, max_batch: usize) -> Server {
    let model = TransformerPredictor::new(geom, 9);
    let servable = ServablePredictor::capture(&model, None, "ipc");
    let dir = std::env::temp_dir().join("metadse_serve_bench");
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Arc::new(ModelRegistry::open(dir, 2));
    registry
        .publish(workload, &servable)
        .expect("publish model");
    Server::start(
        registry,
        ServeConfig {
            batch: BatchConfig {
                max_batch,
                max_wait_us: 200,
                queue_capacity: 4096,
            },
            workers: 1,
        },
    )
}

/// Asserts the server's window-derived quantile agrees with the load
/// generator's independent measurement of the same run.
///
/// Documented tolerance (also in EXPERIMENTS.md): the window quantile
/// reports the *lower edge* of a log2 bucket (up to 2× below the true
/// value) and measures admission→forward-end on the server's clock,
/// while the load generator measures submit→reply-received including
/// channel wake-up overhead. So the window value may sit well below the
/// measured one but never far above it:
///
/// * `window ≤ measured × 1.5 + 200 µs` (window excludes client
///   overhead; the slack absorbs scheduling noise on loaded runners),
/// * `measured ≤ window × 4 + 1 ms` (2× bucket resolution × 2× client
///   overhead margin).
fn assert_window_agreement(which: &str, win_ns: f64, measured_ns: u64) {
    let measured = measured_ns as f64;
    report::kv(
        &format!("{which} window vs measured"),
        format!(
            "{} vs {}",
            human_ns(win_ns as u128),
            human_ns(u128::from(measured_ns))
        ),
    );
    assert!(
        win_ns <= measured * 1.5 + 200_000.0,
        "window {which} {win_ns:.0} ns far above measured {measured:.0} ns"
    );
    assert!(
        measured <= win_ns * 4.0 + 1_000_000.0,
        "measured {which} {measured:.0} ns far above window {win_ns:.0} ns"
    );
}

/// `p`-th percentile (0–100) of unsorted latencies, in nanoseconds.
fn percentile(latencies: &mut [u64], p: f64) -> u64 {
    assert!(!latencies.is_empty());
    latencies.sort_unstable();
    let rank = (p / 100.0 * (latencies.len() - 1) as f64).round() as usize;
    latencies[rank]
}

/// Closed-loop run: `clients` threads each keep exactly one request in
/// flight until they have completed `per_client` requests. Returns
/// (per-request latencies ns, overall qps).
fn closed_loop(
    server: &Server,
    workload: &str,
    clients: usize,
    per_client: usize,
) -> (Vec<u64>, f64) {
    let arity = server
        .registry()
        .get(workload)
        .expect("workload published")
        .servable
        .config()
        .num_params;
    // Warm the worker's model cache and the branch predictors.
    for i in 0..32 {
        server
            .submit(workload, &request_row(i, arity), None)
            .wait()
            .expect("warmup request");
    }
    let all = Mutex::new(Vec::with_capacity(clients * per_client));
    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let all = &all;
            let server = &server;
            s.spawn(move || {
                let mut latencies = Vec::with_capacity(per_client);
                for i in 0..per_client {
                    let row = request_row(c * per_client + i, arity);
                    let t = Instant::now();
                    server
                        .submit(workload, &row, None)
                        .wait()
                        .expect("benchmark request");
                    latencies.push(t.elapsed().as_nanos() as u64);
                }
                all.lock().unwrap().extend(latencies);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let latencies = all.into_inner().unwrap();
    let qps = latencies.len() as f64 / elapsed;
    (latencies, qps)
}

/// Open-loop run: a dispatcher submits `total` requests at `rate_qps`
/// without waiting (coarse sleep pacing in 8-request bursts — arrivals
/// are bursty but the mean rate holds), while a collector thread waits
/// tickets in submission order and records end-to-end latency.
fn open_loop(server: &Server, workload: &str, rate_qps: f64, total: usize) -> (Vec<u64>, f64) {
    let arity = server
        .registry()
        .get(workload)
        .expect("workload published")
        .servable
        .config()
        .num_params;
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    let mut latencies = Vec::with_capacity(total);
    std::thread::scope(|s| {
        let server = &server;
        s.spawn(move || {
            let interval = Duration::from_secs_f64(1.0 / rate_qps);
            for i in 0..total {
                let scheduled = interval.mul_f64(i as f64);
                if i % 8 == 0 {
                    let ahead = scheduled.saturating_sub(start.elapsed());
                    if ahead > Duration::from_micros(100) {
                        std::thread::sleep(ahead);
                    }
                }
                let ticket = server.submit(workload, &request_row(i, arity), None);
                tx.send((Instant::now(), ticket)).expect("collector alive");
            }
        });
        // Collect on this thread, concurrently with dispatch, so each
        // latency is read right when its ticket resolves. Tickets are
        // waited in submission order — a request that finished out of
        // turn reads slightly late, which only overstates the tail.
        for (submitted, ticket) in rx {
            ticket.wait().expect("open-loop request");
            latencies.push(submitted.elapsed().as_nanos() as u64);
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let qps = latencies.len() as f64 / elapsed;
    (latencies, qps)
}

/// Records mean + p50 + p99 rows for one load shape.
fn record_family(h: &mut Harness, family: &str, threads: usize, mut latencies: Vec<u64>, qps: f64) {
    let iters = latencies.len() as u32;
    let mean_ns = (1e9 / qps) as u128;
    for (suffix, wall_ns) in [
        ("", mean_ns),
        ("_p50", u128::from(percentile(&mut latencies, 50.0))),
        ("_p99", u128::from(percentile(&mut latencies, 99.0))),
    ] {
        h.record(Sample {
            name: format!("{family}{suffix}"),
            wall_ns,
            iters,
            threads,
            allocs: 0,
        });
    }
    report::kv(&format!("{family} throughput (qps)"), format!("{qps:.0}"));
}

/// Raw predictor cost outside the serving stack: batch-1 call and
/// per-row share of a batch-32 call — the model-level amortization
/// ceiling no serving layer can beat. Also records the batch-32 row
/// under the scalar tensor backend (`…@scalar`) so the SIMD inference
/// win is a same-machine comparison in `BENCH_results.json`.
fn raw_rows(h: &mut Harness) {
    let (model, many) = serving::raw_predict_fixture();
    let one = vec![request_row(0, DISPATCH_GEOM.num_params)];
    h.bench("serve/raw_predict_b1", || black_box(model.predict(&one)));
    let batch_ns = h
        .bench(&format!("serve/raw_predict_b{BATCH}"), || {
            black_box(model.predict(&many))
        })
        .wall_ns;
    h.record(Sample {
        name: format!("serve/raw_row_b{BATCH}"),
        wall_ns: batch_ns / BATCH as u128,
        iters: 1,
        threads: 1,
        allocs: 0,
    });
    let active = backend::kind();
    if active != BackendKind::Scalar {
        backend::set_process_kind(BackendKind::Scalar);
        h.bench(&format!("serve/raw_predict_b{BATCH}@scalar"), || {
            black_box(model.predict(&many))
        });
        backend::set_process_kind(active);
    }
}

/// Drives `sessions` exploration sessions through an in-process
/// [`SessionEngine`] over a batch-8 paper-geometry server and returns
/// per-round `step` latencies plus aggregate rounds/s. A round is the
/// session layer's unit of work — propose, batched predict through the
/// shared dedup cache, Pareto-front update, delta reply — so its
/// latency covers the whole online-DSE serving path end to end.
/// Sessions use distinct seeds: their sweeps overlap only where the
/// RNG happens to collide, which exercises the cache without letting
/// it trivially absorb the load.
fn session_load(sessions: usize) -> (Vec<u64>, f64) {
    let server = bench_server("bench", PredictorConfig::default(), 8);
    let engine = SessionEngine::new(SessionEngineConfig::default());
    let mut latencies = Vec::new();
    let start = Instant::now();
    for s in 0..sessions {
        let spec = SessionSpec {
            workload: "bench".to_string(),
            seed: 0xD5E + 7919 * s as u64,
            initial_samples: 16,
            refinement_rounds: 3,
            beam: 3,
            round_timeout_us: 0,
        };
        let info = engine.open(&server, &spec).expect("open session");
        for round in 1..=info.rounds_total {
            let t = Instant::now();
            engine
                .step(&server, "bench", info.session_id, round)
                .expect("session round");
            latencies.push(t.elapsed().as_nanos() as u64);
        }
        engine.close(info.session_id);
    }
    let qps = latencies.len() as f64 / start.elapsed().as_secs_f64();
    server.shutdown();
    (latencies, qps)
}

fn full_report() {
    report::banner("MetaDSE batched serving benchmark");
    report::kv(
        "hardware threads",
        metadse_parallel::available_parallelism(),
    );
    report::kv(
        "serving geometry",
        format!(
            "{} tokens, d_model {}, depth {} (dispatch-bound)",
            DISPATCH_GEOM.num_params, DISPATCH_GEOM.d_model, DISPATCH_GEOM.depth
        ),
    );
    let mut h = Harness::new().with_target_ms(300);
    raw_rows(&mut h);

    // Closed-loop single-query baseline: batching off.
    let single_qps = {
        let server = bench_server("bench", DISPATCH_GEOM, 1);
        let (latencies, qps) = closed_loop(&server, "bench", 1, 4000);
        record_family(&mut h, "serve/single_query", 1, latencies, qps);
        server.shutdown();
        qps
    };

    // Closed-loop batch-32, with the server's own trailing-window
    // quantiles recorded alongside the load generator's measurement and
    // cross-checked — self-validation of the observability path.
    let batch_qps = {
        let server = bench_server("bench", DISPATCH_GEOM, BATCH);
        let (mut latencies, qps) = closed_loop(&server, "bench", BATCH, 250);
        let window = server.stats().e2e_window(server.now_us());
        let measured_p50 = percentile(&mut latencies, 50.0);
        let measured_p99 = percentile(&mut latencies, 99.0);
        record_family(
            &mut h,
            &format!("serve/batch{BATCH}"),
            BATCH,
            latencies,
            qps,
        );
        for (suffix, q, measured_ns) in [("p50", 0.5, measured_p50), ("p99", 0.99, measured_p99)] {
            let win_ns = window.quantile(q) * 1000.0; // window records µs
            h.record(Sample {
                name: format!("serve/batch{BATCH}_win_{suffix}"),
                wall_ns: win_ns as u128,
                iters: window.count as u32,
                threads: BATCH,
                allocs: 0,
            });
            assert_window_agreement(suffix, win_ns, measured_ns);
        }
        server.shutdown();
        qps
    };

    let speedup = batch_qps / single_qps;
    h.record(Sample {
        name: "serve/speedup_x1000".to_string(),
        wall_ns: (speedup * 1000.0) as u128,
        iters: (BATCH * 250) as u32,
        threads: BATCH,
        allocs: 0,
    });
    report::kv(
        &format!("batch-{BATCH} speedup over single-query"),
        format!("{speedup:.2}x"),
    );

    // Open-loop at ~half of batched capacity: queueing delay visible,
    // but the server is not saturated.
    {
        let server = bench_server("bench", DISPATCH_GEOM, BATCH);
        let (latencies, qps) = open_loop(&server, "bench", batch_qps * 0.5, 4000);
        record_family(&mut h, "serve/open_loop", 2, latencies, qps);
        server.shutdown();
    }

    // Paper-scale geometry for transparency: dense-math-bound, so the
    // coalescing win is small — report it rather than hide it.
    {
        let paper = PredictorConfig::default();
        let server = bench_server("bench", paper, 1);
        let (latencies, qps) = closed_loop(&server, "bench", 1, 300);
        record_family(&mut h, "serve/paper_single_query", 1, latencies, qps);
        server.shutdown();
        let server = bench_server("bench", paper, BATCH);
        let (latencies, batch_qps) = closed_loop(&server, "bench", BATCH, 25);
        record_family(
            &mut h,
            &format!("serve/paper_batch{BATCH}"),
            BATCH,
            latencies,
            batch_qps,
        );
        server.shutdown();
        report::kv("paper-geometry speedup", format!("{:.2}x", batch_qps / qps));
    }

    // Per-round exploration-session latency over the same paper
    // geometry — the online-DSE serving path the session layer adds.
    {
        let (latencies, rounds_per_sec) = session_load(8);
        record_family(&mut h, "serve/session_round", 1, latencies, rounds_per_sec);
    }

    let path = Path::new("BENCH_results.json");
    // Owned prefixes cover every row family this mode produces — but
    // not `serve/shards…`, which `--shards` owns, so the two modes
    // merge into one file without clobbering each other.
    h.write_json_merged(
        path,
        &[
            "serve/raw_",
            "serve/single_query",
            "serve/batch",
            "serve/speedup",
            "serve/open_loop",
            "serve/paper_",
            "serve/session_",
        ],
    )
    .expect("write BENCH_results.json");
    report::kv("wrote", path.display());
}

/// Soak driver for the CI introspection smoke step: serves a continuous
/// closed-loop load for roughly `secs` seconds so an external
/// `metadse-introspect` client can poll the endpoint against live
/// traffic. The endpoint itself comes from `Server::start` honouring
/// `METADSE_INTROSPECT` — this binary never touches the socket, which
/// is exactly the point: the exposition CI captures is produced across
/// process boundaries.
fn introspect_soak(secs: u64) {
    report::banner("MetaDSE serving introspection soak");
    report::kv("duration (s)", secs);
    let server = bench_server("bench", DISPATCH_GEOM, BATCH);
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut served = 0usize;
    while Instant::now() < deadline {
        let (latencies, _) = closed_loop(&server, "bench", 8, 100);
        served += latencies.len();
    }
    let window = server.stats().e2e_window(server.now_us());
    report::kv("requests served", served);
    report::kv("window p99 (us)", format!("{:.0}", window.quantile(0.99)));
    report::kv("final health", server.health());
    server.shutdown();
}

/// CI regression gate on closed-loop batch-32 p99 rows: best-of-three
/// against the committed baseline, with a generous ratio (tail latency
/// on shared runners is noisy) and an absolute floor — a p99 under the
/// floor passes outright, whatever the committed value was. Gates both
/// the dispatch-bound row and the paper-geometry row, so a
/// plan-execution regression trips CI even though the dispatch row is
/// queue-dominated.
fn smoke() {
    report::banner("MetaDSE serving smoke check");
    let committed = std::fs::read_to_string("BENCH_results.json")
        .expect("smoke mode needs the committed BENCH_results.json baseline");
    smoke_gate(&committed, SMOKE_ROW, DISPATCH_GEOM, 60, 2_000_000);
    smoke_gate(
        &committed,
        PLAN_SMOKE_ROW,
        PredictorConfig::default(),
        12,
        // Paper-geometry forwards are dense-math-bound and an order of
        // magnitude slower per batch; the outright-pass floor scales
        // with them.
        20_000_000,
    );
    // Session rounds batch 16+ paper-geometry forwards per step; the
    // floor scales with a full round, not a single forward.
    gate_p99(&committed, SESSION_SMOKE_ROW, 100_000_000, || {
        let (mut latencies, _) = session_load(4);
        percentile(&mut latencies, 99.0)
    });
    #[cfg(unix)]
    sharded::smoke_gate(&committed);
}

/// One best-of-three p99 gate for `row` at `geom`.
fn smoke_gate(
    committed: &str,
    row: &str,
    geom: PredictorConfig,
    per_client: usize,
    abs_floor_ns: u64,
) {
    gate_p99(committed, row, abs_floor_ns, || {
        let server = bench_server("bench", geom, BATCH);
        let (mut latencies, _) = closed_loop(&server, "bench", BATCH, per_client);
        server.shutdown();
        percentile(&mut latencies, 99.0)
    });
}

/// Best-of-three p99 gate: each attempt measures a fresh p99 via
/// `measure`; the run passes if any attempt lands within `MAX_RATIO`
/// of the committed baseline or under the absolute floor.
fn gate_p99(committed: &str, row: &str, abs_floor_ns: u64, measure: impl Fn() -> u64) {
    const MAX_RATIO: f64 = 2.5;
    const ATTEMPTS: usize = 3;

    let baseline = committed_wall_ns(committed, row)
        .unwrap_or_else(|| panic!("baseline row {row} missing from BENCH_results.json"));
    report::kv(&format!("{row} baseline"), human_ns(baseline));

    let mut best = u64::MAX;
    for attempt in 1..=ATTEMPTS {
        let p99 = measure();
        let ratio = p99 as f64 / baseline as f64;
        report::kv(
            &format!("{row} attempt {attempt}/{ATTEMPTS} p99"),
            format!("{} ({ratio:.3}x)", human_ns(u128::from(p99))),
        );
        best = best.min(p99);
        if p99 <= abs_floor_ns || ratio <= MAX_RATIO {
            report::line(format!(
                "OK: {row} within {MAX_RATIO}x of baseline (or under {})",
                human_ns(u128::from(abs_floor_ns))
            ));
            return;
        }
    }
    report::line(format!(
        "FAIL: {row} regressed {:.2}x vs committed baseline \
         (limit {MAX_RATIO}x, best of {ATTEMPTS} attempts)",
        best as f64 / baseline as f64
    ));
    std::process::exit(1);
}

/// Reads `wall_ns` for one row of a committed `BENCH_results.json`
/// (one object per line, as written by the harness).
fn committed_wall_ns(json: &str, name: &str) -> Option<u128> {
    let needle = format!("\"name\": \"{name}\"");
    let line = json.lines().find(|l| l.contains(&needle))?;
    let field = line.split("\"wall_ns\": ").nth(1)?;
    let digits: String = field.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Multi-process shard-scaling rows: stands up real worker-process
/// fleets (this binary re-executed with `--shard-worker`, supervised)
/// behind a front door and measures closed-loop aggregate QPS per fleet
/// size. Rows `serve/shardsN_qps` store *requests per second* in the
/// `wall_ns` field (a value row, like `serve/speedup_x1000`), and
/// `serve/shard_scaling_x1000` stores the 4-shard/1-shard ratio ×1000.
///
/// The workload is the **paper geometry** (dense-math-bound, ~170 µs a
/// forward), so per-request compute dominates the two socket hops and
/// scaling across worker processes is physically possible. On a
/// single-core container the sizes tie at ~1× — the committed rows say
/// whatever the measuring machine could honestly do, and the CI gate
/// only enforces the ≥ 2.5× 4-shard ratio on runners with ≥ 4 CPUs.
#[cfg(unix)]
mod sharded {
    use std::collections::BTreeMap;
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    use metadse::predictor::{PredictorConfig, TransformerPredictor};
    use metadse::ServablePredictor;
    use metadse_bench::fleet::{launch, Fleet, FleetOptions};
    use metadse_bench::report;
    use metadse_bench::serving::request_row;
    use metadse_bench::timing::{Harness, Sample};
    use metadse_serve::{FrontClient, ModelRegistry};

    /// Row families owned by `--shards` mode in `BENCH_results.json`.
    const ROW_PREFIXES: &[&str] = &["serve/shards", "serve/shard_scaling"];

    /// The fleet sizes the committed rows cover.
    const SIZES: [usize; 3] = [1, 2, 4];

    /// Mixed tenants so every shard of a 4-way fleet owns work.
    const TENANTS: [&str; 8] = [
        "astar", "bzip2", "gcc", "leela", "mcf", "omnetpp", "sjeng", "xalan",
    ];

    /// Publishes the tenant registry and launches a `shards`-worker
    /// fleet with a front door; returns it with its scratch dir.
    fn fleet_up(shards: usize, tag: &str) -> (Fleet, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "metadse-shardbench-{tag}-{shards}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let root = dir.join("models");
        let registry = ModelRegistry::new(&root, 2);
        for (i, name) in TENANTS.iter().enumerate() {
            let servable = ServablePredictor::capture(
                &TransformerPredictor::new(PredictorConfig::default(), 300 + i as u64),
                None,
                "ipc",
            );
            registry.publish(name, &servable).expect("publish tenant");
        }
        let mut opts = FleetOptions::new(&dir, &root, shards);
        opts.max_batch = 8;
        opts.max_wait_us = 100;
        (launch(&opts).expect("fleet launch"), dir)
    }

    /// Closed-loop load through the front: `clients` threads, one
    /// request in flight each, `per_client` requests per thread over
    /// the mixed tenants. Returns aggregate QPS.
    fn closed_loop_front(fleet: &Fleet, clients: usize, per_client: usize) -> f64 {
        let arity = PredictorConfig::default().num_params;
        // Warm every shard's plan cache before the clock starts.
        let mut warm = FrontClient::connect(fleet.socket()).expect("front connect");
        for (i, name) in TENANTS.iter().enumerate() {
            warm.predict(name, &request_row(i, arity), None)
                .expect("warmup predict");
        }
        let done = AtomicU64::new(0);
        let start = Instant::now();
        std::thread::scope(|s| {
            for c in 0..clients {
                let done = &done;
                s.spawn(move || {
                    let mut client = FrontClient::connect(fleet.socket()).expect("front connect");
                    for i in 0..per_client {
                        let request = c * per_client + i;
                        let tenant = TENANTS[request % TENANTS.len()];
                        let config = request_row(request, arity);
                        // No faults are injected here, but transient
                        // shed/unavailable outcomes still deserve a
                        // bounded retry rather than a dead sample.
                        let mut attempts = 0;
                        loop {
                            match client.predict(tenant, &config, None) {
                                Ok(_) => break,
                                Err(e) if e.retryable() && attempts < 50 => {
                                    attempts += 1;
                                    client = FrontClient::connect(fleet.socket())
                                        .expect("front reconnect");
                                }
                                Err(e) => panic!("shard bench request failed: {e}"),
                            }
                        }
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        done.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64()
    }

    /// One measured fleet size → QPS (the fleet is torn down after).
    fn measure(shards: usize, tag: &str, per_client: usize) -> f64 {
        let (fleet, dir) = fleet_up(shards, tag);
        let clients = (4 * shards).min(16);
        let qps = closed_loop_front(&fleet, clients, per_client);
        fleet.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
        report::kv(&format!("{shards} shard(s) qps"), format!("{qps:.0}"));
        qps
    }

    /// The full `--shards` report: QPS rows for each fleet size plus
    /// the 4-vs-1 scaling ratio, merged into `BENCH_results.json`.
    pub fn full_report() {
        report::banner("MetaDSE sharded serving scaling benchmark");
        report::kv(
            "hardware threads",
            metadse_parallel::available_parallelism(),
        );
        let mut h = Harness::new();
        let mut qps_by_size: BTreeMap<usize, f64> = BTreeMap::new();
        for &shards in &SIZES {
            let qps = measure(shards, "full", 400);
            let clients = (4 * shards).min(16);
            h.record(Sample {
                name: format!("serve/shards{shards}_qps"),
                wall_ns: qps as u128,
                iters: (clients * 400) as u32,
                threads: clients,
                allocs: 0,
            });
            qps_by_size.insert(shards, qps);
        }
        if let (Some(q1), Some(q4)) = (qps_by_size.get(&1), qps_by_size.get(&4)) {
            let ratio = q4 / q1;
            h.record(Sample {
                name: "serve/shard_scaling_x1000".to_string(),
                wall_ns: (ratio * 1000.0) as u128,
                iters: 1,
                threads: 16,
                allocs: 0,
            });
            report::kv("4-shard scaling over 1 shard", format!("{ratio:.2}x"));
        }
        let path = Path::new("BENCH_results.json");
        h.write_json_merged(path, ROW_PREFIXES)
            .expect("write BENCH_results.json");
        report::kv("wrote", path.display());
    }

    /// The CI gate on the shard rows: the committed baseline must carry
    /// them, and on runners with ≥ 4 CPUs a live 4-shard fleet must
    /// beat a live 1-shard fleet by ≥ 2.5× (best of three — process
    /// scheduling on shared runners is noisy). On smaller machines the
    /// ratio is physically out of reach, so only row presence is
    /// enforced — and the skip is reported, never silent.
    pub fn smoke_gate(committed: &str) {
        const MIN_RATIO: f64 = 2.5;
        const ATTEMPTS: usize = 3;

        for row in ["serve/shards1_qps", "serve/shards4_qps"] {
            let qps = super::committed_wall_ns(committed, row)
                .unwrap_or_else(|| panic!("baseline row {row} missing from BENCH_results.json"));
            report::kv(&format!("{row} baseline"), format!("{qps} qps"));
        }
        let cores = metadse_parallel::available_parallelism();
        if cores < 4 {
            report::line(format!(
                "SKIP: shard-scaling ratio gate needs ≥ 4 CPUs (have {cores}); \
                 row presence verified"
            ));
            return;
        }
        let mut best = 0.0f64;
        for attempt in 1..=ATTEMPTS {
            let q1 = measure(1, &format!("smoke{attempt}"), 150);
            let q4 = measure(4, &format!("smoke{attempt}"), 150);
            let ratio = q4 / q1;
            report::kv(
                &format!("scaling attempt {attempt}/{ATTEMPTS}"),
                format!("{ratio:.2}x"),
            );
            best = best.max(ratio);
            if ratio >= MIN_RATIO {
                report::line(format!(
                    "OK: 4-shard fleet scales {ratio:.2}x (≥ {MIN_RATIO}x)"
                ));
                return;
            }
        }
        report::line(format!(
            "FAIL: 4-shard fleet only {best:.2}x over 1 shard (need ≥ {MIN_RATIO}x on {cores} CPUs)"
        ));
        std::process::exit(1);
    }
}

fn main() {
    #[cfg(unix)]
    if let Some(code) = metadse_serve::shard::run_worker_if_flagged() {
        std::process::exit(code);
    }
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--smoke") {
        smoke();
    } else if args.iter().any(|a| a == "--shards") {
        #[cfg(unix)]
        sharded::full_report();
        #[cfg(not(unix))]
        {
            eprintln!("serve_bench --shards needs unix sockets");
            std::process::exit(1);
        }
    } else if let Some(pos) = args.iter().position(|a| a == "--introspect-soak") {
        let secs = args.get(pos + 1).and_then(|s| s.parse().ok()).unwrap_or(10);
        introspect_soak(secs);
    } else {
        full_report();
    }
}
