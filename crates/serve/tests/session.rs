//! Session-layer suite: checkpoint codec round-trips, dedup point-cache
//! exactly-once laws under scripted interleavings, incremental-front
//! properties over the wire format, engine-vs-standalone bit-identity,
//! and kill/resume determinism. Process-level crash-restart of whole
//! shards is exercised by the `session_soak` bin and CI's session-soak
//! job; here everything runs in one test process.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use metadse::checkpoint::{CheckpointConfig, Checkpointer, CkptIo, FaultIo, FaultMode, FaultSpec};
use metadse::explorer::{
    apply_front_delta, canonical_front, explore_pareto, ExplorerConfig, ExplorerState, FrontDelta,
    ParetoEntry,
};
use metadse::predictor::{PredictorConfig, TransformerPredictor};
use metadse::ServablePredictor;
use metadse_nn::format::fnv1a;
use metadse_serve::session::{
    decode_session, encode_session, power_proxy, Claim, PointCache, RoundReport, SessionSpec,
    SessionState,
};
use metadse_serve::{
    BatchConfig, ModelRegistry, ServeConfig, Server, SessionEngine, SessionEngineConfig,
    SessionError,
};
use metadse_sim::{ConfigPoint, DesignSpace};

/// Sessions encode full 21-parameter design points, so the served model
/// must accept that arity; everything else is sized for test speed.
const GEOMETRY: PredictorConfig = PredictorConfig {
    num_params: 21,
    d_model: 4,
    heads: 2,
    depth: 1,
    d_hidden: 8,
    head_hidden: 4,
};

fn servable(seed: u64) -> ServablePredictor {
    ServablePredictor::capture(&TransformerPredictor::new(GEOMETRY, seed), None, "ipc")
}

fn test_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("metadse-sessiontest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        batch: BatchConfig {
            max_batch: 8,
            max_wait_us: 100,
            queue_capacity: 256,
        },
        workers: 1,
    }
}

/// Publishes `names` and starts an in-process server over them.
fn start_server(dir: &Path, names: &[&str]) -> Server {
    let root = dir.join("models");
    let registry = ModelRegistry::new(&root, 4);
    for (i, name) in names.iter().enumerate() {
        registry.publish(name, &servable(1000 + i as u64)).unwrap();
    }
    Server::start(Arc::new(registry), serve_config())
}

fn spec(workload: &str, seed: u64) -> SessionSpec {
    SessionSpec {
        workload: workload.to_string(),
        seed,
        initial_samples: 20,
        refinement_rounds: 2,
        beam: 3,
        round_timeout_us: 0,
    }
}

fn explorer_config(spec: &SessionSpec) -> ExplorerConfig {
    ExplorerConfig {
        initial_samples: spec.initial_samples as usize,
        refinement_rounds: spec.refinement_rounds as usize,
        beam: spec.beam as usize,
        seed: spec.seed,
    }
}

/// Steps a freshly-opened session to completion, asserting the per-round
/// accounting law, and returns every report in order.
fn drive_session(engine: &SessionEngine, server: &Server, spec: &SessionSpec) -> Vec<RoundReport> {
    let info = engine.open(server, spec).unwrap();
    let mut reports = Vec::new();
    for round in info.rounds_done + 1..=info.rounds_total {
        let report = engine
            .step(server, &spec.workload, info.session_id, round)
            .unwrap();
        assert_eq!(
            report.proposed,
            report.predicted + report.cache_hits + report.shed,
            "round accounting law broke at round {round}"
        );
        reports.push(report);
    }
    assert!(reports.last().unwrap().done);
    reports
}

fn assert_fronts_bit_identical(a: &[ParetoEntry], b: &[ParetoEntry], context: &str) {
    assert_eq!(a.len(), b.len(), "{context}: front sizes differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.point, y.point, "{context}: points diverged");
        assert_eq!(
            x.ipc.to_bits(),
            y.ipc.to_bits(),
            "{context}: ipc bits diverged"
        );
        assert_eq!(
            x.power.to_bits(),
            y.power.to_bits(),
            "{context}: power bits diverged"
        );
    }
}

// ---------------------------------------------------------------------------
// Satellite 1: checkpoint codec + torn-write fallback
// ---------------------------------------------------------------------------

fn random_point(rng: &mut StdRng) -> ConfigPoint {
    ConfigPoint::new((0..21).map(|_| rng.gen_range(0usize..8)).collect())
}

/// Any f64 bit pattern is a legal objective in a checkpoint — including
/// NaNs, infinities, signed zeros, and subnormals.
fn random_f64(rng: &mut StdRng) -> f64 {
    const SPECIALS: [f64; 6] = [0.0, -0.0, f64::NAN, f64::NEG_INFINITY, 4.9e-324, -3.25];
    if rng.gen_range(0u32..4) == 0 {
        SPECIALS[rng.gen_range(0usize..SPECIALS.len())]
    } else {
        f64::from_bits(rng.next_u64())
    }
}

fn random_entry(rng: &mut StdRng) -> ParetoEntry {
    ParetoEntry {
        point: random_point(rng),
        ipc: random_f64(rng),
        power: random_f64(rng),
    }
}

fn random_state(seed: u64) -> SessionState {
    let mut rng = StdRng::seed_from_u64(seed);
    let archive: Vec<ParetoEntry> = (0..rng.gen_range(0usize..12))
        .map(|_| random_entry(&mut rng))
        .collect();
    let last_report = if rng.gen_range(0u32..3) > 0 {
        Some(RoundReport {
            round: rng.gen_range(1u64..4),
            done: rng.gen_range(0u32..2) == 1,
            hypervolume: random_f64(&mut rng),
            proposed: rng.gen_range(0u32..200),
            predicted: rng.gen_range(0u32..100),
            cache_hits: rng.gen_range(0u32..100),
            shed: rng.gen_range(0u32..10),
            added: (0..rng.gen_range(0usize..5))
                .map(|_| random_entry(&mut rng))
                .collect(),
            removed: (0..rng.gen_range(0usize..5))
                .map(|_| random_point(&mut rng))
                .collect(),
        })
    } else {
        None
    };
    SessionState {
        spec: SessionSpec {
            workload: format!("wl-{seed}"),
            seed: rng.next_u64(),
            initial_samples: rng.gen_range(1u32..512),
            refinement_rounds: rng.gen_range(0u32..8),
            beam: rng.gen_range(1u32..16),
            round_timeout_us: rng.next_u64() % 10_000_000,
        },
        fingerprint: rng.next_u64(),
        explorer: ExplorerState {
            rng: [
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
                rng.next_u64(),
            ],
            rounds_done: rng.gen_range(0u64..4),
            seen: (0..rng.gen_range(0usize..16))
                .map(|_| random_point(&mut rng))
                .collect(),
            archive,
        },
        predictions: rng.next_u64(),
        cache_hits: rng.next_u64(),
        shed: rng.next_u64(),
        proposed: rng.next_u64(),
        last_report,
        cache_entries: (0..rng.gen_range(0usize..10))
            .map(|_| (random_point(&mut rng), rng.next_u64()))
            .collect(),
    }
}

#[test]
fn session_state_roundtrip_is_bit_exact() {
    for seed in 0..64u64 {
        let state = random_state(seed);
        let bytes = encode_session(&state);
        let decoded = decode_session(&bytes).unwrap();
        // Equality through re-encoding compares every field by exact bit
        // pattern (PartialEq would call NaN != NaN).
        assert_eq!(
            encode_session(&decoded),
            bytes,
            "seed {seed}: state drifted through a codec round-trip"
        );
        assert_eq!(decoded.spec, state.spec);
        assert_eq!(decoded.fingerprint, state.fingerprint);
        assert_eq!(decoded.explorer.rng, state.explorer.rng);
        assert_eq!(decoded.explorer.seen, state.explorer.seen);
        assert_eq!(decoded.cache_entries, state.cache_entries);
    }
}

#[test]
fn truncated_or_corrupt_session_state_is_rejected() {
    let state = random_state(0xC0FFEE);
    let bytes = encode_session(&state);
    // Truncation at every cut, including the empty file.
    for cut in 0..bytes.len() {
        assert!(
            decode_session(&bytes[..cut]).is_err(),
            "truncation to {cut}/{} bytes must be rejected",
            bytes.len()
        );
    }
    // A single flipped byte anywhere is caught (header, length,
    // payload, or checksum).
    for i in 0..bytes.len() {
        let mut torn = bytes.clone();
        torn[i] ^= 0x40;
        assert!(
            decode_session(&torn).is_err(),
            "flip at byte {i}/{} must be rejected",
            bytes.len()
        );
    }
    // Trailing garbage is rejected too — a sealed container knows its
    // exact extent.
    let mut padded = bytes.clone();
    padded.extend_from_slice(&[0u8; 8]);
    assert!(decode_session(&padded).is_err());
}

#[test]
fn session_checkpoints_fall_back_past_torn_and_crashed_generations() {
    let dir = test_dir("faultio");
    let good = random_state(7);
    let newer = random_state(8);

    // Generation 1 lands cleanly.
    let mut config = CheckpointConfig::new(&dir);
    config.keep = 3;
    let mut ckpt = Checkpointer::new(config.clone());
    assert_eq!(ckpt.save_bytes(&encode_session(&good)).unwrap(), 1);

    // Generation 2 is torn mid-write: half the chunk persists but the
    // save reports success — only the seal's checksum can catch it.
    let mut torn_config = config.clone();
    torn_config.fault = Some(FaultSpec {
        fail_at: 1, // create=0, first chunk write=1
        mode: FaultMode::TornWrite,
    });
    let mut torn = Checkpointer::new(torn_config);
    assert_eq!(torn.save_bytes(&encode_session(&newer)).unwrap(), 2);

    // Load walks newest-first and falls back to the intact generation.
    let mut loader = Checkpointer::new(config.clone());
    let (loaded, generation) = loader.load_latest_with(decode_session).unwrap();
    assert_eq!(generation, 1);
    assert_eq!(encode_session(&loaded), encode_session(&good));

    // A crash mid-write leaves only a temp file — no new generation at
    // all, and the previous one still loads.
    let mut crash_config = config.clone();
    crash_config.fault = Some(FaultSpec {
        fail_at: 2,
        mode: FaultMode::CrashMidWrite,
    });
    let mut crash = Checkpointer::new(crash_config);
    assert!(crash.save_bytes(&encode_session(&newer)).is_err());
    let mut loader = Checkpointer::new(config.clone());
    let (loaded, generation) = loader.load_latest_with(decode_session).unwrap();
    assert_eq!(generation, 1);
    assert_eq!(encode_session(&loaded), encode_session(&good));

    // A power loss undoes every rename and directory creation whose
    // directory was not synced: cut at each operation of two saves in
    // turn, and the newest save that returned `Ok` must be what loads.
    let mut newest = (generation, encode_session(&good));
    for fail_at in 0.. {
        let io = Arc::new(FaultIo::new(FaultSpec {
            fail_at,
            mode: FaultMode::PowerLoss,
        }));
        let mut power = Checkpointer::with_io(config.clone(), io.clone());
        for state in [&newer, &good] {
            let bytes = encode_session(state);
            if let Ok(generation) = power.save_bytes(&bytes) {
                newest = (generation, bytes);
            }
        }
        let mut loader = Checkpointer::new(config.clone());
        let (loaded, generation) = loader.load_latest_with(decode_session).unwrap();
        assert_eq!(
            (generation, encode_session(&loaded)),
            newest,
            "power cut at operation {fail_at}"
        );
        // One more operation: it succeeds only if the power never went.
        if io.sync_dir(&dir).is_ok() {
            break;
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Satellite 2: dedup point cache exactly-once laws
// ---------------------------------------------------------------------------

fn point_bits(fp: u64, point: &ConfigPoint) -> u64 {
    let mut bytes = fp.to_le_bytes().to_vec();
    for &i in point.indices() {
        bytes.extend_from_slice(&(i as u64).to_le_bytes());
    }
    fnv1a(&bytes)
}

#[test]
fn point_cache_predicts_each_point_exactly_once_across_interleavings() {
    // 200 seeded interleavings of 3 sessions racing over an overlapping
    // point set. Whatever the schedule, each point's "prediction" (the
    // Owed path) runs exactly once, every waiter observes the owner's
    // bits, and the duplicate counter stays zero.
    const SESSIONS: usize = 3;
    const FP: u64 = 0xFEED;
    for seed in 0..200u64 {
        let points: Vec<ConfigPoint> = {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..12).map(|_| random_point(&mut rng)).collect()
        };
        let cache = PointCache::new();
        let predictions = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for session in 0..SESSIONS {
                let cache = &cache;
                let predictions = &predictions;
                let points = &points;
                scope.spawn(move || {
                    // Each session visits the shared points in its own
                    // seeded order with its own seeded pauses.
                    let mut rng = StdRng::seed_from_u64(seed * 31 + session as u64);
                    let mut order: Vec<usize> = (0..points.len()).collect();
                    for i in (1..order.len()).rev() {
                        order.swap(i, rng.gen_range(0usize..=i));
                    }
                    for i in order {
                        let point = &points[i];
                        let want = point_bits(FP, point);
                        match cache.try_claim(FP, point) {
                            Claim::Owed => {
                                predictions.fetch_add(1, Ordering::SeqCst);
                                std::thread::sleep(Duration::from_micros(rng.gen_range(0u64..80)));
                                cache.fulfil(FP, point, want);
                            }
                            Claim::Ready(bits) => assert_eq!(bits, want),
                            Claim::InFlight => {
                                let bits = cache
                                    .await_ready(FP, point, Duration::from_secs(10))
                                    .expect("owner must fulfil");
                                assert_eq!(bits, want);
                            }
                        }
                    }
                });
            }
        });
        let unique: std::collections::HashSet<&ConfigPoint> = points.iter().collect();
        assert_eq!(
            predictions.load(Ordering::SeqCst),
            unique.len(),
            "seed {seed}: predictions issued != unique points proposed"
        );
        assert_eq!(
            cache.duplicate_fulfils(),
            0,
            "seed {seed}: duplicate prediction"
        );
        assert_eq!(cache.ready_points(), unique.len());
    }
}

#[test]
fn abandoned_claims_unblock_waiters_and_are_retaken() {
    let cache = Arc::new(PointCache::new());
    let point = ConfigPoint::new(vec![3; 21]);
    assert_eq!(cache.try_claim(1, &point), Claim::Owed);
    assert_eq!(cache.try_claim(1, &point), Claim::InFlight);

    let waiter = {
        let cache = cache.clone();
        let point = point.clone();
        std::thread::spawn(move || cache.await_ready(1, &point, Duration::from_secs(10)))
    };
    // The owner sheds: the waiter unblocks empty-handed and can retake
    // the claim itself.
    std::thread::sleep(Duration::from_millis(20));
    cache.abandon(1, &point);
    assert_eq!(waiter.join().unwrap(), None);
    assert_eq!(cache.try_claim(1, &point), Claim::Owed);
    cache.fulfil(1, &point, 42);
    assert_eq!(cache.try_claim(1, &point), Claim::Ready(42));
    assert_eq!(cache.duplicate_fulfils(), 0);

    // await_ready with a bounded timeout on a stuck in-flight point
    // returns None rather than hanging.
    let other = ConfigPoint::new(vec![4; 21]);
    assert_eq!(cache.try_claim(1, &other), Claim::Owed);
    assert_eq!(
        cache.await_ready(1, &other, Duration::from_millis(10)),
        None
    );
}

#[test]
fn purge_fingerprint_isolates_tenants() {
    let cache = PointCache::new();
    let mut rng = StdRng::seed_from_u64(11);
    let a_points: Vec<ConfigPoint> = (0..3).map(|_| random_point(&mut rng)).collect();
    let b_points: Vec<ConfigPoint> = (0..2).map(|_| random_point(&mut rng)).collect();
    for p in &a_points {
        assert_eq!(cache.try_claim(0xA, p), Claim::Owed);
        cache.fulfil(0xA, p, point_bits(0xA, p));
    }
    for p in &b_points {
        assert_eq!(cache.try_claim(0xB, p), Claim::Owed);
        cache.fulfil(0xB, p, point_bits(0xB, p));
    }
    let b_before = cache.ready_entries(0xB);

    // Hot-swapping tenant A's model purges exactly A's points.
    assert_eq!(cache.purge_fingerprint(0xA), 3);
    assert!(cache.ready_entries(0xA).is_empty());
    assert_eq!(cache.ready_entries(0xB), b_before);
    assert_eq!(cache.ready_points(), 2);

    // Restore seeds Ready entries but never clobbers a live claim.
    let claimed = random_point(&mut rng);
    assert_eq!(cache.try_claim(0xA, &claimed), Claim::Owed);
    cache.restore(0xA, &[(claimed.clone(), 7), (a_points[0].clone(), 9)]);
    assert_eq!(cache.try_claim(0xA, &a_points[0]), Claim::Ready(9));
    assert_eq!(cache.try_claim(0xA, &claimed), Claim::InFlight);
}

// ---------------------------------------------------------------------------
// Engine: bit-identity against the standalone explorer, cache sharing,
// kill/resume, hot-swap coherence, protocol misuse
// ---------------------------------------------------------------------------

#[test]
fn session_rounds_match_standalone_explorer_bit_for_bit() {
    let dir = test_dir("standalone");
    let server = start_server(&dir, &["mcf"]);
    let engine = SessionEngine::new(SessionEngineConfig::default());
    let sp = spec("mcf", 0x5E55);

    let reports = drive_session(&engine, &server, &sp);
    assert_eq!(reports.iter().map(|r| r.shed).sum::<u32>(), 0);

    // Satellite 3 over the service path: the per-round deltas rebuild
    // the front, and hypervolume never regresses.
    let mut applied: Vec<ParetoEntry> = Vec::new();
    let mut prev_hv = 0.0;
    for report in &reports {
        apply_front_delta(
            &mut applied,
            &FrontDelta {
                added: report.added.clone(),
                removed: report.removed.clone(),
            },
        );
        assert!(report.hypervolume >= prev_hv, "hypervolume regressed");
        prev_hv = report.hypervolume;
    }

    // The standalone explorer, predicting through the same server one
    // point at a time, lands on the identical front: sessions add
    // batching, caching, and checkpoints — never different bits.
    let space = DesignSpace::new();
    let standalone = explore_pareto(
        &space,
        |batch| {
            batch
                .iter()
                .map(|row| {
                    let ipc = server.submit("mcf", row, None).wait().unwrap().value;
                    (ipc, power_proxy(row))
                })
                .collect()
        },
        &explorer_config(&sp),
    );
    assert_fronts_bit_identical(
        &canonical_front(applied),
        &canonical_front(standalone),
        "session vs standalone",
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn identical_exploration_is_served_entirely_from_the_shared_cache() {
    let dir = test_dir("dedup");
    let server = start_server(&dir, &["mcf"]);
    let engine = SessionEngine::new(SessionEngineConfig::default());

    // Two tenants running the same exploration seed (their specs differ
    // only in round timeout, so the session ids differ): the second
    // session proposes exactly the points the first predicted.
    let first = spec("mcf", 9);
    let mut second = spec("mcf", 9);
    second.round_timeout_us = 4_000_000;
    assert_ne!(first.session_id(), second.session_id());

    let reports_a = drive_session(&engine, &server, &first);
    let predicted_total: u32 = reports_a.iter().map(|r| r.predicted).sum();
    assert!(predicted_total > 0);

    let reports_b = drive_session(&engine, &server, &second);
    for (round, report) in reports_b.iter().enumerate() {
        assert_eq!(
            report.predicted,
            0,
            "round {}: twin session re-predicted cached points",
            round + 1
        );
        assert_eq!(report.cache_hits, report.proposed);
    }
    // Fleet-wide exactly-once law: predictions issued == unique points.
    assert_eq!(predicted_total as usize, engine.cache().ready_points());
    assert_eq!(engine.cache().duplicate_fulfils(), 0);

    // Same seed → bit-identical deltas, hypervolumes, and fronts.
    assert_eq!(reports_a.len(), reports_b.len());
    for (a, b) in reports_a.iter().zip(&reports_b) {
        assert_eq!(a.hypervolume.to_bits(), b.hypervolume.to_bits());
        assert_fronts_bit_identical(&a.added, &b.added, "twin deltas");
        assert_eq!(a.removed, b.removed);
    }

    // The exposition carries the law's instruments and both tenants'
    // hypervolume gauges.
    let text = engine.exposition();
    assert!(text.contains("counter session/duplicate_predictions_total 0"));
    assert!(text.contains("tenant "), "missing per-tenant gauge: {text}");

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn killed_session_resumes_bit_identically_and_replays_the_last_round() {
    let dir = test_dir("resume");
    let server = start_server(&dir, &["omnetpp"]);
    let sp = spec("omnetpp", 0xDEAD);
    let session_dir = dir.join("sessions");
    let persistent = || SessionEngineConfig {
        dir: Some(session_dir.clone()),
        ..SessionEngineConfig::default()
    };

    // Engine A completes two rounds, then "dies" (dropped without
    // close — exactly what a SIGKILL leaves behind).
    let engine_a = SessionEngine::new(persistent());
    let info = engine_a.open(&server, &sp).unwrap();
    let report_1 = engine_a
        .step(&server, "omnetpp", info.session_id, 1)
        .unwrap();
    let report_2 = engine_a
        .step(&server, "omnetpp", info.session_id, 2)
        .unwrap();
    drop(engine_a);

    // Engine B resumes from the checkpoint: same rounds_done, and a
    // retry of the unacknowledged round replays the stored report
    // instead of re-executing it.
    let engine_b = SessionEngine::new(persistent());
    let reopened = engine_b.open(&server, &sp).unwrap();
    assert!(reopened.resumed);
    assert_eq!(reopened.session_id, info.session_id);
    assert_eq!(reopened.rounds_done, 2);
    let replayed = engine_b
        .step(&server, "omnetpp", info.session_id, 2)
        .unwrap();
    assert_eq!(replayed, report_2);
    let report_3 = engine_b
        .step(&server, "omnetpp", info.session_id, 3)
        .unwrap();
    assert!(report_3.done);

    // An uninterrupted engine (fresh cache, no persistence) lands on
    // the same exploration state bit for bit.
    let engine_c = SessionEngine::new(SessionEngineConfig::default());
    let reports_c = drive_session(&engine_c, &server, &sp);
    assert_eq!(reports_c[0], report_1);
    assert_eq!(*reports_c.last().unwrap(), report_3);
    let state_b = engine_b.state_of(info.session_id).unwrap();
    let state_c = engine_c.state_of(info.session_id).unwrap();
    assert_eq!(state_b.explorer, state_c.explorer);
    assert_fronts_bit_identical(
        &canonical_front(metadse::explorer::pareto_front(&state_b.explorer.archive)),
        &canonical_front(metadse::explorer::pareto_front(&state_c.explorer.archive)),
        "kill+resume vs uninterrupted",
    );

    // The resumed engine restored A's cache entries, so resumption
    // never re-predicted an already-predicted point: total predictions
    // across A and B equal the unique points in B's cache.
    assert_eq!(
        state_b.predictions as usize,
        engine_b.cache().ready_points()
    );
    assert_eq!(engine_b.cache().duplicate_fulfils(), 0);

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hot_swap_rebinds_the_session_and_purges_only_its_fingerprint() {
    let dir = test_dir("hotswap");
    let server = start_server(&dir, &["mcf", "omnetpp"]);
    let engine = SessionEngine::new(SessionEngineConfig::default());
    let spec_a = spec("mcf", 21);
    let spec_b = spec("omnetpp", 22);

    let info_a = engine.open(&server, &spec_a).unwrap();
    let info_b = engine.open(&server, &spec_b).unwrap();
    assert_ne!(info_a.fingerprint, info_b.fingerprint);
    engine.step(&server, "mcf", info_a.session_id, 1).unwrap();
    engine
        .step(&server, "omnetpp", info_b.session_id, 1)
        .unwrap();
    assert!(!engine.cache().ready_entries(info_a.fingerprint).is_empty());
    let b_before = engine.cache().ready_entries(info_b.fingerprint);
    assert!(!b_before.is_empty());

    // Publish a new generation for mcf and make the server see it.
    server.registry().publish("mcf", &servable(777)).unwrap();
    let swapped = server.registry().refresh("mcf").unwrap();
    let new_fp = swapped.servable.fingerprint();
    assert_ne!(new_fp, info_a.fingerprint);

    // The next step rebinds to the new generation and purges exactly
    // the old fingerprint's cached points; the other tenant's cache and
    // session are untouched.
    let report = engine.step(&server, "mcf", info_a.session_id, 2).unwrap();
    assert_eq!(report.round, 2);
    assert!(engine.cache().ready_entries(info_a.fingerprint).is_empty());
    assert_eq!(engine.cache().ready_entries(info_b.fingerprint), b_before);
    let state_a = engine.state_of(info_a.session_id).unwrap();
    assert_eq!(state_a.fingerprint, new_fp);
    let text = engine.exposition();
    assert!(
        !text.contains("counter session/swap_purged_points_total 0"),
        "swap purge went unrecorded: {text}"
    );
    engine
        .step(&server, "omnetpp", info_b.session_id, 2)
        .unwrap();

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn step_protocol_rejects_misuse_with_typed_errors() {
    let dir = test_dir("protocol");
    let server = start_server(&dir, &["mcf"]);
    let engine = SessionEngine::new(SessionEngineConfig::default());

    // Unknown workload at open; unknown session at step.
    assert_eq!(
        engine.open(&server, &spec("nope", 1)),
        Err(SessionError::UnknownWorkload("nope".to_string()))
    );
    assert_eq!(
        engine.step(&server, "mcf", 0xBAD, 1),
        Err(SessionError::UnknownSession(0xBAD))
    );

    let sp = spec("mcf", 2);
    let info = engine.open(&server, &sp).unwrap();
    // Opening the same spec again is idempotent, not a new session.
    let again = engine.open(&server, &sp).unwrap();
    assert_eq!(again.session_id, info.session_id);
    assert_eq!(engine.active(), 1);

    // Round 0 has no stored report to replay; skipping ahead is a
    // protocol violation with the expected round in the error.
    assert_eq!(
        engine.step(&server, "mcf", info.session_id, 0),
        Err(SessionError::BadRound {
            expected: 1,
            got: 0
        })
    );
    assert_eq!(
        engine.step(&server, "mcf", info.session_id, 2),
        Err(SessionError::BadRound {
            expected: 1,
            got: 2
        })
    );
    // A step for the right session under the wrong workload is refused.
    assert_eq!(
        engine.step(&server, "omnetpp", info.session_id, 1),
        Err(SessionError::WorkloadMismatch)
    );

    for round in 1..=info.rounds_total {
        engine.step(&server, "mcf", info.session_id, round).unwrap();
    }
    // Past the budget: the session is exhausted, but the final round
    // still replays.
    assert_eq!(
        engine.step(&server, "mcf", info.session_id, info.rounds_total + 1),
        Err(SessionError::Exhausted)
    );
    assert!(engine
        .step(&server, "mcf", info.session_id, info.rounds_total)
        .is_ok());

    // Close is final (without persistence the state is gone).
    assert!(engine.close(info.session_id));
    assert!(!engine.close(info.session_id));
    assert_eq!(
        engine.step(&server, "mcf", info.session_id, info.rounds_total),
        Err(SessionError::UnknownSession(info.session_id))
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Wire level: session ops through shard workers and the front door
// ---------------------------------------------------------------------------

#[cfg(unix)]
mod wire {
    use super::*;
    use metadse::shard::ShardSpec;
    use metadse_obs::introspect::query;
    use metadse_serve::front::{Front, FrontClient, FrontConfig};
    use metadse_serve::shard::{intro_socket, shard_socket, ShardOptions, ShardServer};
    use metadse_serve::supervisor::wait_ready;
    use metadse_serve::ErrorCode;

    fn start_fleet(dir: &Path, count: usize) -> (Vec<ShardServer>, Front) {
        let root = dir.join("models");
        let shards: Vec<ShardServer> = (0..count)
            .map(|index| {
                ShardServer::start(ShardOptions {
                    socket: shard_socket(dir, index),
                    registry_root: root.clone(),
                    spec: ShardSpec::new(index, count).unwrap(),
                    keep: 4,
                    config: serve_config(),
                    session_dir: Some(dir.join(format!("sessions-{index}"))),
                })
                .unwrap()
            })
            .collect();
        for shard in &shards {
            wait_ready(&intro_socket(shard.socket()), Duration::from_secs(10)).unwrap();
        }
        let front = Front::start(FrontConfig::new(
            dir.join("front.sock"),
            shards.iter().map(|s| s.socket().to_path_buf()).collect(),
        ))
        .unwrap();
        (shards, front)
    }

    #[test]
    fn sessions_route_through_the_front_door_per_tenant() {
        let dir = test_dir("wire");
        {
            let registry = ModelRegistry::new(dir.join("models"), 4);
            for (i, name) in ["mcf", "omnetpp", "gcc"].iter().enumerate() {
                registry.publish(name, &servable(1000 + i as u64)).unwrap();
            }
        }
        let (shards, front) = start_fleet(&dir, 2);
        let mut client = FrontClient::connect(front.socket()).unwrap();

        for (i, workload) in ["mcf", "omnetpp", "gcc"].iter().enumerate() {
            let sp = spec(workload, 100 + i as u64);
            let info = client.open_session(&sp).unwrap();
            assert_eq!(info.session_id, sp.session_id());
            assert_eq!(info.rounds_total, u64::from(sp.refinement_rounds) + 1);
            // Idempotent re-open across the wire.
            let again = client.open_session(&sp).unwrap();
            assert_eq!(again.session_id, info.session_id);

            let mut applied: Vec<ParetoEntry> = Vec::new();
            let mut prev_hv = 0.0;
            for round in 1..=info.rounds_total {
                let report = client
                    .step_session(workload, info.session_id, round)
                    .unwrap();
                assert_eq!(report.round, round);
                assert_eq!(
                    report.proposed,
                    report.predicted + report.cache_hits + report.shed
                );
                assert!(report.hypervolume >= prev_hv);
                prev_hv = report.hypervolume;
                apply_front_delta(
                    &mut applied,
                    &FrontDelta {
                        added: report.added.clone(),
                        removed: report.removed.clone(),
                    },
                );
                assert_eq!(report.done, round == info.rounds_total);
            }
            assert!(!applied.is_empty());

            // The shard owning this tenant exposes its session metrics
            // through the introspection plane.
            let owner = shards
                .iter()
                .find(|s| {
                    query(&intro_socket(s.socket()), "metrics")
                        .unwrap()
                        .body
                        .contains(&format!("workload {workload}"))
                })
                .unwrap_or_else(|| panic!("no shard exposes tenant {workload}"));
            let metrics = query(&intro_socket(owner.socket()), "metrics").unwrap();
            assert!(metrics
                .body
                .contains("counter session/duplicate_predictions_total 0"));

            assert!(client.close_session(workload, info.session_id).unwrap());
        }

        // Bad round numbers and unknown sessions cross both hops as
        // typed, non-retryable errors.
        let sp = spec("mcf", 999);
        let info = client.open_session(&sp).unwrap();
        let err = client.step_session("mcf", info.session_id, 5).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        let err = client.step_session("mcf", 0x1234, 1).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownSession);
        assert!(!err.retryable());

        front.shutdown();
        for shard in shards {
            shard.shutdown();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
