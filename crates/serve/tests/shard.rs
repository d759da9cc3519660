//! In-process integration suite for the sharded serving fabric: shard
//! workers + front door wired through real unix sockets (process-level
//! crash-restart is exercised by the `shard_soak` bin and CI's
//! shard-soak job; here every piece runs in one test process so
//! failures are debuggable).
#![cfg(unix)]

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use metadse::predictor::{PredictorConfig, TransformerPredictor};
use metadse::shard::ShardSpec;
use metadse::ServablePredictor;
use metadse_obs::introspect::query;
use metadse_serve::front::{Front, FrontClient, FrontConfig};
use metadse_serve::shard::{intro_socket, shard_socket, ShardOptions, ShardServer};
use metadse_serve::supervisor::wait_ready;
use metadse_serve::{BatchConfig, ErrorCode, ModelRegistry, ServeConfig};

mod common;
use common::{assert_refused_naming_the_table, misshapen_bytes, plant_generation};

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

fn fleet_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("metadse-shardtest-{tag}-{}", std::process::id()));
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

fn sample_config(rng: &mut StdRng) -> Vec<f64> {
    (0..GEOMETRY.num_params)
        .map(|_| rng.gen_range(0.0..1.0))
        .collect()
}

/// Publishes `names` into a fresh registry at `dir/models`, returning
/// the root and each workload's reference predictor for bit-identity
/// checks.
fn publish_workloads(dir: &Path, names: &[&str]) -> (PathBuf, Vec<TransformerPredictor>) {
    let root = dir.join("models");
    let registry = ModelRegistry::new(&root, 4);
    let mut references = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let artifact = servable(1000 + i as u64);
        registry.publish(name, &artifact).unwrap();
        references.push(artifact.instantiate().unwrap());
    }
    (root, references)
}

fn start_fleet(dir: &Path, root: &Path, count: usize) -> (Vec<ShardServer>, Front) {
    let shards: Vec<ShardServer> = (0..count)
        .map(|index| {
            ShardServer::start(ShardOptions {
                socket: shard_socket(dir, index),
                registry_root: root.to_path_buf(),
                spec: ShardSpec::new(index, count).unwrap(),
                keep: 4,
                config: serve_config(),
                session_dir: None,
            })
            .unwrap()
        })
        .collect();
    // The supervisor's barrier, in-process: every shard must answer
    // ready (including shards owning zero workloads).
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
fn front_routes_every_workload_and_results_are_bit_identical() {
    let dir = fleet_dir("route");
    let names = ["astar", "bzip2", "gcc", "mcf", "omnetpp"];
    let (root, references) = publish_workloads(&dir, &names);
    let (shards, front) = start_fleet(&dir, &root, 3);

    // The partition is total: every workload landed on exactly one
    // shard, and the front routes all of them.
    assert_eq!(
        front.routed_workloads(),
        names.iter().map(|n| n.to_string()).collect::<Vec<_>>()
    );
    let owned: usize = shards.iter().map(|s| s.registry().workloads().len()).sum();
    assert_eq!(owned, names.len());

    let mut client = FrontClient::connect(front.socket()).unwrap();
    // The front's workload listing aggregates the shards'.
    let listed = client.workloads().unwrap();
    assert_eq!(listed.len(), names.len());

    let mut rng = StdRng::seed_from_u64(7);
    for round in 0..20 {
        for (i, name) in names.iter().enumerate() {
            let config = sample_config(&mut rng);
            let got = client.predict(name, &config, None).unwrap();
            let want = references[i].predict(std::slice::from_ref(&config))[0];
            assert_eq!(
                got.value.to_bits(),
                want.to_bits(),
                "round {round}: {name} diverged from serial predict across two hops"
            );
            assert!(got.shard < 3);
            assert!(got.trace_id > 0);
        }
    }
    let served: u64 = shards.iter().map(ShardServer::served).sum();
    assert_eq!(served, 20 * names.len() as u64, "every predict hit a shard");

    front.shutdown();
    for shard in shards {
        shard.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn typed_errors_cross_both_hops() {
    let dir = fleet_dir("errors");
    let (root, _refs) = publish_workloads(&dir, &["mcf"]);
    let (shards, front) = start_fleet(&dir, &root, 2);
    let mut client = FrontClient::connect(front.socket()).unwrap();

    // Unknown workload: typed, not a hang or transport error.
    let err = client.predict("nope", &[0.0; 6], None).unwrap_err();
    assert_eq!(err.code, ErrorCode::UnknownWorkload);
    assert!(!err.retryable());

    // Arity mismatch: rejected by the owning shard's server.
    let err = client.predict("mcf", &[0.5; 3], None).unwrap_err();
    assert_eq!(err.code, ErrorCode::BadArity);

    // A 1 µs deadline dies queued on the shard → DeadlineMiss crosses
    // back through the front.
    let mut misses = 0;
    for _ in 0..50 {
        match client.predict("mcf", &[0.5; 6], Some(Duration::from_micros(1))) {
            Err(e) if e.code == ErrorCode::DeadlineMiss => misses += 1,
            Ok(_) | Err(_) => {}
        }
    }
    assert!(misses > 0, "tight deadlines should produce typed misses");

    front.shutdown();
    for shard in shards {
        shard.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A shard whose registry holds a misshapen newest generation — bytes
/// decoding refuses, naming the parameter — opens on the generation
/// before it and serves that through the front door, with its other
/// tenants.
#[test]
fn misshapen_generation_falls_back_across_both_hops() {
    let bytes = misshapen_bytes(GEOMETRY, 2000);
    assert_refused_naming_the_table(&bytes);
    let dir = fleet_dir("artifact");
    let (root, references) = publish_workloads(&dir, &["mcf", "bad"]);
    assert_eq!(plant_generation(&root, "bad", &bytes), 2);
    let (shards, front) = start_fleet(&dir, &root, 1);
    assert_eq!(shards[0].registry().get("bad").unwrap().generation, 1);
    let mut client = FrontClient::connect(front.socket()).unwrap();

    for (tenant, reference) in ["mcf", "bad"].iter().zip(&references) {
        let got = client.predict(tenant, &[0.5; 6], None).unwrap();
        let want = reference.predict(&[vec![0.5; 6]])[0];
        assert_eq!(got.value.to_bits(), want.to_bits(), "{tenant}");
        assert_eq!(got.generation, 1, "{tenant}");
    }

    front.shutdown();
    for shard in shards {
        shard.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_shard_is_ready_and_front_survives_it() {
    let dir = fleet_dir("empty");
    // One workload, four shards: at least three shards own nothing.
    let (root, references) = publish_workloads(&dir, &["mcf"]);
    let (shards, front) = start_fleet(&dir, &root, 4);

    for shard in &shards {
        let ready = query(&intro_socket(shard.socket()), "ready").unwrap();
        assert!(
            ready.ok,
            "shard {} must be ready even with zero workloads: {}",
            shard.spec(),
            ready.body
        );
    }
    let mut client = FrontClient::connect(front.socket()).unwrap();
    let got = client.predict("mcf", &[0.25; 6], None).unwrap();
    let want = references[0].predict(&[vec![0.25; 6]])[0];
    assert_eq!(got.value.to_bits(), want.to_bits());

    front.shutdown();
    for shard in shards {
        shard.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn workload_published_after_launch_becomes_routable_via_rebuild() {
    let dir = fleet_dir("late");
    let (root, _refs) = publish_workloads(&dir, &["mcf"]);
    let (shards, front) = start_fleet(&dir, &root, 2);
    let mut client = FrontClient::connect(front.socket()).unwrap();

    // Publish a new workload after the fleet is up, then make its
    // owning shard load it (process workers would see it on their next
    // refresh; in-process we drive the refresh directly).
    let artifact = servable(4242);
    let reference = artifact.instantiate().unwrap();
    let publisher = ModelRegistry::new(&root, 4);
    publisher.publish("leela", &artifact).unwrap();
    let owner = metadse::shard::shard_of(artifact.fingerprint(), 2);
    shards[owner].registry().refresh("leela").unwrap();

    // First predict for the unseen name triggers a routing rebuild.
    let got = client.predict("leela", &[0.75; 6], None).unwrap();
    let want = reference.predict(&[vec![0.75; 6]])[0];
    assert_eq!(got.value.to_bits(), want.to_bits());
    assert_eq!(got.shard, owner);
    assert!(
        front
            .stats()
            .route_rebuilds
            .load(std::sync::atomic::Ordering::Relaxed)
            >= 1
    );

    front.shutdown();
    for shard in shards {
        shard.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn front_introspection_reports_ready_and_per_shard_counters() {
    let dir = fleet_dir("frontintro");
    let names = ["astar", "bzip2", "gcc", "mcf"];
    let (root, _refs) = publish_workloads(&dir, &names);
    let (shards, front) = start_fleet(&dir, &root, 2);
    let front_intro = intro_socket(front.socket());

    let ready = query(&front_intro, "ready").unwrap();
    assert!(ready.ok);
    assert!(ready.body.contains("shards 2"));
    assert!(ready.body.contains("workloads 4"));

    let mut client = FrontClient::connect(front.socket()).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    for name in &names {
        client
            .predict(name, &sample_config(&mut rng), None)
            .unwrap();
    }
    let metrics = query(&front_intro, "metrics").unwrap();
    assert!(metrics.ok);
    let count = |prefix: &str| -> u64 {
        metrics
            .body
            .lines()
            .find(|l| l.starts_with(prefix))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing {prefix} in {}", metrics.body))
    };
    assert_eq!(count("counter front/served_total"), 4);
    assert_eq!(count("counter front/unavailable_total"), 0);
    assert_eq!(
        count("counter front/shard0_forwarded") + count("counter front/shard1_forwarded"),
        4
    );

    front.shutdown();
    for shard in shards {
        shard.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dead_shard_yields_typed_unavailable_not_a_hang() {
    let dir = fleet_dir("deadshard");
    let names = ["astar", "bzip2", "gcc", "mcf", "omnetpp", "sjeng"];
    let (root, references) = publish_workloads(&dir, &names);
    let (mut shards, front) = start_fleet(&dir, &root, 2);
    let mut client = FrontClient::connect(front.socket()).unwrap();

    // Which workloads does shard 1 own?
    let shard1_owned: Vec<String> = shards[1].registry().workloads();
    assert!(
        !shard1_owned.is_empty(),
        "test needs shard 1 to own something; got {shard1_owned:?}"
    );

    // Tear shard 1 down (the in-process stand-in for SIGKILL: its
    // socket stops answering; the front's pooled connections die).
    shards.remove(1).shutdown();

    for (i, name) in names.iter().enumerate() {
        let config = vec![0.5; 6];
        let result = client.predict(name, &config, None);
        if shard1_owned.iter().any(|w| w == name) {
            let err = result.unwrap_err();
            assert_eq!(err.code, ErrorCode::Unavailable, "{name}: {err}");
            assert!(err.retryable(), "unavailable must invite a retry");
        } else {
            // Shard 0's workloads keep serving, bit-identically.
            let got = result.unwrap();
            let want = references[i].predict(&[config])[0];
            assert_eq!(got.value.to_bits(), want.to_bits());
        }
    }
    assert!(
        front
            .stats()
            .unavailable
            .load(std::sync::atomic::Ordering::Relaxed)
            >= shard1_owned.len() as u64
    );

    front.shutdown();
    for shard in shards {
        shard.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn direct_shard_connection_speaks_the_same_protocol() {
    // FrontClient against a bare shard socket: the front adds routing,
    // not protocol.
    let dir = fleet_dir("direct");
    let (root, references) = publish_workloads(&dir, &["mcf"]);
    let shard = ShardServer::start(ShardOptions {
        socket: shard_socket(&dir, 0),
        registry_root: root,
        spec: ShardSpec::single(),
        keep: 4,
        config: serve_config(),
        session_dir: None,
    })
    .unwrap();
    wait_ready(&intro_socket(shard.socket()), Duration::from_secs(10)).unwrap();

    let mut client = FrontClient::connect(shard.socket()).unwrap();
    let got = client.predict("mcf", &[0.125; 6], None).unwrap();
    let want = references[0].predict(&[vec![0.125; 6]])[0];
    assert_eq!(got.value.to_bits(), want.to_bits());
    let arc: Arc<ModelRegistry> = Arc::clone(shard.registry());
    assert_eq!(arc.workloads(), vec!["mcf".to_string()]);

    shard.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The front and a shard each shut down within 2 s while clients hold
/// idle connections to their data and introspection sockets: every
/// connection handler notices the stop at its next idle poll.
#[test]
fn front_and_shard_shut_down_promptly_while_clients_idle() {
    use metadse_obs::frame::{read_frame, write_frame};
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    /// Opens an introspection connection, makes one round-trip, and
    /// leaves it open.
    fn idle_probe(socket: &Path) -> UnixStream {
        let mut stream = UnixStream::connect(intro_socket(socket)).unwrap();
        write_frame(&mut stream, b"health").unwrap();
        read_frame(&mut stream).unwrap();
        stream
    }

    let dir = fleet_dir("idle");
    let (root, _references) = publish_workloads(&dir, &["mcf"]);
    let (mut shards, front) = start_fleet(&dir, &root, 1);
    let shard = shards.pop().unwrap();
    let mut via_front = FrontClient::connect(front.socket()).unwrap();
    via_front.predict("mcf", &[0.5; 6], None).unwrap();
    let mut direct = FrontClient::connect(shard.socket()).unwrap();
    direct.predict("mcf", &[0.5; 6], None).unwrap();
    let probes = [idle_probe(front.socket()), idle_probe(shard.socket())];

    let started = Instant::now();
    front.shutdown();
    let front_took = started.elapsed();
    let started = Instant::now();
    shard.shutdown();
    let shard_took = started.elapsed();
    assert!(
        front_took < Duration::from_secs(2),
        "front took {front_took:?}"
    );
    assert!(
        shard_took < Duration::from_secs(2),
        "shard took {shard_took:?}"
    );
    drop((via_front, direct, probes));
    let _ = std::fs::remove_dir_all(&dir);
}
