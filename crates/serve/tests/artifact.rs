//! A model artifact whose parameters do not fit the geometry it declares
//! never reaches a server: decoding refuses it, naming the parameter, so
//! a registry whose newest generation holds one falls back to the
//! generation before it, and every tenant keeps being served.
//!
//! The misshapen artifact here is a well-formed sealed container with a
//! matching fingerprint. A one-worker server is the sharpest setting —
//! a worker that tried to run such a model would panic and take the
//! only worker with it, so every later request would stay queued.
//! Tickets are therefore polled under a deadline, and a stuck request
//! fails the test instead of hanging it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use metadse::predictor::{PredictorConfig, TransformerPredictor};
use metadse::ServablePredictor;
use metadse_serve::{
    BatchConfig, ModelRegistry, Prediction, ServeConfig, ServeError, Server, Ticket,
};

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

/// The outcome of `ticket`, polled until `DEADLINE` runs out.
fn outcome_within_deadline(ticket: &Ticket, what: &str) -> Result<Prediction, ServeError> {
    const DEADLINE: Duration = Duration::from_secs(10);
    let started = Instant::now();
    loop {
        if let Some(outcome) = ticket.try_wait() {
            return outcome;
        }
        assert!(
            started.elapsed() < DEADLINE,
            "{what} still in flight after {DEADLINE:?}: the server stopped serving"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn misshapen_artifact_is_refused_and_other_tenants_are_served() {
    let bytes = misshapen_bytes(GEOMETRY, 2);
    assert_refused_naming_the_table(&bytes);

    // A registry whose newest "bad" generation holds those bytes opens
    // on the generation before it.
    let root = std::env::temp_dir().join(format!("metadse-serve-artifact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let good = servable(1);
    let previous = servable(3);
    {
        let publisher = ModelRegistry::new(&root, 4);
        publisher.publish("good", &good).unwrap();
        publisher.publish("bad", &previous).unwrap();
    }
    assert_eq!(plant_generation(&root, "bad", &bytes), 2);
    let registry = Arc::new(ModelRegistry::open(&root, 4));
    let entry = registry
        .get("bad")
        .expect("the previous generation is served");
    assert_eq!(entry.generation, 1);
    assert_eq!(entry.servable.fingerprint(), previous.fingerprint());

    let server = Server::start(
        Arc::clone(&registry),
        ServeConfig {
            batch: BatchConfig {
                max_batch: 8,
                max_wait_us: 100,
                queue_capacity: 64,
            },
            workers: 1,
        },
    );
    let config: Vec<f64> = (0..GEOMETRY.num_params).map(|j| j as f64 / 8.0).collect();
    for (tenant, artifact) in [("bad", &previous), ("good", &good)] {
        let ticket = server.submit(tenant, &config, None);
        let served = outcome_within_deadline(&ticket, tenant).expect("tenant served");
        let want = artifact
            .instantiate()
            .unwrap()
            .predict(std::slice::from_ref(&config))[0];
        assert_eq!(served.value.to_bits(), want.to_bits(), "{tenant}");
        assert_eq!(served.generation, 1, "{tenant}");
    }
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}
