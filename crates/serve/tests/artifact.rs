//! A model artifact the plan compiler cannot lower is refused at
//! admission with `ServeError::Artifact`, and the server keeps serving
//! every other tenant.
//!
//! The misshapen artifact here is a well-formed sealed container whose
//! parameters do not fit the geometry it declares. A one-worker server
//! is the sharpest setting — a worker that tried to run such a model
//! would panic and take the only worker with it, so every later request
//! would stay queued. Tickets are therefore polled under a deadline,
//! and a stuck request fails the test instead of hanging it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use metadse::predictor::{PredictorConfig, TransformerPredictor};
use metadse::ServablePredictor;
use metadse_serve::{
    BatchConfig, ModelRegistry, Prediction, ServeConfig, ServeError, Server, Ticket,
};

mod common;
use common::misshapen_artifact;

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
    let root = std::env::temp_dir().join(format!("metadse-serve-artifact-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let registry = Arc::new(ModelRegistry::new(&root, 4));
    let good = servable(1);
    let reference = good.instantiate().unwrap();
    registry.publish("good", &good).unwrap();
    registry
        .publish("bad", &misshapen_artifact(GEOMETRY, 2))
        .unwrap();

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
    // The second submit is answered from the memoized refusal.
    for attempt in 0..2 {
        let ticket = server.submit("bad", &config, None);
        match outcome_within_deadline(&ticket, "misshapen tenant") {
            Err(ServeError::Artifact(message)) => assert!(
                message.contains("plan compile: parameter") && message.contains("has shape"),
                "attempt {attempt}: {message}"
            ),
            other => panic!("attempt {attempt}: misshapen artifact answered {other:?}"),
        }
    }
    let ticket = server.submit("good", &config, None);
    let served = outcome_within_deadline(&ticket, "good tenant").expect("good tenant served");
    let want = reference.predict(std::slice::from_ref(&config))[0];
    assert_eq!(served.value.to_bits(), want.to_bits());
    assert_eq!(
        registry.cached_plan_shapes(),
        vec![(good.fingerprint(), 8)],
        "only the good tenant's plan is cached"
    );
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}
