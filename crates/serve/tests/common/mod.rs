//! Helpers shared by the serve integration tests.

use std::path::Path;
use std::sync::Arc;

use metadse::checkpoint::{GenerationStore, StdIo};
use metadse::predictor::{PredictorConfig, TransformerPredictor};
use metadse::ServablePredictor;
use metadse_nn::format::{fnv1a, seal, ByteWriter};
use metadse_nn::layers::Module;
use metadse_nn::serialize::{params_to_bytes, CheckpointError};

/// Sealed `MDSESRVM` bytes that declare `geometry` but carry the
/// parameters of a model half as wide. The fingerprint is computed over
/// that content and the container is well formed, so only the check
/// that the parameters fit the declared geometry can refuse them.
pub fn misshapen_bytes(geometry: PredictorConfig, seed: u64) -> Vec<u8> {
    let narrow = PredictorConfig {
        d_model: geometry.d_model / 2,
        d_hidden: geometry.d_hidden / 2,
        ..geometry
    };
    let params = params_to_bytes(&TransformerPredictor::new(narrow, seed).params());
    let dims = [
        geometry.num_params,
        geometry.d_model,
        geometry.heads,
        geometry.depth,
        geometry.d_hidden,
        geometry.head_hidden,
    ];
    // Fingerprinted content: dims, metric, parameters, no mask.
    let mut content = ByteWriter::new();
    dims.iter().for_each(|&d| content.u64(d as u64));
    content.str("ipc");
    content.u64(params.len() as u64);
    content.bytes(&params);
    content.u32(0);
    let mut payload = ByteWriter::new();
    payload.u64(fnv1a(&content.into_bytes()));
    payload.str("ipc");
    dims.iter().for_each(|&d| payload.u64(d as u64));
    payload.u64(params.len() as u64);
    payload.bytes(&params);
    payload.u32(0);
    seal(b"MDSESRVM", 1, &payload.into_bytes())
}

/// Asserts that decoding `bytes` fails with `Format` naming the token
/// table — the first parameter the plan compiler's lookup reads, and
/// half as wide as the geometry declares.
pub fn assert_refused_naming_the_table(bytes: &[u8]) {
    match ServablePredictor::from_bytes(bytes) {
        Err(CheckpointError::Format(message)) => assert!(
            message.contains("parameter \"predictor.token.table\"")
                && message.contains("has shape"),
            "{message}"
        ),
        other => panic!("a misshapen artifact decoded: {other:?}"),
    }
}

/// Writes `bytes` as `workload`'s next `.model` generation under a
/// registry `root`, past `ModelRegistry::publish` (which only takes an
/// artifact that decodes) — as a foreign writer or an edit on disk
/// would. Returns the generation number.
pub fn plant_generation(root: &Path, workload: &str, bytes: &[u8]) -> u64 {
    GenerationStore::new(root.join(workload), "model", "serve", 4, Arc::new(StdIo))
        .save_bytes(bytes)
        .expect("write the planted generation")
}
