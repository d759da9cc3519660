//! Helpers shared by the serve integration tests.

use metadse::predictor::{PredictorConfig, TransformerPredictor};
use metadse::ServablePredictor;
use metadse_nn::format::{fnv1a, seal, ByteWriter};
use metadse_nn::layers::Module;
use metadse_nn::serialize::params_to_bytes;

/// A sealed `MDSESRVM` artifact that declares `geometry` but carries
/// the parameters of a model half as wide. Its fingerprint is computed
/// over that content, so it decodes, and a registry can load it from
/// disk; only the plan compiler finds that the parameters do not fit.
pub fn misshapen_artifact(geometry: PredictorConfig, seed: u64) -> ServablePredictor {
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
    ServablePredictor::from_bytes(&seal(b"MDSESRVM", 1, &payload.into_bytes()))
        .expect("the misshapen artifact is well formed")
}
