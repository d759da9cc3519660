//! Sealed, thread-portable predictor artifacts for serving.
//!
//! The training pipeline ends with a `(TransformerPredictor, WAM mask)`
//! pair living inside one experiment binary — `Rc`-backed tensors that
//! cannot cross a thread boundary, let alone a process boundary. A
//! [`ServablePredictor`] is the extraction of everything a *consumer* of
//! that pair needs, as plain `Send + Sync` data:
//!
//! * the predictor geometry ([`crate::predictor::PredictorConfig`]),
//! * the metric label the model was trained for (`"ipc"`, `"power"`, …),
//! * every parameter's name/shape/values (the `metadse-nn` checkpoint
//!   wire format, embedded verbatim),
//! * optionally the WAM attention mask.
//!
//! [`ServablePredictor::instantiate`] rebuilds a live, thread-local
//! [`TransformerPredictor`] (with the mask installed) whose `predict` is
//! bit-identical to the captured model's — the reference compiled plans
//! ([`crate::plan`]) are checked against, which read the same weights
//! through [`ServablePredictor::param_entries`].
//!
//! Serialized ([`ServablePredictor::to_bytes`]), an artifact is a sealed
//! container ([`metadse_nn::format`]) — on disk, a generation of the
//! serving model registry:
//!
//! ```text
//! magic "MDSESRVM" | u32 version | payload | u64 fnv1a
//! ```
//!
//! The payload additionally embeds a **fingerprint** — an FNV-1a hash of
//! the geometry, metric, and every parameter bit — computed at capture
//! time and re-verified against the decoded content on load, so an
//! artifact whose seal was recomputed over altered bytes still cannot
//! impersonate the captured model.

use metadse_nn::format::{fnv1a, seal, unseal, ByteReader, ByteWriter};
use metadse_nn::layers::{Module, Param};
use metadse_nn::serialize::{
    entries_from_bytes, load_params_from_bytes, params_to_bytes, CheckpointError,
};
use metadse_nn::{Elem, Tensor};

use crate::predictor::{PredictorConfig, TransformerPredictor};

const MAGIC: &[u8; 8] = b"MDSESRVM";
const VERSION: u32 = 1;

/// A trained predictor (and optional WAM mask) as plain portable data.
///
/// The fields are private: an artifact exists only through
/// [`capture`](ServablePredictor::capture) or
/// [`from_bytes`](ServablePredictor::from_bytes), so its fingerprint
/// always matches its content, and every artifact a process serves is
/// one a restarted process can load.
#[derive(Debug, Clone, PartialEq)]
pub struct ServablePredictor {
    /// Predictor geometry.
    config: PredictorConfig,
    /// Metric the model predicts (free-form label, e.g. `"ipc"`).
    metric: String,
    /// Parameter payload in the `metadse-nn` checkpoint wire format.
    params: Vec<u8>,
    /// WAM mask values (`num_params × num_params`), if captured.
    mask: Option<Vec<Elem>>,
    /// Content fingerprint (geometry + metric + params + mask).
    fingerprint: u64,
}

impl ServablePredictor {
    /// Captures `model` (and optionally its WAM `mask`) into a portable
    /// artifact.
    ///
    /// # Panics
    ///
    /// Panics if a provided mask is not `num_params × num_params`.
    pub fn capture(
        model: &TransformerPredictor,
        mask: Option<&Param>,
        metric: &str,
    ) -> ServablePredictor {
        let config = *model.config();
        let mask = mask.map(|m| {
            let t = m.get();
            assert_eq!(
                t.shape(),
                &[config.num_params, config.num_params],
                "WAM mask must be [num_params, num_params]"
            );
            t.to_vec()
        });
        let params = params_to_bytes(&model.params());
        let fingerprint = content_fingerprint(&config, metric, &params, mask.as_deref());
        ServablePredictor {
            config,
            metric: metric.to_string(),
            params,
            mask,
            fingerprint,
        }
    }

    /// The artifact's content fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The predictor geometry.
    pub fn config(&self) -> &PredictorConfig {
        &self.config
    }

    /// The metric label the model predicts (e.g. `"ipc"`).
    pub fn metric(&self) -> &str {
        &self.metric
    }

    /// Whether a WAM mask was captured.
    pub fn has_mask(&self) -> bool {
        self.mask.is_some()
    }

    /// Decodes the embedded parameter payload into named
    /// `(name, shape, values)` entries, in payload order, without
    /// instantiating a model — the extraction path for consumers that
    /// compile the weights into another execution form (e.g. the plan
    /// compiler, [`crate::plan::Plan::compile`]).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] for a malformed payload (possible
    /// only for hand-built artifacts; capture/decode both validate).
    pub fn param_entries(&self) -> Result<Vec<metadse_nn::serialize::ParamEntry>, CheckpointError> {
        entries_from_bytes(&self.params)
    }

    /// The captured WAM mask values, row-major
    /// `[num_params × num_params]`, if present.
    pub fn mask_values(&self) -> Option<&[Elem]> {
        self.mask.as_deref()
    }

    /// Rebuilds a live predictor from the artifact: fresh construction at
    /// the captured geometry, parameters loaded by name, mask installed
    /// when present. Each call is independent, so worker threads can each
    /// hold their own instance.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError`] if the embedded parameter payload does
    /// not match the declared geometry — impossible for an artifact from
    /// [`ServablePredictor::capture`] or
    /// [`ServablePredictor::from_bytes`], which checks that they agree.
    pub fn instantiate(&self) -> Result<TransformerPredictor, CheckpointError> {
        let model = TransformerPredictor::new(self.config, 0);
        load_params_from_bytes(&model.params(), &self.params)?;
        if let Some(mask) = &self.mask {
            let seq = self.config.num_params;
            model.install_mask(Param::new(
                "wam.mask",
                Tensor::from_vec(mask.clone(), &[seq, seq]),
            ));
        }
        Ok(model)
    }

    /// Encodes the artifact as a sealed container.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u64(self.fingerprint);
        w.str(&self.metric);
        for dim in [
            self.config.num_params,
            self.config.d_model,
            self.config.heads,
            self.config.depth,
            self.config.d_hidden,
            self.config.head_hidden,
        ] {
            w.u64(dim as u64);
        }
        w.u64(self.params.len() as u64);
        w.bytes(&self.params);
        match &self.mask {
            Some(mask) => {
                w.u32(1);
                w.f64_slice(mask);
            }
            None => w.u32(0),
        }
        seal(MAGIC, VERSION, &w.into_bytes())
    }

    /// Decodes a sealed artifact, verifying the container checksum, the
    /// geometry, that the parameter payload holds every tensor the
    /// geometry reads at its shape, and the content fingerprint: an
    /// artifact that decodes always compiles into a
    /// [`crate::plan::Plan`].
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Format`] for torn/corrupt/truncated
    /// input, a geometry [`PredictorConfig::validate`] rejects, a
    /// missing or misshapen parameter (named in the message), or a
    /// fingerprint that does not match the decoded content.
    pub fn from_bytes(bytes: &[u8]) -> Result<ServablePredictor, CheckpointError> {
        let (version, payload) = unseal(MAGIC, bytes)?;
        if version != VERSION {
            return Err(CheckpointError::Format(format!(
                "unsupported servable artifact version {version}"
            )));
        }
        let mut r = ByteReader::new(payload);
        let fingerprint = r.u64()?;
        let metric = r.str()?;
        let mut dims = [0usize; 6];
        for d in &mut dims {
            *d = r.u64()? as usize;
        }
        let config = PredictorConfig {
            num_params: dims[0],
            d_model: dims[1],
            heads: dims[2],
            depth: dims[3],
            d_hidden: dims[4],
            head_hidden: dims[5],
        };
        config.validate().map_err(CheckpointError::Format)?;
        let params_len = r.u64()? as usize;
        let params = r.take(params_len)?.to_vec();
        // Validate the embedded payload now, not at first instantiate:
        // every parameter the geometry reads must be there at its shape,
        // checked by the plan compiler's own lookup, so an artifact that
        // decodes always compiles.
        crate::plan::check_entries(&config, entries_from_bytes(&params)?)?;
        let mask = match r.u32()? {
            0 => None,
            1 => {
                let m = r.f64_vec()?;
                if m.len() != config.num_params * config.num_params {
                    return Err(CheckpointError::Format(format!(
                        "mask has {} entries for {} tokens",
                        m.len(),
                        config.num_params
                    )));
                }
                Some(m)
            }
            other => {
                return Err(CheckpointError::Format(format!(
                    "bad mask presence flag {other}"
                )))
            }
        };
        if r.remaining() != 0 {
            return Err(CheckpointError::Format(format!(
                "{} trailing bytes after servable artifact",
                r.remaining()
            )));
        }
        let computed = content_fingerprint(&config, &metric, &params, mask.as_deref());
        if computed != fingerprint {
            return Err(CheckpointError::Format(format!(
                "fingerprint mismatch: stored {fingerprint:016x}, content {computed:016x}"
            )));
        }
        Ok(ServablePredictor {
            config,
            metric,
            params,
            mask,
            fingerprint,
        })
    }
}

/// FNV-1a over the geometry, metric label, parameter payload, and mask
/// bits — the artifact's identity.
fn content_fingerprint(
    config: &PredictorConfig,
    metric: &str,
    params: &[u8],
    mask: Option<&[Elem]>,
) -> u64 {
    let mut w = ByteWriter::new();
    for dim in [
        config.num_params,
        config.d_model,
        config.heads,
        config.depth,
        config.d_hidden,
        config.head_hidden,
    ] {
        w.u64(dim as u64);
    }
    w.str(metric);
    w.u64(params.len() as u64);
    w.bytes(params);
    match mask {
        Some(m) => {
            w.u32(1);
            w.f64_slice(m);
        }
        None => w.u32(0),
    }
    fnv1a(&w.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_model(seed: u64) -> TransformerPredictor {
        TransformerPredictor::new(
            PredictorConfig {
                num_params: 6,
                d_model: 8,
                heads: 2,
                depth: 1,
                d_hidden: 16,
                head_hidden: 8,
            },
            seed,
        )
    }

    fn sample_inputs() -> Vec<Vec<Elem>> {
        (0..4)
            .map(|i| (0..6).map(|j| ((i * 6 + j) as f64 * 0.17) % 1.0).collect())
            .collect()
    }

    #[test]
    fn capture_instantiate_is_bit_identical() {
        let model = small_model(11);
        let servable = ServablePredictor::capture(&model, None, "ipc");
        let rebuilt = servable.instantiate().unwrap();
        let x = sample_inputs();
        let a = model.predict(&x);
        let b = rebuilt.predict(&x);
        for (va, vb) in a.iter().zip(&b) {
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }

    #[test]
    fn captured_mask_is_installed_on_instantiate() {
        let model = small_model(12);
        let x = sample_inputs();
        let unmasked = model.predict(&x);
        let mut mask = vec![-3.0; 36];
        for i in 0..6 {
            mask[i * 6 + i] = 0.0;
        }
        let mask = Param::new("wam", Tensor::from_vec(mask, &[6, 6]));
        model.install_mask(mask.clone());
        let masked = model.predict(&x);
        assert_ne!(unmasked, masked);

        let servable = ServablePredictor::capture(&model, Some(&mask), "ipc");
        assert!(servable.has_mask());
        let rebuilt = servable.instantiate().unwrap();
        let b = rebuilt.predict(&x);
        for (va, vb) in masked.iter().zip(&b) {
            assert_eq!(va.to_bits(), vb.to_bits());
        }
    }

    #[test]
    fn bytes_roundtrip_preserves_everything() {
        let model = small_model(13);
        let servable = ServablePredictor::capture(&model, None, "power");
        let decoded = ServablePredictor::from_bytes(&servable.to_bytes()).unwrap();
        assert_eq!(decoded, servable);
        assert_eq!(decoded.metric, "power");
        assert_eq!(decoded.fingerprint(), servable.fingerprint());
    }

    #[test]
    fn every_truncation_is_rejected() {
        let servable = ServablePredictor::capture(&small_model(14), None, "ipc");
        let bytes = servable.to_bytes();
        // Step 7 keeps the suite fast; the sealed container already
        // rejects every cut, this confirms the error surfaces as Format.
        for cut in (0..bytes.len()).step_by(7) {
            assert!(matches!(
                ServablePredictor::from_bytes(&bytes[..cut]),
                Err(CheckpointError::Format(_))
            ));
        }
    }

    /// A container sealed over a geometry the predictor cannot build —
    /// with a fingerprint that matches it, so only the geometry check
    /// can catch it — is refused at decode, which is what lets the
    /// model registry fall back past such a generation.
    #[test]
    fn geometry_the_predictor_cannot_build_is_rejected() {
        for heads in [0, 3] {
            let mut servable = ServablePredictor::capture(&small_model(15), None, "ipc");
            servable.config.heads = heads;
            servable.fingerprint =
                content_fingerprint(&servable.config, "ipc", &servable.params, None);
            match ServablePredictor::from_bytes(&servable.to_bytes()) {
                Err(CheckpointError::Format(message)) => {
                    assert!(message.contains("heads"), "{message}")
                }
                other => panic!("heads = {heads} accepted: {other:?}"),
            }
        }
    }

    /// A payload that does not fit its geometry — the parameters of a
    /// model half as wide, sealed with a matching fingerprint — is
    /// refused at decode, naming the first misshapen parameter.
    #[test]
    fn payload_that_does_not_fit_the_geometry_is_rejected() {
        let wide = ServablePredictor::capture(&small_model(16), None, "ipc");
        let mut servable = ServablePredictor::capture(
            &TransformerPredictor::new(
                PredictorConfig {
                    d_model: 4,
                    d_hidden: 8,
                    ..*wide.config()
                },
                16,
            ),
            None,
            "ipc",
        );
        servable.config = *wide.config();
        servable.fingerprint = content_fingerprint(&servable.config, "ipc", &servable.params, None);
        match ServablePredictor::from_bytes(&servable.to_bytes()) {
            Err(CheckpointError::Format(message)) => assert!(
                message.contains("\"predictor.token.table\" has shape [6, 4]"),
                "{message}"
            ),
            other => panic!("misshapen payload accepted: {other:?}"),
        }
        assert!(ServablePredictor::from_bytes(&wide.to_bytes()).is_ok());
    }

    #[test]
    fn fingerprint_distinguishes_models_and_metrics() {
        let a = ServablePredictor::capture(&small_model(1), None, "ipc");
        let b = ServablePredictor::capture(&small_model(2), None, "ipc");
        let c = ServablePredictor::capture(&small_model(1), None, "power");
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a.fingerprint(), c.fingerprint());
        // Same content → same fingerprint.
        let a2 = ServablePredictor::capture(&small_model(1), None, "ipc");
        assert_eq!(a.fingerprint(), a2.fingerprint());
    }
}
