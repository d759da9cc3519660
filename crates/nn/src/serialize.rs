//! Parameter and optimizer-state checkpointing.
//!
//! A deliberately simple, dependency-free binary format:
//!
//! ```text
//! magic "MDSE" | u32 version | u32 param count |
//!   per param: u32 name len | name bytes | u32 ndim | u64 dims… | f64 data…
//! ```
//!
//! All integers are little-endian; `f64` values are stored as exact bit
//! patterns, so NaN payloads, signed zeros, and subnormals round-trip
//! unchanged. Checkpoints are loaded back into an existing model's
//! [`Param`] list by name, so parameter ordering may differ between save
//! and load as long as names and shapes match.
//!
//! [`save_params`] writes through [`metadse_obs::atomic_write`]: an
//! interrupted save can never leave a half-written file at the target
//! path. The same encoding is exposed at the buffer level
//! ([`params_to_bytes`] / [`load_params_from_bytes`], and
//! [`adam_state_to_bytes`] / [`adam_state_from_bytes`] for optimizer
//! moments) so higher-level containers — the training checkpoints in
//! `metadse` — can embed parameter and optimizer payloads verbatim.

use std::collections::HashMap;
use std::io;
use std::path::Path;

use crate::format::{ByteReader, ByteWriter, FormatError};
use crate::layers::Param;
use crate::optim::AdamState;
use crate::{Elem, Tensor};

const MAGIC: &[u8; 4] = b"MDSE";
const VERSION: u32 = 1;

/// Errors produced when loading a checkpoint.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a MetaDSE checkpoint or uses an unknown version.
    Format(String),
    /// The checkpoint does not match the model (missing name, wrong shape).
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Format(m) => write!(f, "invalid checkpoint format: {m}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint/model mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<FormatError> for CheckpointError {
    fn from(e: FormatError) -> Self {
        CheckpointError::Format(e.0)
    }
}

/// Encodes the current values of `params` in the checkpoint wire format.
pub fn params_to_bytes(params: &[Param]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.bytes(MAGIC);
    w.u32(VERSION);
    w.u32(params.len() as u32);
    for p in params {
        w.str(p.name());
        let t = p.get();
        w.u32(t.ndim() as u32);
        for &d in t.shape() {
            w.u64(d as u64);
        }
        for v in t.to_vec() {
            w.f64(v);
        }
    }
    w.into_bytes()
}

/// Saves the current values of `params` to `path` atomically.
///
/// # Errors
///
/// Returns an error if the file cannot be created or written.
pub fn save_params(params: &[Param], path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    metadse_obs::atomic_write(&metadse_obs::StdIo, path, &params_to_bytes(params))?;
    Ok(())
}

/// Loads a checkpoint into `params`, matching entries by name.
///
/// Every model parameter must be present in the file with an identical
/// shape; extra entries in the file are ignored.
///
/// # Errors
///
/// Returns [`CheckpointError::Format`] for malformed (including
/// truncated) files and [`CheckpointError::Mismatch`] when names or
/// shapes disagree.
pub fn load_params(params: &[Param], path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let bytes = std::fs::read(path)?;
    load_params_from_bytes(params, &bytes)
}

/// Buffer-level variant of [`load_params`].
///
/// # Errors
///
/// Same contract as [`load_params`].
pub fn load_params_from_bytes(params: &[Param], bytes: &[u8]) -> Result<(), CheckpointError> {
    let entries: Entries = entries_from_bytes(bytes)?
        .into_iter()
        .map(|e| (e.name, (e.shape, e.data)))
        .collect();
    for p in params {
        let (shape, data) = entries.get(p.name()).ok_or_else(|| {
            CheckpointError::Mismatch(format!("parameter {:?} not found in checkpoint", p.name()))
        })?;
        if *shape != p.shape() {
            return Err(CheckpointError::Mismatch(format!(
                "parameter {:?} has shape {:?} in checkpoint but {:?} in model",
                p.name(),
                shape,
                p.shape()
            )));
        }
        p.set(Tensor::param_from_vec(data.clone(), shape));
    }
    Ok(())
}

/// Encodes an [`AdamState`] (step counter plus both moment buffers).
pub fn adam_state_to_bytes(state: &AdamState) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.u64(state.t);
    w.f64_slices(&state.m);
    w.f64_slices(&state.v);
    w.into_bytes()
}

/// Decodes an [`AdamState`] written by [`adam_state_to_bytes`].
///
/// # Errors
///
/// Returns [`CheckpointError::Format`] on truncated or malformed input
/// (including trailing garbage and first/second moment buffer lists of
/// different shapes).
pub fn adam_state_from_bytes(bytes: &[u8]) -> Result<AdamState, CheckpointError> {
    let mut r = ByteReader::new(bytes);
    let t = r.u64()?;
    let m = r.f64_vecs()?;
    let v = r.f64_vecs()?;
    if r.remaining() != 0 {
        return Err(CheckpointError::Format(format!(
            "{} trailing bytes after optimizer state",
            r.remaining()
        )));
    }
    if m.len() != v.len() || m.iter().zip(&v).any(|(a, b)| a.len() != b.len()) {
        return Err(CheckpointError::Format(
            "first/second moment buffers disagree in shape".into(),
        ));
    }
    Ok(AdamState { t, m, v })
}

type Entries = HashMap<String, (Vec<usize>, Vec<Elem>)>;

/// One named tensor decoded from a parameter payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamEntry {
    /// Parameter name (the [`Param::name`] it was saved under).
    pub name: String,
    /// Tensor shape.
    pub shape: Vec<usize>,
    /// Tensor values, row-major, exact bit patterns.
    pub data: Vec<Elem>,
}

/// Decodes a [`params_to_bytes`] payload into its entries, **in file
/// order**, without needing a model instance — the loading path for
/// artifact containers (serving models, inspection tooling) that carry a
/// parameter payload verbatim.
///
/// # Errors
///
/// Returns [`CheckpointError::Format`] for malformed (including
/// truncated) input.
pub fn entries_from_bytes(bytes: &[u8]) -> Result<Vec<ParamEntry>, CheckpointError> {
    let mut r = ByteReader::new(bytes);
    if r.take(4)? != MAGIC {
        return Err(CheckpointError::Format("bad magic".into()));
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(CheckpointError::Format(format!(
            "unsupported version {version}"
        )));
    }
    let count = r.u32()? as usize;
    let mut entries = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let name = r.str()?;
        let ndim = r.u32()? as usize;
        if ndim.saturating_mul(8) > r.remaining() {
            return Err(CheckpointError::Format(format!(
                "parameter {name:?} claims {ndim} dimensions beyond the input"
            )));
        }
        let mut shape = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            shape.push(r.u64()? as usize);
        }
        let n: usize = shape.iter().product();
        if n.saturating_mul(8) > r.remaining() {
            return Err(CheckpointError::Format(format!(
                "parameter {name:?} claims {n} elements beyond the input"
            )));
        }
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            data.push(r.f64()?);
        }
        entries.push(ParamEntry { name, shape, data });
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Module};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("metadse-nn-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_restores_values() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Linear::new("l", 3, 2, true, &mut rng);
        let params = layer.params();
        let original: Vec<Vec<f64>> = params.iter().map(|p| p.get().to_vec()).collect();
        let path = temp_path("roundtrip");
        save_params(&params, &path).unwrap();
        // Wreck the weights, then restore.
        for p in &params {
            p.get().assign_vec(&vec![0.0; p.numel()]);
        }
        load_params(&params, &path).unwrap();
        for (p, o) in params.iter().zip(&original) {
            assert_eq!(&p.get().to_vec(), o);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_parameter_is_an_error() {
        let mut rng = StdRng::seed_from_u64(2);
        let saved = Linear::new("a", 2, 2, false, &mut rng);
        let loaded = Linear::new("b", 2, 2, false, &mut rng);
        let path = temp_path("missing");
        save_params(&saved.params(), &path).unwrap();
        let err = load_params(&loaded.params(), &path).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let mut rng = StdRng::seed_from_u64(3);
        let saved = Linear::new("l", 2, 2, false, &mut rng);
        let loaded = Linear::new("l", 2, 3, false, &mut rng);
        let path = temp_path("shape");
        save_params(&saved.params(), &path).unwrap();
        let err = load_params(&loaded.params(), &path).unwrap_err();
        assert!(matches!(err, CheckpointError::Mismatch(_)));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn garbage_file_is_a_format_error() {
        let err = entries_from_bytes(b"not a checkpoint").unwrap_err();
        assert!(matches!(err, CheckpointError::Format(_)));
    }

    #[test]
    fn entries_from_bytes_preserves_save_order_and_bits() {
        let mut rng = StdRng::seed_from_u64(5);
        let layer = Linear::new("l", 3, 2, true, &mut rng);
        let params = layer.params();
        let entries = entries_from_bytes(&params_to_bytes(&params)).unwrap();
        assert_eq!(entries.len(), params.len());
        for (e, p) in entries.iter().zip(&params) {
            assert_eq!(e.name, p.name());
            assert_eq!(e.shape, p.shape());
            let want = p.get().to_vec();
            assert_eq!(e.data.len(), want.len());
            for (a, b) in e.data.iter().zip(&want) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
