//! Versioned, checksummed binary containers.
//!
//! Every on-disk artifact of the workspace that must survive interrupted
//! processes goes through this module:
//!
//! * [`ByteWriter`] / [`ByteReader`] — little-endian primitive encoding
//!   with checked, truncation-rejecting reads.
//! * [`seal`] / [`unseal`] — wrap a payload in a magic + version header
//!   and an FNV-1a trailer so corruption (truncation, torn writes, bit
//!   flips) is detected before any byte of the payload is trusted:
//!
//!   ```text
//!   magic (8) | u32 version | u64 payload len | payload … | u64 fnv1a
//!   ```
//!
//!   The checksum covers the header *and* the payload, so a sealed file
//!   whose header was spliced onto a different body also fails.
//!
//! Files are written through `metadse_obs::atomic_write`.

/// 64-bit FNV-1a over `bytes` — the workspace's standard content hash.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// Error produced when decoding a sealed container or reading primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FormatError(pub String);

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "format error: {}", self.0)
    }
}

impl std::error::Error for FormatError {}

impl From<FormatError> for std::io::Error {
    /// Malformed bytes read off a socket are `InvalidData`, like any
    /// other undecodable frame.
    fn from(e: FormatError) -> std::io::Error {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Little-endian binary encoder over a growable buffer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> ByteWriter {
        ByteWriter::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact bit pattern (NaN payloads, signed
    /// zeros, and subnormals all round-trip bit-for-bit).
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    /// Appends a length-prefixed `f64` slice.
    pub fn f64_slice(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }

    /// Appends a length-prefixed list of length-prefixed `f64` vectors.
    pub fn f64_slices(&mut self, vss: &[Vec<f64>]) {
        self.u64(vss.len() as u64);
        for vs in vss {
            self.f64_slice(vs);
        }
    }
}

/// Checked little-endian decoder over a byte slice. Every read returns an
/// error instead of panicking when the input is truncated.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FormatError> {
        if self.remaining() < n {
            return Err(FormatError(format!(
                "truncated input: wanted {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, FormatError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, FormatError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, FormatError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Reads a `u32` element count, rejecting it when `count ×
    /// elem_bytes` exceeds the bytes left. `elem_bytes` is the least an
    /// element can occupy, so a corrupt count fails here instead of
    /// sizing an allocation.
    pub fn count(&mut self, elem_bytes: usize) -> Result<usize, FormatError> {
        let count = self.u32()? as usize;
        if count.saturating_mul(elem_bytes) > self.remaining() {
            return Err(FormatError(format!(
                "truncated input: {count} elements of at least {elem_bytes} bytes exceed {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(count)
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, FormatError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, FormatError> {
        let len = self.u32()? as usize;
        // Bound by the remaining input so a corrupt length cannot trigger
        // a huge allocation.
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| FormatError("non-UTF8 string".into()))
    }

    /// Reads a length-prefixed `f64` vector.
    pub fn f64_vec(&mut self) -> Result<Vec<f64>, FormatError> {
        let len = self.u64()? as usize;
        if len.saturating_mul(8) > self.remaining() {
            return Err(FormatError(format!(
                "truncated input: {len}-element f64 vector exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        (0..len).map(|_| self.f64()).collect()
    }

    /// Reads a length-prefixed list of length-prefixed `f64` vectors.
    pub fn f64_vecs(&mut self) -> Result<Vec<Vec<f64>>, FormatError> {
        let len = self.u64()? as usize;
        if len.saturating_mul(8) > self.remaining() {
            return Err(FormatError(format!(
                "truncated input: {len}-vector list exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        (0..len).map(|_| self.f64_vec()).collect()
    }
}

/// Wraps `payload` in the sealed-container framing (magic, version,
/// length, FNV-1a trailer). The result is what [`unseal`] accepts.
pub fn seal(magic: &[u8; 8], version: u32, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 28);
    out.extend_from_slice(magic);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Validates a sealed container and returns `(version, payload)`.
///
/// # Errors
///
/// Rejects wrong magic, truncated input, payload-length mismatch, and any
/// checksum failure — a torn or bit-flipped file never yields a payload.
pub fn unseal<'a>(magic: &[u8; 8], bytes: &'a [u8]) -> Result<(u32, &'a [u8]), FormatError> {
    const HEADER: usize = 8 + 4 + 8;
    const TRAILER: usize = 8;
    if bytes.len() < HEADER + TRAILER {
        return Err(FormatError(format!(
            "truncated container: {} bytes, need at least {}",
            bytes.len(),
            HEADER + TRAILER
        )));
    }
    if &bytes[..8] != magic {
        return Err(FormatError("bad magic".into()));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4"));
    let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8")) as usize;
    if bytes.len() != HEADER + len + TRAILER {
        return Err(FormatError(format!(
            "payload length {len} disagrees with container size {}",
            bytes.len()
        )));
    }
    let stated = u64::from_le_bytes(bytes[HEADER + len..].try_into().expect("8"));
    let actual = fnv1a(&bytes[..HEADER + len]);
    if stated != actual {
        return Err(FormatError(format!(
            "checksum mismatch: stored {stated:016x}, computed {actual:016x}"
        )));
    }
    Ok((version, &bytes[HEADER..HEADER + len]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const MAGIC: &[u8; 8] = b"MDSETEST";

    fn sample_payload() -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(0xAB);
        w.u32(7);
        w.u64(u64::MAX);
        w.str("layer.weight");
        w.f64_slice(&[1.5, -0.0, f64::NAN, f64::MIN_POSITIVE / 2.0]);
        w.f64_slices(&[vec![1.0, 2.0], vec![], vec![3.0]]);
        w.into_bytes()
    }

    #[test]
    fn writer_reader_roundtrip_is_exact() {
        let bytes = sample_payload();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.str().unwrap(), "layer.weight");
        let vs = r.f64_vec().unwrap();
        assert_eq!(vs[0], 1.5);
        assert_eq!(vs[1].to_bits(), (-0.0f64).to_bits());
        assert!(vs[2].is_nan());
        assert_eq!(vs[3], f64::MIN_POSITIVE / 2.0);
        assert_eq!(
            r.f64_vecs().unwrap(),
            vec![vec![1.0, 2.0], vec![], vec![3.0]]
        );
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn seal_unseal_roundtrip() {
        let payload = sample_payload();
        let sealed = seal(MAGIC, 3, &payload);
        let (version, got) = unseal(MAGIC, &sealed).unwrap();
        assert_eq!(version, 3);
        assert_eq!(got, &payload[..]);
    }

    #[test]
    fn any_single_byte_corruption_is_detected() {
        let sealed = seal(MAGIC, 1, &sample_payload());
        let mut rng = StdRng::seed_from_u64(0xf0);
        for _ in 0..64 {
            let i = rng.gen_range(0..sealed.len());
            let mut bad = sealed.clone();
            bad[i] ^= 1 << rng.gen_range(0..8u32);
            assert!(unseal(MAGIC, &bad).is_err(), "flip at byte {i} undetected");
        }
    }

    #[test]
    fn every_truncation_point_is_rejected() {
        let sealed = seal(MAGIC, 1, &sample_payload());
        for cut in 0..sealed.len() {
            assert!(unseal(MAGIC, &sealed[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn reader_rejects_truncated_primitives() {
        let mut w = ByteWriter::new();
        w.f64_slice(&[1.0, 2.0, 3.0]);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            assert!(ByteReader::new(&bytes[..cut]).f64_vec().is_err());
        }
    }

    #[test]
    fn corrupt_length_prefix_does_not_allocate_absurdly() {
        let mut w = ByteWriter::new();
        w.u64(u64::MAX); // claims ~1.8e19 elements
        let bytes = w.into_bytes();
        assert!(ByteReader::new(&bytes).f64_vec().is_err());
        assert!(ByteReader::new(&bytes).f64_vecs().is_err());
        // A u32 count of 4-byte elements must fit the bytes after it.
        let mut w = ByteWriter::new();
        w.u32(2);
        w.u32(0);
        w.u32(0);
        let bytes = w.into_bytes();
        assert_eq!(ByteReader::new(&bytes).count(4), Ok(2));
        assert!(ByteReader::new(&bytes).count(5).is_err());
        assert!(ByteReader::new(&u32::MAX.to_le_bytes()).count(1).is_err());
    }
}
