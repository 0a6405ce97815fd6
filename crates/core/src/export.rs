//! Binary export/import of sample sets.
//!
//! Downstream consumers of a join sample (model trainers, approximate
//! aggregators) usually live in another process; this module gives the
//! reservoir a compact, self-describing wire format over plain byte
//! vectors:
//!
//! ```text
//! magic "RSJ1" | u32 arity | u64 count | count × arity × u64 values (LE)
//! ```
//!
//! All samples in one set share the query's arity, so the layout is a
//! dense matrix — `16 + 8·k·arity` bytes for `k` samples.

use rsj_common::Value;

const MAGIC: &[u8; 4] = b"RSJ1";

/// Errors from decoding a sample buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer does not start with the `RSJ1` magic.
    BadMagic,
    /// The buffer is shorter than its header claims.
    Truncated,
    /// Header declares arity 0.
    ZeroArity,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "missing RSJ1 magic"),
            DecodeError::Truncated => write!(f, "buffer shorter than header claims"),
            DecodeError::ZeroArity => write!(f, "sample arity must be positive"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Encodes a sample set (all tuples of equal arity) into a buffer.
///
/// # Panics
/// Panics if samples have inconsistent arities.
pub fn encode_samples(samples: &[Vec<Value>], arity: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + samples.len() * arity * 8);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&(arity as u32).to_le_bytes());
    buf.extend_from_slice(&(samples.len() as u64).to_le_bytes());
    for s in samples {
        assert_eq!(s.len(), arity, "inconsistent sample arity");
        for &v in s {
            buf.extend_from_slice(&v.to_le_bytes());
        }
    }
    buf
}

/// Decodes a buffer produced by [`encode_samples`].
pub fn decode_samples(buf: &[u8]) -> Result<Vec<Vec<Value>>, DecodeError> {
    if buf.len() < 16 {
        return Err(DecodeError::Truncated);
    }
    if &buf[..4] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let arity = u32::from_le_bytes(buf[4..8].try_into().expect("4 bytes")) as usize;
    let count = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes")) as usize;
    if count > 0 && arity == 0 {
        return Err(DecodeError::ZeroArity);
    }
    let body = &buf[16..];
    if body.len() < count.saturating_mul(arity).saturating_mul(8) {
        return Err(DecodeError::Truncated);
    }
    let mut out = Vec::with_capacity(count);
    let mut off = 0;
    for _ in 0..count {
        let mut s = Vec::with_capacity(arity);
        for _ in 0..arity {
            s.push(u64::from_le_bytes(
                body[off..off + 8].try_into().expect("8 bytes"),
            ));
            off += 8;
        }
        out.push(s);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let samples = vec![vec![1, 2, 3], vec![4, 5, 6], vec![u64::MAX, 0, 7]];
        let buf = encode_samples(&samples, 3);
        assert_eq!(buf.len(), 16 + 3 * 3 * 8);
        assert_eq!(decode_samples(&buf).unwrap(), samples);
    }

    #[test]
    fn empty_set() {
        let buf = encode_samples(&[], 5);
        assert_eq!(decode_samples(&buf).unwrap(), Vec::<Vec<u64>>::new());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut raw = encode_samples(&[vec![1]], 1);
        raw[0] = b'X';
        assert_eq!(decode_samples(&raw), Err(DecodeError::BadMagic));
    }

    #[test]
    fn truncation_rejected() {
        let raw = encode_samples(&[vec![1, 2]], 2);
        for cut in [0, 8, 15, raw.len() - 1] {
            assert_eq!(
                decode_samples(&raw[..cut]),
                Err(DecodeError::Truncated),
                "{cut}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "inconsistent sample arity")]
    fn arity_mismatch_panics() {
        encode_samples(&[vec![1, 2], vec![3]], 2);
    }

    #[test]
    fn reservoir_samples_roundtrip() {
        use rsj_query::QueryBuilder;
        let mut qb = QueryBuilder::new();
        qb.relation("R", &["X", "Y"]);
        qb.relation("S", &["Y", "Z"]);
        let q = qb.build().unwrap();
        let arity = q.num_attrs();
        let mut rj = crate::ReservoirJoin::new(q, 10, 1).unwrap();
        rj.process(0, &[1, 2]);
        rj.process(1, &[2, 3]);
        rj.process(1, &[2, 4]);
        let buf = encode_samples(&rj.samples().to_vec(), arity);
        assert_eq!(decode_samples(&buf).unwrap(), rj.samples().to_vec());
    }
}
