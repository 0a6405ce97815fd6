//! The shared binary codec every durable byte format builds on.
//!
//! The WAL record payloads and the checkpoint snapshots of engine and
//! service state all write the same wire vocabulary: little-endian
//! fixed-width integers, `u64`-length-prefixed sequences, IEEE-754 bit
//! patterns for floats. [`Encoder`] and [`Decoder`] centralize that
//! vocabulary so the formats stay byte-compatible with each other and a
//! single fuzz surface covers all of them.
//!
//! Two invariants every caller relies on:
//!
//! * **Determinism** — encoding the same logical state twice produces the
//!   same bytes. Writers of hash-map-backed state must emit entries in a
//!   sorted or otherwise content-determined order; nothing here (or in any
//!   snapshot built on it) may depend on address-dependent iteration.
//! * **No panics on foreign bytes** — every [`Decoder`] read returns
//!   [`CodecError`] instead of panicking, so torn WAL tails and truncated
//!   checkpoints surface as recoverable errors.
//!
//! [`crc32`] is the IEEE CRC-32 used to checksum WAL records and checkpoint
//! payloads (hand-rolled slicing-by-16 tables, no external dependency).

/// Decoding failure: the bytes do not describe a valid value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value was complete.
    Truncated,
    /// The bytes are structurally invalid (bad magic, bad tag, impossible
    /// length...). The message names the violated expectation.
    Corrupt(&'static str),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input truncated mid-value"),
            CodecError::Corrupt(what) => write!(f, "corrupt encoding: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 tables (Kounavis & Berry, ISCC 2005): `CRC_TABLES[0]` is
/// the bytewise table, and `CRC_TABLES[k][b]` is the CRC state of byte `b`
/// followed by `k` zero bytes, so one lookup per byte of a 16-byte block
/// advances the whole block at once.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut j = 0;
        while j < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            j += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// IEEE CRC-32 (the zlib/PNG polynomial) of `bytes`, 16 bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let mut b: [u8; 16] = block.try_into().expect("chunks_exact(16)");
        let head = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        b[..4].copy_from_slice(&head.to_le_bytes());
        // Byte i of the block is followed by 15 - i more.
        c = 0;
        for (i, &v) in b.iter().enumerate() {
            c ^= CRC_TABLES[15 - i][v as usize];
        }
    }
    for &b in blocks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Append-only little-endian byte writer.
#[derive(Clone, Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Encoder {
        Encoder::default()
    }

    /// The bytes written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the encoder, returning its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Empties the encoder, keeping its capacity — for encode loops that
    /// reuse one buffer (e.g. the WAL's per-append scratch).
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True before the first write.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Overwrites bytes already written, from offset `at` — for length
    /// and checksum fields whose values are known only after what follows.
    /// Panics if the range was not written yet.
    pub fn patch(&mut self, at: usize, bytes: &[u8]) {
        self.buf[at..at + bytes.len()].copy_from_slice(bytes);
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte (`0`/`1`).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u128`, little-endian.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (portable across word sizes).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern — exact round-trip,
    /// including NaN payloads, infinities and signed zeros.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a `u64`-length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a `u64`-length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Writes a `u64`-length-prefixed `u32` sequence.
    pub fn put_u32s(&mut self, vs: &[u32]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_u32(v);
        }
    }

    /// Writes a `u64`-length-prefixed `u64` sequence.
    pub fn put_u64s(&mut self, vs: &[u64]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_u64(v);
        }
    }

    /// Writes a `u64`-length-prefixed `u128` sequence.
    pub fn put_u128s(&mut self, vs: &[u128]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_u128(v);
        }
    }

    /// Writes a `u64`-length-prefixed `bool` sequence (one byte each).
    pub fn put_bools(&mut self, vs: &[bool]) {
        self.put_usize(vs.len());
        for &v in vs {
            self.put_bool(v);
        }
    }
}

/// Sequential little-endian byte reader over a borrowed buffer.
#[derive(Clone, Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    /// Consumes exactly `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool` (rejecting anything but `0`/`1`).
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Corrupt("bool byte not 0/1")),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u128`.
    pub fn u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a `usize` written by [`Encoder::put_usize`], rejecting values
    /// that overflow the platform word.
    pub fn usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.u64()?).map_err(|_| CodecError::Corrupt("usize overflows platform"))
    }

    /// Reads a length prefix that must also be plausible for the remaining
    /// input (guards against allocating absurd capacities on corrupt data;
    /// `stride` is the minimum encoded bytes per element).
    pub fn seq_len(&mut self, stride: usize) -> Result<usize, CodecError> {
        let n = self.usize()?;
        if n.saturating_mul(stride.max(1)) > self.remaining() {
            return Err(CodecError::Truncated);
        }
        Ok(n)
    }

    /// Reads an `f64` bit pattern.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u64`-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.seq_len(1)?;
        self.take(n)
    }

    /// Reads a `u64`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| CodecError::Corrupt("string not UTF-8"))
    }

    /// Reads a `u64`-length-prefixed `u32` sequence.
    pub fn u32s(&mut self) -> Result<Vec<u32>, CodecError> {
        let n = self.seq_len(4)?;
        (0..n).map(|_| self.u32()).collect()
    }

    /// Reads a `u64`-length-prefixed `u64` sequence.
    pub fn u64s(&mut self) -> Result<Vec<u64>, CodecError> {
        let n = self.seq_len(8)?;
        (0..n).map(|_| self.u64()).collect()
    }

    /// Reads a `u64`-length-prefixed `u128` sequence.
    pub fn u128s(&mut self) -> Result<Vec<u128>, CodecError> {
        let n = self.seq_len(16)?;
        (0..n).map(|_| self.u128()).collect()
    }

    /// Reads a `u64`-length-prefixed `bool` sequence.
    pub fn bools(&mut self) -> Result<Vec<bool>, CodecError> {
        let n = self.seq_len(1)?;
        (0..n).map(|_| self.bool()).collect()
    }

    /// Asserts the input is fully consumed (trailing garbage is corruption,
    /// not slack).
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.is_done() {
            Ok(())
        } else {
            Err(CodecError::Corrupt("trailing bytes after value"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_primitives() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_bool(true);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX - 1);
        e.put_u128(1u128 << 100);
        e.put_f64(-0.0);
        e.put_str("hello");
        e.put_u32s(&[1, 2, 3]);
        e.put_u64s(&[]);
        e.put_u128s(&[u128::MAX]);
        e.put_bools(&[true, false]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.u128().unwrap(), 1u128 << 100);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.str().unwrap(), "hello");
        assert_eq!(d.u32s().unwrap(), vec![1, 2, 3]);
        assert!(d.u64s().unwrap().is_empty());
        assert_eq!(d.u128s().unwrap(), vec![u128::MAX]);
        assert_eq!(d.bools().unwrap(), vec![true, false]);
        d.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut e = Encoder::new();
        e.put_u64s(&[1, 2, 3, 4]);
        let bytes = e.into_bytes();
        for cut in 0..bytes.len() {
            let mut d = Decoder::new(&bytes[..cut]);
            assert!(d.u64s().is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn absurd_length_prefix_rejected_without_allocation() {
        let mut e = Encoder::new();
        e.put_u64(u64::MAX); // claims ~1.8e19 elements
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(d.u64s().is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut e = Encoder::new();
        e.put_u8(1);
        e.put_u8(2);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        d.u8().unwrap();
        assert_eq!(
            d.finish(),
            Err(CodecError::Corrupt("trailing bytes after value"))
        );
    }

    #[test]
    fn non_bool_byte_rejected() {
        let mut d = Decoder::new(&[2]);
        assert!(d.bool().is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE test vector plus the empty string.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"reservoir sampling over joins".to_vec();
        let base = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "flip {byte}:{bit} undetected");
            }
        }
    }

    /// The bytewise table-driven CRC the slicing kernel replaced: the
    /// reference the differential test holds it to.
    fn bytewise_crc32(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn crc32_matches_the_bytewise_reference() {
        let mut rng = crate::rng::RsjRng::seed_from_u64(0xC3C3);
        let big: Vec<u8> = (0..1 << 20).map(|_| rng.below_u64(256) as u8).collect();
        // Every length through several blocks, at every alignment of the
        // block boundary relative to the allocation.
        for start in 0..16 {
            for len in 0..=300 {
                let slice = &big[start..start + len];
                assert_eq!(
                    crc32(slice),
                    bytewise_crc32(slice),
                    "start {start} len {len}"
                );
            }
        }
        assert_eq!(crc32(&big), bytewise_crc32(&big), "1 MiB buffer");
    }

    #[test]
    fn encoding_is_deterministic() {
        let build = || {
            let mut e = Encoder::new();
            e.put_str("state");
            e.put_u64s(&[9, 8, 7]);
            e.into_bytes()
        };
        assert_eq!(build(), build());
    }
}
