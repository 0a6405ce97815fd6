//! An fx-style fast hasher.
//!
//! The dynamic index performs several hash-map lookups per propagation step
//! and per retrieve, almost always on small integer-like keys. SipHash (the
//! standard-library default) is needlessly slow for that workload; this is
//! the classic Firefox/rustc "fx" multiply-rotate hash, implemented in-tree
//! because the workspace's offline dependency set does not include
//! `rustc-hash`. HashDoS resistance is irrelevant here: keys come from our
//! own data generators, not from adversaries.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The fx multiply-rotate hasher.
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Consume 8-byte chunks, then the tail. The index's hot keys
        // (`Key`, u64, u32) never take this path, but completeness keeps the
        // hasher usable for strings in the data generators.
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(tail));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add_to_hash(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add_to_hash(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

/// Hashes a single value with [`FxHasher`]; convenient for content-hash
/// dedup tables.
#[inline]
pub fn fx_hash_one<T: std::hash::Hash>(v: &T) -> u64 {
    let mut h = FxHasher::default();
    v.hash(&mut h);
    h.finish()
}

/// One fx round: the `FxHasher::add_to_hash` step as a pure function, so
/// the column kernels below can keep several rows' states in registers.
#[inline(always)]
fn fx_mix(state: u64, word: u64) -> u64 {
    (state.rotate_left(5) ^ word).wrapping_mul(SEED)
}

/// Scalar column-hash fallback: hashes each fixed-arity row of `flat`
/// (row-major, `flat.len() / arity` rows) as the word sequence
/// `[prefix, v_0, .., v_{arity-1}]`, appending one digest per row to `out`.
///
/// With `prefix = arity as u64` this is bit-identical to
/// [`fx_hash_one`] over the row slice (the length-prefixed `[u64]` chain
/// the relation dedup tables key on) and to `fx_hash_one` over a
/// [`Key`](crate::value::Key) whose live values are the row (the
/// `write_u8(len)` + `write_u64` chain the index's `KeyMap`s key on) —
/// both reduce to the same `u64` word sequence.
pub fn fx_hash_columns_scalar(prefix: u64, arity: usize, flat: &[u64], out: &mut Vec<u64>) {
    assert!(arity > 0, "column hashing needs at least one column");
    assert_eq!(
        flat.len() % arity,
        0,
        "flat column length must be row-major"
    );
    let seeded = fx_mix(0, prefix);
    out.reserve(flat.len() / arity);
    for row in flat.chunks_exact(arity) {
        let mut s = seeded;
        for &v in row {
            s = fx_mix(s, v);
        }
        out.push(s);
    }
}

/// Multi-lane unrolled column-hash kernel: same contract as
/// [`fx_hash_columns_scalar`], but four rows' hash states advance per loop
/// iteration so the rotate/xor/multiply chains of independent rows overlap
/// in the pipeline.
fn fx_hash_columns_unrolled(prefix: u64, arity: usize, flat: &[u64], out: &mut Vec<u64>) {
    assert!(arity > 0, "column hashing needs at least one column");
    assert_eq!(
        flat.len() % arity,
        0,
        "flat column length must be row-major"
    );
    let n = flat.len() / arity;
    let seeded = fx_mix(0, prefix);
    out.reserve(n);
    let mut rows = flat.chunks_exact(arity * 4);
    for quad in &mut rows {
        let (mut a, mut b, mut c, mut d) = (seeded, seeded, seeded, seeded);
        for j in 0..arity {
            a = fx_mix(a, quad[j]);
            b = fx_mix(b, quad[arity + j]);
            c = fx_mix(c, quad[2 * arity + j]);
            d = fx_mix(d, quad[3 * arity + j]);
        }
        out.extend_from_slice(&[a, b, c, d]);
    }
    fx_hash_columns_scalar(prefix, arity, rows.remainder(), out);
}

/// Hashes whole key columns in one tight loop, with digests equal to the
/// per-row [`fx_hash_one`] chains relation dedup and `Key` probes use.
/// No ingest path calls it; the repo benchmark's trace decomposition and
/// the `micro` hash-kernel cases do.
///
/// Dispatches to `fx_hash_columns_unrolled` by default; building
/// `rsj-common` with the `scalar-hash` feature swaps in
/// [`fx_hash_columns_scalar`] (identical digests, no unrolling).
#[inline]
pub fn fx_hash_columns(prefix: u64, arity: usize, flat: &[u64], out: &mut Vec<u64>) {
    #[cfg(not(feature = "scalar-hash"))]
    fx_hash_columns_unrolled(prefix, arity, flat, out);
    #[cfg(feature = "scalar-hash")]
    fx_hash_columns_scalar(prefix, arity, flat, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Key;

    #[test]
    fn deterministic() {
        assert_eq!(fx_hash_one(&42u64), fx_hash_one(&42u64));
        assert_eq!(fx_hash_one(&"abc"), fx_hash_one(&"abc"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(fx_hash_one(&1u64), fx_hash_one(&2u64));
        assert_ne!(fx_hash_one(&[1u64, 2]), fx_hash_one(&[2u64, 1]));
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<Key, u32> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(Key::from_slice(&[i, i * 3]), i as u32);
        }
        assert_eq!(m.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(m[&Key::from_slice(&[i, i * 3])], i as u32);
        }
    }

    #[test]
    fn byte_tail_handling() {
        // Strings whose lengths straddle the 8-byte chunk boundary must all
        // hash distinctly and consistently.
        let inputs = ["", "a", "abcdefg", "abcdefgh", "abcdefghi"];
        let hashes: Vec<u64> = inputs.iter().map(fx_hash_one).collect();
        for i in 0..hashes.len() {
            for j in (i + 1)..hashes.len() {
                assert_ne!(hashes[i], hashes[j], "{:?} vs {:?}", inputs[i], inputs[j]);
            }
        }
    }

    #[test]
    fn column_kernel_matches_slice_chain() {
        // The relation dedup tables hash `&[Value]` (length-prefixed u64
        // slice). The column kernel with `prefix = arity` must reproduce
        // those digests bit-for-bit, unrolled and scalar alike.
        for arity in 1..=5usize {
            let rows: Vec<Vec<u64>> = (0..23u64)
                .map(|i| (0..arity as u64).map(|j| i * 31 + j * 7).collect())
                .collect();
            let flat: Vec<u64> = rows.iter().flatten().copied().collect();
            let expect: Vec<u64> = rows.iter().map(|r| fx_hash_one(&r.as_slice())).collect();
            let mut unrolled = Vec::new();
            fx_hash_columns_unrolled(arity as u64, arity, &flat, &mut unrolled);
            assert_eq!(unrolled, expect, "arity {arity} unrolled");
            let mut scalar = Vec::new();
            fx_hash_columns_scalar(arity as u64, arity, &flat, &mut scalar);
            assert_eq!(scalar, expect, "arity {arity} scalar");
            let mut dispatch = Vec::new();
            fx_hash_columns(arity as u64, arity, &flat, &mut dispatch);
            assert_eq!(dispatch, expect, "arity {arity} dispatch");
        }
    }

    #[test]
    fn column_kernel_matches_key_chain() {
        // The index's `KeyMap`s hash `Key` (`write_u8(len)` then one
        // `write_u64` per live value) — the same word sequence, so one
        // kernel serves both call sites.
        for arity in 1..=4usize {
            let keys: Vec<Key> = (0..17u64)
                .map(|i| Key::from_slice(&vec![i.wrapping_mul(0x9E37); arity]))
                .collect();
            let flat: Vec<u64> = keys.iter().flat_map(|k| k.as_slice().to_vec()).collect();
            let expect: Vec<u64> = keys.iter().map(fx_hash_one).collect();
            let mut got = Vec::new();
            fx_hash_columns(arity as u64, arity, &flat, &mut got);
            assert_eq!(got, expect, "arity {arity}");
        }
    }

    #[test]
    fn column_kernel_handles_tails_and_appends() {
        // Row counts that are not multiples of the lane width exercise the
        // scalar tail, and the kernel must append (callers batch several
        // projection sets into one output vector).
        let flat: Vec<u64> = (0..7u64).collect();
        let mut out = vec![99];
        fx_hash_columns_unrolled(1, 1, &flat, &mut out);
        assert_eq!(out.len(), 8);
        assert_eq!(out[0], 99);
        for (i, &v) in flat.iter().enumerate() {
            assert_eq!(out[i + 1], fx_hash_one(&std::slice::from_ref(&v)), "{i}");
        }
    }

    #[test]
    fn spread_is_reasonable() {
        // Sequential u64 keys must not collapse into a few buckets: count
        // distinct low-10-bit patterns across 1024 sequential keys.
        let mut seen = FxHashSet::default();
        for i in 0..1024u64 {
            seen.insert(fx_hash_one(&i) & 0x3ff);
        }
        assert!(seen.len() > 600, "poor low-bit spread: {}", seen.len());
    }
}
