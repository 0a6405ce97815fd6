//! Attribute values, tuple identifiers and composite join keys.
//!
//! All attribute values are dictionary-encoded `u64`s ([`Value`]). The data
//! generators in `rsj-datagen` own the dictionaries; the join machinery never
//! needs to look inside a value, it only hashes and compares them. This keeps
//! tuples flat and `Copy`-friendly, which matters because the dynamic index
//! moves tuple references between buckets constantly.

/// A dictionary-encoded attribute value.
pub type Value = u64;

/// Index of a tuple inside its relation's arena.
///
/// `u32` bounds a single relation at ~4.2 billion tuples, far beyond the
/// streaming scales this library targets, and halves the memory of every
/// semi-join list and bucket compared to `usize`.
pub type TupleId = u32;

/// Maximum number of attributes in a composite join key.
///
/// Every benchmark query in the paper joins on at most two attributes
/// (QX joins `store_sales` and `store_returns` on `(item_sk, ticket_number)`);
/// four leaves generous headroom while keeping [`Key`] `Copy` and
/// allocation-free.
pub const MAX_KEY_ARITY: usize = 4;

/// An inline composite join-key value: the projection of a tuple onto the
/// join attributes shared with a neighbouring relation in the join tree.
///
/// `Key` is `Copy`, 40 bytes, and never allocates. Equality and hashing only
/// consider the first `len` slots.
#[derive(Clone, Copy, Debug)]
pub struct Key {
    len: u8,
    vals: [Value; MAX_KEY_ARITY],
}

impl Key {
    /// The empty key. Used as the grouping key of a join-tree root, whose
    /// "key attributes" with its (non-existent) parent are the empty set.
    pub const EMPTY: Key = Key {
        len: 0,
        vals: [0; MAX_KEY_ARITY],
    };

    /// Builds a key from a slice of values.
    ///
    /// # Panics
    /// Panics if `vals.len() > MAX_KEY_ARITY`.
    #[inline]
    pub fn from_slice(vals: &[Value]) -> Key {
        assert!(
            vals.len() <= MAX_KEY_ARITY,
            "composite join key arity {} exceeds MAX_KEY_ARITY={}",
            vals.len(),
            MAX_KEY_ARITY
        );
        let mut k = Key::EMPTY;
        k.len = vals.len() as u8;
        k.vals[..vals.len()].copy_from_slice(vals);
        k
    }

    /// Builds a single-attribute key.
    #[inline]
    pub fn single(v: Value) -> Key {
        let mut k = Key::EMPTY;
        k.len = 1;
        k.vals[0] = v;
        k
    }

    /// Builds a key by projecting `tuple` onto attribute positions `attrs`.
    #[inline]
    pub fn project(tuple: &[Value], attrs: &[usize]) -> Key {
        debug_assert!(attrs.len() <= MAX_KEY_ARITY);
        let mut k = Key::EMPTY;
        k.len = attrs.len() as u8;
        for (slot, &a) in k.vals.iter_mut().zip(attrs.iter()) {
            *slot = tuple[a];
        }
        k
    }

    /// The key values as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Value] {
        &self.vals[..self.len as usize]
    }

    /// The first value, `0` for the empty key (every constructor starts
    /// from [`Key::EMPTY`] and writes live slots only, so dead slots are 0).
    #[inline]
    pub(crate) fn head(&self) -> Value {
        self.vals[0]
    }

    /// Number of attributes in this key.
    #[inline]
    pub fn arity(&self) -> usize {
        self.len as usize
    }

    /// True for the empty key.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes the key's canonical encoding (arity byte + live slots only,
    /// so dead-slot garbage never leaks into checkpoint bytes).
    pub fn encode_to(&self, enc: &mut crate::codec::Encoder) {
        enc.put_u8(self.len);
        for v in self.as_slice() {
            enc.put_u64(*v);
        }
    }

    /// Reads a key written by [`encode_to`](Key::encode_to).
    pub fn decode_from(dec: &mut crate::codec::Decoder) -> Result<Key, crate::codec::CodecError> {
        let len = dec.u8()? as usize;
        if len > MAX_KEY_ARITY {
            return Err(crate::codec::CodecError::Corrupt("key arity past cap"));
        }
        let mut k = Key::EMPTY;
        k.len = len as u8;
        for slot in k.vals.iter_mut().take(len) {
            *slot = dec.u64()?;
        }
        Ok(k)
    }
}

impl PartialEq for Key {
    #[inline]
    fn eq(&self, other: &Key) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Key {}

impl std::hash::Hash for Key {
    #[inline]
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Hash length + live slots only, so equal keys hash equally even if
        // the dead slots differ.
        state.write_u8(self.len);
        for v in self.as_slice() {
            state.write_u64(*v);
        }
    }
}

impl std::fmt::Display for Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.as_slice().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of(k: &Key) -> u64 {
        let mut h = DefaultHasher::new();
        k.hash(&mut h);
        h.finish()
    }

    #[test]
    fn empty_key_properties() {
        assert!(Key::EMPTY.is_empty());
        assert_eq!(Key::EMPTY.arity(), 0);
        assert_eq!(Key::EMPTY.as_slice(), &[] as &[Value]);
        assert_eq!(Key::EMPTY, Key::from_slice(&[]));
    }

    #[test]
    fn single_and_slice_agree() {
        assert_eq!(Key::single(7), Key::from_slice(&[7]));
        assert_eq!(Key::single(7).as_slice(), &[7]);
    }

    #[test]
    fn equality_ignores_dead_slots() {
        let mut a = Key::from_slice(&[1, 2]);
        // Poke a dead slot through a copy round-trip: construct b with
        // different garbage beyond len.
        a.vals[3] = 999;
        let b = Key::from_slice(&[1, 2]);
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
    }

    #[test]
    fn different_arity_not_equal() {
        assert_ne!(Key::from_slice(&[1]), Key::from_slice(&[1, 0]));
    }

    #[test]
    fn project_picks_positions() {
        let t = [10, 20, 30, 40];
        assert_eq!(Key::project(&t, &[2, 0]), Key::from_slice(&[30, 10]));
        assert_eq!(Key::project(&t, &[]), Key::EMPTY);
    }

    #[test]
    #[should_panic(expected = "exceeds MAX_KEY_ARITY")]
    fn oversized_key_panics() {
        Key::from_slice(&[1, 2, 3, 4, 5]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Key::from_slice(&[1, 2]).to_string(), "(1,2)");
        assert_eq!(Key::EMPTY.to_string(), "()");
    }
}
