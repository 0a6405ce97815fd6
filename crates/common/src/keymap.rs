//! An open-addressing hash table keyed by [`Key`] that takes *precomputed*
//! hashes.
//!
//! The dynamic index looks the same projected key up in several tables per
//! insert — the child index of the parent node, the group table of the
//! child node, sometimes a grouping intern table — and `std::HashMap`
//! re-hashes the key on every one of those probes. [`KeyMap`] splits
//! hashing from probing: the caller hashes a key once (with
//! [`fx_hash_one`](crate::hash::fx_hash_one), per insert, per distinct
//! projection) and hands the digest to every table touched afterwards.
//!
//! # Layout
//!
//! One flat power-of-two slot array holding `(key, tag, value)` inline,
//! linear probing, load factor at most 7/8 — a probe is a single indexed
//! load with no entries-array indirection. The tag is the low 31 bits of
//! the key's hash under a forced-on top bit (`0` marks a vacant slot), so
//! a lookup compares one word before touching the key, and an entry's home
//! position is `tag & mask`. The index never deletes keys, so there are no
//! tombstones, and growth re-seats slots from stored tags without ever
//! re-hashing a key.
//!
//! A [`Key`] is 40 bytes whatever its arity, yet every `key(e)` of a
//! line-k or star-k join is one `u64` and a root's is empty. So the slot
//! comes in two widths, chosen from the arity of the **first key the table
//! is given** — a property of the join edge the table serves, observed
//! rather than configured:
//!
//! * arity ≤ 1 — the *narrow* slot `(u64, tag, V)`: 16 bytes for a `u32`
//!   value, four to a cache line. The table remembers the one arity all
//!   its keys share.
//! * arity ≥ 2 (`ē` projections of grouped nodes, composite join keys) —
//!   the *wide* slot `(Key, tag, V)`, 48 bytes.
//!
//! Both widths run the same generic probe, growth and codec and home an
//! entry on the same hash bits, so slot order — and with it iteration
//! order and image order — does not depend on the width. A key of another
//! arity reaching a narrow table rebuilds it wide (a cold path no index
//! table takes: a table's keys are all projections onto one attribute
//! list).
//!
//! Iteration order is slot order: deterministic for a fixed insertion
//! sequence, but *not* insertion order — nothing sample-relevant iterates
//! these maps (posting lists, which do carry order, live in
//! [`PostingArena`](crate::postings::PostingArena)).

use crate::codec::{CodecError, Decoder, Encoder};
use crate::heap::HeapSize;
use crate::value::Key;

/// Vacant-slot tag; occupied slots carry [`tag_of`] their hash.
const VACANT: u32 = 0;

#[inline]
fn tag_of(hash: u64) -> u32 {
    hash as u32 | 1 << 31
}

/// What a slot keeps of the caller's key: the one value of a key of the
/// table's arity (0 or 1), or the whole [`Key`].
trait Stored: Copy + Eq {
    fn of(key: &Key) -> Self;
    fn key(self, arity: u8) -> Key;
    fn put(self, enc: &mut Encoder, arity: u8);
    fn get(dec: &mut Decoder, arity: u8) -> Result<Self, CodecError>;
}

impl Stored for u64 {
    #[inline]
    fn of(key: &Key) -> u64 {
        key.head()
    }
    #[inline]
    fn key(self, arity: u8) -> Key {
        match arity {
            0 => Key::EMPTY,
            _ => Key::single(self),
        }
    }
    fn put(self, enc: &mut Encoder, arity: u8) {
        if arity == 1 {
            enc.put_u64(self);
        }
    }
    fn get(dec: &mut Decoder, arity: u8) -> Result<u64, CodecError> {
        Ok(if arity == 1 { dec.u64()? } else { 0 })
    }
}

impl Stored for Key {
    #[inline]
    fn of(key: &Key) -> Key {
        *key
    }
    #[inline]
    fn key(self, _: u8) -> Key {
        self
    }
    fn put(self, enc: &mut Encoder, _: u8) {
        self.encode_to(enc)
    }
    fn get(dec: &mut Decoder, _: u8) -> Result<Key, CodecError> {
        Key::decode_from(dec)
    }
}

#[derive(Clone, Debug)]
struct Slot<K, V> {
    key: K,
    tag: u32,
    val: V,
}

// The narrow slot is the per-key cost of every line-k / star-k table: a
// field reorder or a wider tag must not re-inflate it unnoticed.
const _: () = assert!(std::mem::size_of::<Slot<u64, u32>>() == 16);

/// Layout byte of a wide table in the snapshot image (a narrow table
/// writes its arity, 0 or 1).
const WIDE: u8 = 2;

#[derive(Clone, Debug)]
enum Table<V> {
    /// Every key has this one arity (0 or 1).
    Narrow(u8, Vec<Slot<u64, V>>),
    Wide(Vec<Slot<Key, V>>),
}

/// Flat open-addressing map from [`Key`] to `V`, addressed by
/// caller-supplied fx hashes.
#[derive(Clone, Debug)]
pub struct KeyMap<V> {
    /// Power-of-two slot array (empty until the first insert).
    table: Table<V>,
    len: usize,
}

impl<V> Default for KeyMap<V> {
    fn default() -> Self {
        KeyMap {
            table: Table::Narrow(0, Vec::new()),
            len: 0,
        }
    }
}

/// Walks the cluster at `tag`'s home: the slot holding (`tag`, `key`), or
/// the vacant slot that ends the cluster. `slots` must be non-empty and,
/// as the load invariant guarantees, not full.
#[inline]
fn probe<K: Stored, V>(slots: &[Slot<K, V>], tag: u32, key: K) -> Result<usize, usize> {
    let mask = slots.len() - 1;
    let mut pos = tag as usize & mask;
    loop {
        let s = &slots[pos];
        if s.tag == VACANT {
            return Err(pos);
        }
        if s.tag == tag && s.key == key {
            return Ok(pos);
        }
        pos = (pos + 1) & mask;
    }
}

#[inline]
fn lookup<K: Stored, V>(slots: &[Slot<K, V>], hash: u64, key: K) -> Option<&V> {
    if slots.is_empty() {
        return None;
    }
    let pos = probe(slots, tag_of(hash), key).ok()?;
    Some(&slots[pos].val)
}

fn vacant<K: Stored, V: Default>(n: usize) -> Vec<Slot<K, V>> {
    let slot = || Slot {
        key: K::of(&Key::EMPTY),
        tag: VACANT,
        val: V::default(),
    };
    (0..n).map(|_| slot()).collect()
}

/// Moves the entries of `old`, in slot order, into the all-vacant `new`,
/// storing `key(k)` for each stored `k` (keys are never re-hashed: an
/// entry's home is in its tag).
fn reseat<K, W, V>(old: Vec<Slot<K, V>>, new: &mut [Slot<W, V>], key: impl Fn(K) -> W) {
    // Both are empty when a never-used table changes layout.
    let mask = new.len().wrapping_sub(1);
    for s in old.into_iter().filter(|s| s.tag != VACANT) {
        let mut pos = s.tag as usize & mask;
        while new[pos].tag != VACANT {
            pos = (pos + 1) & mask;
        }
        new[pos] = Slot {
            key: key(s.key),
            tag: s.tag,
            val: s.val,
        };
    }
}

#[inline]
fn upsert<'a, K: Stored, V: Default>(
    slots: &'a mut Vec<Slot<K, V>>,
    len: &mut usize,
    hash: u64,
    key: K,
    default: impl FnOnce() -> V,
) -> (&'a mut V, bool) {
    if (*len + 1) * 8 > slots.len() * 7 {
        let old = std::mem::replace(slots, vacant((slots.len() * 2).max(8)));
        reseat(old, slots, |k| k);
    }
    let tag = tag_of(hash);
    match probe(slots, tag, key) {
        Ok(pos) => (&mut slots[pos].val, false),
        Err(pos) => {
            slots[pos] = Slot {
                key,
                tag,
                val: default(),
            };
            *len += 1;
            (&mut slots[pos].val, true)
        }
    }
}

fn write_slots<K: Stored, V>(
    slots: &[Slot<K, V>],
    arity: u8,
    enc: &mut Encoder,
    mut put: impl FnMut(&mut Encoder, &V),
) {
    enc.put_usize(slots.len());
    for s in slots {
        enc.put_u32(s.tag);
        if s.tag != VACANT {
            s.key.put(enc, arity);
            put(enc, &s.val);
        }
    }
}

/// Reads a slot array and checks everything a probe relies on: a
/// power-of-two size, the 7/8 load bound (a fuller array has no vacant
/// slot to stop a miss at), and that a lookup of each entry ends on that
/// entry — not on a vacant slot before it (a later insert would then
/// duplicate the key) nor on an earlier copy of it.
fn read_slots<K: Stored, V: Default>(
    dec: &mut Decoder,
    len: usize,
    arity: u8,
    mut get: impl FnMut(&mut Decoder) -> Result<V, CodecError>,
) -> Result<Vec<Slot<K, V>>, CodecError> {
    let nslots = dec.seq_len(4)?;
    if nslots != 0 && !nslots.is_power_of_two() {
        return Err(CodecError::Corrupt("keymap slot count not a power of two"));
    }
    if len.saturating_mul(8) > nslots.saturating_mul(7) {
        return Err(CodecError::Corrupt("keymap load above 7/8"));
    }
    let mut slots = vacant(nslots);
    let mut occupied = 0usize;
    for s in slots.iter_mut() {
        s.tag = dec.u32()?;
        if s.tag != VACANT {
            occupied += 1;
            s.key = K::get(dec, arity)?;
            s.val = get(dec)?;
        }
    }
    if occupied != len {
        return Err(CodecError::Corrupt("keymap length disagrees with slots"));
    }
    for (pos, s) in slots.iter().enumerate() {
        // `tag_of` re-forces the top bit, so a tag stored without it fails
        // here too: no lookup could produce it.
        if s.tag != VACANT && probe(&slots, tag_of(s.tag.into()), s.key) != Ok(pos) {
            return Err(CodecError::Corrupt(
                "keymap entry not reachable from its home",
            ));
        }
    }
    Ok(slots)
}

impl<V: Copy + Default> KeyMap<V> {
    /// Number of keys.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no keys are present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up `key` under its precomputed `hash`.
    #[inline]
    pub fn get(&self, hash: u64, key: &Key) -> Option<&V> {
        match &self.table {
            Table::Narrow(arity, _) if key.arity() != *arity as usize => None,
            Table::Narrow(_, slots) => lookup(slots, hash, Stored::of(key)),
            Table::Wide(slots) => lookup(slots, hash, *key),
        }
    }

    /// Returns the value for `key`, inserting `default()` first when the
    /// key is absent. The `bool` is `true` when the entry was created.
    #[inline]
    pub fn get_or_insert_with(
        &mut self,
        hash: u64,
        key: Key,
        default: impl FnOnce() -> V,
    ) -> (&mut V, bool) {
        if matches!(self.table, Table::Narrow(arity, _) if key.arity() != arity as usize) {
            self.relayout(key.arity());
        }
        let len = &mut self.len;
        match &mut self.table {
            Table::Narrow(_, slots) => upsert(slots, len, hash, Stored::of(&key), default),
            Table::Wide(slots) => upsert(slots, len, hash, key, default),
        }
    }

    /// Makes room for a key of arity `wanted` in a narrow table of another
    /// arity: an empty table takes the layout that arity calls for; one
    /// with entries is rebuilt wide.
    #[cold]
    fn relayout(&mut self, wanted: usize) {
        let Table::Narrow(arity, old) = &mut self.table else {
            return;
        };
        if self.len == 0 && wanted <= 1 {
            *arity = wanted as u8;
            return;
        }
        let (arity, mut wide) = (*arity, vacant(old.len()));
        reseat(std::mem::take(old), &mut wide, |k| k.key(arity));
        self.table = Table::Wide(wide);
    }

    /// Iterates `(key, value)` pairs in slot order (deterministic for a
    /// fixed insertion sequence; not insertion order). Allocation-free:
    /// the exact-count pass walks every group table through this.
    pub fn iter(&self) -> impl Iterator<Item = (Key, &V)> {
        let (arity, narrow, wide) = match &self.table {
            Table::Narrow(arity, slots) => (*arity, &slots[..], &[][..]),
            Table::Wide(slots) => (0, &[][..], &slots[..]),
        };
        let narrow = narrow.iter().filter(|s| s.tag != VACANT);
        let wide = wide.iter().filter(|s| s.tag != VACANT);
        narrow
            .map(move |s| (s.key.key(arity), &s.val))
            .chain(wide.map(|s| (s.key, &s.val)))
    }

    /// Serializes the layout and the exact slot array — tags, keys and
    /// values in slot order — so a restored map probes identically and
    /// re-serializes to identical bytes. `put` encodes one value (`V`
    /// varies per table).
    pub fn snapshot_to(&self, enc: &mut Encoder, put: impl FnMut(&mut Encoder, &V)) {
        enc.put_usize(self.len);
        match &self.table {
            Table::Narrow(arity, slots) => {
                enc.put_u8(*arity);
                write_slots(slots, *arity, enc, put);
            }
            Table::Wide(slots) => {
                enc.put_u8(WIDE);
                write_slots(slots, 0, enc, put);
            }
        }
    }

    /// Reconstructs a map from [`snapshot_to`](KeyMap::snapshot_to) bytes;
    /// `get` decodes one value. An image no sequence of inserts could have
    /// produced is rejected as [`CodecError::Corrupt`].
    pub fn restore_from(
        dec: &mut Decoder,
        get: impl FnMut(&mut Decoder) -> Result<V, CodecError>,
    ) -> Result<KeyMap<V>, CodecError> {
        let len = dec.usize()?;
        let table = match dec.u8()? {
            arity @ 0..=1 => Table::Narrow(arity, read_slots(dec, len, arity, get)?),
            WIDE => Table::Wide(read_slots(dec, len, 0, get)?),
            _ => return Err(CodecError::Corrupt("keymap layout byte")),
        };
        Ok(KeyMap { table, len })
    }
}

impl<V> HeapSize for KeyMap<V> {
    fn heap_size(&self) -> usize {
        match &self.table {
            Table::Narrow(_, slots) => slots.capacity() * std::mem::size_of::<Slot<u64, V>>(),
            Table::Wide(slots) => slots.capacity() * std::mem::size_of::<Slot<Key, V>>(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fx_hash_one;

    fn k(vals: &[u64]) -> (Key, u64) {
        let key = Key::from_slice(vals);
        (key, fx_hash_one(&key))
    }

    #[test]
    fn insert_then_get() {
        let mut m: KeyMap<u32> = KeyMap::default();
        let (key, h) = k(&[1, 2]);
        assert!(m.get(h, &key).is_none());
        let (v, created) = m.get_or_insert_with(h, key, || 7);
        assert!(created);
        assert_eq!(*v, 7);
        let (v, created) = m.get_or_insert_with(h, key, || 9);
        assert!(!created);
        assert_eq!(*v, 7);
        assert_eq!(m.get(h, &key), Some(&7));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn survives_growth_and_collisions() {
        let mut m: KeyMap<u64> = KeyMap::default();
        for i in 0..10_000u64 {
            let (key, h) = k(&[i, i * 3]);
            let (_, created) = m.get_or_insert_with(h, key, || i);
            assert!(created, "{i}");
        }
        assert_eq!(m.len(), 10_000);
        for i in 0..10_000u64 {
            let (key, h) = k(&[i, i * 3]);
            assert_eq!(m.get(h, &key), Some(&i), "{i}");
        }
        let (missing, hm) = k(&[10_001, 0]);
        assert!(m.get(hm, &missing).is_none());
    }

    #[test]
    fn iteration_yields_every_entry_exactly_once() {
        let mut m: KeyMap<u64> = KeyMap::default();
        let keys: Vec<u64> = vec![9, 2, 77, 0, 5];
        for &x in &keys {
            let (key, h) = k(&[x]);
            m.get_or_insert_with(h, key, || x);
        }
        let mut seen: Vec<u64> = m.iter().map(|(_, &v)| v).collect();
        seen.sort_unstable();
        let mut expect = keys.clone();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    #[test]
    fn empty_key_is_a_valid_key() {
        let mut m: KeyMap<u32> = KeyMap::default();
        let h = fx_hash_one(&Key::EMPTY);
        m.get_or_insert_with(h, Key::EMPTY, || 42);
        assert_eq!(m.get(h, &Key::EMPTY), Some(&42));
    }

    #[test]
    fn zero_hash_is_distinguished_from_empty_slots() {
        // The tag bit keeps a key whose fx hash is literally 0 findable.
        let mut m: KeyMap<u32> = KeyMap::default();
        let key = Key::from_slice(&[123, 456]);
        m.get_or_insert_with(0, key, || 5);
        assert_eq!(m.get(0, &key), Some(&5));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn snapshot_round_trip_probes_and_rebytes_identically() {
        let mut m: KeyMap<u32> = KeyMap::default();
        for i in 0..500u64 {
            let (key, h) = k(&[i, i.wrapping_mul(31)]);
            m.get_or_insert_with(h, key, || i as u32);
        }
        let snap = |map: &KeyMap<u32>| {
            let mut e = crate::codec::Encoder::new();
            map.snapshot_to(&mut e, |e, v| e.put_u32(*v));
            e.into_bytes()
        };
        let bytes = snap(&m);
        let mut dec = crate::codec::Decoder::new(&bytes);
        let m2 = KeyMap::restore_from(&mut dec, |d| d.u32()).unwrap();
        dec.finish().unwrap();
        assert_eq!(m2.len(), m.len());
        for i in 0..500u64 {
            let (key, h) = k(&[i, i.wrapping_mul(31)]);
            assert_eq!(m2.get(h, &key), m.get(h, &key), "{i}");
        }
        assert_eq!(snap(&m2), bytes, "re-serialization drifted");
    }

    #[test]
    fn snapshot_rejects_inconsistent_length() {
        let mut m: KeyMap<u32> = KeyMap::default();
        let (key, h) = k(&[1]);
        m.get_or_insert_with(h, key, || 7);
        let mut e = crate::codec::Encoder::new();
        m.snapshot_to(&mut e, |e, v| e.put_u32(*v));
        let mut bytes = e.into_bytes();
        bytes[..8].copy_from_slice(&9u64.to_le_bytes()); // claim len 9
        let mut dec = crate::codec::Decoder::new(&bytes);
        assert!(KeyMap::<u32>::restore_from(&mut dec, |d| d.u32()).is_err());
    }

    #[test]
    fn heap_size_tracks_capacity() {
        let mut m: KeyMap<u32> = KeyMap::default();
        assert_eq!(m.heap_size(), 0);
        let mut w: KeyMap<u32> = KeyMap::default();
        for i in 0..100u64 {
            let (key, h) = k(&[i]);
            m.get_or_insert_with(h, key, || 0);
            let (key, h) = k(&[i, i]);
            w.get_or_insert_with(h, key, || 0);
        }
        // 100 keys at load ≤ 7/8 need 128 slots: 16 B narrow, 48 B wide.
        assert_eq!(m.heap_size(), 128 * 16);
        assert_eq!(w.heap_size(), 128 * 48);
    }
}
