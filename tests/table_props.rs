//! Differential property tests of the two hot-path tables against
//! `std::HashMap` models: `IdTable` (relation dedup) and `KeyMap` in both
//! of its slot layouts.

use proptest::collection::vec;
use proptest::prelude::*;
use rsjoin::common::codec::{CodecError, Decoder, Encoder};
use rsjoin::common::{fx_hash_one, HeapSize, IdTable, Key, KeyMap};
use std::collections::HashMap;

/// An `IdTable` beside the arena it indexes (`rows[id]`) and the model
/// `row -> id` map of what is live.
#[derive(Default)]
struct Dedup {
    table: IdTable,
    rows: Vec<u64>,
    live: HashMap<u64, u32>,
}

impl Dedup {
    fn insert(&mut self, row: u64, hash: u64) {
        let id = self.rows.len() as u32;
        let rows = &self.rows;
        let got = self
            .table
            .insert_if_absent(hash, id, |o| rows[o as usize] == row);
        assert_eq!(got, self.live.get(&row).copied(), "insert {row}");
        if got.is_none() {
            self.rows.push(row);
            self.live.insert(row, id);
        }
    }

    fn remove(&mut self, row: u64, hash: u64) {
        let rows = &self.rows;
        let got = self.table.remove(hash, |o| rows[o as usize] == row);
        assert_eq!(got, self.live.remove(&row), "remove {row}");
    }

    fn check(&self, universe: u64, hash_of: impl Fn(u64) -> u64) {
        for row in 0..universe {
            let got = self
                .table
                .find(hash_of(row), |o| self.rows[o as usize] == row);
            assert_eq!(got, self.live.get(&row).copied(), "find {row}");
        }
        // 8-byte slots at load ≤ 7/8: what every probe's termination and
        // the per-tuple footprint rest on.
        assert!(self.live.len() * 8 <= self.table.heap_size() / 8 * 7);
    }
}

proptest! {
    /// Rows whose home slots collide on purpose — `spread` distinct homes,
    /// the first of them the array's last slot — in a table that grows
    /// from 8 to 128 slots underneath them: clusters are long, wrap the
    /// array end, are split by growth, and are punched by removals that
    /// later inserts refill.
    #[test]
    fn idtable_matches_a_hashmap_under_forced_collisions(
        ops in vec((0u64..96, 0u8..3), 1..400),
        spread in 1u64..6,
        same_tag in any::<bool>(),
    ) {
        // The table homes an entry by the low bits of its hash's high half.
        let hash_of = move |row: u64| {
            let home = (row % spread) * 8 + 7;
            let rest = if same_tag { 0 } else { row << 8 };
            (home | rest) << 32
        };
        let mut d = Dedup::default();
        for (row, op) in ops {
            if op == 0 {
                d.remove(row, hash_of(row));
            } else {
                d.insert(row, hash_of(row));
            }
        }
        d.check(96, hash_of);
    }

    /// Real fx hashes, heavier removal: remove-then-reinsert hands out
    /// fresh ids and never resurrects a stale one.
    #[test]
    fn idtable_matches_a_hashmap_under_churn(ops in vec((0u64..40, any::<bool>()), 1..600)) {
        let hash_of = |row: u64| fx_hash_one(&row);
        let mut d = Dedup::default();
        for (row, insert) in ops {
            if insert {
                d.insert(row, hash_of(row));
            } else {
                d.remove(row, hash_of(row));
            }
        }
        d.check(40, hash_of);
    }
}

#[test]
fn idtable_with_capacity_fits_n_without_growing() {
    let mut t = IdTable::with_capacity(1000);
    let bytes = t.heap_size();
    for id in 0..1000u32 {
        assert_eq!(t.insert_if_absent((id as u64) << 32, id, |_| false), None);
    }
    assert_eq!(t.heap_size(), bytes);
    assert_eq!(IdTable::with_capacity(0).heap_size(), 0);
}

#[test]
#[should_panic(expected = "empty marker")]
fn idtable_refuses_its_sentinel_id() {
    IdTable::default().insert_if_absent(1, u32::MAX, |_| false);
}

fn image(m: &KeyMap<u32>) -> Vec<u8> {
    let mut e = Encoder::new();
    m.snapshot_to(&mut e, |e, v| e.put_u32(*v));
    e.into_bytes()
}

/// snapshot → restore → snapshot is the identity on bytes, and the
/// restored map iterates identically.
fn assert_round_trips(m: &KeyMap<u32>) {
    let bytes = image(m);
    let mut dec = Decoder::new(&bytes);
    let back = KeyMap::<u32>::restore_from(&mut dec, |d| d.u32()).unwrap();
    dec.finish().unwrap();
    assert_eq!(image(&back), bytes);
    assert!(back.iter().eq(m.iter()));
}

proptest! {
    /// One op sequence through a narrow table (keys `[v]`), a wide table
    /// (keys `[v, v]`) and a `HashMap`, all under the same — deliberately
    /// colliding — hash per `v`: same answers, and the same slot order in
    /// both layouts.
    #[test]
    fn keymap_layouts_agree_with_each_other_and_a_hashmap(
        ops in vec(0u64..80, 1..300),
        spread in 1u64..9,
    ) {
        let hash_of = |v: u64| (v % spread) * 5 + 6 + ((v / spread) << 40);
        let (mut narrow, mut wide) = (KeyMap::<u32>::default(), KeyMap::<u32>::default());
        let mut model: HashMap<u64, u32> = HashMap::new();
        for (i, v) in ops.into_iter().enumerate() {
            let h = hash_of(v);
            let fresh = !model.contains_key(&v);
            let want = *model.entry(v).or_insert(i as u32);
            let (&mut got, created) = narrow.get_or_insert_with(h, Key::single(v), || i as u32);
            prop_assert_eq!((got, created), (want, fresh));
            let (&mut got, created) = wide.get_or_insert_with(h, Key::from_slice(&[v, v]), || i as u32);
            prop_assert_eq!((got, created), (want, fresh));
        }
        prop_assert_eq!(narrow.len(), model.len());
        for v in 0..80 {
            let h = hash_of(v);
            prop_assert_eq!(narrow.get(h, &Key::single(v)), model.get(&v));
            prop_assert_eq!(wide.get(h, &Key::from_slice(&[v, v])), model.get(&v));
            // A key of the other arity is absent, not a false match.
            prop_assert_eq!(narrow.get(h, &Key::from_slice(&[v, v])), None);
        }
        let order = |m: &KeyMap<u32>| m.iter().map(|(k, &x)| (k.as_slice()[0], x)).collect::<Vec<_>>();
        prop_assert_eq!(order(&narrow), order(&wide));
        // 16-byte slots against 48-byte ones.
        prop_assert_eq!(narrow.heap_size() * 3, wide.heap_size());
        assert_round_trips(&narrow);
        assert_round_trips(&wide);
    }

    /// Keys of arity 0 (a root's group key), 1 and 2 in one table: it
    /// starts in whatever layout its first key calls for and widens when
    /// another arity arrives, without losing or confusing an entry.
    #[test]
    fn keymap_widens_on_mixed_arity(ops in vec((0u8..3, 0u64..24), 1..200)) {
        let mut map = KeyMap::<u32>::default();
        let mut model: HashMap<Vec<u64>, u32> = HashMap::new();
        let key_of = |arity: u8, v: u64| [v, v + 1][..arity as usize].to_vec();
        for (i, &(arity, v)) in ops.iter().enumerate() {
            let vals = key_of(arity, v);
            let key = Key::from_slice(&vals);
            let fresh = !model.contains_key(&vals);
            let want = *model.entry(vals).or_insert(i as u32);
            let (&mut got, created) = map.get_or_insert_with(fx_hash_one(&key), key, || i as u32);
            prop_assert_eq!((got, created), (want, fresh));
        }
        prop_assert_eq!(map.len(), model.len());
        for arity in 0..3 {
            for v in 0..24 {
                let vals = key_of(arity, v);
                let key = Key::from_slice(&vals);
                prop_assert_eq!(map.get(fx_hash_one(&key), &key), model.get(&vals));
            }
        }
        let seen: HashMap<Vec<u64>, u32> = map.iter().map(|(k, &x)| (k.as_slice().to_vec(), x)).collect();
        prop_assert_eq!(seen, model);
        assert_round_trips(&map);
    }
}

/// Encodes `m`, lets `edit` damage the bytes, and decodes.
fn restore_edited(
    m: &KeyMap<u32>,
    edit: impl FnOnce(&mut Vec<u8>),
) -> Result<KeyMap<u32>, CodecError> {
    let mut bytes = image(m);
    edit(&mut bytes);
    KeyMap::restore_from(&mut Decoder::new(&bytes), |d| d.u32())
}

/// Where the slots start in a narrow arity-1 image: after `len` (u64), the
/// layout byte and the slot count (u64). A slot is a u32 tag and, when
/// occupied, a u64 key and a u32 value.
const SLOTS_AT: usize = 17;

#[test]
fn keymap_restore_rejects_a_table_with_no_vacant_slot() {
    // Seven keys in eight slots is the fullest legal table; an image that
    // fills the eighth would make `get` of an absent key spin forever.
    let mut m: KeyMap<u32> = KeyMap::default();
    for i in 0..7u64 {
        m.get_or_insert_with(i, Key::single(i), || 0);
    }
    assert!(restore_edited(&m, |_| {}).is_ok());
    let err = restore_edited(&m, |b| {
        b[..8].copy_from_slice(&8u64.to_le_bytes());
        // Keys 0..7 sit at their homes, 16 bytes each; slot 7 is the
        // vacant one: give it tag 7, key 7 and a value.
        let at = SLOTS_AT + 7 * 16;
        b.splice(
            at..at + 4,
            [7, 0, 0, 0x80, 7, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        );
    });
    assert_eq!(
        err.unwrap_err(),
        CodecError::Corrupt("keymap load above 7/8")
    );
}

#[test]
fn keymap_restore_rejects_an_entry_a_lookup_would_not_find() {
    let unreachable = CodecError::Corrupt("keymap entry not reachable from its home");
    let mut m: KeyMap<u32> = KeyMap::default();
    m.get_or_insert_with(2, Key::single(9), || 1);
    // Re-tag the entry (slot 2) as hash 5: a lookup under hash 5 starts at
    // slot 5, finds it vacant, and a later insert duplicates key 9.
    let err = restore_edited(&m, |b| b[SLOTS_AT + 2 * 4] = 5);
    assert_eq!(err.unwrap_err(), unreachable);
    // The same entry with its occupied bit cleared: no lookup computes it.
    let err = restore_edited(&m, |b| b[SLOTS_AT + 2 * 4 + 3] = 0);
    assert_eq!(err.unwrap_err(), unreachable);
    // A second copy of one key later in its cluster is shadowed.
    m.get_or_insert_with(2, Key::single(10), || 2);
    let err = restore_edited(&m, |b| b[SLOTS_AT + 2 * 4 + 16 + 4] = 9);
    assert_eq!(err.unwrap_err(), unreachable);
    // And the layout byte is checked.
    let err = restore_edited(&m, |b| b[8] = 3);
    assert_eq!(err.unwrap_err(), CodecError::Corrupt("keymap layout byte"));
}
