//! Flat, arena-backed relations with set-semantics deduplication and
//! tombstone-based removal.
//!
//! A relation is three parallel pieces: the row arena, one tombstone byte
//! per row, and an [`IdTable`] of the live row ids for dedup. Only the
//! first two are state; the table is an index over them, kept in step by
//! `insert` / `remove` and rebuilt — and thereby verified — on restore.

use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::hash::fx_hash_one;
use rsj_common::idtable::NO_ID;
use rsj_common::{HeapSize, IdTable, TupleId, Value};

/// A relation instance: a growing arena of fixed-arity tuples.
///
/// Tuples are stored flattened (`data[id*arity .. (id+1)*arity]`), giving
/// cache-friendly scans and 4-byte tuple references. Set semantics are
/// enforced at insertion: re-inserting an existing tuple is a no-op, exactly
/// as the paper assumes ("we follow the set semantics, so inserting a tuple
/// into a relation that already has it has no effect").
///
/// Removal ([`Relation::remove`]) tombstones the slot instead of compacting:
/// ids stay stable and monotone, [`Relation::tuple`] keeps returning the
/// dead tuple's values (indexes unwind against them), and a later re-insert
/// of the same values gets a *fresh* id. [`Relation::len`] counts live
/// tuples only; [`Relation::num_slots`] counts all slots ever allocated.
///
/// # Memory
///
/// Per tuple: its values, one tombstone byte, and one 8-byte
/// `(hash32, id)` slot of the dedup [`IdTable`] at load ≤ 7/8 — the table
/// compares candidates against `data` itself, so no row is stored twice.
/// The table is derived state: it holds exactly the live ids, is never
/// iterated, and is left out of the snapshot image;
/// [`restore_from`](Relation::restore_from) rebuilds it from
/// `(data, dead)`.
#[derive(Clone, Debug)]
pub struct Relation {
    name: String,
    arity: usize,
    data: Vec<Value>,
    /// The live ids, addressed by content hash. Removal unlinks the id, so
    /// `contains`, duplicate detection and re-insertion all see the live
    /// set.
    dedup: IdTable,
    /// Tombstone flags, one per slot (`true` = deleted).
    dead: Vec<bool>,
    /// Number of live tuples (`num_slots - #tombstones`).
    live: usize,
}

impl Relation {
    /// Creates an empty relation.
    pub fn new(name: impl Into<String>, arity: usize) -> Relation {
        assert!(arity > 0, "relations must have at least one attribute");
        Relation {
            name: name.into(),
            arity,
            data: Vec::new(),
            dedup: IdTable::default(),
            dead: Vec::new(),
            live: 0,
        }
    }

    /// The relation's name (diagnostics only).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of attributes per tuple.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of live (not deleted) tuples.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Number of slots ever allocated, including tombstones. The next
    /// inserted tuple gets id `num_slots()`.
    pub fn num_slots(&self) -> usize {
        self.data.len() / self.arity
    }

    /// True when no live tuple is stored.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// True when the slot `id` holds a live tuple.
    #[inline]
    pub fn is_live(&self, id: TupleId) -> bool {
        !self.dead[id as usize]
    }

    /// Inserts a tuple, returning its id, or `None` if it was already
    /// present (set semantics).
    ///
    /// # Panics
    /// Panics if `tuple.len() != arity`, or if the relation has used up
    /// its `u32` ids.
    pub fn insert(&mut self, tuple: &[Value]) -> Option<TupleId> {
        assert_eq!(
            tuple.len(),
            self.arity,
            "arity mismatch inserting into {}",
            self.name
        );
        let h = fx_hash_one(&tuple);
        let id = next_id(self.num_slots());
        let (data, arity) = (&self.data, self.arity);
        if self
            .dedup
            .insert_if_absent(h, id, |o| row(data, arity, o) == tuple)
            .is_some()
        {
            return None;
        }
        self.data.extend_from_slice(tuple);
        self.dead.push(false);
        self.live += 1;
        Some(id)
    }

    /// Removes a tuple, returning the id it occupied, or `None` if it was
    /// not present (set semantics: deleting an absent tuple is a no-op).
    ///
    /// The slot is tombstoned, not reclaimed: the values remain readable
    /// through [`Relation::tuple`] so index unwinding can project them, and
    /// ids never get reused. Re-inserting the same values later allocates a
    /// fresh slot.
    ///
    /// # Panics
    /// Panics if `tuple.len() != arity`.
    pub fn remove(&mut self, tuple: &[Value]) -> Option<TupleId> {
        assert_eq!(
            tuple.len(),
            self.arity,
            "arity mismatch removing from {}",
            self.name
        );
        let (data, arity) = (&self.data, self.arity);
        let id = self
            .dedup
            .remove(fx_hash_one(&tuple), |o| row(data, arity, o) == tuple)?;
        self.dead[id as usize] = true;
        self.live -= 1;
        Some(id)
    }

    /// The tuple with the given id. Tombstoned slots keep their values
    /// readable (index unwinding projects them after removal).
    #[inline]
    pub fn tuple(&self, id: TupleId) -> &[Value] {
        row(&self.data, self.arity, id)
    }

    /// The id of `tuple` if it is currently stored (live): set semantics
    /// make the values name one live tuple.
    pub fn id_of(&self, tuple: &[Value]) -> Option<TupleId> {
        self.dedup
            .find(fx_hash_one(&tuple), |o| self.tuple(o) == tuple)
    }

    /// True if `tuple` is currently stored (live).
    pub fn contains(&self, tuple: &[Value]) -> bool {
        self.id_of(tuple).is_some()
    }

    /// Iterates over live `(id, tuple)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (TupleId, &[Value])> {
        self.data
            .chunks_exact(self.arity)
            .enumerate()
            .filter(|&(i, _)| !self.dead[i])
            .map(|(i, t)| (i as TupleId, t))
    }

    /// Serializes the relation's state: the tuple arena (tombstoned values
    /// included — ids must stay stable), the tombstone flags and the live
    /// count. The dedup table is derived from these and not written.
    pub fn snapshot_to(&self, enc: &mut Encoder) {
        enc.put_str(&self.name);
        enc.put_usize(self.arity);
        enc.put_u64s(&self.data);
        enc.put_bools(&self.dead);
        enc.put_usize(self.live);
    }

    /// Reconstructs a relation from [`snapshot_to`](Relation::snapshot_to)
    /// bytes, rebuilding the dedup table from the live rows. The rebuild
    /// checks what the table's users rely on: `live` is the number of
    /// untombstoned slots, and no row is live twice.
    pub fn restore_from(dec: &mut Decoder) -> Result<Relation, CodecError> {
        let name = dec.str()?.to_string();
        let arity = dec.usize()?;
        if arity == 0 {
            return Err(CodecError::Corrupt("relation arity zero"));
        }
        let data = dec.u64s()?;
        let dead = dec.bools()?;
        let live = dec.usize()?;
        if dead.len() >= NO_ID as usize || data.len() != dead.len().saturating_mul(arity) {
            return Err(CodecError::Corrupt("relation arena shape mismatch"));
        }
        if live != dead.iter().filter(|&&d| !d).count() {
            return Err(CodecError::Corrupt(
                "relation live count disagrees with tombstones",
            ));
        }
        let mut dedup = IdTable::with_capacity(live);
        for (id, t) in data.chunks_exact(arity).enumerate() {
            let same = |o| row(&data, arity, o) == t;
            if !dead[id]
                && dedup
                    .insert_if_absent(fx_hash_one(&t), id as TupleId, same)
                    .is_some()
            {
                return Err(CodecError::Corrupt("relation holds one row live twice"));
            }
        }
        Ok(Relation {
            name,
            arity,
            data,
            dedup,
            dead,
            live,
        })
    }

    /// [`HeapSize::heap_size`] by named part (the index's byte ledger).
    pub fn heap_parts(&self) -> [(&'static str, usize); 4] {
        [
            ("relation.data", self.data.heap_size()),
            ("relation.dedup", self.dedup.heap_size()),
            ("relation.tombstones", self.dead.heap_size()),
            ("relation.name", self.name.heap_size()),
        ]
    }
}

#[inline]
fn row(data: &[Value], arity: usize, id: TupleId) -> &[Value] {
    let start = id as usize * arity;
    &data[start..start + arity]
}

/// The id of the tuple after `slots` others: ids are `u32`, and
/// `u32::MAX` is the dedup table's empty marker.
#[inline]
fn next_id(slots: usize) -> TupleId {
    assert!(slots < NO_ID as usize, "relation out of u32 tuple ids");
    slots as TupleId
}

impl HeapSize for Relation {
    fn heap_size(&self) -> usize {
        self.heap_parts().iter().map(|&(_, bytes)| bytes).sum()
    }
}

/// A database instance: the relations of one query, indexed by position.
#[derive(Clone, Debug, Default)]
pub struct Database {
    relations: Vec<Relation>,
}

impl Database {
    /// Creates an empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Adds a relation, returning its index.
    pub fn add_relation(&mut self, name: impl Into<String>, arity: usize) -> usize {
        self.relations.push(Relation::new(name, arity));
        self.relations.len() - 1
    }

    /// The relation at `idx`.
    pub fn relation(&self, idx: usize) -> &Relation {
        &self.relations[idx]
    }

    /// Mutable access to the relation at `idx`.
    pub fn relation_mut(&mut self, idx: usize) -> &mut Relation {
        &mut self.relations[idx]
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True when the database has no relations.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Total number of stored tuples across all relations (the paper's `N`).
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }

    /// Iterates over the relations.
    pub fn iter(&self) -> impl Iterator<Item = &Relation> {
        self.relations.iter()
    }

    /// Serializes every relation (see [`Relation::snapshot_to`]).
    pub fn snapshot_to(&self, enc: &mut Encoder) {
        enc.put_usize(self.relations.len());
        for r in &self.relations {
            r.snapshot_to(enc);
        }
    }

    /// Reconstructs a database from [`snapshot_to`](Database::snapshot_to)
    /// bytes.
    pub fn restore_from(dec: &mut Decoder) -> Result<Database, CodecError> {
        let n = dec.seq_len(8)?;
        let relations = (0..n)
            .map(|_| Relation::restore_from(dec))
            .collect::<Result<_, _>>()?;
        Ok(Database { relations })
    }
}

impl HeapSize for Database {
    fn heap_size(&self) -> usize {
        self.relations
            .iter()
            .map(HeapSize::heap_size)
            .sum::<usize>()
            + self.relations.capacity() * std::mem::size_of::<Relation>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_round_trip_preserves_ids_tombstones_and_dedup() {
        let mut db = Database::new();
        db.add_relation("R", 2);
        db.add_relation("S", 1);
        for i in 0..200u64 {
            db.relation_mut(0).insert(&[i, i * 3]);
            db.relation_mut(1).insert(&[i % 17]);
        }
        for i in (0..200u64).step_by(3) {
            db.relation_mut(0).remove(&[i, i * 3]);
        }
        let snap = |d: &Database| {
            let mut e = Encoder::new();
            d.snapshot_to(&mut e);
            e.into_bytes()
        };
        let bytes = snap(&db);
        let mut dec = Decoder::new(&bytes);
        let db2 = Database::restore_from(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(db2.len(), 2);
        assert_eq!(db2.relation(0).len(), db.relation(0).len());
        assert_eq!(db2.relation(1).len(), 17);
        // Tuple ids survive: the same live pairs at the same slots.
        let live: Vec<_> = db.relation(0).iter().collect();
        let live2: Vec<_> = db2.relation(0).iter().collect();
        assert_eq!(live, live2);
        assert_eq!(snap(&db2), bytes, "re-serialization drifted");
        // The rebuilt dedup table still enforces set semantics and treats
        // tombstones identically: re-inserting a deleted tuple yields the
        // same fresh id in both copies.
        let mut db_a = db;
        let mut db_b = db2;
        assert_eq!(
            db_a.relation_mut(0).insert(&[0, 0]),
            db_b.relation_mut(0).insert(&[0, 0])
        );
        assert_eq!(
            db_a.relation_mut(0).insert(&[1, 3]),
            db_b.relation_mut(0).insert(&[1, 3])
        );
        assert_eq!(
            db_a.relation_mut(0).remove(&[4, 12]),
            db_b.relation_mut(0).remove(&[4, 12])
        );
    }

    #[test]
    fn snapshot_rejects_arena_shape_mismatch() {
        let mut r = Relation::new("R", 2);
        r.insert(&[1, 2]);
        let mut e = Encoder::new();
        r.snapshot_to(&mut e);
        let mut bytes = e.into_bytes();
        // Claim arity 3 over a 2-value arena: shape check must fire.
        let name_len = 8 + "R".len();
        bytes[name_len..name_len + 8].copy_from_slice(&3u64.to_le_bytes());
        assert!(Relation::restore_from(&mut Decoder::new(&bytes)).is_err());
    }

    #[test]
    #[should_panic(expected = "out of u32 tuple ids")]
    fn the_last_u32_is_not_a_tuple_id() {
        assert_eq!(next_id(u32::MAX as usize - 1), u32::MAX - 1);
        next_id(u32::MAX as usize);
    }

    #[test]
    fn insert_and_read_back() {
        let mut r = Relation::new("R", 2);
        let a = r.insert(&[1, 2]).unwrap();
        let b = r.insert(&[3, 4]).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(r.tuple(a), &[1, 2]);
        assert_eq!(r.tuple(b), &[3, 4]);
    }

    #[test]
    fn set_semantics_dedup() {
        let mut r = Relation::new("R", 2);
        assert!(r.insert(&[1, 2]).is_some());
        assert!(r.insert(&[1, 2]).is_none());
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[1, 2]));
        assert!(!r.contains(&[2, 1]));
    }

    #[test]
    fn dedup_survives_hash_collisions() {
        // Different tuples that may share a hash bucket must both insert.
        let mut r = Relation::new("R", 1);
        for v in 0..10_000u64 {
            assert!(r.insert(&[v]).is_some());
        }
        assert_eq!(r.len(), 10_000);
        for v in 0..10_000u64 {
            assert!(r.insert(&[v]).is_none());
        }
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        Relation::new("R", 2).insert(&[1]);
    }

    #[test]
    fn iteration_order_is_insertion_order() {
        let mut r = Relation::new("R", 1);
        for v in [5u64, 3, 9] {
            r.insert(&[v]);
        }
        let seen: Vec<Value> = r.iter().map(|(_, t)| t[0]).collect();
        assert_eq!(seen, vec![5, 3, 9]);
    }

    #[test]
    fn database_counts() {
        let mut db = Database::new();
        let r1 = db.add_relation("R1", 2);
        let r2 = db.add_relation("R2", 3);
        db.relation_mut(r1).insert(&[1, 2]);
        db.relation_mut(r2).insert(&[1, 2, 3]);
        db.relation_mut(r2).insert(&[4, 5, 6]);
        assert_eq!(db.len(), 2);
        assert_eq!(db.total_tuples(), 3);
        assert_eq!(db.relation(r2).name(), "R2");
    }

    #[test]
    fn remove_tombstones_and_allows_reinsert() {
        let mut r = Relation::new("R", 2);
        let a = r.insert(&[1, 2]).unwrap();
        let b = r.insert(&[3, 4]).unwrap();
        assert_eq!(r.remove(&[1, 2]), Some(a));
        assert_eq!(r.len(), 1);
        assert_eq!(r.num_slots(), 2);
        assert!(!r.is_live(a));
        assert!(r.is_live(b));
        assert!(!r.contains(&[1, 2]));
        // Values stay readable through the tombstone.
        assert_eq!(r.tuple(a), &[1, 2]);
        // Iteration skips the dead slot.
        let seen: Vec<TupleId> = r.iter().map(|(id, _)| id).collect();
        assert_eq!(seen, vec![b]);
        // Re-insert gets a fresh id past every old slot.
        assert_eq!(r.id_of(&[3, 4]), Some(b));
        assert_eq!(r.id_of(&[1, 2]), None);
        let c = r.insert(&[1, 2]).unwrap();
        assert_eq!(c, 2);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[1, 2]));
        assert_eq!(r.id_of(&[1, 2]), Some(c), "the live id, not the tombstone");
    }

    #[test]
    fn remove_absent_is_noop() {
        let mut r = Relation::new("R", 1);
        assert_eq!(r.remove(&[7]), None);
        r.insert(&[7]).unwrap();
        assert!(r.remove(&[7]).is_some());
        assert_eq!(r.remove(&[7]), None, "double delete");
        assert!(r.is_empty());
    }

    #[test]
    fn remove_survives_dedup_collisions() {
        let mut r = Relation::new("R", 1);
        for v in 0..1000u64 {
            r.insert(&[v]);
        }
        for v in (0..1000u64).step_by(2) {
            assert!(r.remove(&[v]).is_some(), "v={v}");
        }
        assert_eq!(r.len(), 500);
        for v in 0..1000u64 {
            assert_eq!(r.contains(&[v]), v % 2 == 1, "v={v}");
        }
    }

    #[test]
    fn heap_size_grows() {
        let mut r = Relation::new("R", 2);
        let before = r.heap_size();
        for v in 0..1000u64 {
            r.insert(&[v, v + 1]);
        }
        assert!(r.heap_size() > before + 1000 * 16);
    }
}
