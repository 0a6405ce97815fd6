//! An open-addressing set of `u32` ids that owns no key copy.
//!
//! A relation's set-semantics dedup needs "is this row already stored, and
//! under which id?". The rows already live in the relation's flat arena, so
//! a table that stores them again — or stores a full 64-bit hash plus a
//! posting list per row — pays twice for the same bytes. [`IdTable`] stores
//! one 8-byte `(hash32, id32)` slot per entry and nothing else: the caller
//! supplies the hash, and equality is an `eq(id)` closure that compares
//! against the caller's own arena.
//!
//! Layout: one flat power-of-two slot array, linear probing, load factor at
//! most 7/8. The stored tag is the *high* half of the caller's 64-bit hash
//! (fx hashes end in a multiply, so their high bits are the well-mixed
//! ones); an entry's home position is `tag & mask`, so growth re-seats
//! entries from stored tags without ever re-hashing a row. Removal is a
//! backward shift — later entries of the cluster slide into the hole —
//! so there are no tombstones and probe lengths stay bounded under any
//! amount of insert/remove churn.
//!
//! Nothing iterates or serializes the table: it is derived state, rebuilt
//! from the owner's arena, which is why its slot order (a function of the
//! whole insert/remove history) never reaches a snapshot image or a sample.

use crate::heap::HeapSize;

/// The id no entry may carry: it marks an empty slot.
pub const NO_ID: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Slot {
    tag: u32,
    id: u32,
}

const EMPTY: Slot = Slot { tag: 0, id: NO_ID };

// A field added or widened here is paid once per stored tuple.
const _: () = assert!(std::mem::size_of::<Slot>() == 8);

#[inline]
fn tag_of(hash: u64) -> u32 {
    (hash >> 32) as u32
}

/// Flat open-addressing table from caller-hashed, caller-compared rows to
/// `u32` ids.
#[derive(Clone, Debug, Default)]
pub struct IdTable {
    /// Power-of-two slot array (empty until the first insert).
    slots: Vec<Slot>,
    len: usize,
}

impl IdTable {
    /// An empty table sized so `n` entries fit without growing (a restore
    /// knows its live count up front).
    pub fn with_capacity(n: usize) -> IdTable {
        let slots = match n {
            0 => Vec::new(),
            _ => vec![EMPTY; (n * 8).div_ceil(7).next_power_of_two().max(8)],
        };
        IdTable { slots, len: 0 }
    }

    /// Walks the cluster at `hash`'s home: the slot of the entry with that
    /// tag for which `eq(id)` holds, or the empty slot that ends the
    /// cluster. The array must be non-empty (and, by the load invariant,
    /// never full).
    #[inline]
    fn probe(&self, hash: u64, mut eq: impl FnMut(u32) -> bool) -> Result<usize, usize> {
        let tag = tag_of(hash);
        let mask = self.slots.len() - 1;
        let mut pos = tag as usize & mask;
        loop {
            let s = self.slots[pos];
            if s.id == NO_ID {
                return Err(pos);
            }
            if s.tag == tag && eq(s.id) {
                return Ok(pos);
            }
            pos = (pos + 1) & mask;
        }
    }

    /// The stored id hashed to `hash` for which `eq(id)` holds.
    #[inline]
    pub fn find(&self, hash: u64, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(hash, eq).ok().map(|pos| self.slots[pos].id)
    }

    /// Stores `id` under `hash` unless an entry matching `eq` is already
    /// there, in which case that entry's id is returned and nothing changes.
    ///
    /// # Panics
    /// Panics if `id` is [`NO_ID`].
    #[inline]
    pub fn insert_if_absent(
        &mut self,
        hash: u64,
        id: u32,
        eq: impl FnMut(u32) -> bool,
    ) -> Option<u32> {
        assert!(id != NO_ID, "id u32::MAX is the table's empty marker");
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        match self.probe(hash, eq) {
            Ok(pos) => Some(self.slots[pos].id),
            Err(pos) => {
                self.slots[pos] = Slot {
                    tag: tag_of(hash),
                    id,
                };
                self.len += 1;
                None
            }
        }
    }

    /// Removes and returns the id hashed to `hash` for which `eq(id)`
    /// holds, closing the hole by backward shift.
    pub fn remove(&mut self, hash: u64, eq: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mut hole = self.probe(hash, eq).ok()?;
        let id = self.slots[hole].id;
        let mask = self.slots.len() - 1;
        let mut pos = hole;
        loop {
            pos = (pos + 1) & mask;
            let s = self.slots[pos];
            if s.id == NO_ID {
                break;
            }
            // `s` may move back into the hole unless its home lies
            // (cyclically) after the hole: then a probe from that home
            // would never pass the hole's position.
            let home = s.tag as usize & mask;
            if (pos.wrapping_sub(home) & mask) >= (pos.wrapping_sub(hole) & mask) {
                self.slots[hole] = s;
                hole = pos;
            }
        }
        self.slots[hole] = EMPTY;
        self.len -= 1;
        Some(id)
    }

    /// Doubles the slot array and re-seats every entry from its stored tag.
    #[cold]
    fn grow(&mut self) {
        let new_len = (self.slots.len() * 2).max(8);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; new_len]);
        let mask = new_len - 1;
        for s in old {
            if s.id == NO_ID {
                continue;
            }
            let mut pos = s.tag as usize & mask;
            while self.slots[pos].id != NO_ID {
                pos = (pos + 1) & mask;
            }
            self.slots[pos] = s;
        }
    }
}

impl HeapSize for IdTable {
    fn heap_size(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
    }
}
