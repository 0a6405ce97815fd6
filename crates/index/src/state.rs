//! Per-node index state: groups, weight buckets, and item bookkeeping.
//!
//! Within one rooted tree, every join-tree node `e` partitions its *items*
//! (base tuples, or group tuples under the §4.4 grouping optimization) into
//! groups by their `key(e)` value. Within a group, items live in buckets by
//! their *weight level*: item weight is the product of the children's
//! rounded counts (times `feq~` when grouped), always a power of two, so a
//! bucket at level `i` holds items of weight exactly `2^i` — the paper's
//! `Φ_i(t)` with `φ_i(t) = 2^i · |Φ_i(t)|`. A group's `cnt` is the sum of
//! its items' weights, maintained incrementally.
//!
//! Items whose weight is zero (some child key still unmatched) sit in a
//! separate zero list: they contribute nothing to `cnt` and are skipped by
//! retrieval, but must be reachable so a later child insertion can lift
//! them into a real bucket.
//!
//! # Memory layout
//!
//! All per-item storage — bucket membership, zero lists, child-index
//! posting lists, grouped base-tuple lists — lives in one
//! [`PostingArena`] per node ([`NodeState::postings`]). Maps store only a
//! `u32` handle; nothing on the insert path allocates a per-key heap
//! object. The maps themselves are [`KeyMap`]s addressed by precomputed fx
//! hashes, so the caller hashes each projected key exactly once per
//! insert. Arena lists iterate in append order and buckets keep
//! `swap_remove` position semantics, which is why this layout is invisible
//! to the sampling distribution (see `tests/golden_determinism.rs` at the
//! workspace root).

use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::postings::NO_LIST;
use rsj_common::{HeapSize, Key, KeyMap, ListId, PostingArena};

/// Index of an item within a node: a base [`TupleId`](rsj_common::TupleId)
/// for ungrouped nodes, or a group-tuple id for grouped nodes.
pub type ItemId = u32;

/// Identifier of a group within a node.
pub type GroupId = u32;

/// Where an item currently lives: 12 bytes, read on every propagation
/// loop iteration, so the weight level is packed as a code instead of an
/// 8-byte `Option<u32>`.
#[derive(Clone, Copy, Debug)]
pub struct ItemPos {
    /// Owning group.
    pub group: GroupId,
    /// Position within the bucket / zero list.
    pub pos: u32,
    /// Packed weight level: `0` for the zero list, else `level + 1`.
    level_code: u32,
}

// One per item per configuration, read on every propagation loop.
const _: () = assert!(std::mem::size_of::<ItemPos>() == 12);

impl ItemPos {
    /// Builds a position from a level (`Some(i)` = bucket `Φ_i`, `None` =
    /// zero list).
    #[inline]
    pub fn new(group: GroupId, level: Option<u32>, pos: u32) -> ItemPos {
        ItemPos {
            group,
            pos,
            level_code: level.map_or(0, |l| l + 1),
        }
    }

    /// Weight level: `Some(i)` for bucket `Φ_i`, `None` for the zero list.
    #[inline]
    pub fn level(&self) -> Option<u32> {
        match self.level_code {
            0 => None,
            c => Some(c - 1),
        }
    }
}

/// One weight bucket `Φ_i`: a level and the arena list holding its items.
#[derive(Clone, Copy, Debug)]
pub struct BucketRef {
    /// The level `i`; items here have weight `2^i`.
    pub level: u32,
    /// The bucket's item list in the node's [`PostingArena`].
    pub list: ListId,
}

/// One key group of a node.
#[derive(Clone, Debug)]
pub struct Group {
    /// The paper's `cnt[T, e, t]`: total weight of all bucketed items.
    pub cnt: u128,
    /// Cached `cnt~` level: `0` for an empty group, else `level + 1`.
    /// Maintained by [`Group::insert_item`] / [`Group::remove_item`], so
    /// the many `tilde_level` probes per insert are a field read instead
    /// of a `u128` bit scan.
    tilde_code: u8,
    /// Non-empty buckets, sorted ascending by level.
    pub buckets: Vec<BucketRef>,
    /// Items of weight zero ([`NO_LIST`] until the first zero item).
    pub zero: ListId,
}

impl Default for Group {
    fn default() -> Self {
        Group {
            cnt: 0,
            tilde_code: 0,
            buckets: Vec::new(),
            zero: NO_LIST,
        }
    }
}

impl Group {
    /// `cnt~`: the rounded count. Zero for an empty group.
    #[inline]
    pub fn cnt_tilde(&self) -> u128 {
        rsj_common::pow2::round_up_pow2(self.cnt)
    }

    /// Level of `cnt~` (`None` when `cnt == 0`).
    #[inline]
    pub fn tilde_level(&self) -> Option<u32> {
        match self.tilde_code {
            0 => None,
            c => Some(c as u32 - 1),
        }
    }

    #[inline]
    fn refresh_tilde(&mut self) {
        self.tilde_code = match rsj_common::pow2::level_of(self.cnt) {
            None => 0,
            Some(l) => l as u8 + 1,
        };
    }

    /// Inserts `item` at `level` (or the zero list), returning its position.
    pub fn insert_item(
        &mut self,
        postings: &mut PostingArena,
        item: ItemId,
        level: Option<u32>,
    ) -> u32 {
        match level {
            None => {
                if self.zero == NO_LIST {
                    self.zero = postings.new_list();
                }
                postings.push(self.zero, item);
                (postings.len(self.zero) - 1) as u32
            }
            Some(l) => {
                self.cnt += 1u128 << l;
                self.refresh_tilde();
                let idx = match self.buckets.binary_search_by_key(&l, |b| b.level) {
                    Ok(i) => i,
                    Err(i) => {
                        let list = postings.new_list();
                        self.buckets.insert(i, BucketRef { level: l, list });
                        i
                    }
                };
                let list = self.buckets[idx].list;
                postings.push(list, item);
                (postings.len(list) - 1) as u32
            }
        }
    }

    /// Removes the item at (`level`, `pos`), returning the id of the item
    /// that was moved into `pos` by the swap-remove (if any). The caller
    /// must update that item's stored position.
    pub fn remove_item(
        &mut self,
        postings: &mut PostingArena,
        level: Option<u32>,
        pos: u32,
    ) -> Option<ItemId> {
        match level {
            None => postings.swap_remove(self.zero, pos),
            Some(l) => {
                self.cnt -= 1u128 << l;
                self.refresh_tilde();
                let idx = self
                    .buckets
                    .binary_search_by_key(&l, |b| b.level)
                    .expect("bucket must exist");
                let list = self.buckets[idx].list;
                let moved = postings.swap_remove(list, pos);
                if postings.is_empty(list) {
                    postings.free_list(list);
                    self.buckets.remove(idx);
                }
                moved
            }
        }
    }

    /// Locates position `z < cnt` inside the bucketed items: returns
    /// `(item, within)` where `within < 2^level(item)` is the offset inside
    /// that item's conceptual sub-batch. This is the bucket scan of
    /// Algorithm 9 lines 15–18 (`O(#buckets + log len) = O(log N)` per
    /// call; the second term is the arena's chunk walk).
    pub fn locate(&self, postings: &PostingArena, z: u128) -> (ItemId, u128) {
        debug_assert!(z < self.cnt, "locate past cnt");
        let mut acc = 0u128;
        for b in &self.buckets {
            let width = (postings.len(b.list) as u128) << b.level;
            if z < acc + width {
                let off = z - acc;
                let j = (off >> b.level) as u32;
                let within = off & ((1u128 << b.level) - 1);
                return (postings.get(b.list, j), within);
            }
            acc += width;
        }
        unreachable!("z < cnt guaranteed a bucket");
    }

    /// Number of bucketed (non-zero-weight) items.
    pub fn bucketed_len(&self, postings: &PostingArena) -> usize {
        self.buckets.iter().map(|b| postings.len(b.list)).sum()
    }

    /// Number of zero-weight items.
    pub fn zero_len(&self, postings: &PostingArena) -> usize {
        if self.zero == NO_LIST {
            0
        } else {
            postings.len(self.zero)
        }
    }
}

impl HeapSize for Group {
    fn heap_size(&self) -> usize {
        // Item storage lives in the node's shared arena, accounted there.
        self.buckets.capacity() * std::mem::size_of::<BucketRef>()
    }
}

/// Grouped-node payload (§4.4): the distinct `ē`-projections with their
/// multiplicities and base-tuple lists.
#[derive(Clone, Debug, Default)]
pub struct GroupedData {
    /// `ē`-projection -> group-tuple id.
    pub map: KeyMap<ItemId>,
    /// Group-tuple `ē` values.
    pub ebar_vals: Vec<Key>,
    /// `feq[gt]`: number of base tuples projecting to this group tuple.
    pub feq: Vec<u64>,
    /// Base tuples per group tuple, in arrival order (positional access for
    /// Algorithm 11 line 22), as lists in the node's arena.
    pub base: Vec<ListId>,
}

impl GroupedData {
    /// Looks up or creates the group tuple for an `ē` projection (hashed by
    /// the caller). Returns `(id, created)`.
    pub fn intern(&mut self, postings: &mut PostingArena, hash: u64, ebar: Key) -> (ItemId, bool) {
        let next = self.ebar_vals.len() as ItemId;
        let (&mut id, created) = self.map.get_or_insert_with(hash, ebar, || next);
        if created {
            self.ebar_vals.push(ebar);
            self.feq.push(0);
            self.base.push(postings.new_list());
        }
        (id, created)
    }
}

impl HeapSize for GroupedData {
    fn heap_size(&self) -> usize {
        self.map.heap_size()
            + self.ebar_vals.heap_size()
            + self.feq.heap_size()
            + self.base.heap_size()
    }
}

/// Full per-node state within one rooted tree.
#[derive(Clone, Debug)]
pub struct NodeState {
    /// `key(e)` value -> group id.
    pub groups: KeyMap<GroupId>,
    /// Group arena.
    pub arena: Vec<Group>,
    /// Per-item location, indexed by [`ItemId`].
    pub item_pos: Vec<ItemPos>,
    /// For each child (by child index): `key(c)` value -> posting list of
    /// items of this node whose projection matches. Drives upward
    /// propagation (Algorithm 7 line 9).
    pub child_indexes: Vec<KeyMap<ListId>>,
    /// Backing storage for every item list of this node: buckets, zero
    /// lists, child-index postings, grouped base lists.
    pub postings: PostingArena,
    /// Whether this node runs the grouping optimization.
    pub grouped: bool,
    /// Grouping payload when `grouped`.
    pub grouped_data: GroupedData,
}

impl NodeState {
    /// Creates empty state for a node with `num_children` children.
    pub fn new(num_children: usize, grouped: bool) -> NodeState {
        NodeState {
            groups: KeyMap::default(),
            arena: Vec::new(),
            item_pos: Vec::new(),
            child_indexes: (0..num_children).map(|_| KeyMap::default()).collect(),
            postings: PostingArena::new(),
            grouped,
            grouped_data: GroupedData::default(),
        }
    }

    /// Group id for a key (hashed by the caller), creating an empty group
    /// when absent.
    pub fn group_for(&mut self, hash: u64, key: Key) -> GroupId {
        let next = self.arena.len() as GroupId;
        let (&mut g, created) = self.groups.get_or_insert_with(hash, key, || next);
        if created {
            self.arena.push(Group::default());
        }
        g
    }

    /// Group id for a key, if present.
    #[inline]
    pub fn group_id(&self, hash: u64, key: &Key) -> Option<GroupId> {
        self.groups.get(hash, key).copied()
    }

    /// The group for an existing id.
    #[inline]
    pub fn group(&self, id: GroupId) -> &Group {
        &self.arena[id as usize]
    }

    /// `cnt~` level of the group at `key` (`None` for missing/empty groups).
    #[inline]
    pub fn tilde_level_of(&self, hash: u64, key: &Key) -> Option<u32> {
        self.group_id(hash, key)
            .and_then(|g| self.arena[g as usize].tilde_level())
    }

    /// Appends `item` to the posting list of `key` in child index `ci`,
    /// creating the list on first use.
    pub fn child_index_push(&mut self, ci: usize, hash: u64, key: Key, item: ItemId) {
        let postings = &mut self.postings;
        let (&mut list, _) =
            self.child_indexes[ci].get_or_insert_with(hash, key, || postings.new_list());
        postings.push(list, item);
    }

    /// Unlinks `item` from the posting list of `key` in child index `ci`
    /// (the removal mirror of [`child_index_push`]). `O(list length)` — the
    /// position is found by scan, which is the deletion path's cost driver.
    /// Emptied lists stay mapped so a re-insert of the key reuses them.
    ///
    /// # Panics
    /// Panics if the item is not listed under the key (an index invariant
    /// violation).
    ///
    /// [`child_index_push`]: NodeState::child_index_push
    pub fn child_index_remove(&mut self, ci: usize, hash: u64, key: &Key, item: ItemId) {
        let &list = self.child_indexes[ci]
            .get(hash, key)
            .expect("deleted item's child key must be indexed");
        let pos = (0..self.postings.len(list) as u32)
            .find(|&i| self.postings.get(list, i) == item)
            .expect("deleted item must appear in its child posting list");
        self.postings.swap_remove(list, pos);
    }

    /// Removes an existing item from its group, fixing the displaced
    /// item's recorded position (the removal mirror of
    /// [`place_new_item`](NodeState::place_new_item)). The item's own
    /// `item_pos` slot goes stale — ids are never reused, so no reader can
    /// reach it afterwards.
    pub fn remove_existing_item(&mut self, item: ItemId) {
        let ip = self.item_pos[item as usize];
        let g = &mut self.arena[ip.group as usize];
        if let Some(moved) = g.remove_item(&mut self.postings, ip.level(), ip.pos) {
            self.item_pos[moved as usize].pos = ip.pos;
        }
    }

    /// Places a brand-new item into its group at `level` and records its
    /// position. `item` must equal `item_pos.len()`.
    pub fn place_new_item(&mut self, item: ItemId, group: GroupId, level: Option<u32>) {
        debug_assert_eq!(item as usize, self.item_pos.len());
        let pos = self.arena[group as usize].insert_item(&mut self.postings, item, level);
        self.item_pos.push(ItemPos::new(group, level, pos));
    }

    /// Serializes the node's complete physical state — group arena, item
    /// positions, bucket lists, child indexes, posting arena, grouping
    /// payload — exactly, so a restored node continues every future
    /// operation (and re-serializes) byte-identically. Physical layout is
    /// sample-relevant here: retrieval is positional within posting lists.
    pub fn snapshot_to(&self, enc: &mut Encoder) {
        self.groups.snapshot_to(enc, |e, g| e.put_u32(*g));
        enc.put_usize(self.arena.len());
        for g in &self.arena {
            enc.put_u128(g.cnt);
            enc.put_u8(g.tilde_code);
            enc.put_usize(g.buckets.len());
            for b in &g.buckets {
                enc.put_u32(b.level);
                enc.put_u32(b.list);
            }
            enc.put_u32(g.zero);
        }
        enc.put_usize(self.item_pos.len());
        for ip in &self.item_pos {
            enc.put_u32(ip.group);
            enc.put_u32(ip.pos);
            enc.put_u32(ip.level_code);
        }
        enc.put_usize(self.child_indexes.len());
        for ci in &self.child_indexes {
            ci.snapshot_to(enc, |e, l| e.put_u32(*l));
        }
        self.postings.snapshot_to(enc);
        enc.put_bool(self.grouped);
        self.grouped_data
            .map
            .snapshot_to(enc, |e, id| e.put_u32(*id));
        enc.put_usize(self.grouped_data.ebar_vals.len());
        for k in &self.grouped_data.ebar_vals {
            k.encode_to(enc);
        }
        enc.put_u64s(&self.grouped_data.feq);
        enc.put_u32s(&self.grouped_data.base);
    }

    /// Reconstructs node state from [`snapshot_to`](NodeState::snapshot_to)
    /// bytes.
    pub fn restore_from(dec: &mut Decoder) -> Result<NodeState, CodecError> {
        let groups = KeyMap::restore_from(dec, |d| d.u32())?;
        let narena = dec.seq_len(18)?;
        let mut arena = Vec::with_capacity(narena);
        for _ in 0..narena {
            let cnt = dec.u128()?;
            let tilde_code = dec.u8()?;
            let nbuckets = dec.seq_len(8)?;
            let mut buckets = Vec::with_capacity(nbuckets);
            let mut prev_level = None;
            for _ in 0..nbuckets {
                let level = dec.u32()?;
                if prev_level.is_some_and(|p| level <= p) {
                    return Err(CodecError::Corrupt("group buckets out of level order"));
                }
                prev_level = Some(level);
                buckets.push(BucketRef {
                    level,
                    list: dec.u32()?,
                });
            }
            arena.push(Group {
                cnt,
                tilde_code,
                buckets,
                zero: dec.u32()?,
            });
        }
        let nitems = dec.seq_len(12)?;
        let mut item_pos = Vec::with_capacity(nitems);
        for _ in 0..nitems {
            let group = dec.u32()?;
            if group as usize >= arena.len() {
                return Err(CodecError::Corrupt("item position group out of range"));
            }
            item_pos.push(ItemPos {
                group,
                pos: dec.u32()?,
                level_code: dec.u32()?,
            });
        }
        let nchildren = dec.seq_len(8)?;
        let child_indexes = (0..nchildren)
            .map(|_| KeyMap::restore_from(dec, |d| d.u32()))
            .collect::<Result<_, _>>()?;
        let postings = PostingArena::restore_from(dec)?;
        let grouped = dec.bool()?;
        let map = KeyMap::restore_from(dec, |d| d.u32())?;
        let nebar = dec.seq_len(9)?;
        let ebar_vals = (0..nebar)
            .map(|_| Key::decode_from(dec))
            .collect::<Result<Vec<_>, _>>()?;
        let feq = dec.u64s()?;
        let base = dec.u32s()?;
        if feq.len() != ebar_vals.len() || base.len() != ebar_vals.len() {
            return Err(CodecError::Corrupt("grouped payload length mismatch"));
        }
        Ok(NodeState {
            groups,
            arena,
            item_pos,
            child_indexes,
            postings,
            grouped,
            grouped_data: GroupedData {
                map,
                ebar_vals,
                feq,
                base,
            },
        })
    }

    /// Moves an existing item to a new level within its group, fixing the
    /// displaced item's position. `cnt` is adjusted internally by
    /// insert/remove (weights are implied by levels).
    pub fn move_item(&mut self, item: ItemId, new_level: Option<u32>) {
        let ip = self.item_pos[item as usize];
        let (group, level, pos) = (ip.group, ip.level(), ip.pos);
        if level == new_level {
            return;
        }
        let g = &mut self.arena[group as usize];
        if let Some(moved) = g.remove_item(&mut self.postings, level, pos) {
            self.item_pos[moved as usize].pos = pos;
        }
        let new_pos = self.arena[group as usize].insert_item(&mut self.postings, item, new_level);
        self.item_pos[item as usize] = ItemPos::new(group, new_level, new_pos);
    }

    /// [`HeapSize::heap_size`] by named part (the index's byte ledger).
    pub fn heap_parts(&self) -> [(&'static str, usize); 9] {
        let [posting_data, posting_chunks, posting_lists] = self.postings.heap_parts();
        let child_tables = self.child_indexes.capacity() * std::mem::size_of::<KeyMap<ListId>>()
            + self
                .child_indexes
                .iter()
                .map(HeapSize::heap_size)
                .sum::<usize>();
        [
            ("config.group_table", self.groups.heap_size()),
            (
                "config.group_arena",
                self.arena.capacity() * std::mem::size_of::<Group>(),
            ),
            (
                "config.bucket_vectors",
                self.arena.iter().map(HeapSize::heap_size).sum(),
            ),
            ("config.item_pos", self.item_pos.heap_size()),
            ("config.child_index_tables", child_tables),
            ("config.posting_data", posting_data),
            ("config.posting_chunks", posting_chunks),
            ("config.posting_lists", posting_lists),
            ("config.grouped_payload", self.grouped_data.heap_size()),
        ]
    }
}

impl HeapSize for NodeState {
    fn heap_size(&self) -> usize {
        self.heap_parts().iter().map(|&(_, bytes)| bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zero_items(g: &Group, a: &PostingArena) -> Vec<ItemId> {
        if g.zero == NO_LIST {
            Vec::new()
        } else {
            a.iter(g.zero).collect()
        }
    }

    #[test]
    fn group_insert_accumulates_cnt() {
        let mut a = PostingArena::new();
        let mut g = Group::default();
        g.insert_item(&mut a, 0, Some(0)); // weight 1
        g.insert_item(&mut a, 1, Some(2)); // weight 4
        g.insert_item(&mut a, 2, None); // zero
        assert_eq!(g.cnt, 5);
        assert_eq!(g.cnt_tilde(), 8);
        assert_eq!(g.tilde_level(), Some(3));
        assert_eq!(g.bucketed_len(&a), 2);
        assert_eq!(g.zero_len(&a), 1);
    }

    #[test]
    fn buckets_stay_sorted() {
        let mut a = PostingArena::new();
        let mut g = Group::default();
        for (item, level) in [(0u32, 5u32), (1, 1), (2, 3), (3, 1)] {
            g.insert_item(&mut a, item, Some(level));
        }
        let levels: Vec<u32> = g.buckets.iter().map(|b| b.level).collect();
        assert_eq!(levels, vec![1, 3, 5]);
        assert_eq!(g.cnt, 2 + 2 + 8 + 32);
    }

    #[test]
    fn locate_walks_buckets_in_level_order() {
        let mut a = PostingArena::new();
        let mut g = Group::default();
        g.insert_item(&mut a, 10, Some(0)); // 1 slot   [0]
        g.insert_item(&mut a, 11, Some(0)); // 1 slot   [1]
        g.insert_item(&mut a, 12, Some(2)); // 4 slots  [2..6)
        assert_eq!(g.locate(&a, 0), (10, 0));
        assert_eq!(g.locate(&a, 1), (11, 0));
        assert_eq!(g.locate(&a, 2), (12, 0));
        assert_eq!(g.locate(&a, 5), (12, 3));
    }

    #[test]
    fn remove_swaps_and_reports() {
        let mut a = PostingArena::new();
        let mut g = Group::default();
        g.insert_item(&mut a, 0, Some(1));
        g.insert_item(&mut a, 1, Some(1));
        g.insert_item(&mut a, 2, Some(1));
        // Remove position 0: item 2 swaps into it.
        let moved = g.remove_item(&mut a, Some(1), 0);
        assert_eq!(moved, Some(2));
        assert_eq!(g.cnt, 4);
        // Removing the last leaves None.
        let moved = g.remove_item(&mut a, Some(1), 1);
        assert_eq!(moved, None);
    }

    #[test]
    fn empty_bucket_is_dropped() {
        let mut a = PostingArena::new();
        let mut g = Group::default();
        g.insert_item(&mut a, 0, Some(3));
        g.remove_item(&mut a, Some(3), 0);
        assert!(g.buckets.is_empty());
        assert_eq!(g.cnt, 0);
        assert_eq!(g.tilde_level(), None);
    }

    fn hashed(key: Key) -> (u64, Key) {
        (rsj_common::fx_hash_one(&key), key)
    }

    #[test]
    fn node_state_move_item_updates_positions() {
        let mut ns = NodeState::new(0, false);
        let (h, key) = hashed(Key::single(7));
        let g = ns.group_for(h, key);
        ns.place_new_item(0, g, Some(0));
        ns.place_new_item(1, g, Some(0));
        ns.place_new_item(2, g, Some(0));
        assert_eq!(ns.group(g).cnt, 3);
        // Move item 0 to level 2; item 2 swaps into its slot.
        ns.move_item(0, Some(2));
        assert_eq!(ns.group(g).cnt, 2 + 4);
        let p2 = ns.item_pos[2];
        assert_eq!(p2.pos, 0);
        let p0 = ns.item_pos[0];
        assert_eq!(p0.level(), Some(2));
        // Every item findable through its recorded position.
        for item in 0..3u32 {
            let p = ns.item_pos[item as usize];
            let grp = ns.group(p.group);
            let found = match p.level() {
                None => ns.postings.get(grp.zero, p.pos),
                Some(l) => {
                    let b = grp.buckets.iter().find(|b| b.level == l).expect("bucket");
                    ns.postings.get(b.list, p.pos)
                }
            };
            assert_eq!(found, item);
        }
    }

    #[test]
    fn move_to_same_level_is_noop() {
        let mut ns = NodeState::new(0, false);
        let (h, key) = hashed(Key::EMPTY);
        let g = ns.group_for(h, key);
        ns.place_new_item(0, g, Some(1));
        ns.move_item(0, Some(1));
        assert_eq!(ns.group(g).cnt, 2);
        assert_eq!(ns.item_pos[0].pos, 0);
    }

    #[test]
    fn zero_list_transitions() {
        let mut ns = NodeState::new(0, false);
        let (h, key) = hashed(Key::EMPTY);
        let g = ns.group_for(h, key);
        ns.place_new_item(0, g, None);
        assert_eq!(ns.group(g).cnt, 0);
        ns.move_item(0, Some(4));
        assert_eq!(ns.group(g).cnt, 16);
        assert_eq!(ns.group(g).zero_len(&ns.postings), 0);
        ns.move_item(0, None);
        assert_eq!(ns.group(g).cnt, 0);
        assert_eq!(zero_items(ns.group(g), &ns.postings), vec![0]);
    }

    #[test]
    fn remove_existing_item_fixes_displaced_position() {
        let mut ns = NodeState::new(1, false);
        let (h, key) = hashed(Key::single(7));
        let g = ns.group_for(h, key);
        for item in 0..3u32 {
            ns.place_new_item(item, g, Some(1));
            ns.child_index_push(0, h, key, item);
        }
        // Remove the middle item: item 2 swaps into its bucket slot.
        ns.remove_existing_item(1);
        assert_eq!(ns.group(g).cnt, 4);
        assert_eq!(ns.item_pos[2].pos, 1);
        ns.child_index_remove(0, h, &key, 1);
        let left: Vec<ItemId> = ns
            .postings
            .iter(*ns.child_indexes[0].get(h, &key).unwrap())
            .collect();
        assert_eq!(left, vec![0, 2]);
        // Emptied group is reusable: removing the rest leaves cnt 0.
        ns.remove_existing_item(0);
        ns.remove_existing_item(2);
        assert_eq!(ns.group(g).cnt, 0);
        assert_eq!(ns.group(g).tilde_level(), None);
    }

    #[test]
    fn node_snapshot_round_trips_byte_identically() {
        let mut ns = NodeState::new(2, true);
        let (h, key) = hashed(Key::single(7));
        let g = ns.group_for(h, key);
        for item in 0..6u32 {
            ns.place_new_item(item, g, if item == 5 { None } else { Some(item % 3) });
            ns.child_index_push((item % 2) as usize, h, key, item);
        }
        ns.move_item(0, Some(4));
        ns.remove_existing_item(3);
        let (h2, k2) = hashed(Key::single(9));
        let (_, created) = ns.grouped_data.intern(&mut ns.postings, h2, k2);
        assert!(created);
        let snap = |n: &NodeState| {
            let mut e = Encoder::new();
            n.snapshot_to(&mut e);
            e.into_bytes()
        };
        let bytes = snap(&ns);
        let mut dec = Decoder::new(&bytes);
        let mut ns2 = NodeState::restore_from(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(snap(&ns2), bytes, "re-serialization drifted");
        // Identical further mutation keeps the copies in lockstep.
        ns.move_item(1, Some(5));
        ns2.move_item(1, Some(5));
        ns.remove_existing_item(4);
        ns2.remove_existing_item(4);
        assert_eq!(snap(&ns2), snap(&ns));
        assert_eq!(ns2.group(g).cnt, ns.group(g).cnt);
    }

    #[test]
    fn node_snapshot_rejects_out_of_range_group() {
        let mut ns = NodeState::new(0, false);
        let (h, key) = hashed(Key::single(1));
        let g = ns.group_for(h, key);
        ns.place_new_item(0, g, Some(0));
        let mut e = Encoder::new();
        ns.snapshot_to(&mut e);
        let bytes = e.into_bytes();
        // item_pos[0].group sits right after the groups map, the 1-group
        // arena and the item count; easier: scan for the known u32 triple.
        // The group id is 0; corrupt it to 9 by finding the item section.
        // Locate it deterministically by re-encoding with a poisoned group.
        let mut poisoned = NodeState::new(0, false);
        let gp = poisoned.group_for(h, key);
        poisoned.place_new_item(0, gp, Some(0));
        poisoned.item_pos[0].group = 9;
        let mut ep = Encoder::new();
        poisoned.snapshot_to(&mut ep);
        let poisoned_bytes = ep.into_bytes();
        assert_ne!(poisoned_bytes, bytes);
        assert!(NodeState::restore_from(&mut Decoder::new(&poisoned_bytes)).is_err());
    }

    #[test]
    fn grouped_data_interning() {
        let mut a = PostingArena::new();
        let mut gd = GroupedData::default();
        let (h1, k1) = hashed(Key::single(1));
        let (a_id, created) = gd.intern(&mut a, h1, k1);
        assert!(created);
        let (b_id, created) = gd.intern(&mut a, h1, k1);
        assert!(!created);
        assert_eq!(a_id, b_id);
        let (h2, k2) = hashed(Key::single(2));
        let (c_id, _) = gd.intern(&mut a, h2, k2);
        assert_ne!(a_id, c_id);
        assert_eq!(gd.ebar_vals.len(), 2);
    }
}
