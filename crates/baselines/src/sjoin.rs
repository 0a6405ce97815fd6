//! `SJoin` — re-implementation of Zhao et al. \[31\], the state of the art
//! the paper compares against.
//!
//! Same architecture as `RSJoin` (Figure 1): per-tuple delta batches fed to
//! a skip-based reservoir. The difference is the index: SJoin maintains
//! **exact** sub-join counts, so its batches are exactly `ΔQ(R,t)` —
//! 1-dense, no dummies, and the reservoir never wastes a stop. The price is
//! update cost: exact counts change on *every* insert, so every insert
//! re-weights all matching ancestor items all the way to the root — `O(N)`
//! per update in the worst case (degenerate skew), the `O(N²)` total the
//! paper's experiments exhibit on line-5 and QZ.
//!
//! Positional access into exact groups uses a growable [`Fenwick`] tree per
//! group (`O(log n)` locate and re-weight).

use crate::fenwick::Fenwick;
use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::{FxHashMap, Key, TupleId, Value};
use rsj_query::{Query, RootedTree};
use rsj_storage::Database;
use rsj_stream::{FnBatch, Reservoir, Rows};

/// Instrumentation counters for SJoin.
#[derive(Clone, Copy, Debug, Default)]
pub struct SJoinStats {
    /// Tuples accepted.
    pub inserts: u64,
    /// Tuples deleted (present at deletion time).
    pub deletes: u64,
    /// Ancestor item re-weights performed (the update-cost driver).
    pub item_updates: u64,
}

struct ExactGroup {
    items: Vec<TupleId>,
    weights: Fenwick,
}

impl ExactGroup {
    fn new() -> ExactGroup {
        ExactGroup {
            items: Vec::new(),
            weights: Fenwick::new(),
        }
    }

    #[inline]
    fn cnt(&self) -> u128 {
        self.weights.total()
    }
}

struct ExactNode {
    groups: FxHashMap<Key, u32>,
    group_keys: Vec<Key>,
    arena: Vec<ExactGroup>,
    /// Per tuple: (group, position within group).
    item_loc: Vec<(u32, u32)>,
    /// Per child: key(c) value -> matching tuples of this node.
    child_indexes: Vec<FxHashMap<Key, Vec<TupleId>>>,
}

impl ExactNode {
    fn new(num_children: usize) -> ExactNode {
        ExactNode {
            groups: FxHashMap::default(),
            group_keys: Vec::new(),
            arena: Vec::new(),
            item_loc: Vec::new(),
            child_indexes: vec![FxHashMap::default(); num_children],
        }
    }

    fn group_for(&mut self, key: Key) -> u32 {
        if let Some(&g) = self.groups.get(&key) {
            return g;
        }
        let g = self.arena.len() as u32;
        self.groups.insert(key, g);
        self.group_keys.push(key);
        self.arena.push(ExactGroup::new());
        g
    }

    #[inline]
    fn cnt_of(&self, key: &Key) -> u128 {
        self.groups
            .get(key)
            .map_or(0, |&g| self.arena[g as usize].cnt())
    }

    /// Serializes the node's exact physical layout. Group ids and item
    /// positions are positional (retrieval walks `arena[g].items[pos]`), so
    /// `group_keys` and the per-group item vectors go out in storage order.
    /// `child_indexes` maps are never iterated for behavior (propagation
    /// re-weights each listed tuple from final child state, order-free), so
    /// their entries are emitted sorted by key for a canonical byte image.
    fn snapshot_to(&self, enc: &mut Encoder) {
        enc.put_usize(self.group_keys.len());
        for k in &self.group_keys {
            k.encode_to(enc);
        }
        for g in &self.arena {
            enc.put_u32s(&g.items);
            g.weights.snapshot_to(enc);
        }
        enc.put_usize(self.item_loc.len());
        for &(g, pos) in &self.item_loc {
            enc.put_u32(g);
            enc.put_u32(pos);
        }
        enc.put_usize(self.child_indexes.len());
        for m in self.child_indexes.iter() {
            let mut entries: Vec<(&Key, &Vec<TupleId>)> = m.iter().collect();
            entries.sort_unstable_by(|a, b| a.0.as_slice().cmp(b.0.as_slice()));
            enc.put_usize(entries.len());
            for (k, list) in entries {
                k.encode_to(enc);
                enc.put_u32s(list);
            }
        }
    }

    /// Rebuilds a node from a [`ExactNode::snapshot_to`] image. The
    /// `groups` map is reconstructed from `group_keys` (group ids are the
    /// storage positions).
    fn restore_from(dec: &mut Decoder) -> Result<ExactNode, CodecError> {
        let ng = dec.seq_len(1)?;
        let mut group_keys = Vec::with_capacity(ng);
        let mut groups = FxHashMap::default();
        for g in 0..ng {
            let k = Key::decode_from(dec)?;
            if groups.insert(k, g as u32).is_some() {
                return Err(CodecError::Corrupt("duplicate group key in node snapshot"));
            }
            group_keys.push(k);
        }
        let mut arena = Vec::with_capacity(ng);
        for _ in 0..ng {
            let items = dec.u32s()?;
            let weights = Fenwick::restore_from(dec)?;
            if weights.len() != items.len() {
                return Err(CodecError::Corrupt("group item/weight length mismatch"));
            }
            arena.push(ExactGroup { items, weights });
        }
        let nloc = dec.seq_len(8)?;
        let mut item_loc = Vec::with_capacity(nloc);
        for _ in 0..nloc {
            let g = dec.u32()?;
            let pos = dec.u32()?;
            let valid = arena
                .get(g as usize)
                .is_some_and(|grp| (pos as usize) < grp.items.len());
            if !valid {
                return Err(CodecError::Corrupt("item location out of range"));
            }
            item_loc.push((g, pos));
        }
        let nc = dec.seq_len(1)?;
        let mut child_indexes = Vec::with_capacity(nc);
        for _ in 0..nc {
            let ne = dec.seq_len(1)?;
            let mut m: FxHashMap<Key, Vec<TupleId>> = FxHashMap::default();
            for _ in 0..ne {
                let k = Key::decode_from(dec)?;
                let list = dec.u32s()?;
                if m.insert(k, list).is_some() {
                    return Err(CodecError::Corrupt("duplicate child-index key"));
                }
            }
            child_indexes.push(m);
        }
        Ok(ExactNode {
            groups,
            group_keys,
            arena,
            item_loc,
            child_indexes,
        })
    }

    fn heap_size(&self) -> usize {
        use rsj_common::HeapSize;
        self.groups.heap_size()
            + self.group_keys.heap_size()
            + self
                .arena
                .iter()
                .map(|g| g.items.heap_size() + g.weights.heap_size())
                .sum::<usize>()
            + self.item_loc.heap_size()
            + self
                .child_indexes
                .iter()
                .map(|m| m.heap_size() + m.values().map(HeapSize::heap_size).sum::<usize>())
                .sum::<usize>()
    }
}

struct ExactTree {
    tree: RootedTree,
    nodes: Vec<ExactNode>,
}

/// The exact-count index behind SJoin.
pub struct SJoinIndex {
    query: Query,
    db: Database,
    trees: Vec<ExactTree>,
    stats: SJoinStats,
}

impl SJoinIndex {
    /// Builds an empty exact index for an acyclic query.
    pub fn new(query: Query) -> Result<SJoinIndex, String> {
        let jt = rsj_query::JoinTree::build(&query).ok_or("query is cyclic")?;
        let rooted = rsj_query::rooted::all_rooted_trees(&query, &jt).map_err(|e| e.to_string())?;
        let mut db = Database::new();
        for r in query.relations() {
            db.add_relation(r.name.clone(), r.attrs.len());
        }
        let trees = rooted
            .into_iter()
            .map(|tree| {
                let nodes = (0..query.num_relations())
                    .map(|rel| ExactNode::new(tree.node(rel).children.len()))
                    .collect();
                ExactTree { tree, nodes }
            })
            .collect();
        Ok(SJoinIndex {
            query,
            db,
            trees,
            stats: SJoinStats::default(),
        })
    }

    /// The query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Tuple storage.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Counters.
    pub fn stats(&self) -> SJoinStats {
        self.stats
    }

    /// Exact `|Q(R)|` (root-group total of the first rooted tree).
    pub fn total_results(&self) -> u128 {
        let ts = &self.trees[0];
        ts.nodes[ts.tree.root()].cnt_of(&Key::EMPTY)
    }

    /// Inserts a tuple; `None` for duplicates.
    pub fn insert(&mut self, rel: usize, tuple: &[Value]) -> Option<TupleId> {
        let tid = self.db.relation_mut(rel).insert(tuple)?;
        self.stats.inserts += 1;
        for ti in 0..self.trees.len() {
            let mut updates = 0u64;
            exact_insert(&mut self.trees[ti], &self.db, rel, tid, &mut updates);
            self.stats.item_updates += updates;
        }
        Some(tid)
    }

    /// Deletes a tuple; `None` if absent (set semantics). The exact mirror
    /// of [`insert`](SJoinIndex::insert): the tuple's weight drops to zero
    /// in every rooted tree and exact count decreases propagate
    /// unconditionally — the same `O(N)`-worst-case cost profile as
    /// insertion. The slot stays in its group as a permanent zero
    /// (positional search skips zero weights).
    pub fn delete(&mut self, rel: usize, tuple: &[Value]) -> Option<TupleId> {
        let tid = self.db.relation_mut(rel).remove(tuple)?;
        self.stats.deletes += 1;
        for ti in 0..self.trees.len() {
            let mut updates = 0u64;
            exact_delete(&mut self.trees[ti], &self.db, rel, tid, &mut updates);
            self.stats.item_updates += updates;
        }
        Some(tid)
    }

    /// The join result at position `z < total_results()` of the full
    /// current result array — exact positional access, no dummies, so one
    /// uniform draw of `z` is one uniform join result (the turnstile
    /// repair path).
    pub fn result_at(&self, z: u128) -> Vec<(usize, TupleId)> {
        let ts = &self.trees[0];
        exact_retrieve_group(ts, &self.db, ts.tree.root(), &Key::EMPTY, z)
    }

    /// Exact delta size of the tuple just inserted into `rel`.
    pub fn delta_size(&self, rel: usize, tid: TupleId) -> u128 {
        let ts = &self.trees[rel];
        let (g, pos) = ts.nodes[rel].item_loc[tid as usize];
        ts.nodes[rel].arena[g as usize].weights.weight(pos as usize)
    }

    /// The join result at position `z` of the exact delta batch of
    /// `(rel, tid)`. Always a real result (`z < delta_size`).
    pub fn delta_retrieve(&self, rel: usize, tid: TupleId, z: u128) -> Vec<(usize, TupleId)> {
        let ts = &self.trees[rel];
        exact_retrieve_tuple(ts, &self.db, rel, tid, z)
    }

    /// Materializes a result into a full-width value tuple.
    pub fn materialize(&self, result: &[(usize, TupleId)]) -> Vec<Value> {
        let mut out = vec![0; self.query.num_attrs()];
        self.materialize_into(result, &mut out);
        out
    }

    /// Materializes a result into `row`, a full-width value tuple (a
    /// sample row of the reservoir's flat buffer). A result names every
    /// relation, so all of `row` is overwritten.
    pub fn materialize_into(&self, result: &[(usize, TupleId)], row: &mut [Value]) {
        for &(rel, tid) in result {
            let tuple = self.db.tuple(rel, tid);
            for (pos, &attr) in self.query.relation(rel).attrs.iter().enumerate() {
                row[attr] = tuple[pos];
            }
        }
    }

    /// Estimated heap bytes.
    pub fn heap_size(&self) -> usize {
        use rsj_common::HeapSize;
        self.db.heap_size()
            + self
                .trees
                .iter()
                .map(|t| t.nodes.iter().map(ExactNode::heap_size).sum::<usize>())
                .sum::<usize>()
    }

    /// Serializes the full dynamic state: database, every rooted tree's
    /// exact nodes, and counters. The rooted-tree topology is a pure
    /// function of the query and is rebuilt on restore.
    pub fn snapshot_to(&self, enc: &mut Encoder) {
        self.db.snapshot_to(enc);
        enc.put_usize(self.trees.len());
        for t in &self.trees {
            for n in &t.nodes {
                n.snapshot_to(enc);
            }
        }
        enc.put_u64(self.stats.inserts);
        enc.put_u64(self.stats.deletes);
        enc.put_u64(self.stats.item_updates);
    }

    /// Restores from a [`SJoinIndex::snapshot_to`] image taken by an index
    /// built over the same query. The receiver is unchanged on error.
    pub fn restore_from_snapshot(&mut self, dec: &mut Decoder) -> Result<(), CodecError> {
        let db = Database::restore_from(dec)?;
        if db.len() != self.query.num_relations() {
            return Err(CodecError::Corrupt("snapshot relation count mismatch"));
        }
        for rel in 0..db.len() {
            if db.relation(rel).arity() != self.query.relation(rel).attrs.len() {
                return Err(CodecError::Corrupt("snapshot relation arity mismatch"));
            }
        }
        let nt = dec.seq_len(1)?;
        if nt != self.trees.len() {
            return Err(CodecError::Corrupt("snapshot rooted-tree count mismatch"));
        }
        let mut restored: Vec<Vec<ExactNode>> = Vec::with_capacity(nt);
        for t in &self.trees {
            let mut nodes = Vec::with_capacity(self.query.num_relations());
            for rel in 0..self.query.num_relations() {
                let n = ExactNode::restore_from(dec)?;
                if n.child_indexes.len() != t.tree.node(rel).children.len() {
                    return Err(CodecError::Corrupt("snapshot node child-count mismatch"));
                }
                nodes.push(n);
            }
            restored.push(nodes);
        }
        let stats = SJoinStats {
            inserts: dec.u64()?,
            deletes: dec.u64()?,
            item_updates: dec.u64()?,
        };
        self.db = db;
        for (t, nodes) in self.trees.iter_mut().zip(restored) {
            t.nodes = nodes;
        }
        self.stats = stats;
        Ok(())
    }
}

/// Small helper so `materialize` reads cleanly.
trait TupleAccess {
    fn tuple(&self, rel: usize, tid: TupleId) -> &[Value];
}

impl TupleAccess for Database {
    fn tuple(&self, rel: usize, tid: TupleId) -> &[Value] {
        self.relation(rel).tuple(tid)
    }
}

fn exact_insert(ts: &mut ExactTree, db: &Database, rel: usize, tid: TupleId, updates: &mut u64) {
    let tuple = db.relation(rel).tuple(tid);
    let info = ts.tree.node(rel);
    let group_key = Key::project(tuple, &info.key_positions);
    let child_keys: Vec<Key> = info
        .child_key_positions
        .iter()
        .map(|ps| Key::project(tuple, ps))
        .collect();
    let weight = exact_weight(ts, rel, &child_keys);
    let node = &mut ts.nodes[rel];
    for (ci, k) in child_keys.iter().enumerate() {
        node.child_indexes[ci].entry(*k).or_default().push(tid);
    }
    let g = node.group_for(group_key);
    let grp = &mut node.arena[g as usize];
    let pos = grp.items.len() as u32;
    grp.items.push(tid);
    grp.weights.push(weight);
    node.item_loc.push((g, pos));
    if weight > 0 {
        // Exact counts changed: propagate unconditionally (the SJoin cost).
        exact_propagate(ts, db, rel, group_key, updates);
    }
}

fn exact_delete(ts: &mut ExactTree, db: &Database, rel: usize, tid: TupleId, updates: &mut u64) {
    // The tombstoned slot keeps its values readable — project them to find
    // every registration.
    let tuple = db.relation(rel).tuple(tid);
    let info = ts.tree.node(rel);
    let group_key = Key::project(tuple, &info.key_positions);
    let child_keys: Vec<Key> = info
        .child_key_positions
        .iter()
        .map(|ps| Key::project(tuple, ps))
        .collect();
    let node = &mut ts.nodes[rel];
    for (ci, k) in child_keys.iter().enumerate() {
        let list = node.child_indexes[ci]
            .get_mut(k)
            .expect("deleted tuple's child key must be indexed");
        let pos = list
            .iter()
            .position(|&t| t == tid)
            .expect("deleted tuple must be listed under its child key");
        list.swap_remove(pos);
    }
    let (g, pos) = node.item_loc[tid as usize];
    let grp = &mut node.arena[g as usize];
    let had_weight = grp.weights.weight(pos as usize) > 0;
    grp.weights.set(pos as usize, 0);
    if had_weight {
        // Exact counts changed: propagate unconditionally (the SJoin cost).
        exact_propagate(ts, db, rel, group_key, updates);
    }
}

fn exact_weight(ts: &ExactTree, rel: usize, child_keys: &[Key]) -> u128 {
    let info = ts.tree.node(rel);
    let mut w = 1u128;
    for (ci, k) in child_keys.iter().enumerate() {
        let c = info.children[ci];
        let cnt = ts.nodes[c].cnt_of(k);
        if cnt == 0 {
            return 0;
        }
        w = w.saturating_mul(cnt);
    }
    w
}

fn exact_propagate(
    ts: &mut ExactTree,
    db: &Database,
    child_rel: usize,
    key: Key,
    updates: &mut u64,
) {
    let Some(parent) = ts.tree.node(child_rel).parent else {
        return;
    };
    let ci = ts
        .tree
        .node(parent)
        .children
        .iter()
        .position(|&c| c == child_rel)
        .expect("child index");
    let items: Vec<TupleId> = match ts.nodes[parent].child_indexes[ci].get(&key) {
        Some(v) => v.clone(),
        None => return,
    };
    let mut changed_groups: Vec<(u32, Key)> = Vec::new();
    for tid in items {
        *updates += 1;
        let tuple = db.relation(parent).tuple(tid);
        let info = ts.tree.node(parent);
        let child_keys: Vec<Key> = info
            .child_key_positions
            .iter()
            .map(|ps| Key::project(tuple, ps))
            .collect();
        let new_w = exact_weight(ts, parent, &child_keys);
        let (g, pos) = ts.nodes[parent].item_loc[tid as usize];
        let grp = &mut ts.nodes[parent].arena[g as usize];
        if grp.weights.weight(pos as usize) != new_w {
            grp.weights.set(pos as usize, new_w);
            if !changed_groups.iter().any(|(cg, _)| *cg == g) {
                let gkey = ts.nodes[parent].group_keys[g as usize];
                changed_groups.push((g, gkey));
            }
        }
    }
    for (_, gkey) in changed_groups {
        exact_propagate(ts, db, parent, gkey, updates);
    }
}

fn exact_retrieve_tuple(
    ts: &ExactTree,
    db: &Database,
    rel: usize,
    tid: TupleId,
    z: u128,
) -> Vec<(usize, TupleId)> {
    let info = ts.tree.node(rel);
    let mut out = vec![(rel, tid)];
    if info.children.is_empty() {
        debug_assert_eq!(z, 0);
        return out;
    }
    let tuple = db.relation(rel).tuple(tid);
    // Row-major decomposition with exact radices.
    let mut coords = vec![0u128; info.children.len()];
    let mut rest = z;
    for (ci, positions) in info.child_key_positions.iter().enumerate().rev() {
        let key = Key::project(tuple, positions);
        let c = info.children[ci];
        let radix = ts.nodes[c].cnt_of(&key);
        debug_assert!(radix > 0);
        coords[ci] = rest % radix;
        rest /= radix;
    }
    debug_assert_eq!(rest, 0);
    for (ci, positions) in info.child_key_positions.iter().enumerate() {
        let key = Key::project(tuple, positions);
        let c = info.children[ci];
        out.extend(exact_retrieve_group(ts, db, c, &key, coords[ci]));
    }
    out
}

fn exact_retrieve_group(
    ts: &ExactTree,
    db: &Database,
    rel: usize,
    key: &Key,
    z: u128,
) -> Vec<(usize, TupleId)> {
    let node = &ts.nodes[rel];
    let g = node.groups.get(key).expect("group exists for z < cnt");
    let grp = &node.arena[*g as usize];
    let (pos, rem) = grp.weights.search(z);
    exact_retrieve_tuple(ts, db, rel, grp.items[pos], rem)
}

/// The complete SJoin driver: exact index + skip-based reservoir.
///
/// Fully dynamic, and — unlike `RSJoin` — *exactly* calibrated on every
/// delete: the exact index hands over `|Q(R)|` in `O(1)`, so the
/// reservoir's skip state is re-drawn against the live population at each
/// deletion (eviction-and-backfill uses exact positional draws, which
/// never hit a dummy).
pub struct SJoin {
    index: SJoinIndex,
    /// The samples: full-width value rows of the query.
    reservoir: Reservoir,
    /// RNG for turnstile backfill draws (untouched on insert-only runs).
    repair_rng: rsj_common::rng::RsjRng,
}

impl SJoin {
    /// Creates the driver.
    pub fn new(query: Query, k: usize, seed: u64) -> Result<SJoin, String> {
        Ok(SJoin {
            reservoir: Reservoir::new(k, query.num_attrs(), seed),
            index: SJoinIndex::new(query)?,
            repair_rng: rsj_common::rng::RsjRng::seed_from_u64(rsj_common::rng::child_seed(
                seed,
                u64::from_le_bytes(*b"turnstil"),
            )),
        })
    }

    /// Processes one input tuple.
    pub fn process(&mut self, rel: usize, tuple: &[Value]) -> Option<TupleId> {
        let tid = self.index.insert(rel, tuple)?;
        let size = self.index.delta_size(rel, tid);
        if size > 0 {
            // Exact positions: every stop is a real result.
            let index = &self.index;
            let mut positions = FnBatch::new(size, std::convert::identity);
            self.reservoir.process_batch(&mut positions, |z, slot| {
                index.materialize_into(&index.delta_retrieve(rel, tid, z), slot.accept());
            });
        }
        Some(tid)
    }

    /// Deletes one input tuple; `None` if absent. Exact turnstile repair:
    /// evict dead samples, backfill with distinct exact positional draws,
    /// re-draw the skip state against the exact live `|Q(R)|`.
    pub fn delete(&mut self, rel: usize, tuple: &[Value]) -> Option<TupleId> {
        let tid = self.index.delete(rel, tuple)?;
        let attrs = &self.index.query().relation(rel).attrs;
        self.reservoir
            .evict_where(|s| attrs.iter().enumerate().all(|(pos, &a)| s[a] == tuple[pos]));
        let population = self.index.total_results();
        let target = (self.reservoir.capacity() as u128).min(population) as usize;
        let index = &self.index;
        let rng = &mut self.repair_rng;
        // Positional draws are 1-dense (no dummies); the per-slot budget
        // only covers distinctness rejection, worst around O(k) when the
        // population barely exceeds the sample.
        let per_slot = (4096 + 256 * self.reservoir.capacity()).min(1 << 24);
        let filled = self.reservoir.backfill_distinct(target, per_slot, |row| {
            let z = rng.below_u128(population);
            index.materialize_into(&index.result_at(z), row);
            true
        });
        debug_assert!(filled, "backfill exhausted its rejection cap");
        self.reservoir.recalibrate(population);
        Some(tid)
    }

    /// Current samples: a borrowed view of the flat sample buffer,
    /// iterated as `&[Value]` rows.
    pub fn samples(&self) -> Rows<'_> {
        self.reservoir.samples()
    }

    /// Reservoir capacity `k`.
    pub fn k(&self) -> usize {
        self.reservoir.capacity()
    }

    /// Predicate-evaluating stops the reservoir performed.
    pub fn reservoir_stops(&self) -> u64 {
        self.reservoir.stops()
    }

    /// The exact index.
    pub fn index(&self) -> &SJoinIndex {
        &self.index
    }

    /// Estimated heap bytes (index + the sample buffer's whole capacity).
    pub fn heap_size(&self) -> usize {
        self.index.heap_size() + self.reservoir.heap_size()
    }

    /// Serializes the full dynamic state: exact index, reservoir (samples,
    /// skip state, RNG), and the turnstile repair RNG.
    pub fn snapshot_to(&self, enc: &mut Encoder) {
        self.index.snapshot_to(enc);
        self.reservoir.snapshot_to(enc);
        for w in self.repair_rng.state() {
            enc.put_u64(w);
        }
    }

    /// Restores from a [`SJoin::snapshot_to`] image taken by a driver built
    /// with the same `(query, k)`. A rejected image — wrong `k`, a sample
    /// row not as wide as the query's attribute set — leaves the receiver
    /// unchanged.
    pub fn restore_from_snapshot(&mut self, dec: &mut Decoder) -> Result<(), CodecError> {
        let query = self.index.query();
        let mut index = SJoinIndex::new(query.clone()).expect("acyclic: it built this driver");
        index.restore_from_snapshot(dec)?;
        let reservoir = Reservoir::restore_from(dec, query.num_attrs())?;
        if reservoir.capacity() != self.reservoir.capacity() {
            return Err(CodecError::Corrupt("snapshot reservoir capacity mismatch"));
        }
        let s = [dec.u64()?, dec.u64()?, dec.u64()?, dec.u64()?];
        let repair_rng = rsj_common::rng::RsjRng::restore_state(s)
            .ok_or(CodecError::Corrupt("rng state is the zero fixed point"))?;
        self.index = index;
        self.reservoir = reservoir;
        self.repair_rng = repair_rng;
        Ok(())
    }
}

/// `SJoin_opt`: SJoin behind the foreign-key combination rewrite.
pub struct SJoinOpt {
    /// The original query, whose relations the input stream addresses.
    pub(crate) query: Query,
    combiner: rsj_core::FkCombiner,
    inner: SJoin,
}

impl SJoinOpt {
    /// Builds the optimized baseline.
    pub fn new(
        query: &Query,
        fks: &rsj_query::FkSchema,
        k: usize,
        seed: u64,
    ) -> Result<SJoinOpt, String> {
        let plan = rsj_query::CombinePlan::build(query, fks).map_err(|e| e.to_string())?;
        let inner = SJoin::new(plan.rewritten.clone(), k, seed)?;
        Ok(SJoinOpt {
            query: query.clone(),
            combiner: rsj_core::FkCombiner::new(plan),
            inner,
        })
    }

    /// Processes one original-stream tuple.
    pub fn process(&mut self, orig_rel: usize, tuple: &[Value]) {
        let inner = &mut self.inner;
        self.combiner.process(orig_rel, tuple, |rel, t| {
            inner.process(rel, t);
        });
    }

    /// Deletes one original-stream tuple: the combiner's `-1` deltas route
    /// to the inner SJoin's delete path (exact eviction + backfill repair).
    pub fn delete(&mut self, orig_rel: usize, tuple: &[Value]) {
        let inner = &mut self.inner;
        self.combiner.retract(orig_rel, tuple, |rel, t| {
            inner.delete(rel, t);
        });
    }

    /// The streaming combiner (op counters, heap accounting).
    pub fn combiner(&self) -> &rsj_core::FkCombiner {
        &self.combiner
    }

    /// Serializes the full dynamic state: combiner registries, then the
    /// inner SJoin snapshot.
    pub fn snapshot_to(&self, enc: &mut Encoder) {
        self.combiner.snapshot_to(enc);
        self.inner.snapshot_to(enc);
    }

    /// Restores from a [`SJoinOpt::snapshot_to`] image taken by a driver
    /// built with the same `(query, fks, k, seed)`. On error — in the
    /// combiner's image or the inner SJoin's — the receiver is unchanged.
    pub fn restore_from_snapshot(&mut self, dec: &mut Decoder) -> Result<(), CodecError> {
        let combiner = rsj_core::FkCombiner::restore_from(self.combiner.plan().clone(), dec)?;
        self.inner.restore_from_snapshot(dec)?;
        self.combiner = combiner;
        Ok(())
    }

    /// Current samples (rewritten-query attribute order).
    pub fn samples(&self) -> Rows<'_> {
        self.inner.samples()
    }

    /// The rewritten query.
    pub fn rewritten_query(&self) -> &Query {
        self.combiner.rewritten_query()
    }

    /// The inner driver.
    pub fn inner(&self) -> &SJoin {
        &self.inner
    }

    /// Reservoir capacity `k`.
    pub fn k(&self) -> usize {
        self.inner.k()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_common::rng::RsjRng;
    use rsj_common::stats::{chi_square_critical, chi_square_uniform};
    use rsj_common::{FxHashMap, FxHashSet};
    use rsj_query::QueryBuilder;

    fn line3() -> Query {
        let mut qb = QueryBuilder::new();
        qb.relation("G1", &["A", "B"]);
        qb.relation("G2", &["B", "C"]);
        qb.relation("G3", &["C", "D"]);
        qb.build().unwrap()
    }

    fn brute_line3(tuples: &[(usize, [u64; 2])]) -> FxHashSet<Vec<u64>> {
        let mut out = FxHashSet::default();
        for &(r1, t1) in tuples.iter().filter(|(r, _)| *r == 0) {
            for &(r2, t2) in tuples.iter().filter(|(r, _)| *r == 1) {
                for &(r3, t3) in tuples.iter().filter(|(r, _)| *r == 2) {
                    let _ = (r1, r2, r3);
                    if t1[1] == t2[0] && t2[1] == t3[0] {
                        out.insert(vec![t1[0], t1[1], t2[1], t3[1]]);
                    }
                }
            }
        }
        out
    }

    #[test]
    fn exact_total_matches_brute_force() {
        let mut rng = RsjRng::seed_from_u64(41);
        let mut idx = SJoinIndex::new(line3()).unwrap();
        let mut tuples = Vec::new();
        for _ in 0..300 {
            let rel = rng.index(3);
            let t = [rng.below_u64(7), rng.below_u64(7)];
            if idx.insert(rel, &t).is_some() {
                tuples.push((rel, t));
            }
        }
        assert_eq!(idx.total_results(), brute_line3(&tuples).len() as u128);
    }

    #[test]
    fn delta_sizes_sum_to_total() {
        let mut rng = RsjRng::seed_from_u64(43);
        let mut idx = SJoinIndex::new(line3()).unwrap();
        let mut sum = 0u128;
        for _ in 0..300 {
            let rel = rng.index(3);
            let t = [rng.below_u64(6), rng.below_u64(6)];
            if let Some(tid) = idx.insert(rel, &t) {
                sum += idx.delta_size(rel, tid);
            }
        }
        assert_eq!(sum, idx.total_results());
    }

    #[test]
    fn delta_retrieval_enumerates_the_exact_delta() {
        let mut idx = SJoinIndex::new(line3()).unwrap();
        for a in 0..3u64 {
            idx.insert(0, &[a, 1]);
        }
        for d in 0..2u64 {
            idx.insert(2, &[2, d]);
        }
        let tid = idx.insert(1, &[1, 2]).unwrap();
        assert_eq!(idx.delta_size(1, tid), 6);
        let mut seen = FxHashSet::default();
        for z in 0..6u128 {
            let r = idx.delta_retrieve(1, tid, z);
            assert!(seen.insert(idx.materialize(&r)), "dup at {z}");
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn sjoin_collects_all_with_large_k() {
        let mut rng = RsjRng::seed_from_u64(47);
        let mut sj = SJoin::new(line3(), 100_000, 1).unwrap();
        let mut tuples = Vec::new();
        for _ in 0..200 {
            let rel = rng.index(3);
            let t = [rng.below_u64(5), rng.below_u64(5)];
            if sj.process(rel, &t).is_some() {
                tuples.push((rel, t));
            }
        }
        let got: FxHashSet<Vec<u64>> = sj.samples().iter().map(<[u64]>::to_vec).collect();
        assert_eq!(got, brute_line3(&tuples));
    }

    #[test]
    fn sjoin_uniformity() {
        let stream: Vec<(usize, [u64; 2])> = vec![
            (0, [1, 10]),
            (2, [20, 5]),
            (1, [10, 20]),
            (0, [2, 10]),
            (2, [20, 6]),
            (0, [3, 10]),
        ];
        // 3 G1-tuples × 1 G2 × 2 G3 = 6 results.
        let trials = 5000u64;
        let mut counts: FxHashMap<Vec<u64>, u64> = FxHashMap::default();
        for seed in 0..trials {
            let mut sj = SJoin::new(line3(), 2, seed).unwrap();
            for (rel, t) in &stream {
                sj.process(*rel, t);
            }
            for s in sj.samples() {
                *counts.entry(s.to_vec()).or_default() += 1;
            }
        }
        assert_eq!(counts.len(), 6);
        let obs: Vec<u64> = counts.values().copied().collect();
        let (stat, df) = chi_square_uniform(&obs);
        assert!(stat < chi_square_critical(df, 0.0001), "chi2={stat}");
    }

    #[test]
    fn snapshot_restores_byte_identical_turnstile_behavior() {
        let mut sj = SJoin::new(line3(), 8, 42).unwrap();
        let mut rng = RsjRng::seed_from_u64(7);
        let mut live: Vec<(usize, [u64; 2])> = Vec::new();
        for i in 0..350u64 {
            if i % 4 == 3 && !live.is_empty() {
                let (rel, t) = live.swap_remove(rng.index(live.len()));
                sj.delete(rel, &t);
            } else {
                let rel = rng.index(3);
                let t = [rng.below_u64(6), rng.below_u64(6)];
                if sj.process(rel, &t).is_some() {
                    live.push((rel, t));
                }
            }
        }
        let mut e = Encoder::new();
        sj.snapshot_to(&mut e);
        let bytes = e.into_bytes();

        let mut restored = SJoin::new(line3(), 8, 0).unwrap();
        let mut d = Decoder::new(&bytes);
        restored.restore_from_snapshot(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(restored.samples(), sj.samples());
        assert_eq!(restored.index().total_results(), sj.index().total_results());

        // Re-serialization is byte-identical (canonical image).
        let mut e2 = Encoder::new();
        restored.snapshot_to(&mut e2);
        assert_eq!(e2.into_bytes(), bytes);

        // Lockstep continuation with mixed inserts/deletes.
        for i in 0..250u64 {
            if i % 4 == 3 && !live.is_empty() {
                let (rel, t) = live.swap_remove(rng.index(live.len()));
                assert_eq!(sj.delete(rel, &t), restored.delete(rel, &t));
            } else {
                let rel = rng.index(3);
                let t = [rng.below_u64(6), rng.below_u64(6)];
                let tid = sj.process(rel, &t);
                assert_eq!(tid, restored.process(rel, &t));
                if tid.is_some() {
                    live.push((rel, t));
                }
            }
            assert_eq!(restored.samples(), sj.samples());
        }

        // A mismatched k is rejected.
        let mut wrong = SJoin::new(line3(), 9, 0).unwrap();
        let mut d = Decoder::new(&bytes);
        assert!(wrong.restore_from_snapshot(&mut d).is_err());
    }

    #[test]
    fn update_cost_explodes_on_skew() {
        // Degenerate line-3: all G2 tuples share one key on both sides;
        // every G1/G3 insert re-weights all of them. RSJoin's rounding
        // makes this O(log) amortized; SJoin must show Ω(N²)-style growth.
        let n = 200u64;
        let mut sj = SJoinIndex::new(line3()).unwrap();
        for i in 0..n {
            sj.insert(1, &[1, i % 4]); // G2: B=1, few C values
        }
        for i in 0..n {
            sj.insert(0, &[i, 1]); // G1 hits B=1 every time
            sj.insert(2, &[i % 4, i]); // G3 grows each C bucket
        }
        let sjoin_updates = sj.stats().item_updates;
        // Equivalent RSJoin.
        let mut rj =
            rsj_index::DynamicIndex::new(line3(), rsj_index::IndexOptions::default()).unwrap();
        for i in 0..n {
            rj.insert(1, &[1, i % 4]);
        }
        for i in 0..n {
            rj.insert(0, &[i, 1]);
            rj.insert(2, &[i % 4, i]);
        }
        let rsjoin_loops = rj.stats().propagation_loops;
        assert!(
            sjoin_updates > 10 * rsjoin_loops,
            "sjoin={sjoin_updates} rsjoin={rsjoin_loops}"
        );
    }

    #[test]
    fn sjoin_opt_matches_plain_on_fk_query() {
        use rsj_query::FkSchema;
        let mut qb = QueryBuilder::new();
        qb.relation("fact", &["K", "M"]);
        qb.relation("dim", &["K", "D"]);
        let q = qb.build().unwrap();
        let fks = FkSchema::none(2).with_pk(1, vec![0]);
        let mut rng = RsjRng::seed_from_u64(51);
        let mut stream: Vec<(usize, Vec<u64>)> = Vec::new();
        for k in 0..8u64 {
            stream.push((1, vec![k, 100 + k]));
        }
        for _ in 0..40 {
            stream.push((0, vec![rng.below_u64(8), rng.below_u64(50)]));
        }
        let mut plain = SJoin::new(q.clone(), 100_000, 1).unwrap();
        let mut opt = SJoinOpt::new(&q, &fks, 100_000, 2).unwrap();
        for (rel, t) in &stream {
            plain.process(*rel, t);
            opt.process(*rel, t);
        }
        let norm = |samples: Rows<'_>, query: &Query| -> FxHashSet<Vec<(String, u64)>> {
            samples
                .iter()
                .map(|s| {
                    let mut kv: Vec<(String, u64)> = query
                        .attr_names()
                        .iter()
                        .cloned()
                        .zip(s.iter().copied())
                        .collect();
                    kv.sort();
                    kv
                })
                .collect()
        };
        assert_eq!(
            norm(plain.samples(), plain.index().query()),
            norm(opt.samples(), opt.rewritten_query())
        );
    }

    #[test]
    fn sjoin_opt_deletes_match_plain_on_fk_query() {
        // Turnstile tail over a fact ⋈ dim schema: deletes hit facts and
        // the dimension alike, and SJoin_opt must track plain SJoin's live
        // result set exactly (k >= |Q|), with matching exact totals.
        use rsj_query::FkSchema;
        let mut qb = QueryBuilder::new();
        qb.relation("fact", &["K", "M"]);
        qb.relation("dim", &["K", "D"]);
        let q = qb.build().unwrap();
        let fks = FkSchema::none(2).with_pk(1, vec![0]);
        let mut plain = SJoin::new(q.clone(), 100_000, 1).unwrap();
        let mut opt = SJoinOpt::new(&q, &fks, 100_000, 2).unwrap();
        let mut apply = |ins: bool, rel: usize, t: &[u64]| {
            if ins {
                plain.process(rel, t);
                opt.process(rel, t);
            } else {
                plain.delete(rel, t);
                opt.delete(rel, t);
            }
        };
        for k in 0..6u64 {
            apply(true, 1, &[k, 100 + k]);
        }
        for i in 0..30u64 {
            apply(true, 0, &[i % 6, i]);
        }
        // Delete a dimension tuple (kills every K=2 chain), two facts,
        // then re-insert the dimension under a fresh attribute value.
        apply(false, 1, &[2, 102]);
        apply(false, 0, &[0, 0]);
        apply(false, 0, &[3, 3]);
        apply(true, 1, &[2, 202]);
        let norm = |samples: Rows<'_>, query: &Query| -> FxHashSet<Vec<(String, u64)>> {
            samples
                .iter()
                .map(|s| {
                    let mut kv: Vec<(String, u64)> = query
                        .attr_names()
                        .iter()
                        .cloned()
                        .zip(s.iter().copied())
                        .collect();
                    kv.sort();
                    kv
                })
                .collect()
        };
        let a = norm(plain.samples(), plain.index().query());
        let b = norm(opt.samples(), opt.rewritten_query());
        assert!(!a.is_empty());
        assert_eq!(a, b);
        assert_eq!(
            plain.index().total_results(),
            opt.inner().index().total_results()
        );
        assert_eq!(opt.combiner().deletes(), 3);
    }
}
