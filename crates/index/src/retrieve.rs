//! Positional retrieval into implicit batches (Algorithms 8, 9, 11).
//!
//! A batch is never materialized: it is a size plus a bijection from
//! positions to (join result | dummy). Three cases, mirroring the paper:
//!
//! * **group case** (`t ∈ π_key(e) R_e`): the batch is the concatenation of
//!   the member items' sub-batches in bucket order, padded to `cnt~`;
//!   positions `z >= cnt` and positions that fall into an item's rounding
//!   slack are dummies. Locating the bucket costs one `O(log N)` scan.
//! * **tuple case** (`t ∈ R_e`): the batch is the row-major product of the
//!   children's group batches with radix `cnt~`; the position splits into
//!   per-child coordinates by shifts (radices are powers of two).
//! * **grouped-node case** (Algorithm 11): within an item's sub-batch of
//!   size `feq~ · Π cnt~`, the high digits select the base tuple (dummy if
//!   `>= feq`) and the low digits recurse into the children.
//!
//! All three are one kernel (`retrieve_in_group` / `retrieve_below`,
//! mutually recursive) that writes the result as one tuple id per relation
//! into a caller-provided slice and allocates nothing: every reservoir
//! stop and repair draw goes through it. The `Vec`-returning
//! `retrieve` / `sample` methods are adapters over the same kernel.
//!
//! A dummy is never alone: it lies in a run of dummies that the level
//! which found it already bounds — the group's padding up to `cnt~`, or
//! the rest of a grouped item's sub-batch past its `feq` base tuples.
//! The kernel returns that run's length from the dummy onward (0 for a
//! real result), lifted through each tuple level by the radix of the
//! lower digits, so a caller can pass the whole run at `O(1)` extra work
//! per level.
//!
//! The kernel's per-edge work — project the key, hash it, probe the
//! child's group table, read its `cnt~` level — depends only on the item
//! being expanded, so it goes through a caller-owned [`DescentMemo`]
//! holding, per configuration, the last item expanded and its children's
//! `(group, level)`. A delta batch's stops all expand the same generating
//! tuple and, under grouping, few distinct group tuples, so after the
//! first stop most edges probe nothing. A memo is valid for one index
//! state: the caller resets it at the start of every batch and every
//! repair backfill.

use crate::dynamic::DynamicIndex;
use crate::state::{GroupId, ItemId};
use rsj_common::pow2::level_of;
use rsj_common::{fx_hash_one, Key, TupleId, Value};
use rsj_storage::Database;

/// A join result as `(relation, tuple id)` pairs in relation order: one
/// pair per relation of the query.
pub(crate) type JoinResult = Vec<(usize, TupleId)>;

impl DynamicIndex {
    /// The delta batch `ΔJ ⊇ ΔQ(R, t)` for tuple `tid` just inserted into
    /// `rel`. Call *after* [`DynamicIndex::insert`] returned this id.
    pub fn delta_batch(&self, rel: usize, tid: TupleId) -> DeltaBatch<'_> {
        // The item's weight level at the root of its own tree *is* the
        // batch size: Π over root children of cnt~ (Algorithm 8 Case 2).
        let level = self.state_at(rel, rel).item_pos[tid as usize].level();
        let size = level.map_or(0, |l| 1u128 << l);
        DeltaBatch {
            index: self,
            rel,
            tid,
            size,
        }
    }

    /// Materializes a join result into a full-width value tuple, indexed by
    /// the query's attribute ids.
    pub fn materialize(&self, result: &JoinResult) -> Vec<Value> {
        materialize(self.query(), self.database(), result)
    }

    /// Materializes a join result given as one tuple id per relation (what
    /// the `*_into` retrieval methods write) into `row`, a full-width value
    /// tuple indexed by the query's attribute ids. Every attribute belongs
    /// to some relation, so all of `row` is overwritten.
    pub fn materialize_ids(&self, ids: &[TupleId], row: &mut [Value]) {
        debug_assert_eq!(ids.len(), self.query().num_relations());
        debug_assert_eq!(row.len(), self.query().num_attrs());
        for (rel, &tid) in ids.iter().enumerate() {
            place(self.query(), self.database(), rel, tid, row);
        }
    }
}

/// Copies tuple `tid` of `rel` into its attributes' slots of `row`.
fn place(query: &rsj_query::Query, db: &Database, rel: usize, tid: TupleId, row: &mut [Value]) {
    let tuple = db.relation(rel).tuple(tid);
    for (pos, &attr) in query.relation(rel).attrs.iter().enumerate() {
        row[attr] = tuple[pos];
    }
}

/// Materializes a join result against a query and database. Attributes of
/// relations the result leaves out read 0.
pub fn materialize(query: &rsj_query::Query, db: &Database, result: &JoinResult) -> Vec<Value> {
    let mut out = vec![0; query.num_attrs()];
    for &(rel, tid) in result {
        place(query, db, rel, tid, &mut out);
    }
    out
}

/// The implicit delta batch of one inserted tuple.
#[derive(Clone, Copy)]
pub struct DeltaBatch<'a> {
    index: &'a DynamicIndex,
    rel: usize,
    tid: TupleId,
    size: u128,
}

impl DeltaBatch<'_> {
    /// `|ΔJ|` — available in `O(1)` (Theorem 4.2(2)).
    pub fn size(&self) -> u128 {
        self.size
    }

    /// The relation of the generating tuple.
    pub fn relation(&self) -> usize {
        self.rel
    }

    /// The element at position `z`, written as one tuple id per relation
    /// into `ids` (length: the query's relation count). Returns 0 for a
    /// real result; for a dummy position, leaving `ids` unspecified, the
    /// length `run >= 1` of a run of dummies starting at `z` — positions
    /// `z..z + run` are all dummies. `memo` must have been reset since the
    /// index last changed.
    ///
    /// `O(log N)` and allocation-free (Theorem 4.2(2), Algorithm 9).
    pub fn retrieve_into(&self, z: u128, ids: &mut [TupleId], memo: &mut DescentMemo) -> u128 {
        debug_assert!(z < self.size, "position out of batch");
        // The root is never grouped, so its item is the tuple itself.
        ids[self.rel] = self.tid;
        retrieve_below(self.index, self.rel, self.rel, self.tid, z, ids, memo)
    }

    /// The element at position `z`: a real join result or `None` (dummy).
    /// Allocating adapter over [`retrieve_into`](DeltaBatch::retrieve_into)
    /// with a fresh memo.
    pub fn retrieve(&self, z: u128) -> Option<JoinResult> {
        let mut ids = vec![0; self.index.query().num_relations()];
        (self.retrieve_into(z, &mut ids, &mut DescentMemo::new(self.index)) == 0)
            .then(|| ids.into_iter().enumerate().collect())
    }
}

/// The retrieval kernel's memo: per configuration of one index, the item
/// last expanded there and its children's `(group, cnt~ level)`. Sized
/// from the index's configurations when built, so using it allocates
/// nothing; transient, never serialized.
///
/// Valid for one index state: within it, an item's child groups and their
/// levels are fixed — for a plain node the item is the tuple, for a
/// grouped node (§4.4) the group tuple, whose children's keys factor
/// through `ē`. Whoever owns a memo [`reset`](DescentMemo::reset)s it at
/// the start of every delta batch and every repair backfill. Debug builds
/// check every hit against a fresh probe.
#[derive(Clone, Debug)]
pub struct DescentMemo {
    /// Per configuration: the item last expanded there (`None` since the
    /// last reset), and where its children's entries start in `children`.
    heads: Vec<(Option<ItemId>, u32)>,
    /// Per child of each configuration, in child order: the group its key
    /// selects and that group's `cnt~` level.
    children: Vec<(GroupId, u32)>,
}

impl DescentMemo {
    /// An empty memo sized for `idx`'s configurations.
    pub fn new(idx: &DynamicIndex) -> DescentMemo {
        let mut heads = Vec::with_capacity(idx.infos.len());
        let mut width = 0;
        for info in &idx.infos {
            heads.push((None, width));
            width += info.children.len() as u32;
        }
        DescentMemo {
            heads,
            children: vec![(0, 0); width as usize],
        }
    }

    /// Forgets every expansion: the index may have changed since.
    pub fn reset(&mut self) {
        for head in &mut self.heads {
            head.0 = None;
        }
    }

    /// Where configuration `cfg`'s children's entries for `item` start in
    /// `children`, probing them from `item`'s tuple `tid` on a miss.
    fn expand(&mut self, idx: &DynamicIndex, cfg: usize, item: ItemId, tid: TupleId) -> usize {
        debug_assert_eq!(self.heads.len(), idx.infos.len(), "memo of another index");
        let (last, start) = self.heads[cfg];
        let start = start as usize;
        let tuple = || idx.database().relation(idx.infos[cfg].relation).tuple(tid);
        let entries = start..start + idx.infos[cfg].children.len();
        if last == Some(item) {
            debug_assert!(
                entries
                    .zip(0..)
                    .all(|(e, ci)| self.children[e] == probe_child(idx, cfg, ci, tuple())),
                "memo hit differs from a fresh probe"
            );
            return start;
        }
        for (e, ci) in entries.zip(0..) {
            self.children[e] = probe_child(idx, cfg, ci, tuple());
        }
        self.heads[cfg].0 = Some(item);
        start
    }
}

/// Child `ci` of configuration `cfg` under `tuple`: the group of the
/// child's configuration that the tuple's key selects, and its `cnt~`
/// level — one projection, one hash and one `KeyMap` probe.
fn probe_child(idx: &DynamicIndex, cfg: usize, ci: usize, tuple: &[Value]) -> (GroupId, u32) {
    let key = Key::project(tuple, &idx.infos[cfg].child_key_positions[ci]);
    let ns = &idx.configs[idx.child_cfgs[cfg][ci] as usize];
    let g = ns
        .group_id(fx_hash_one(&key), &key)
        .expect("bucketed tuple has live children");
    let level = ns
        .group(g)
        .tilde_level()
        .expect("bucketed tuple has live children");
    (g, level)
}

/// Algorithm 9, tuple case (`t ∈ R_e`): `ids[rel]` is a stored tuple of
/// node `rel`, bucketed as `item`, whose children are all live; `z` a
/// position in the row-major product of its children's group batches.
/// Later children are the low digits, so each child's coordinate is peeled
/// off `z` as the walk reaches it. The children's groups come from `memo`
/// — one `KeyMap` probe per join edge when it misses, none when it hits.
/// `root` names the rooted-tree view resolving each relation to its
/// configuration. Returns 0 or a dummy run, as
/// [`DeltaBatch::retrieve_into`].
pub(crate) fn retrieve_below(
    idx: &DynamicIndex,
    root: usize,
    rel: usize,
    item: ItemId,
    z: u128,
    ids: &mut [TupleId],
    memo: &mut DescentMemo,
) -> u128 {
    let cfg = idx.trees[root].cfg[rel] as usize;
    let start = memo.expand(idx, cfg, item, ids[rel]);
    let children = &idx.infos[cfg].children;
    let (mut rest, mut shift) = (z, 0);
    for (ci, &child) in children.iter().enumerate().rev() {
        let (g, level) = memo.children[start + ci];
        let coord = rest & ((1u128 << level) - 1);
        let run = retrieve_in_group(idx, root, child, g, coord, ids, memo);
        if run > 0 {
            // The child's run, counted in the positions its lower digits
            // (radix 2^shift) interleave, from z's own lower digits on.
            return (run << shift) - (z & ((1u128 << shift) - 1));
        }
        rest >>= level;
        shift += level;
    }
    debug_assert_eq!(rest, 0, "z within batch size");
    0
}

/// Algorithm 9 group case / Algorithm 11 grouped case
/// (`t ∈ π_key(e) R_e`): find the item of group `g` of node `rel` owning
/// position `z < cnt~`, record its tuple in `ids[rel]`, then descend.
/// Returns 0 or a dummy run, as [`DeltaBatch::retrieve_into`].
pub(crate) fn retrieve_in_group(
    idx: &DynamicIndex,
    root: usize,
    rel: usize,
    g: GroupId,
    z: u128,
    ids: &mut [TupleId],
    memo: &mut DescentMemo,
) -> u128 {
    let ns = idx.state_at(root, rel);
    let group = ns.group(g);
    if z >= group.cnt {
        // Padding up to cnt~ — dummy to the group's end.
        let level = group.tilde_level().expect("z < cnt~ of a live group");
        return (1u128 << level) - z;
    }
    let (item, mut within) = group.locate(&ns.postings, z);
    let mut tid = item as TupleId;
    if ns.grouped {
        // Grouped node (Algorithm 11 lines 13–23): the item is a group
        // tuple whose sub-batch interleaves feq~ copies of the children
        // product. Its bucket level is log2(feq~) plus the children's
        // levels, so the split point needs no child probe.
        let feq = ns.grouped_data.feq[item as usize];
        let level = ns.item_pos[item as usize].level();
        let level = level.expect("located item is bucketed");
        let children = level - level_of(feq as u128).expect("bucketed group tuple has members");
        let idx_in_base = within >> children;
        if idx_in_base >= feq as u128 {
            // feq~ rounding slack — dummy to the item's sub-batch end.
            return (1u128 << level) - within;
        }
        within &= (1u128 << children) - 1;
        tid = ns
            .postings
            .get(ns.grouped_data.base[item as usize], idx_in_base as u32);
    }
    ids[rel] = tid;
    retrieve_below(idx, root, rel, item, within, ids, memo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::IndexOptions;
    use rsj_common::FxHashSet;
    use rsj_query::QueryBuilder;

    fn line3(grouping: bool) -> DynamicIndex {
        let mut qb = QueryBuilder::new();
        qb.relation("G1", &["A", "B"]);
        qb.relation("G2", &["B", "C"]);
        qb.relation("G3", &["C", "D"]);
        DynamicIndex::new(qb.build().unwrap(), IndexOptions { grouping }).unwrap()
    }

    /// Brute-force the delta results of inserting `t` into `rel` given the
    /// current database (which must already contain `t`).
    fn brute_delta(idx: &DynamicIndex, rel: usize, tid: TupleId) -> FxHashSet<Vec<Value>> {
        let db = idx.database();
        let q = idx.query();
        let mut out = FxHashSet::default();
        // Enumerate all combinations, keep those joining AND using (rel,tid).
        let rels: Vec<usize> = (0..q.num_relations()).collect();
        let mut stack: Vec<(usize, JoinResult)> = vec![(0, Vec::new())];
        while let Some((depth, partial)) = stack.pop() {
            if depth == rels.len() {
                if partial.iter().any(|&(r, t)| r == rel && t == tid) {
                    out.insert(materialize(q, db, &partial));
                }
                continue;
            }
            let r = rels[depth];
            'tuples: for (t, tup) in db.relation(r).iter() {
                // Check consistency with partial on shared attrs.
                for &(pr, pt) in &partial {
                    let ptup = db.relation(pr).tuple(pt);
                    for (pi, &a) in q.relation(pr).attrs.iter().enumerate() {
                        if let Some(qi) = q.relation(r).position_of(a) {
                            if ptup[pi] != tup[qi] {
                                continue 'tuples;
                            }
                        }
                    }
                }
                let mut next = partial.clone();
                next.push((r, t));
                stack.push((depth + 1, next));
            }
        }
        out
    }

    /// Enumerate a delta batch fully through the slice kernel, asserting
    /// at every position that the allocating adapter agrees with it, and
    /// overall that each real result appears exactly once and the set
    /// matches brute force — so a position reports a dummy run iff it is
    /// a dummy. Every position of a reported run must lie in the batch and
    /// be a dummy. Returns how many positions the runs cover past their
    /// first.
    fn check_delta(idx: &DynamicIndex, rel: usize, tid: TupleId) -> u128 {
        let batch = idx.delta_batch(rel, tid);
        let mut seen: FxHashSet<Vec<Value>> = FxHashSet::default();
        let mut ids = vec![TupleId::MAX; idx.query().num_relations()];
        let mut row = vec![0; idx.query().num_attrs()];
        let mut memo = DescentMemo::new(idx);
        let mut covered = 0;
        for z in 0..batch.size() {
            let run = batch.retrieve_into(z, &mut ids, &mut memo);
            let adapted = batch.retrieve(z);
            assert_eq!(run == 0, adapted.is_some(), "dummy disagreement at z={z}");
            let Some(res) = adapted else {
                assert!(
                    z + run <= batch.size(),
                    "run {run} at z={z} leaves the batch"
                );
                for d in z + 1..z + run {
                    assert!(
                        batch.retrieve(d).is_none(),
                        "run {run} at z={z} covers the real d={d}"
                    );
                }
                covered += run - 1;
                continue;
            };
            let expect: JoinResult = ids.iter().copied().enumerate().collect();
            assert_eq!(res, expect, "adapter pairs at z={z}");
            assert_eq!(ids[rel], tid, "generating tuple at z={z}");
            idx.materialize_ids(&ids, &mut row);
            assert_eq!(row, idx.materialize(&res), "materialization at z={z}");
            assert!(seen.insert(row.clone()), "duplicate result at z={z}");
        }
        let expect = brute_delta(idx, rel, tid);
        assert_eq!(seen, expect, "delta contents");
        // All-dummy batches can only arise from empty sub-joins, and then
        // the batch size is 0.
        assert!(
            batch.size() == 0 || !expect.is_empty(),
            "non-empty batch with zero real results"
        );
        covered
    }

    fn star4(grouping: bool) -> DynamicIndex {
        let mut qb = QueryBuilder::new();
        for i in 1..=4 {
            qb.relation(&format!("G{i}"), &["HUB", &format!("B{i}")]);
        }
        DynamicIndex::new(qb.build().unwrap(), IndexOptions { grouping }).unwrap()
    }

    /// Ra(X,Y) ⋈ Rb(Y,Z,W) ⋈ Rc(W,U): the wide middle relation is
    /// groupable.
    fn wide_middle(grouping: bool) -> DynamicIndex {
        let mut qb = QueryBuilder::new();
        qb.relation("Ra", &["X", "Y"]);
        qb.relation("Rb", &["Y", "Z", "W"]);
        qb.relation("Rc", &["W", "U"]);
        DynamicIndex::new(qb.build().unwrap(), IndexOptions { grouping }).unwrap()
    }

    /// Every position of random delta batches reports a run iff it is a
    /// dummy, and every position of a run is a dummy (see `check_delta`).
    #[test]
    fn reported_dummy_runs_are_sound() {
        use rsj_common::rng::RsjRng;
        for name in ["line-3", "star-4", "wide-middle"] {
            for grouping in [false, true] {
                let mut rng = RsjRng::seed_from_u64(46);
                let mut idx = match name {
                    "line-3" => line3(grouping),
                    "star-4" => star4(grouping),
                    _ => wide_middle(grouping),
                };
                let n = idx.query().num_relations();
                let (mut batches, mut covered) = (0, 0);
                for _ in 0..200 {
                    let rel = rng.index(n);
                    let arity = idx.query().relation(rel).attrs.len();
                    let t: Vec<Value> = (0..arity).map(|_| rng.below_u64(7)).collect();
                    let Some(tid) = idx.insert(rel, &t) else {
                        continue;
                    };
                    covered += check_delta(&idx, rel, tid);
                    batches += 1;
                }
                assert!(
                    batches > 80 && covered > 0,
                    "{name} grouping={grouping}: {batches} batches, {covered} passed"
                );
            }
        }
    }

    /// One memo carried across a whole stream, reset at every batch,
    /// retrieves exactly what a fresh memo does at every position of every
    /// batch — walked in order (consecutive stops share expansions) and
    /// shuffled (expansions alternate, so the memo keeps missing and
    /// refilling).
    #[test]
    fn memo_retrieval_matches_a_fresh_memo_in_any_order() {
        use rsj_common::rng::RsjRng;
        for name in ["line-3", "star-4"] {
            for grouping in [false, true] {
                let mut rng = RsjRng::seed_from_u64(45);
                let mut idx = match name {
                    "line-3" => line3(grouping),
                    _ => star4(grouping),
                };
                let n = idx.query().num_relations();
                let (mut memo, mut fresh) = (DescentMemo::new(&idx), DescentMemo::new(&idx));
                let (mut ids, mut want) = (vec![0; n], vec![0; n]);
                let mut checked = 0;
                for _ in 0..160 {
                    let rel = rng.index(n);
                    let Some(tid) = idx.insert(rel, &[rng.below_u64(4), rng.below_u64(6)]) else {
                        continue;
                    };
                    let batch = idx.delta_batch(rel, tid);
                    let mut order: Vec<u128> = (0..batch.size()).collect();
                    for shuffled in [false, true] {
                        if shuffled {
                            for i in (1..order.len()).rev() {
                                order.swap(i, rng.index(i + 1));
                            }
                        }
                        memo.reset();
                        for &z in &order {
                            fresh.reset();
                            let run = batch.retrieve_into(z, &mut ids, &mut memo);
                            let expect = batch.retrieve_into(z, &mut want, &mut fresh);
                            assert_eq!(run, expect, "{name} grouping={grouping} z={z}");
                            if run == 0 {
                                assert_eq!(ids, want, "{name} grouping={grouping} z={z}");
                                checked += 1;
                            }
                        }
                    }
                }
                assert!(
                    checked > 300,
                    "{name} grouping={grouping}: {checked} results"
                );
            }
        }
    }

    #[test]
    fn two_hop_delta_enumeration() {
        for grouping in [false, true] {
            let mut idx = line3(grouping);
            idx.insert(1, &[10, 20]).unwrap();
            idx.insert(2, &[20, 30]).unwrap();
            idx.insert(2, &[20, 31]).unwrap();
            let tid = idx.insert(0, &[1, 10]).unwrap();
            let batch = idx.delta_batch(0, tid);
            // G2⋉{B=10} has cnt 1 -> cnt~ 1; its tuple's own level counts
            // G3⋉{C=20}: cnt 2 -> cnt~ 2. Batch size = 2.
            assert_eq!(batch.size(), 2);
            check_delta(&idx, 0, tid);
        }
    }

    #[test]
    fn delta_batches_match_brute_force_randomized() {
        use rsj_common::rng::RsjRng;
        for grouping in [false, true] {
            let mut rng = RsjRng::seed_from_u64(99);
            let mut idx = line3(grouping);
            for step in 0..250 {
                let rel = rng.index(3);
                let t = [rng.below_u64(6), rng.below_u64(6)];
                if let Some(tid) = idx.insert(rel, &t) {
                    if step % 7 == 0 {
                        check_delta(&idx, rel, tid);
                    }
                }
            }
        }
    }

    #[test]
    fn middle_insert_is_cross_product() {
        let mut idx = line3(false);
        for a in 0..3u64 {
            idx.insert(0, &[a, 10]);
        }
        for d in 0..5u64 {
            idx.insert(2, &[20, d]);
        }
        let tid = idx.insert(1, &[10, 20]).unwrap();
        let batch = idx.delta_batch(1, tid);
        // 3 left × 5 right; cnt~ rounds 3->4 and 5->8 => 32 slots.
        assert_eq!(batch.size(), 32);
        let reals = (0..batch.size())
            .filter(|&z| batch.retrieve(z).is_some())
            .count();
        assert_eq!(reals, 15);
        check_delta(&idx, 1, tid);
    }

    #[test]
    fn empty_delta_when_no_match() {
        let mut idx = line3(false);
        let tid = idx.insert(0, &[1, 999]).unwrap();
        assert_eq!(idx.delta_batch(0, tid).size(), 0);
    }

    #[test]
    fn batch_density_bound_holds() {
        // Every non-empty batch must be at least (1/2)^{2|T|-2}-dense
        // (|T| = 3 here -> 1/16). Check across random instances.
        use rsj_common::rng::RsjRng;
        let mut rng = RsjRng::seed_from_u64(5);
        let mut idx = line3(false);
        for _ in 0..400 {
            let rel = rng.index(3);
            let t = [rng.below_u64(5), rng.below_u64(5)];
            if let Some(tid) = idx.insert(rel, &t) {
                let batch = idx.delta_batch(rel, tid);
                if batch.size() == 0 {
                    continue;
                }
                let reals = (0..batch.size())
                    .filter(|&z| batch.retrieve(z).is_some())
                    .count() as u128;
                assert!(
                    reals * 16 >= batch.size(),
                    "density violated: {reals}/{}",
                    batch.size()
                );
            }
        }
    }

    #[test]
    fn materialize_places_attrs() {
        let mut idx = line3(false);
        idx.insert(1, &[10, 20]).unwrap();
        idx.insert(2, &[20, 30]).unwrap();
        let tid = idx.insert(0, &[1, 10]).unwrap();
        let batch = idx.delta_batch(0, tid);
        let res = (0..batch.size())
            .find_map(|z| batch.retrieve(z))
            .expect("one real result");
        // Attr order A,B,C,D.
        assert_eq!(idx.materialize(&res), vec![1, 10, 20, 30]);
    }

    #[test]
    fn grouped_retrieval_with_wide_middle() {
        // Validate delta enumeration with grouping on vs off agree.
        use rsj_common::rng::RsjRng;
        let mut rng = RsjRng::seed_from_u64(3);
        let mut with = wide_middle(true);
        let mut without = wide_middle(false);
        for _ in 0..200 {
            let rel = rng.index(3);
            let t: Vec<Value> = match rel {
                1 => vec![rng.below_u64(4), rng.below_u64(6), rng.below_u64(4)],
                _ => vec![rng.below_u64(4), rng.below_u64(4)],
            };
            let a = with.insert(rel, &t);
            let b = without.insert(rel, &t);
            assert_eq!(a, b);
            if let Some(tid) = a {
                let enumerate = |idx: &DynamicIndex| {
                    let batch = idx.delta_batch(rel, tid);
                    let mut all: Vec<Vec<Value>> = (0..batch.size())
                        .filter_map(|z| batch.retrieve(z))
                        .map(|r| idx.materialize(&r))
                        .collect();
                    all.sort();
                    all
                };
                assert_eq!(enumerate(&with), enumerate(&without));
                check_delta(&with, rel, tid);
                check_delta(&without, rel, tid);
            }
        }
    }
}
