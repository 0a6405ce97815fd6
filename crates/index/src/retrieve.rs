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
//! stop, repair draw and probe goes through it. The `Vec`-returning
//! `retrieve` / `sample` methods are adapters over the same kernel.

use crate::dynamic::DynamicIndex;
use crate::state::GroupId;
use rsj_common::pow2::level_of;
use rsj_common::{fx_hash_one, Key, TupleId, Value};
use rsj_storage::Database;

/// A join result as `(relation, tuple id)` pairs in relation order: one
/// pair per relation of the query (a [`ProbeBatch`] result leaves out the
/// probed relation, whose tuple is hypothetical).
pub type JoinResult = Vec<(usize, TupleId)>;

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

    /// The generating tuple.
    pub fn tuple_id(&self) -> TupleId {
        self.tid
    }

    /// The element at position `z`, written as one tuple id per relation
    /// into `ids` (length: the query's relation count). Returns `false`
    /// for a dummy position, leaving `ids` unspecified.
    ///
    /// `O(log N)` and allocation-free (Theorem 4.2(2), Algorithm 9).
    pub fn retrieve_into(&self, z: u128, ids: &mut [TupleId]) -> bool {
        debug_assert!(z < self.size, "position out of batch");
        ids[self.rel] = self.tid;
        let tuple = self.index.database().relation(self.rel).tuple(self.tid);
        retrieve_below(self.index, self.rel, self.rel, tuple, z, ids)
    }

    /// The element at position `z`: a real join result or `None` (dummy).
    /// Allocating adapter over [`retrieve_into`](DeltaBatch::retrieve_into).
    pub fn retrieve(&self, z: u128) -> Option<JoinResult> {
        let mut ids = vec![0; self.index.query().num_relations()];
        self.retrieve_into(z, &mut ids)
            .then(|| ids.into_iter().enumerate().collect())
    }
}

/// The implicit delta batch of a *hypothetical* tuple: the paper's
/// operation (3) in full generality — `ΔQ(R, t)` is "supported for the
/// delta query ... for any tuple `t ∉ R`", without inserting `t`.
///
/// Useful for what-if probing and stream enrichment: "how many results
/// would this tuple create, and what are they?".
#[derive(Clone)]
pub struct ProbeBatch<'a> {
    index: &'a DynamicIndex,
    rel: usize,
    values: Vec<Value>,
    size: u128,
}

impl DynamicIndex {
    /// Builds the delta batch of a tuple **without inserting it**
    /// (operation (3) of Theorem 4.2).
    ///
    /// If the tuple is later inserted, its real delta will be exactly the
    /// real items of this batch (assuming no intervening inserts).
    pub fn probe_delta(&self, rel: usize, tuple: &[Value]) -> ProbeBatch<'_> {
        assert_eq!(
            tuple.len(),
            self.query().relation(rel).attrs.len(),
            "probe arity mismatch"
        );
        let info = self.info_at(rel, rel);
        // Π over root children of cnt~; 0 when some child group is empty.
        let level = info
            .child_key_positions
            .iter()
            .zip(&info.children)
            .try_fold(0u32, |sum, (positions, &child)| {
                let key = Key::project(tuple, positions);
                let l = self
                    .state_at(rel, child)
                    .tilde_level_of(fx_hash_one(&key), &key)?;
                Some(sum + l)
            });
        ProbeBatch {
            index: self,
            rel,
            values: tuple.to_vec(),
            size: level.map_or(0, |l| 1u128 << l),
        }
    }
}

impl ProbeBatch<'_> {
    /// `|ΔJ|` for the hypothetical insert (0 when some join partner is
    /// missing entirely).
    pub fn size(&self) -> u128 {
        self.size
    }

    /// The element at position `z` as one tuple id per relation; the
    /// probed relation's own slot is left untouched (the probe tuple is
    /// not part of any relation). Returns `false` for a dummy position;
    /// every position at or past [`size`](ProbeBatch::size) is one (an
    /// empty batch has a child group missing — nothing to descend).
    pub fn retrieve_into(&self, z: u128, ids: &mut [TupleId]) -> bool {
        z < self.size && retrieve_below(self.index, self.rel, self.rel, &self.values, z, ids)
    }

    /// The element at position `z`: the would-be join result (partner
    /// tuples only), or `None` for a dummy position. Allocating adapter
    /// over [`retrieve_into`](ProbeBatch::retrieve_into).
    pub fn retrieve(&self, z: u128) -> Option<JoinResult> {
        let mut ids = vec![0; self.index.query().num_relations()];
        self.retrieve_into(z, &mut ids).then(|| {
            let partners = ids.into_iter().enumerate();
            partners.filter(|&(rel, _)| rel != self.rel).collect()
        })
    }

    /// Exact number of real results the insert would create (enumerates
    /// the batch: `O(|ΔJ| log N)`).
    pub fn exact_count(&self) -> u128 {
        let mut ids = vec![0; self.index.query().num_relations()];
        (0..self.size)
            .filter(|&z| self.retrieve_into(z, &mut ids))
            .count() as u128
    }
}

/// Algorithm 9, tuple case (`t ∈ R_e`): `tuple` is a tuple of node `rel`
/// (stored or hypothetical) whose children are all live, `z` a position in
/// the row-major product of its children's group batches. Later children
/// are the low digits, so each child's coordinate is peeled off `z` as the
/// walk reaches it — one `KeyMap` probe per join edge. `root` names the
/// rooted-tree view resolving each relation to its configuration.
pub(crate) fn retrieve_below(
    idx: &DynamicIndex,
    root: usize,
    rel: usize,
    tuple: &[Value],
    z: u128,
    ids: &mut [TupleId],
) -> bool {
    let info = idx.info_at(root, rel);
    let mut rest = z;
    for (positions, &child) in info.child_key_positions.iter().zip(&info.children).rev() {
        let key = Key::project(tuple, positions);
        let ns = idx.state_at(root, child);
        let g = ns
            .group_id(fx_hash_one(&key), &key)
            .expect("bucketed tuple has live children");
        let level = ns
            .group(g)
            .tilde_level()
            .expect("bucketed tuple has live children");
        let coord = rest & ((1u128 << level) - 1);
        rest >>= level;
        if !retrieve_in_group(idx, root, child, g, coord, ids) {
            return false;
        }
    }
    debug_assert_eq!(rest, 0, "z within batch size");
    true
}

/// Algorithm 9 group case / Algorithm 11 grouped case
/// (`t ∈ π_key(e) R_e`): find the item of group `g` of node `rel` owning
/// position `z < cnt~`, record its tuple in `ids[rel]`, then descend.
pub(crate) fn retrieve_in_group(
    idx: &DynamicIndex,
    root: usize,
    rel: usize,
    g: GroupId,
    z: u128,
    ids: &mut [TupleId],
) -> bool {
    let ns = idx.state_at(root, rel);
    let group = ns.group(g);
    if z >= group.cnt {
        return false; // padding up to cnt~ — dummy
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
        let children = level.expect("located item is bucketed")
            - level_of(feq as u128).expect("bucketed group tuple has members");
        let idx_in_base = within >> children;
        if idx_in_base >= feq as u128 {
            return false; // feq~ rounding slack — dummy
        }
        within &= (1u128 << children) - 1;
        tid = ns
            .postings
            .get(ns.grouped_data.base[item as usize], idx_in_base as u32);
    }
    ids[rel] = tid;
    let tuple = idx.database().relation(rel).tuple(tid);
    retrieve_below(idx, root, rel, tuple, within, ids)
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
    /// matches brute force.
    fn check_delta(idx: &DynamicIndex, rel: usize, tid: TupleId) {
        let batch = idx.delta_batch(rel, tid);
        let mut seen: FxHashSet<Vec<Value>> = FxHashSet::default();
        let mut ids = vec![TupleId::MAX; idx.query().num_relations()];
        let mut row = vec![0; idx.query().num_attrs()];
        for z in 0..batch.size() {
            let real = batch.retrieve_into(z, &mut ids);
            let adapted = batch.retrieve(z);
            assert_eq!(real, adapted.is_some(), "dummy disagreement at z={z}");
            let Some(res) = adapted else { continue };
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
    fn probe_matches_actual_insert() {
        use rsj_common::rng::RsjRng;
        let mut rng = RsjRng::seed_from_u64(55);
        let mut idx = line3(false);
        for _ in 0..200 {
            let rel = rng.index(3);
            idx.insert(rel, &[rng.below_u64(5), rng.below_u64(5)]);
        }
        for _ in 0..30 {
            let rel = rng.index(3);
            let t = [rng.below_u64(5), rng.below_u64(5)];
            let probe = idx.probe_delta(rel, &t);
            let probe_size = probe.size();
            let probe_results: Vec<Vec<Value>> = (0..probe_size)
                .filter_map(|z| probe.retrieve(z))
                .map(|mut r| {
                    // Complete the partial result with the probe values
                    // for comparison: materialize partners then overlay t.
                    let mut m = idx.materialize(&r);
                    for (pos, &attr) in idx.query().relation(rel).attrs.iter().enumerate() {
                        m[attr] = t[pos];
                    }
                    r.clear();
                    m
                })
                .collect();
            drop(probe);
            // Now actually insert and compare with the real delta.
            if let Some(tid) = idx.insert(rel, &t) {
                let batch = idx.delta_batch(rel, tid);
                assert_eq!(batch.size(), probe_size, "size parity");
                let mut actual: Vec<Vec<Value>> = (0..batch.size())
                    .filter_map(|z| batch.retrieve(z))
                    .map(|r| idx.materialize(&r))
                    .collect();
                let mut probed = probe_results;
                actual.sort();
                probed.sort();
                assert_eq!(actual, probed);
            }
        }
    }

    #[test]
    fn probe_empty_when_partner_missing() {
        let mut idx = line3(false);
        idx.insert(1, &[1, 2]).unwrap();
        // G3 has nothing for C=2: probing a G1 tuple yields size 0.
        assert_eq!(idx.probe_delta(0, &[9, 1]).size(), 0);
        idx.insert(2, &[2, 3]).unwrap();
        let p = idx.probe_delta(0, &[9, 1]);
        assert_eq!(p.size(), 1);
        assert_eq!(p.exact_count(), 1);
        // The probe did not modify the index.
        assert_eq!(idx.database().relation(0).len(), 0);
    }

    #[test]
    fn grouped_retrieval_with_wide_middle() {
        // Ra(X,Y) ⋈ Rb(Y,Z,W) ⋈ Rc(W,U): Rb groupable. Validate delta
        // enumeration with grouping on vs off agree.
        let build = |grouping: bool| {
            let mut qb = QueryBuilder::new();
            qb.relation("Ra", &["X", "Y"]);
            qb.relation("Rb", &["Y", "Z", "W"]);
            qb.relation("Rc", &["W", "U"]);
            DynamicIndex::new(qb.build().unwrap(), IndexOptions { grouping }).unwrap()
        };
        use rsj_common::rng::RsjRng;
        let mut rng = RsjRng::seed_from_u64(3);
        let mut with = build(true);
        let mut without = build(false);
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
