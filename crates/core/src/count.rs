//! Exact `|Q(R)|` counting over raw tuples — the sidecar for owners that
//! have no dynamic index to ask.
//!
//! A sampler that owns a [`DynamicIndex`](rsj_index::DynamicIndex) reads
//! its count from the index itself (`DynamicIndex::exact_count`, a pass
//! over the index's own groups). This module is the kernel for everything
//! else: acyclic queries count by one bottom-up message pass over the join
//! tree (`O(N)` with hashing); queries without a join tree fall back to
//! backtracking enumeration. Two frontends share the walk:
//!
//! * [`exact_result_count`] counts directly over a [`Database`] (live
//!   tuples only — tombstones are skipped): the reference the index kernel
//!   is tested against, and the oracle of the repo benchmark;
//! * `JoinCounter` (crate-internal, used by the sharded workers and the
//!   service's boxed members) owns its tuple sets — those owners have no
//!   relation access through the `JoinSampler` interface — builds its plan
//!   once, and counts on demand, with deletions removing from the sets.
//!
//! Both saturate: the result is `min(|Q(R)|, u128::MAX)`.

use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::value::MAX_KEY_ARITY;
use rsj_common::{FxHashMap, FxHashSet, Key, Value};
use rsj_query::{JoinTree, Query};
use rsj_storage::Database;
use std::hash::Hash;

/// The rooted message-passing schedule for acyclic counting.
pub(crate) struct CountPlan {
    /// BFS order from the root (parents before children); counting walks it
    /// in reverse.
    order: Vec<usize>,
    parent: Vec<Option<usize>>,
    /// Per relation: schema positions projecting onto the attributes shared
    /// with its parent.
    up: Vec<Vec<usize>>,
    /// Per relation: for each child, `(child, schema positions)` projecting
    /// onto the same shared attributes in the same order as the child's
    /// `up` projection.
    down: Vec<Vec<(usize, Vec<usize>)>>,
}

impl CountPlan {
    pub(crate) fn new(query: &Query, tree: &JoinTree) -> CountPlan {
        let n = query.num_relations();
        let mut parent = vec![None; n];
        let mut order = vec![0usize];
        let mut seen = vec![false; n];
        seen[0] = true;
        let mut i = 0;
        while i < order.len() {
            let r = order[i];
            i += 1;
            for &c in tree.neighbors(r) {
                if !seen[c] {
                    seen[c] = true;
                    parent[c] = Some(r);
                    order.push(c);
                }
            }
        }
        let mut up = vec![Vec::new(); n];
        let mut down = vec![Vec::new(); n];
        for c in 0..n {
            if let Some(p) = parent[c] {
                let ids = query.shared_attrs(c, p);
                up[c] = ids
                    .iter()
                    .map(|&a| query.relation(c).position_of(a).expect("shared attr"))
                    .collect();
                down[p].push((
                    c,
                    ids.iter()
                        .map(|&a| query.relation(p).position_of(a).expect("shared attr"))
                        .collect(),
                ));
            }
        }
        CountPlan {
            order,
            parent,
            up,
            down,
        }
    }

    /// One bottom-up message pass; `tuples_of(rel)` yields the live tuples
    /// of each relation. Messages are keyed by the inline [`Key`] wherever
    /// every shared-attribute set fits one; a query joining on more than
    /// [`MAX_KEY_ARITY`] attributes (legal here — only the dynamic index
    /// caps key width) keys them by `Vec<Value>` instead.
    fn count<'a, I>(&self, tuples_of: impl Fn(usize) -> I) -> u128
    where
        I: Iterator<Item = &'a [Value]>,
    {
        if self.up.iter().all(|pos| pos.len() <= MAX_KEY_ARITY) {
            self.count_keyed(tuples_of, Key::project)
        } else {
            self.count_keyed(tuples_of, |t, pos| {
                pos.iter().map(|&p| t[p]).collect::<Vec<Value>>()
            })
        }
    }

    fn count_keyed<'a, I, K>(
        &self,
        tuples_of: impl Fn(usize) -> I,
        project: impl Fn(&[Value], &[usize]) -> K,
    ) -> u128
    where
        I: Iterator<Item = &'a [Value]>,
        K: Hash + Eq,
    {
        // msgs[c]: sum of subtree weights of c's tuples, grouped by the
        // projection onto the attributes shared with c's parent.
        let mut msgs: Vec<FxHashMap<K, u128>> =
            self.order.iter().map(|_| Default::default()).collect();
        let mut total: u128 = 0;
        for &r in self.order.iter().rev() {
            for t in tuples_of(r) {
                let mut w: u128 = 1;
                for (c, pos) in &self.down[r] {
                    match msgs[*c].get(&project(t, pos)) {
                        Some(&s) => w = w.saturating_mul(s),
                        None => {
                            w = 0;
                            break;
                        }
                    }
                }
                if w == 0 {
                    continue;
                }
                match self.parent[r] {
                    Some(_) => {
                        let slot = msgs[r].entry(project(t, &self.up[r])).or_insert(0);
                        *slot = slot.saturating_add(w);
                    }
                    None => total = total.saturating_add(w),
                }
            }
        }
        total
    }
}

/// Exact `|Q(R)|` over the live tuples of `db`.
///
/// One `O(N)` join-tree message pass for acyclic queries, backtracking
/// enumeration otherwise. Tombstoned (deleted) tuples are skipped, so this
/// is the exact post-delete population. Saturates at `u128::MAX`.
///
/// Plans and hashes from scratch on every call; a sampler that owns a
/// dynamic index asks the index instead (`DynamicIndex::exact_count`).
pub fn exact_result_count(query: &Query, db: &Database) -> u128 {
    match JoinTree::build(query) {
        Some(tree) => CountPlan::new(query, &tree).count(|r| db.relation(r).iter().map(|(_, t)| t)),
        None => {
            let seen: Vec<Vec<Vec<Value>>> = (0..query.num_relations())
                .map(|r| db.relation(r).iter().map(|(_, t)| t.to_vec()).collect())
                .collect();
            count_backtracking(query, &seen, 0, &mut vec![None; query.num_attrs()])
        }
    }
}

/// Exact per-shard result counting: a `Database`-free sidecar that stores
/// the shard's accepted tuples (set semantics) and computes `|Q_i|` on
/// demand.
///
/// The sidecar keeps its own copy of the shard's tuples — roughly
/// doubling per-shard input storage next to the inner engine's — because
/// the `JoinSampler` interface deliberately exposes no relation access;
/// the trade is input-linear memory for an exact merge with any engine.
/// Deletions remove from the sets, so the count stays exact under
/// turnstile streams.
pub(crate) struct JoinCounter {
    query: Query,
    plan: Option<CountPlan>,
    /// Per relation: the distinct tuples currently live.
    seen: Vec<FxHashSet<Vec<Value>>>,
}

impl JoinCounter {
    pub(crate) fn new(query: Query) -> JoinCounter {
        let plan = JoinTree::build(&query).map(|t| CountPlan::new(&query, &t));
        let seen = vec![FxHashSet::default(); query.num_relations()];
        JoinCounter { query, plan, seen }
    }

    /// Accepts one tuple; duplicates are no-ops, mirroring the engines' set
    /// semantics.
    pub(crate) fn insert(&mut self, rel: usize, tuple: Vec<Value>) {
        self.seen[rel].insert(tuple);
    }

    /// Removes one tuple; absent tuples are no-ops (set semantics).
    pub(crate) fn remove(&mut self, rel: usize, tuple: &[Value]) {
        self.seen[rel].remove(tuple);
    }

    /// Serializes the live tuple sets, sorted per relation for a canonical
    /// image. The counting plan is a pure function of the query and is not
    /// serialized.
    pub(crate) fn snapshot_to(&self, enc: &mut Encoder) {
        enc.put_usize(self.seen.len());
        for side in &self.seen {
            let mut tuples: Vec<&Vec<Value>> = side.iter().collect();
            tuples.sort_unstable();
            enc.put_usize(tuples.len());
            for t in tuples {
                enc.put_u64s(t);
            }
        }
    }

    /// Restores the live tuple sets from a [`JoinCounter::snapshot_to`]
    /// image taken over the same query.
    pub(crate) fn restore_from_snapshot(&mut self, dec: &mut Decoder) -> Result<(), CodecError> {
        let seen = Self::decode_live(dec, self.query.num_relations())?;
        self.seen = seen;
        Ok(())
    }

    /// Decodes the per-relation live tuple sets of a counter image without
    /// needing a counter instance — the shard-rebalance replay path reads
    /// old counter images directly.
    pub(crate) fn decode_live(
        dec: &mut Decoder,
        num_relations: usize,
    ) -> Result<Vec<FxHashSet<Vec<Value>>>, CodecError> {
        let nrels = dec.seq_len(1)?;
        if nrels != num_relations {
            return Err(CodecError::Corrupt(
                "counter snapshot relation count mismatch",
            ));
        }
        let mut seen = Vec::with_capacity(nrels);
        for _ in 0..nrels {
            let n = dec.seq_len(1)?;
            let mut side = FxHashSet::default();
            for _ in 0..n {
                if !side.insert(dec.u64s()?) {
                    return Err(CodecError::Corrupt("duplicate tuple in counter snapshot"));
                }
            }
            seen.push(side);
        }
        Ok(seen)
    }

    /// Structural heap bytes of the live tuple sets — the sidecar's share
    /// of a service member's footprint.
    pub(crate) fn heap_size(&self) -> usize {
        self.seen
            .iter()
            .map(|side| {
                side.capacity() * std::mem::size_of::<Vec<Value>>()
                    + side
                        .iter()
                        .map(|t| t.capacity() * std::mem::size_of::<Value>())
                        .sum::<usize>()
            })
            .sum()
    }

    /// Exact `|Q_i|` over the live accepted tuples.
    pub(crate) fn count(&self) -> u128 {
        match &self.plan {
            Some(plan) => plan.count(|r| self.seen[r].iter().map(|t| t.as_slice())),
            None => {
                let seen: Vec<Vec<Vec<Value>>> = self
                    .seen
                    .iter()
                    .map(|s| s.iter().cloned().collect())
                    .collect();
                count_backtracking(
                    &self.query,
                    &seen,
                    0,
                    &mut vec![None; self.query.num_attrs()],
                )
            }
        }
    }
}

fn count_backtracking(
    query: &Query,
    seen: &[Vec<Vec<Value>>],
    rel: usize,
    partial: &mut Vec<Option<Value>>,
) -> u128 {
    if rel == query.num_relations() {
        return 1;
    }
    let schema = &query.relation(rel).attrs;
    let mut total: u128 = 0;
    'tuples: for t in &seen[rel] {
        let mut newly_bound = Vec::new();
        for (pos, &attr) in schema.iter().enumerate() {
            match partial[attr] {
                Some(v) if v != t[pos] => {
                    for &a in &newly_bound {
                        partial[a] = None;
                    }
                    continue 'tuples;
                }
                Some(_) => {}
                None => {
                    partial[attr] = Some(t[pos]);
                    newly_bound.push(attr);
                }
            }
        }
        total = total.saturating_add(count_backtracking(query, seen, rel + 1, partial));
        for &a in &newly_bound {
            partial[a] = None;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_common::rng::RsjRng;
    use rsj_query::QueryBuilder;

    fn line3() -> Query {
        let mut qb = QueryBuilder::new();
        qb.relation("G1", &["A", "B"]);
        qb.relation("G2", &["B", "C"]);
        qb.relation("G3", &["C", "D"]);
        qb.build().unwrap()
    }

    #[test]
    fn db_count_matches_counter_and_tracks_deletes() {
        let q = line3();
        let mut db = Database::new();
        for r in q.relations() {
            db.add_relation(r.name.clone(), r.attrs.len());
        }
        let mut counter = JoinCounter::new(q.clone());
        let mut rng = RsjRng::seed_from_u64(9);
        let mut live: Vec<(usize, Vec<Value>)> = Vec::new();
        for _ in 0..250 {
            let rel = rng.index(3);
            let t = vec![rng.below_u64(5), rng.below_u64(5)];
            if db.relation_mut(rel).insert(&t).is_some() {
                live.push((rel, t.clone()));
            }
            counter.insert(rel, t);
        }
        assert_eq!(exact_result_count(&q, &db), counter.count());
        assert!(counter.count() > 0, "degenerate instance");
        // Delete a third of the live tuples from both sides.
        for (rel, t) in live.iter().step_by(3) {
            db.relation_mut(*rel).remove(t).unwrap();
            counter.remove(*rel, t);
        }
        assert_eq!(exact_result_count(&q, &db), counter.count());
    }

    /// Regression: only the dynamic index caps join keys at
    /// `MAX_KEY_ARITY`; the sidecar serves index-less engines on any
    /// query, so a five-attribute shared set must take the `Vec` keys
    /// instead of truncating (release) or asserting (debug) in
    /// `Key::project`.
    #[test]
    fn join_keys_wider_than_the_inline_key_count_exactly() {
        let mut qb = QueryBuilder::new();
        qb.relation("R", &["A", "B", "C", "D", "E", "X"]);
        qb.relation("S", &["A", "B", "C", "D", "E", "Y"]);
        let q = qb.build().unwrap();
        assert!(q.shared_attrs(0, 1).len() > MAX_KEY_ARITY);
        let mut counter = JoinCounter::new(q.clone());
        // Keys that agree on the first four attributes and differ on the
        // fifth: a truncated key would join all of them.
        for e in 0..3u64 {
            for x in 0..=e {
                counter.insert(0, vec![1, 2, 3, 4, e, x]);
            }
            for y in 0..2 {
                counter.insert(1, vec![1, 2, 3, 4, e, 10 + y]);
            }
        }
        // Per e: (e + 1) R-tuples x 2 S-tuples.
        assert_eq!(counter.count(), 2 * (1 + 2 + 3));
        counter.remove(1, &[1, 2, 3, 4, 2, 10]);
        assert_eq!(counter.count(), 2 * (1 + 2) + 3);
        let mut db = Database::new();
        for r in q.relations() {
            db.add_relation(r.name.clone(), r.attrs.len());
        }
        db.relation_mut(0).insert(&[1, 2, 3, 4, 5, 0]);
        db.relation_mut(1).insert(&[1, 2, 3, 4, 5, 0]);
        db.relation_mut(1).insert(&[1, 2, 3, 4, 6, 0]);
        assert_eq!(exact_result_count(&q, &db), 1);
    }

    #[test]
    fn cyclic_count_over_database() {
        let mut qb = QueryBuilder::new();
        qb.relation("R1", &["X", "Y"]);
        qb.relation("R2", &["Y", "Z"]);
        qb.relation("R3", &["Z", "X"]);
        let q = qb.build().unwrap();
        let mut db = Database::new();
        for r in q.relations() {
            db.add_relation(r.name.clone(), r.attrs.len());
        }
        db.relation_mut(0).insert(&[1, 2]);
        db.relation_mut(1).insert(&[2, 3]);
        db.relation_mut(2).insert(&[3, 1]);
        db.relation_mut(2).insert(&[3, 9]);
        assert_eq!(exact_result_count(&q, &db), 1);
        db.relation_mut(2).remove(&[3, 1]).unwrap();
        assert_eq!(exact_result_count(&q, &db), 0);
    }
}
