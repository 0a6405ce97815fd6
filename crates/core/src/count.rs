//! Exact `|Q(R)|` over a [`Database`] — the reference oracle.
//!
//! Engines answer their own count (`JoinSampler::exact_count`) from the
//! state they already maintain: the `RSJoin` family asks its dynamic index
//! (`DynamicIndex::exact_count`, a pass over the index's own groups), the
//! exact baselines keep the number in `O(1)`. This module counts from raw
//! relations instead: acyclic queries by one bottom-up message pass over
//! the join tree (`O(N)` with hashing), queries without a join tree by
//! backtracking enumeration. [`exact_result_count`] is what the index
//! kernel and every engine's count are tested against, the oracle of the
//! repo benchmark, and the count of `NaiveRebuild`, which owns nothing but
//! a `Database`. The result saturates at `u128::MAX`.

use rsj_common::value::MAX_KEY_ARITY;
use rsj_common::{FxHashMap, Key, Value};
use rsj_query::{JoinTree, Query};
use rsj_storage::Database;
use std::hash::Hash;

/// The rooted message-passing schedule for acyclic counting.
struct CountPlan {
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
    fn new(query: &Query, tree: &JoinTree) -> CountPlan {
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

    fn empty_db(q: &Query) -> Database {
        let mut db = Database::new();
        for r in q.relations() {
            db.add_relation(r.name.clone(), r.attrs.len());
        }
        db
    }

    /// The backtracking enumeration over the same live tuples.
    fn brute_force(q: &Query, db: &Database) -> u128 {
        let seen: Vec<Vec<Vec<Value>>> = (0..q.num_relations())
            .map(|r| db.relation(r).iter().map(|(_, t)| t.to_vec()).collect())
            .collect();
        count_backtracking(q, &seen, 0, &mut vec![None; q.num_attrs()])
    }

    #[test]
    fn message_pass_matches_backtracking_and_tracks_deletes() {
        let q = line3();
        let mut db = empty_db(&q);
        let mut rng = RsjRng::seed_from_u64(9);
        let mut live: Vec<(usize, Vec<Value>)> = Vec::new();
        for _ in 0..250 {
            let rel = rng.index(3);
            let t = vec![rng.below_u64(5), rng.below_u64(5)];
            if db.relation_mut(rel).insert(&t).is_some() {
                live.push((rel, t));
            }
        }
        assert_eq!(exact_result_count(&q, &db), brute_force(&q, &db));
        assert!(exact_result_count(&q, &db) > 0, "degenerate instance");
        // Delete a third of the live tuples.
        for (rel, t) in live.iter().step_by(3) {
            db.relation_mut(*rel).remove(t).unwrap();
        }
        assert_eq!(exact_result_count(&q, &db), brute_force(&q, &db));
    }

    /// Regression: only the dynamic index caps join keys at
    /// `MAX_KEY_ARITY`; the oracle counts any query, so a five-attribute
    /// shared set must take the `Vec` keys instead of truncating
    /// (release) or asserting (debug) in `Key::project`.
    #[test]
    fn join_keys_wider_than_the_inline_key_count_exactly() {
        let mut qb = QueryBuilder::new();
        qb.relation("R", &["A", "B", "C", "D", "E", "X"]);
        qb.relation("S", &["A", "B", "C", "D", "E", "Y"]);
        let q = qb.build().unwrap();
        assert!(q.shared_attrs(0, 1).len() > MAX_KEY_ARITY);
        let mut db = empty_db(&q);
        // Keys that agree on the first four attributes and differ on the
        // fifth: a truncated key would join all of them.
        for e in 0..3u64 {
            for x in 0..=e {
                db.relation_mut(0).insert(&[1, 2, 3, 4, e, x]);
            }
            for y in 0..2 {
                db.relation_mut(1).insert(&[1, 2, 3, 4, e, 10 + y]);
            }
        }
        // Per e: (e + 1) R-tuples x 2 S-tuples.
        assert_eq!(exact_result_count(&q, &db), 2 * (1 + 2 + 3));
        db.relation_mut(1).remove(&[1, 2, 3, 4, 2, 10]).unwrap();
        assert_eq!(exact_result_count(&q, &db), 2 * (1 + 2) + 3);
        assert_eq!(exact_result_count(&q, &db), brute_force(&q, &db));
    }

    #[test]
    fn single_relation_query_counts_the_relation() {
        // Degenerate join tree with no edges: the count is the relation's
        // cardinality.
        let mut qb = QueryBuilder::new();
        qb.relation("R", &["A", "B"]);
        let q = qb.build().unwrap();
        let mut db = empty_db(&q);
        for v in 0..7u64 {
            db.relation_mut(0).insert(&[v, v + 100]);
        }
        assert_eq!(exact_result_count(&q, &db), 7);
        assert_eq!(exact_result_count(&q, &db), brute_force(&q, &db));
        db.relation_mut(0).remove(&[3, 103]).unwrap();
        assert_eq!(exact_result_count(&q, &db), 6);
    }

    #[test]
    fn cyclic_count_over_database() {
        let mut qb = QueryBuilder::new();
        qb.relation("R1", &["X", "Y"]);
        qb.relation("R2", &["Y", "Z"]);
        qb.relation("R3", &["Z", "X"]);
        let q = qb.build().unwrap();
        let mut db = empty_db(&q);
        db.relation_mut(0).insert(&[1, 2]);
        db.relation_mut(1).insert(&[2, 3]);
        db.relation_mut(2).insert(&[3, 1]);
        db.relation_mut(2).insert(&[3, 9]);
        assert_eq!(exact_result_count(&q, &db), 1);
        db.relation_mut(2).remove(&[3, 1]).unwrap();
        assert_eq!(exact_result_count(&q, &db), 0);
    }
}
