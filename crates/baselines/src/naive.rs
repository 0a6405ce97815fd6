//! The rebuild-and-redraw strawman (paper §1).
//!
//! After every insert *or delete*, recompute the full join from scratch
//! and draw a fresh uniform sample of size `k` without replacement.
//! Trivially correct — and trivially fully dynamic — and catastrophically
//! slow (`Ω(N · |Q(R)|)`); it exists as ground truth for the statistical
//! tests and as the lower anchor in benchmark plots.

use rsj_common::rng::RsjRng;
use rsj_common::Value;
use rsj_query::Query;
use rsj_storage::Database;

/// Naive baseline: full recompute per step.
pub struct NaiveRebuild {
    pub(crate) query: Query,
    pub(crate) db: Database,
    pub(crate) k: usize,
    pub(crate) rng: RsjRng,
    pub(crate) samples: Vec<Vec<Value>>,
}

impl NaiveRebuild {
    /// Creates the baseline.
    pub fn new(query: Query, k: usize, seed: u64) -> NaiveRebuild {
        let mut db = Database::new();
        for r in query.relations() {
            db.add_relation(r.name.clone(), r.attrs.len());
        }
        NaiveRebuild {
            query,
            db,
            k,
            rng: RsjRng::seed_from_u64(seed),
            samples: Vec::new(),
        }
    }

    /// Inserts a tuple, recomputes the join, redraws the sample.
    pub fn process(&mut self, rel: usize, tuple: &[Value]) {
        if self.db.relation_mut(rel).insert(tuple).is_none() {
            return;
        }
        let results = self.enumerate_join();
        self.samples = sample_without_replacement(&results, self.k, &mut self.rng);
    }

    /// Deletes a tuple, recomputes the join, redraws the sample — the
    /// rebuild strawman is trivially fully dynamic.
    pub fn delete(&mut self, rel: usize, tuple: &[Value]) {
        if self.db.relation_mut(rel).remove(tuple).is_none() {
            return;
        }
        let results = self.enumerate_join();
        self.samples = sample_without_replacement(&results, self.k, &mut self.rng);
    }

    /// Enumerates the full current join result (exponential; small inputs
    /// only).
    fn enumerate_join(&self) -> Vec<Vec<Value>> {
        let q = &self.query;
        let mut out = Vec::new();
        let mut partial: Vec<Option<Value>> = vec![None; q.num_attrs()];
        self.recurse(0, &mut partial, &mut out);
        out
    }

    fn recurse(&self, rel: usize, partial: &mut Vec<Option<Value>>, out: &mut Vec<Vec<Value>>) {
        if rel == self.query.num_relations() {
            out.push(
                partial
                    .iter()
                    .map(|v| v.expect("all attrs bound"))
                    .collect(),
            );
            return;
        }
        let schema = &self.query.relation(rel).attrs;
        'tuples: for (_, t) in self.db.relation(rel).iter() {
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
            self.recurse(rel + 1, partial, out);
            for &a in &newly_bound {
                partial[a] = None;
            }
        }
    }

    /// Current samples.
    pub fn samples(&self) -> &[Vec<Value>] {
        &self.samples
    }

    /// The query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// Exact live `|Q(R)|`, counted by the reference oracle over the
    /// relations this baseline already holds.
    pub fn exact_count(&self) -> u128 {
        rsj_core::count::exact_result_count(&self.query, &self.db)
    }

    /// Sample capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }
}

/// Uniform sample of `min(k, n)` items without replacement (partial
/// Fisher–Yates).
fn sample_without_replacement<T: Clone>(items: &[T], k: usize, rng: &mut RsjRng) -> Vec<T> {
    let n = items.len();
    if n <= k {
        return items.to_vec();
    }
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = i + rng.index(n - i);
        idx.swap(i, j);
    }
    idx[..k].iter().map(|&i| items[i].clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_common::FxHashSet;
    use rsj_core::SamplerExt;
    use rsj_query::QueryBuilder;

    fn two_table() -> Query {
        let mut qb = QueryBuilder::new();
        qb.relation("R", &["X", "Y"]);
        qb.relation("S", &["Y", "Z"]);
        qb.build().unwrap()
    }

    #[test]
    fn enumerates_join_correctly() {
        let mut nb = NaiveRebuild::new(two_table(), 100, 1);
        nb.process(0, &[1, 2]);
        nb.process(0, &[3, 2]);
        nb.process(1, &[2, 9]);
        let got: FxHashSet<Vec<u64>> = nb.samples().iter().cloned().collect();
        let expect: FxHashSet<Vec<u64>> = [vec![1, 2, 9], vec![3, 2, 9]].into_iter().collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn sample_without_replacement_is_exact_when_small() {
        let mut rng = RsjRng::seed_from_u64(4);
        let items = [1, 2, 3];
        assert_eq!(
            sample_without_replacement(&items, 10, &mut rng),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn sample_without_replacement_distinct() {
        let mut rng = RsjRng::seed_from_u64(5);
        let items: Vec<u32> = (0..100).collect();
        for _ in 0..50 {
            let s = sample_without_replacement(&items, 10, &mut rng);
            let set: FxHashSet<u32> = s.iter().copied().collect();
            assert_eq!(set.len(), 10);
        }
    }

    #[test]
    fn snapshot_restores_byte_identical_behavior() {
        let mut nb = NaiveRebuild::new(two_table(), 6, 17);
        let mut rng = RsjRng::seed_from_u64(90);
        for i in 0..80u64 {
            let rel = (i % 2) as usize;
            let t = [rng.below_u64(8), rng.below_u64(8)];
            if i % 5 == 4 {
                nb.delete(rel, &t);
            } else {
                nb.process(rel, &t);
            }
        }
        let bytes = nb.snapshot_state().unwrap();
        let mut restored = NaiveRebuild::new(two_table(), 6, 0);
        restored.restore_state(&bytes).unwrap();
        assert_eq!(restored.samples(), nb.samples());

        // Continue both in lockstep — identical draws step for step.
        for i in 0..60u64 {
            let rel = (i % 2) as usize;
            let t = [rng.below_u64(8), rng.below_u64(8)];
            if i % 4 == 3 {
                nb.delete(rel, &t);
                restored.delete(rel, &t);
            } else {
                nb.process(rel, &t);
                restored.process(rel, &t);
            }
            assert_eq!(restored.samples(), nb.samples());
        }

        // A mismatched k is rejected.
        let mut wrong = NaiveRebuild::new(two_table(), 1, 0);
        assert!(wrong.restore_state(&bytes).is_err());
    }

    #[test]
    fn duplicate_insert_keeps_sample() {
        let mut nb = NaiveRebuild::new(two_table(), 10, 2);
        nb.process(0, &[1, 2]);
        nb.process(1, &[2, 3]);
        let before = nb.samples().to_vec();
        nb.process(0, &[1, 2]);
        assert_eq!(nb.samples(), &before[..]);
    }
}
