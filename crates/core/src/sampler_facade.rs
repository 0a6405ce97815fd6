//! The "sampling over joins" facade: an index you update and query.
//!
//! This is the paper's *first* problem variant (§2.1): an index over a
//! growing database that can, at any moment, draw a fresh uniform sample of
//! the current `Q(R)` — update time `O(log N)`, sampling time `O(log N)`
//! expected (Theorem 4.2 operations (1)–(2)). The reservoir driver solves
//! the continuous-maintenance variant; this facade serves ad-hoc sampling
//! (e.g. "give me 100 fresh samples right now").

use rsj_common::rng::RsjRng;
use rsj_common::{TupleId, Value};
use rsj_index::{DescentMemo, DynamicIndex, FullSampler, IndexOptions};
use rsj_query::Query;

/// A dynamic index supporting uniform sampling of the full join result.
pub struct DynamicSampleIndex {
    index: DynamicIndex,
    sampler: FullSampler,
    rng: RsjRng,
    /// The draw in flight: one tuple id per relation.
    ids: Vec<TupleId>,
    /// The retrieval kernel's memo, reset whenever the index changes.
    memo: DescentMemo,
}

impl DynamicSampleIndex {
    /// Creates an empty index for an acyclic query.
    pub fn new(
        query: Query,
        seed: u64,
    ) -> Result<DynamicSampleIndex, rsj_index::dynamic::IndexError> {
        let ids = vec![0; query.num_relations()];
        let index = DynamicIndex::new(query, IndexOptions::default())?;
        Ok(DynamicSampleIndex {
            ids,
            memo: DescentMemo::new(&index),
            index,
            sampler: FullSampler::default(),
            rng: RsjRng::seed_from_u64(seed),
        })
    }

    /// Inserts a tuple (`O(log N)` amortized).
    pub fn insert(&mut self, rel: usize, tuple: &[Value]) -> Option<TupleId> {
        self.memo.reset();
        self.index.insert(rel, tuple)
    }

    /// Deletes a tuple (`O(log N)` amortized); subsequent [`Self::sample`]
    /// draws are uniform over the post-delete `Q(R)`. Deleting an absent
    /// tuple is a no-op returning `None`.
    pub fn delete(&mut self, rel: usize, tuple: &[Value]) -> Option<TupleId> {
        self.memo.reset();
        self.index.delete(rel, tuple)
    }

    /// Draws one uniform sample of `Q(R)`, `None` when the result is empty.
    /// `O(log N)` expected.
    pub fn sample(&mut self) -> Option<Vec<Value>> {
        let mut out = Vec::new();
        self.sample_into(&mut out).then_some(out)
    }

    /// Draws one uniform sample into a caller-provided buffer (cleared and
    /// refilled); returns `false` when the result is empty. Callers that
    /// sample in a loop can reuse one buffer instead of allocating per
    /// sample.
    pub fn sample_into(&mut self, out: &mut Vec<Value>) -> bool {
        let drawn =
            self.sampler
                .sample_into(&self.index, &mut self.rng, &mut self.ids, &mut self.memo);
        if drawn {
            out.clear();
            out.resize(self.index.query().num_attrs(), 0);
            self.index.materialize_ids(&self.ids, out);
        }
        drawn
    }

    /// Draws `n` independent uniform samples (with replacement).
    pub fn sample_many(&mut self, n: usize) -> Vec<Vec<Value>> {
        (0..n).filter_map(|_| self.sample()).collect()
    }

    /// Unbiased estimate of `|Q(R)|` from `trials` sampling probes
    /// (see [`FullSampler::estimate_result_size`]).
    pub fn estimate_result_size(&mut self, trials: usize) -> f64 {
        self.sampler
            .estimate_result_size(&self.index, &mut self.rng, trials)
    }

    /// The underlying index.
    pub fn index(&self) -> &DynamicIndex {
        &self.index
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_common::stats::{chi_square_critical, chi_square_uniform};
    use rsj_common::FxHashMap;
    use rsj_query::QueryBuilder;

    #[test]
    fn ad_hoc_sampling_uniform() {
        let mut qb = QueryBuilder::new();
        qb.relation("R", &["X", "Y"]);
        qb.relation("S", &["Y", "Z"]);
        let mut ix = DynamicSampleIndex::new(qb.build().unwrap(), 1).unwrap();
        // Skewed: y=1 has 4 R-tuples and 1 S-tuple; y=2 has 1 and 3.
        for x in 0..4u64 {
            ix.insert(0, &[x, 1]);
        }
        ix.insert(1, &[1, 100]);
        ix.insert(0, &[9, 2]);
        for z in 0..3u64 {
            ix.insert(1, &[2, 200 + z]);
        }
        // 4*1 + 1*3 = 7 results.
        let mut counts: FxHashMap<Vec<u64>, u64> = FxHashMap::default();
        for s in ix.sample_many(14_000) {
            *counts.entry(s).or_default() += 1;
        }
        assert_eq!(counts.len(), 7);
        let obs: Vec<u64> = counts.values().copied().collect();
        let (stat, df) = chi_square_uniform(&obs);
        assert!(stat < chi_square_critical(df, 0.0001), "chi2={stat}");
    }

    #[test]
    fn size_estimation_two_table() {
        let mut qb = QueryBuilder::new();
        qb.relation("R", &["X", "Y"]);
        qb.relation("S", &["Y", "Z"]);
        let mut ix = DynamicSampleIndex::new(qb.build().unwrap(), 3).unwrap();
        for x in 0..20u64 {
            ix.insert(0, &[x, x % 4]);
        }
        for z in 0..12u64 {
            ix.insert(1, &[z % 4, z]);
        }
        // Exact: each y in 0..4 has 5 R-tuples and 3 S-tuples => 60.
        let est = ix.estimate_result_size(5000);
        assert!((est - 60.0).abs() < 8.0, "est {est}");
    }

    #[test]
    fn deletes_flow_through_the_facade() {
        let mut qb = QueryBuilder::new();
        qb.relation("R", &["X", "Y"]);
        qb.relation("S", &["Y", "Z"]);
        let mut ix = DynamicSampleIndex::new(qb.build().unwrap(), 7).unwrap();
        ix.insert(0, &[1, 2]);
        ix.insert(1, &[2, 3]);
        ix.insert(1, &[2, 4]);
        assert!(ix.sample().is_some());
        assert!(ix.delete(1, &[2, 3]).is_some());
        assert!(ix.delete(1, &[2, 3]).is_none()); // absent: no-op
        for _ in 0..50 {
            assert_eq!(ix.sample(), Some(vec![1, 2, 4]));
        }
        assert!(ix.delete(0, &[1, 2]).is_some());
        assert!(ix.sample().is_none());
    }

    #[test]
    fn interleaving_updates_and_samples() {
        let mut qb = QueryBuilder::new();
        qb.relation("R", &["X", "Y"]);
        qb.relation("S", &["Y", "Z"]);
        let mut ix = DynamicSampleIndex::new(qb.build().unwrap(), 2).unwrap();
        assert!(ix.sample().is_none());
        ix.insert(0, &[1, 2]);
        assert!(ix.sample().is_none());
        ix.insert(1, &[2, 3]);
        assert_eq!(ix.sample(), Some(vec![1, 2, 3]));
        ix.insert(1, &[2, 4]);
        let s = ix.sample().unwrap();
        assert!(s == vec![1, 2, 3] || s == vec![1, 2, 4]);
    }
}
