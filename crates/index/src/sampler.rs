//! Uniform sampling from the full query result (Theorem 4.2, operation (2)).
//!
//! The array `J` for `Q(R)` is the root group of any one rooted tree: its
//! `cnt` is the sum over root tuples of their (rounded) sub-batch sizes, so
//! drawing `z` uniform in `[0, cnt)` and retrieving either yields a uniform
//! join result or a dummy. Since `J = O(|Q(R)|)` (density), rejection
//! terminates in `O(1)` expected trials, giving `O(log N)` expected sampling
//! time — the dynamic counterpart of the static indexes of [12, 30].

use crate::dynamic::DynamicIndex;
use crate::retrieve::{retrieve_in_group, DescentMemo, JoinResult};
use crate::state::GroupId;
use rsj_common::rng::RsjRng;
use rsj_common::{fx_hash_one, Key, TupleId};

/// A sampler over the full current result `Q(R)`.
///
/// Borrow-free: holds only configuration; pass the index at call time so
/// sampling can interleave with updates.
#[derive(Clone, Debug)]
pub struct FullSampler {
    /// Which rooted tree to sample through (any is correct; default 0).
    pub root: usize,
    /// Rejection cap before giving up (defensive; density makes the
    /// expected number of trials O(1)).
    pub max_tries: usize,
}

impl Default for FullSampler {
    fn default() -> Self {
        FullSampler {
            root: 0,
            max_tries: 4096,
        }
    }
}

impl FullSampler {
    /// The root group — the implicit array `J` — and its size, if any
    /// root tuple was ever inserted.
    fn array(&self, idx: &DynamicIndex) -> Option<(GroupId, u128)> {
        let ns = idx.state_at(self.root, self.root);
        let g = ns.group_id(fx_hash_one(&Key::EMPTY), &Key::EMPTY)?;
        Some((g, ns.group(g).cnt))
    }

    /// The size `|J|` of the implicit array (an upper bound on `|Q(R)|`,
    /// within a constant factor of it).
    pub fn implicit_size(&self, idx: &DynamicIndex) -> u128 {
        self.array(idx).map_or(0, |(_, size)| size)
    }

    /// One sampling trial: a uniform position of the implicit array,
    /// retrieved into `ids` (one tuple id per relation) through `memo`,
    /// which must have been reset since the index last changed. Returns
    /// `false` if it hit a dummy or the result is empty — an empty result
    /// draws nothing from `rng`. Allocation-free.
    pub fn try_sample_into(
        &self,
        idx: &DynamicIndex,
        rng: &mut RsjRng,
        ids: &mut [TupleId],
        memo: &mut DescentMemo,
    ) -> bool {
        match self.array(idx) {
            Some((g, size)) if size > 0 => {
                let z = rng.below_u128(size);
                retrieve_in_group(idx, self.root, self.root, g, z, ids, memo) == 0
            }
            _ => false,
        }
    }

    /// One sampling trial: uniform position, `None` if it hit a dummy (or
    /// the result is empty). Allocating adapter over
    /// [`try_sample_into`](FullSampler::try_sample_into) with a fresh memo.
    pub fn try_sample(&self, idx: &DynamicIndex, rng: &mut RsjRng) -> Option<JoinResult> {
        let mut ids = vec![0; idx.query().num_relations()];
        self.try_sample_into(idx, rng, &mut ids, &mut DescentMemo::new(idx))
            .then(|| ids.into_iter().enumerate().collect())
    }

    /// Samples one uniform join result into `ids` (one tuple id per
    /// relation), retrying dummies up to `max_tries`. `memo` as for
    /// [`try_sample_into`](FullSampler::try_sample_into). Allocation-free.
    ///
    /// Returns `false` only when `Q(R)` is empty (or the defensive cap is
    /// hit, which would indicate a density-invariant violation).
    pub fn sample_into(
        &self,
        idx: &DynamicIndex,
        rng: &mut RsjRng,
        ids: &mut [TupleId],
        memo: &mut DescentMemo,
    ) -> bool {
        self.implicit_size(idx) > 0
            && (0..self.max_tries).any(|_| self.try_sample_into(idx, rng, ids, memo))
    }

    /// Samples one uniform join result, `None` where
    /// [`sample_into`](FullSampler::sample_into) returns `false`.
    /// Allocating adapter over it with a fresh memo.
    pub fn sample(&self, idx: &DynamicIndex, rng: &mut RsjRng) -> Option<JoinResult> {
        let mut ids = vec![0; idx.query().num_relations()];
        self.sample_into(idx, rng, &mut ids, &mut DescentMemo::new(idx))
            .then(|| ids.into_iter().enumerate().collect())
    }

    /// Unbiased estimate of `|Q(R)|` from `trials` sampling probes.
    ///
    /// The implicit array has exactly `|Q(R)|` real positions among
    /// `implicit_size` total, so `implicit_size · (real hits / trials)` is
    /// an unbiased estimator with relative standard error
    /// `≈ sqrt((1-φ)/(φ·trials))` for real fraction `φ >= (1/2)^{2|T|-1}`.
    /// This is the classic "size estimation via join sampling" application
    /// the paper's related work ([14, 21]) targets.
    pub fn estimate_result_size(&self, idx: &DynamicIndex, rng: &mut RsjRng, trials: usize) -> f64 {
        let size = self.implicit_size(idx);
        if size == 0 || trials == 0 {
            return 0.0;
        }
        let mut ids = vec![0; idx.query().num_relations()];
        let mut memo = DescentMemo::new(idx);
        let hits = (0..trials)
            .filter(|_| self.try_sample_into(idx, rng, &mut ids, &mut memo))
            .count();
        size as f64 * hits as f64 / trials as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::IndexOptions;
    use rsj_common::stats::{chi_square_critical, chi_square_uniform};
    use rsj_common::FxHashMap;
    use rsj_query::QueryBuilder;

    fn line3() -> DynamicIndex {
        let mut qb = QueryBuilder::new();
        qb.relation("G1", &["A", "B"]);
        qb.relation("G2", &["B", "C"]);
        qb.relation("G3", &["C", "D"]);
        DynamicIndex::new(qb.build().unwrap(), IndexOptions::default()).unwrap()
    }

    /// Exact `|Q(R)|` by enumerating root 0's whole implicit array.
    fn real_positions(idx: &DynamicIndex) -> u128 {
        let (g, size) = FullSampler::default().array(idx).expect("root group");
        let (mut ids, mut memo) = ([0; 3], DescentMemo::new(idx));
        (0..size)
            .filter(|&z| retrieve_in_group(idx, 0, 0, g, z, &mut ids, &mut memo) == 0)
            .count() as u128
    }

    #[test]
    fn empty_query_yields_none() {
        let idx = line3();
        let s = FullSampler::default();
        let mut rng = RsjRng::seed_from_u64(1);
        assert_eq!(s.implicit_size(&idx), 0);
        assert!(s.sample(&idx, &mut rng).is_none());
    }

    #[test]
    fn sampler_is_uniform_over_results() {
        let mut idx = line3();
        // Build a join with skewed multiplicities: hub B=1 has 3 G1 tuples,
        // C=2 has 2 G3 tuples, plus a lone chain.
        for a in 0..3u64 {
            idx.insert(0, &[a, 1]);
        }
        idx.insert(1, &[1, 2]).unwrap();
        for d in 0..2u64 {
            idx.insert(2, &[2, d]);
        }
        idx.insert(0, &[9, 5]).unwrap();
        idx.insert(1, &[5, 6]).unwrap();
        idx.insert(2, &[6, 7]).unwrap();
        // 3*2 + 1 = 7 results.
        let s = FullSampler::default();
        let mut rng = RsjRng::seed_from_u64(2);
        let mut expect: Vec<Vec<u64>> = vec![vec![9, 5, 6, 7]];
        for a in 0..3u64 {
            for d in 0..2u64 {
                expect.push(vec![a, 1, 2, d]);
            }
        }
        let mut counts: FxHashMap<Vec<u64>, u64> = FxHashMap::default();
        let trials = 14_000;
        let (mut ids, mut row) = ([0; 3], [0; 4]);
        let mut memo = DescentMemo::new(&idx);
        for _ in 0..trials {
            // The allocating adapter and the slice kernel, fed the same
            // random stream, land on the same id tuple.
            let mut twin = rng.clone();
            let r = s.sample(&idx, &mut rng).expect("nonempty");
            while !s.try_sample_into(&idx, &mut twin, &mut ids, &mut memo) {}
            let pairs: JoinResult = ids.iter().copied().enumerate().collect();
            assert_eq!(r, pairs);
            idx.materialize_ids(&ids, &mut row);
            assert_eq!(row.as_slice(), idx.materialize(&r));
            assert!(expect.contains(&row.to_vec()), "not a join result: {row:?}");
            *counts.entry(row.to_vec()).or_default() += 1;
        }
        assert_eq!(counts.len(), 7);
        let observed: Vec<u64> = counts.values().copied().collect();
        let (stat, df) = chi_square_uniform(&observed);
        assert!(
            stat < chi_square_critical(df, 0.0001),
            "chi2={stat} df={df}"
        );
    }

    #[test]
    fn sampling_through_any_root_is_uniform() {
        let mut idx = line3();
        for a in 0..4u64 {
            idx.insert(0, &[a, 1]);
        }
        idx.insert(1, &[1, 2]).unwrap();
        for d in 0..3u64 {
            idx.insert(2, &[2, d]);
        }
        // 12 results; sample through each of the three rooted trees.
        for root in 0..3 {
            let s = FullSampler {
                root,
                ..Default::default()
            };
            let mut rng = RsjRng::seed_from_u64(7 + root as u64);
            let mut counts: FxHashMap<Vec<u64>, u64> = FxHashMap::default();
            for _ in 0..6_000 {
                let r = s.sample(&idx, &mut rng).expect("nonempty");
                *counts.entry(idx.materialize(&r)).or_default() += 1;
            }
            assert_eq!(counts.len(), 12, "root {root}");
            let observed: Vec<u64> = counts.values().copied().collect();
            let (stat, df) = chi_square_uniform(&observed);
            assert!(
                stat < chi_square_critical(df, 0.0001),
                "root {root}: chi2={stat}"
            );
        }
    }

    #[test]
    fn implicit_size_bounds_true_size() {
        let mut idx = line3();
        let mut rng = RsjRng::seed_from_u64(11);
        for _ in 0..200 {
            let rel = rng.index(3);
            idx.insert(rel, &[rng.below_u64(5), rng.below_u64(5)]);
        }
        // Count true size by exhaustive sampling positions.
        let s = FullSampler::default();
        let size = s.implicit_size(&idx);
        let reals = real_positions(&idx);
        assert!(size >= reals);
        // Density: the implicit array is O(|Q(R)|).
        if reals > 0 {
            assert!(size <= reals * 16, "size={size} reals={reals}");
        }
    }

    #[test]
    fn size_estimate_converges() {
        let mut idx = line3();
        let mut rng = RsjRng::seed_from_u64(17);
        for _ in 0..300 {
            let rel = rng.index(3);
            idx.insert(rel, &[rng.below_u64(6), rng.below_u64(6)]);
        }
        // Exact size by full enumeration of the implicit array.
        let s = FullSampler::default();
        let exact = real_positions(&idx);
        assert!(exact > 0, "need a non-empty join");
        let est = s.estimate_result_size(&idx, &mut rng, 20_000);
        let rel_err = (est - exact as f64).abs() / exact as f64;
        assert!(rel_err < 0.1, "est {est} vs exact {exact}");
    }

    #[test]
    fn size_estimate_zero_for_empty() {
        let idx = line3();
        let s = FullSampler::default();
        let mut rng = RsjRng::seed_from_u64(1);
        assert_eq!(s.estimate_result_size(&idx, &mut rng, 100), 0.0);
    }

    #[test]
    fn sample_interleaved_with_updates() {
        let mut idx = line3();
        let s = FullSampler::default();
        let mut rng = RsjRng::seed_from_u64(13);
        idx.insert(0, &[0, 1]).unwrap();
        assert!(s.sample(&idx, &mut rng).is_none());
        idx.insert(1, &[1, 2]).unwrap();
        assert!(s.sample(&idx, &mut rng).is_none());
        idx.insert(2, &[2, 3]).unwrap();
        let r = s.sample(&idx, &mut rng).expect("now joined");
        assert_eq!(idx.materialize(&r), vec![0, 1, 2, 3]);
    }
}
