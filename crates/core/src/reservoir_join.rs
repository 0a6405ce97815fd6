//! `ReservoirJoin` — Algorithm 6, the paper's headline driver.
//!
//! Per input tuple: update the dynamic index (`O(log N)` amortized), ask it
//! for the implicit delta batch `ΔJ ⊇ ΔQ(R, t)`, and feed that batch to the
//! batched predicate reservoir. The reservoir's `skip` jumps over batch
//! positions without touching them; only its `O(Σ min(1, k/(r+1)))` stops
//! perform an `O(log N)` positional retrieve, and a retrieve that lands on
//! rounding slack is exactly a falsified predicate.
//!
//! The driver is an index group with exactly one member — the runtime unit
//! the sampler service runs with many members per index — so inserts,
//! deletes, repairs and state images go through one copy of the code. Its
//! [`Plan`] — join tree and sampling root — is fixed at construction.
//!
//! # Turnstile streams
//!
//! [`ReservoirJoin::delete`] opens the stream to deletions. The index side
//! is the exact mirror of insertion (cascading count decrements). The
//! reservoir side follows the eviction-and-backfill protocol:
//!
//! 1. **Evict** every sample that used the deleted tuple. Set semantics
//!    make a row's values and its tuple ids name the same result, so the
//!    test reads the tuple-id columns kept beside the rows (built at the
//!    first delete), not the rows.
//! 2. **Backfill** the vacated slots with fresh uniform draws from the
//!    index's full-query sampler, rejected to distinctness by their tuple
//!    ids — sequential simple random sampling, so the sample set is
//!    exactly uniform without replacement over the post-delete `Q(R)`.
//! 3. **Recalibrate** the skip state `(w, q)` against the *exact* live
//!    `|Q(R)|`, so subsequent inserts are weighted as if the reservoir had
//!    run over the live population from the start: `w` is redrawn from its
//!    exact law, the `k`-th smallest of `|Q(R)|` uniforms, in `O(1)`
//!    ([`Reservoir::recalibrate`](rsj_stream::Reservoir::recalibrate)).
//!
//! Every delete is a repair point, so the sample is exactly uniform after
//! every op, with no calibration drift between deletes. What makes that
//! affordable is the count: the index group keeps an anchored ledger of
//! `|Q(R)|` that a delete settles with *rooted walks* — the inserts since
//! the last delete and the deleted tuple each walk their own neighbourhood
//! in the index ([`DynamicIndex::count_since`],
//! [`DynamicIndex::count_joining`]) — instead of recounting the join;
//! only the first delete, or a settle heavier than the whole index, pays a
//! full [`DynamicIndex::exact_count`] pass. Inside the sampler service the
//! members of an index group share the one settled count per op; see
//! ARCHITECTURE.md, "Update model".

use crate::group::{Group, SamplerCore};
use rsj_common::{TupleId, Value};
use rsj_index::{DynamicIndex, HeapLine, IndexOptions, IndexStats};
use rsj_query::{Plan, Query};
use rsj_stream::Rows;

/// Maintains `k` uniform samples without replacement of the join results of
/// an acyclic query over a fully-dynamic (insert + delete) tuple stream.
///
/// Samples are materialized full-width value tuples (indexed by the query's
/// attribute ids), so they stay valid as the stream continues. They live
/// back to back in one flat buffer; [`samples`](ReservoirJoin::samples)
/// hands out `&[Value]` row slices of it.
///
/// ```
/// use rsj_query::QueryBuilder;
/// use rsj_core::ReservoirJoin;
///
/// let mut qb = QueryBuilder::new();
/// qb.relation("R", &["X", "Y"]);
/// qb.relation("S", &["Y", "Z"]);
/// let mut rj = ReservoirJoin::new(qb.build().unwrap(), 10, 42).unwrap();
/// rj.process(0, &[1, 2]);
/// rj.process(1, &[2, 3]);
/// assert_eq!(rj.samples().to_vec(), [[1, 2, 3]]);
/// rj.delete(1, &[2, 3]);
/// assert!(rj.samples().is_empty());
/// ```
pub struct ReservoirJoin {
    /// The index and its one member.
    pub(crate) group: Group,
}

impl ReservoirJoin {
    /// Creates a driver with the default index options (grouping on).
    pub fn new(
        query: Query,
        k: usize,
        seed: u64,
    ) -> Result<ReservoirJoin, rsj_index::dynamic::IndexError> {
        Self::with_options(query, k, seed, IndexOptions::default())
    }

    /// Creates a driver with explicit index options over the canonical
    /// plan (GYO tree, root 0).
    pub fn with_options(
        query: Query,
        k: usize,
        seed: u64,
        options: IndexOptions,
    ) -> Result<ReservoirJoin, rsj_index::dynamic::IndexError> {
        let plan = Plan::canonical(&query).ok_or(rsj_index::dynamic::IndexError::Cyclic)?;
        Self::with_plan(query, k, seed, options, plan)
    }

    /// Creates a driver over an explicit, hand-rooted [`Plan`]. The plan's
    /// tree must be a join tree of `query` and its root one of `query`'s
    /// relations; anything else is an [`InvalidTree`] error.
    ///
    /// [`InvalidTree`]: rsj_index::dynamic::IndexError::InvalidTree
    pub fn with_plan(
        query: Query,
        k: usize,
        seed: u64,
        options: IndexOptions,
        plan: Plan,
    ) -> Result<ReservoirJoin, rsj_index::dynamic::IndexError> {
        Ok(ReservoirJoin {
            group: Group::new(query, plan, options, k, seed)?,
        })
    }

    /// The one member.
    fn core(&self) -> &SamplerCore {
        &self.group.members[0]
    }

    /// Processes one input tuple (Algorithm 6 lines 5–7).
    ///
    /// Returns the tuple's id, or `None` if it was a duplicate (no effect).
    pub fn process(&mut self, rel: usize, tuple: &[Value]) -> Option<TupleId> {
        self.group.insert(rel, tuple)
    }

    /// Deletes one input tuple (turnstile streams — see the [module
    /// docs](self) for the repair protocol).
    ///
    /// Returns the id the tuple occupied, or `None` if it was not present
    /// (set semantics — no effect).
    pub fn delete(&mut self, rel: usize, tuple: &[Value]) -> Option<TupleId> {
        self.group.delete(rel, tuple)
    }

    /// The plan: join tree and sampling root.
    pub fn plan(&self) -> &Plan {
        &self.core().plan
    }

    /// The current samples: uniform without replacement over `Q(R)`, fewer
    /// than `k` while `|Q(R)| < k`. A borrowed view of the flat sample
    /// buffer — iterate it for `&[Value]` rows.
    pub fn samples(&self) -> Rows<'_> {
        self.core().reservoir.samples()
    }

    /// Reservoir capacity `k`.
    pub fn k(&self) -> usize {
        self.core().reservoir.capacity()
    }

    /// The underlying index (for sizes, stats, full-query sampling).
    pub fn index(&self) -> &DynamicIndex {
        self.group.index()
    }

    /// Index instrumentation counters.
    pub fn index_stats(&self) -> IndexStats {
        self.index().stats()
    }

    /// Number of predicate-evaluating stops the reservoir performed (each
    /// costing one `O(log N)` retrieve).
    pub fn reservoir_stops(&self) -> u64 {
        self.core().reservoir.stops()
    }

    /// Tuples accepted so far (on insert-only streams, the paper's `N`).
    pub fn inserts(&self) -> u64 {
        self.core().inserts
    }

    /// Tuples deleted so far (present at deletion time).
    pub fn deletes(&self) -> u64 {
        self.core().deletes
    }

    /// Exact live `|Q(R)|`: the group's memoized count, shared with the
    /// delete repair — settled from the anchored ledger once the stream
    /// has deleted, a full index pass before.
    pub fn exact_count(&self) -> u128 {
        self.group.population()
    }

    /// Full [`DynamicIndex::exact_count`] passes the driver has paid so
    /// far (instrumentation): on a turnstile stream, one at the first
    /// delete and one per settle that outweighed a pass.
    pub fn count_passes(&self) -> u64 {
        self.group.count_passes()
    }

    /// Estimated heap bytes of index + reservoir (the sample buffer's
    /// whole capacity).
    pub fn heap_size(&self) -> usize {
        self.group.heap_size()
    }

    /// [`heap_size`](ReservoirJoin::heap_size) as a ledger:
    /// [`DynamicIndex::heap_breakdown`]'s lines, then the member's sample
    /// rows (`member.rows`) and the tuple-id columns delete repair keeps
    /// beside them (`member.ids`, empty until the first delete). The lines
    /// sum to `heap_size()` exactly.
    pub fn heap_breakdown(&self) -> Vec<HeapLine> {
        self.group.heap_breakdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::SamplerExt;
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

    /// Brute-force all line-3 join results of a tuple multiset.
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
    fn collects_all_when_k_exceeds_results() {
        let mut rj = ReservoirJoin::new(line3(), 1000, 1).unwrap();
        let mut rng = RsjRng::seed_from_u64(2);
        let mut tuples = Vec::new();
        for _ in 0..120 {
            let rel = rng.index(3);
            let t = [rng.below_u64(5), rng.below_u64(5)];
            if rj.process(rel, &t).is_some() {
                tuples.push((rel, t));
            }
        }
        let expect = brute_line3(&tuples);
        let got: FxHashSet<Vec<u64>> = rj.samples().iter().map(<[u64]>::to_vec).collect();
        assert_eq!(got.len(), rj.samples().len(), "duplicates in reservoir");
        assert_eq!(got, expect);
    }

    #[test]
    fn samples_always_valid_join_results() {
        let mut rj = ReservoirJoin::new(line3(), 20, 3).unwrap();
        let mut rng = RsjRng::seed_from_u64(4);
        let mut tuples = Vec::new();
        for step in 0..400 {
            let rel = rng.index(3);
            let t = [rng.below_u64(6), rng.below_u64(6)];
            if rj.process(rel, &t).is_some() {
                tuples.push((rel, t));
            }
            if step % 50 == 49 {
                let valid = brute_line3(&tuples);
                for s in rj.samples() {
                    assert!(valid.contains(s), "invalid sample {s:?} at {step}");
                }
            }
        }
    }

    #[test]
    fn reservoir_is_uniform_over_join_results() {
        // Small instance with 12 join results; run many seeds, count
        // inclusion per result, chi-square for uniformity.
        let stream: Vec<(usize, [u64; 2])> = vec![
            (0, [1, 10]),
            (2, [20, 5]),
            (1, [10, 20]),
            (0, [2, 10]),
            (2, [20, 6]),
            (0, [3, 10]),
            (1, [10, 21]),
            (2, [21, 7]),
            (2, [21, 8]),
        ];
        let expect = brute_line3(&stream);
        // G1: 3 tuples on B=10; G2: (10,20),(10,21); G3: 20->{5,6}, 21->{7,8}
        // Results: 3 * (2 + 2) = 12.
        assert_eq!(expect.len(), 12);
        let k = 3;
        let trials = 6000u64;
        let mut counts: FxHashMap<Vec<u64>, u64> = FxHashMap::default();
        for seed in 0..trials {
            let mut rj = ReservoirJoin::new(line3(), k, seed).unwrap();
            for (rel, t) in &stream {
                rj.process(*rel, t);
            }
            assert_eq!(rj.samples().len(), k);
            for s in rj.samples() {
                *counts.entry(s.to_vec()).or_default() += 1;
            }
        }
        assert_eq!(counts.len(), 12);
        let observed: Vec<u64> = counts.values().copied().collect();
        let (stat, df) = chi_square_uniform(&observed);
        assert!(
            stat < chi_square_critical(df, 0.0001),
            "chi2={stat} df={df}"
        );
    }

    #[test]
    fn uniform_at_intermediate_timestamps() {
        // The reservoir must be uniform over Q(R_i) at *every* i. Check a
        // specific prefix: after 5 tuples there are 2 results; with k=1 each
        // must be sampled ~half the time.
        let stream: Vec<(usize, [u64; 2])> = vec![
            (0, [1, 10]),
            (1, [10, 20]),
            (2, [20, 5]),
            (2, [20, 6]),
            (0, [9, 9]), // irrelevant
            (2, [20, 7]),
        ];
        let trials = 4000;
        let mut first_hits = 0u64;
        for seed in 0..trials {
            let mut rj = ReservoirJoin::new(line3(), 1, 70_000 + seed).unwrap();
            for (rel, t) in &stream[..5] {
                rj.process(*rel, t);
            }
            assert_eq!(rj.samples().len(), 1);
            if rj.samples()[0] == vec![1, 10, 20, 5] {
                first_hits += 1;
            }
        }
        let f = first_hits as f64 / trials as f64;
        assert!((f - 0.5).abs() < 0.05, "f={f}");
    }

    #[test]
    fn duplicate_tuples_do_not_skew() {
        let mut rj = ReservoirJoin::new(line3(), 100, 5).unwrap();
        rj.process(0, &[1, 10]);
        rj.process(1, &[10, 20]);
        rj.process(2, &[20, 30]);
        for _ in 0..10 {
            assert!(rj.process(0, &[1, 10]).is_none());
        }
        assert_eq!(rj.samples().len(), 1);
        assert_eq!(rj.inserts(), 3);
    }

    #[test]
    fn empty_stream_no_samples() {
        let rj = ReservoirJoin::new(line3(), 10, 0).unwrap();
        assert!(rj.samples().is_empty());
    }

    #[test]
    fn two_table_doc_example() {
        let mut qb = QueryBuilder::new();
        qb.relation("R", &["X", "Y"]);
        qb.relation("S", &["Y", "Z"]);
        let mut rj = ReservoirJoin::new(qb.build().unwrap(), 10, 42).unwrap();
        rj.process(0, &[1, 2]);
        rj.process(1, &[2, 3]);
        assert_eq!(rj.samples().to_vec(), [[1, 2, 3]]);
    }

    #[test]
    fn grouping_on_off_same_distribution() {
        // Distribution equality smoke test: same stream, k >= results, both
        // variants must collect the identical full set.
        let mut rng = RsjRng::seed_from_u64(8);
        let mut stream = Vec::new();
        for _ in 0..150 {
            stream.push((rng.index(3), [rng.below_u64(5), rng.below_u64(5)]));
        }
        let run = |grouping: bool| {
            let mut rj =
                ReservoirJoin::with_options(line3(), 10_000, 9, IndexOptions { grouping }).unwrap();
            for (rel, t) in &stream {
                rj.process(*rel, t);
            }
            let mut s: Vec<Vec<u64>> = rj.samples().to_vec();
            s.sort();
            s
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn with_plan_rejects_a_tree_that_is_not_a_join_tree() {
        // Spanning, but attribute-connectedness violated: G1-G3-G2 breaks
        // B's subtree (B lives in G1 and G2 only).
        let q = line3();
        let bad = rsj_query::JoinTree::from_edges(3, &[(0, 2), (1, 2)]);
        let plan = {
            let mut p = rsj_query::Plan::canonical(&q).unwrap();
            p.tree = bad;
            p
        };
        let Err(err) = ReservoirJoin::with_plan(q, 8, 1, rsj_index::IndexOptions::default(), plan)
        else {
            panic!("invalid tree accepted");
        };
        assert!(err.to_string().contains("join-tree property"), "got: {err}");
    }

    #[test]
    fn snapshot_restores_byte_identical_turnstile_behavior() {
        // Durability contract at the driver level: a restored driver's
        // reservoir, counters, and *future* behavior — including repair
        // draws after deletes — match the original exactly.
        let mut rj = ReservoirJoin::new(line3(), 8, 42).unwrap();
        let mut rng = RsjRng::seed_from_u64(5);
        let mut live: Vec<(usize, [u64; 2])> = Vec::new();
        for step in 0..400 {
            if step % 4 == 3 && !live.is_empty() {
                let (rel, t) = live.swap_remove(rng.index(live.len()));
                rj.delete(rel, &t);
            } else {
                let rel = rng.index(3);
                let t = [rng.below_u64(6), rng.below_u64(6)];
                if rj.process(rel, &t).is_some() {
                    live.push((rel, t));
                }
            }
        }
        let bytes = rj.snapshot_state().unwrap();
        let mut restored = ReservoirJoin::new(line3(), 8, 42).unwrap();
        restored.restore_state(&bytes).unwrap();
        assert_eq!(rj.samples(), restored.samples());
        assert_eq!(rj.inserts(), restored.inserts());
        assert_eq!(rj.deletes(), restored.deletes());
        // Identical continuation, checked lockstep (deletes hit the
        // repair path, so the repair RNG position must have survived).
        for step in 0..300 {
            if step % 3 == 2 && !live.is_empty() {
                let (rel, t) = live.swap_remove(rng.index(live.len()));
                assert_eq!(rj.delete(rel, &t), restored.delete(rel, &t));
            } else {
                let rel = rng.index(3);
                let t = [rng.below_u64(6), rng.below_u64(6)];
                let tid = rj.process(rel, &t);
                assert_eq!(tid, restored.process(rel, &t));
                if tid.is_some() {
                    live.push((rel, t));
                }
            }
            assert_eq!(rj.samples(), restored.samples(), "diverged at {step}");
        }
        // A wrong-k target rejects the snapshot.
        let mut wrong_k = ReservoirJoin::new(line3(), 9, 42).unwrap();
        assert!(wrong_k.restore_state(&bytes).is_err());
    }

    #[test]
    fn stops_stay_near_linear() {
        // On a dense random line-3 stream, reservoir stops must be far
        // below the total join size.
        let mut rj = ReservoirJoin::new(line3(), 50, 10).unwrap();
        let mut rng = RsjRng::seed_from_u64(11);
        for _ in 0..3000 {
            let rel = rng.index(3);
            rj.process(rel, &[rng.below_u64(40), rng.below_u64(40)]);
        }
        let size = rsj_index::FullSampler::default().implicit_size(rj.index());
        assert!(size > 10_000, "want a large join, got {size}");
        // Stops ≈ N (fill) + k log(total/k) — must be way below total.
        assert!(
            (rj.reservoir_stops() as u128) < size / 4,
            "stops={} size={size}",
            rj.reservoir_stops()
        );
    }

    #[test]
    fn the_driver_can_be_shared_across_threads() {
        fn shareable<T: Send + Sync>() {}
        shareable::<ReservoirJoin>();
    }
}
