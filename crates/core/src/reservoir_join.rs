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
//! deletes, repairs and state images go through one copy of the code. What
//! the driver adds is adaptive planning: a [`Planner`], a [`ReplanPolicy`]
//! and the rebuild bookkeeping (see [`ReservoirJoin::replan`]).
//!
//! # Turnstile streams
//!
//! [`ReservoirJoin::delete`] opens the stream to deletions. The index side
//! is the exact mirror of insertion (cascading count decrements). The
//! reservoir side follows the eviction-and-backfill protocol:
//!
//! 1. **Evict** every sample that used the deleted tuple (set semantics
//!    make the test a projection comparison).
//! 2. **Backfill** the vacated slots with fresh uniform draws from the
//!    index's full-query sampler, rejected to distinctness — sequential
//!    simple random sampling, so the sample set is exactly uniform without
//!    replacement over the post-delete `Q(R)`.
//! 3. **Recalibrate** the skip state `(w, q)` against the *exact* live
//!    `|Q(R)|`, so subsequent inserts are weighted as if the reservoir had
//!    run over the live population from the start. The count is served by
//!    the index ([`DynamicIndex::exact_count`]: one pass over the groups
//!    and posting lists it already maintains — no re-planning, no tuple
//!    hashing, no allocation per tuple); inside the sampler service the
//!    members of an index group share one such pass per accepted op.
//!
//! Step 3 is the expensive one and runs only at *repair points*: deletes
//! that evicted a sample, plus a forced refresh every `~|Q(R)|/4k`
//! deletes (every delete while `|Q(R)| <= 4k`). Between repair points the
//! sample stays a uniform subset of the live results; only the inclusion
//! probability of results inserted since the last repair drifts (bounded
//! by the fraction deleted since then, `< 1/4k`), until the next repair
//! resets it exactly. Engines with `O(1)` exact counts (`SJoin`,
//! `SymmetricHashJoin`) afford recalibration on *every* delete and carry
//! no such drift; see ARCHITECTURE.md, "Update model".

use crate::group::{column_hashes, Group, SamplerCore};
use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::{TupleId, Value};
use rsj_index::{DynamicIndex, FullSampler, IndexOptions, IndexStats};
use rsj_query::{Plan, Planner, Query};
use rsj_storage::{ColumnarBatch, TableStatistics};
use rsj_stream::Rows;

/// When the driver re-evaluates its plan against observed statistics.
///
/// Checks happen at power-of-two accepted-insert counts (so the planning
/// pass — an `O(N)` statistics scan plus candidate scoring — amortizes to
/// `O(1)` per insert), starting at [`min_inserts`](ReplanPolicy::min_inserts).
/// An actual index rebuild only happens when the challenger plan clears the
/// planner's hold margin; a mere sampling-root switch is free and taken
/// whenever the model prefers it.
#[derive(Clone, Copy, Debug)]
pub struct ReplanPolicy {
    /// Re-evaluate automatically during [`ReservoirJoin::process`]. With
    /// `false`, plans only change through explicit
    /// [`ReservoirJoin::replan`] calls.
    pub auto: bool,
    /// First accepted-insert count at which an automatic check may fire.
    pub min_inserts: u64,
}

impl Default for ReplanPolicy {
    fn default() -> Self {
        ReplanPolicy {
            auto: true,
            min_inserts: 4096,
        }
    }
}

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
    group: Group,
    replanner: Replanner,
}

/// The planning half of the driver: configuration plus the two counters
/// its image carries.
struct Replanner {
    planner: Planner,
    policy: ReplanPolicy,
    /// Index rebuilds performed by [`replan`](Replanner::replan).
    rebuilds: u64,
    /// Accepted-insert count at which the last automatic replan check
    /// fired (guards against duplicate arrivals re-firing a checkpoint).
    checked_at: u64,
}

impl Replanner {
    /// Auto-replan fires *between* tuples, never between an insert and
    /// the consumption of its delta batch: a rebuild reassigns tuple
    /// ids (tombstones compact away) and runs a repair point, so an
    /// in-flight tid/batch would be stale — a panic after deletes, a
    /// double-counted delta batch otherwise. The `checked_at` marker
    /// keeps duplicate (no-op) arrivals from re-triggering the same
    /// power-of-two checkpoint.
    fn maybe_auto(&mut self, group: &mut Group) {
        let inserts = group.members[0].inserts;
        if self.policy.auto
            && inserts >= self.policy.min_inserts
            && inserts.is_power_of_two()
            && self.checked_at != inserts
        {
            self.checked_at = inserts;
            self.replan(group);
        }
    }

    /// See [`ReservoirJoin::replan`].
    fn replan(&mut self, group: &mut Group) -> bool {
        let query = group.index().query();
        let stats = TableStatistics::from_database(group.index().database());
        let Some(mut challenger) = self.planner.plan(query, &stats) else {
            return false;
        };
        let plan = &group.members[0].plan;
        if challenger.tree.canonical_edges() == plan.tree.canonical_edges() {
            self.observe_root(group.index(), &mut challenger, &stats);
            let plan = &mut group.members[0].plan;
            if challenger.root == plan.root {
                plan.cost = challenger.cost;
                return false;
            }
            // Root-only move: every rooted view is already maintained, so
            // switching which one repair sampling descends is free.
            *plan = challenger;
            return true;
        }
        // The planner's hold margin is measured against the canonical
        // anchor; when the incumbent is already non-canonical, hold again
        // unless the challenger also clears the margin over the incumbent
        // re-scored on today's statistics.
        if let Some(current) = self.planner.score(query, &plan.tree, plan.root, &stats) {
            if challenger.cost.total >= current.total * (1.0 - self.planner.hold_margin) {
                group.members[0].plan.cost = current;
                return false;
            }
        }
        let tree = challenger.tree.clone();
        let rebuilt = group.rebuild(&tree, |index, plan| {
            // The rebuilt index has fresh per-root slack; measure it.
            self.observe_root(index, &mut challenger, &stats);
            *plan = challenger.clone();
        });
        self.rebuilds += u64::from(rebuilt);
        rebuilt
    }

    /// Lets observation override the model's sampling root: the live index
    /// *measures* each root's rejection slack exactly — the implicit array
    /// size `|J_root|`, one O(1) group lookup per root — and the smallest
    /// wins, ties going to the model's proposal, then to the smallest id.
    /// A moved plan keeps its metadata truthful: the cost is re-scored for
    /// the actual root and the canonical flag recomputed against the GYO
    /// tree + root 0.
    fn observe_root(&self, index: &DynamicIndex, plan: &mut Plan, stats: &TableStatistics) {
        let query = index.query();
        let slack = |root| {
            FullSampler {
                root,
                ..FullSampler::default()
            }
            .implicit_size(index)
        };
        let proposed = plan.root;
        let root = (0..query.num_relations())
            .min_by_key(|&r| (slack(r), r != proposed, r))
            .unwrap_or(proposed);
        if root == proposed {
            return;
        }
        plan.root = root;
        if let Some(cost) = self.planner.score(query, &plan.tree, root, stats) {
            plan.cost = cost;
        }
        let gyo = rsj_query::JoinTree::build(query).map(|t| t.canonical_edges());
        plan.is_canonical = root == 0 && gyo.as_deref() == Some(&plan.tree.canonical_edges()[..]);
    }
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
    /// plan (GYO tree, root 0) — byte-identical to the historical
    /// hard-coded orientation until observed statistics justify a change.
    pub fn with_options(
        query: Query,
        k: usize,
        seed: u64,
        options: IndexOptions,
    ) -> Result<ReservoirJoin, rsj_index::dynamic::IndexError> {
        let plan = Plan::canonical(&query).ok_or(rsj_index::dynamic::IndexError::Cyclic)?;
        Self::with_plan(query, k, seed, options, plan)
    }

    /// Creates a driver over an explicit [`Plan`] — the planner's output,
    /// or a hand-rooted override. The plan's tree must be a join tree of
    /// `query` (anything [`Planner::plan`] emitted for it is).
    pub fn with_plan(
        query: Query,
        k: usize,
        seed: u64,
        options: IndexOptions,
        plan: Plan,
    ) -> Result<ReservoirJoin, rsj_index::dynamic::IndexError> {
        Ok(ReservoirJoin {
            group: Group::new(query, plan, options, k, seed)?,
            replanner: Replanner {
                planner: Planner::default(),
                policy: ReplanPolicy::default(),
                rebuilds: 0,
                checked_at: 0,
            },
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
        self.replanner.maybe_auto(&mut self.group);
        self.group.insert(rel, tuple)
    }

    /// Processes a columnar batch, byte-identically to shredding it
    /// through [`process`](ReservoirJoin::process) in arrival order (the
    /// golden-digest suite pins this).
    ///
    /// Reservoir skips, replan checkpoints, and delta batches are all
    /// order-sensitive, so tuples still apply one at a time; the work
    /// hoisted out of the loop is the plan-independent part — every row's
    /// relation dedup hash, computed column-wise by the vectorized hash
    /// kernel. Index-only pipelines that can accept physical reordering
    /// use `DynamicIndex::insert_columnar` instead.
    pub fn process_columnar(&mut self, batch: &ColumnarBatch) {
        let hashes = column_hashes(batch);
        let replanner = &mut self.replanner;
        self.group
            .insert_columnar(batch, &hashes, |group| replanner.maybe_auto(group));
    }

    /// Deletes one input tuple (turnstile streams — see the [module
    /// docs](self) for the repair protocol).
    ///
    /// Returns the id the tuple occupied, or `None` if it was not present
    /// (set semantics — no effect).
    pub fn delete(&mut self, rel: usize, tuple: &[Value]) -> Option<TupleId> {
        self.group.delete(rel, tuple)
    }

    /// Forces a repair point now: exact live count, sample backfill to
    /// `min(k, |Q(R)|)` distinct uniform results, skip-state
    /// recalibration. Called automatically on damaging deletes and every
    /// repair-period deletes (see the [module docs](self)); exposed so
    /// turnstile pipelines can buy back exactness before a read.
    pub fn refresh(&mut self) {
        self.group.refresh();
    }

    /// Re-evaluates the plan against statistics observed from the stored
    /// relations and adapts the orientation — the adaptive re-rooting hook.
    ///
    /// Statistics are snapshotted from the live database
    /// ([`TableStatistics::from_database`]); the planner scores every
    /// candidate tree × root against them. Three outcomes:
    ///
    /// * the current plan stands (challenger within the hold margin) —
    ///   nothing changes, returns `false`;
    /// * only the preferred **sampling root** moved — the cost model
    ///   proposes, then the *observed* per-root implicit-array sizes
    ///   (exact rejection slack, one O(1) lookup per root) get the final
    ///   say — and the root is switched in place (free: every rooted view
    ///   is already maintained), returns `true`;
    /// * a different **tree** wins — the dynamic index is rebuilt in the
    ///   new orientation by re-inserting the stored live relations (the
    ///   reservoir's materialized samples stay valid — `Q(R)` itself is
    ///   unchanged — and a repair point recalibrates the skip state against
    ///   the exact live `|Q(R)|` and backfills any shortfall), returns
    ///   `true`.
    ///
    /// Called automatically at power-of-two insert counts per
    /// [`ReplanPolicy`]; call it directly to force a re-evaluation (e.g.
    /// after a bulk load).
    pub fn replan(&mut self) -> bool {
        self.replanner.replan(&mut self.group)
    }

    /// The active plan (orientation, sampling root, scores).
    pub fn plan(&self) -> &Plan {
        &self.core().plan
    }

    /// The automatic re-planning policy.
    pub fn replan_policy(&self) -> ReplanPolicy {
        self.replanner.policy
    }

    /// Replaces the planner [`replan`](ReservoirJoin::replan) consults
    /// (weights, enumeration cap, hold margin). A zero hold margin makes
    /// re-planning follow the cost model greedily — useful in tests that
    /// must exercise a rebuild deterministically.
    pub fn set_planner(&mut self, planner: Planner) {
        self.replanner.planner = planner;
    }

    /// Replaces the automatic re-planning policy (e.g. to disable
    /// mid-stream checks in a byte-stability harness).
    pub fn set_replan_policy(&mut self, policy: ReplanPolicy) {
        self.replanner.policy = policy;
    }

    /// Number of orientation rebuilds [`replan`](ReservoirJoin::replan)
    /// has performed.
    pub fn rebuilds(&self) -> u64 {
        self.replanner.rebuilds
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

    /// Exact live `|Q(R)|`: the group's memoized index count, shared with
    /// the delete repair.
    pub fn exact_count(&self) -> u128 {
        self.group.population()
    }

    /// Serializes the driver's complete dynamic state into `enc`: the
    /// one-member group image — the tree the index is built over (it may
    /// have been rebuilt since construction), the index's dynamic state
    /// (physical layout included), and the member's plan, reservoir
    /// (sample slots, skip parameters `(w, q)`, RNG position), repair RNG
    /// and counters — followed by the replan counters.
    ///
    /// Construction parameters — query, `k`, seed, planner, replan policy
    /// — are *not* written; a snapshot restores into a driver built with
    /// identical ones (the durability layer's `Checkpoint` tags the
    /// engine name so cross-engine restores fail loudly). Everything
    /// future behavior depends on is captured, so a restored driver
    /// reproduces the original byte-for-byte on any further stream.
    pub fn snapshot_to(&self, enc: &mut Encoder) {
        self.group.snapshot_to(enc, |_, _| {});
        enc.put_u64(self.replanner.rebuilds);
        enc.put_u64(self.replanner.checked_at);
    }

    /// Restores state written by [`snapshot_to`](ReservoirJoin::snapshot_to)
    /// into `self`, which must have been built with the same construction
    /// parameters. The index is rebuilt over the snapshot's join tree (the
    /// snapshot may have re-rooted or re-oriented since construction) and
    /// its dynamic state overlaid; shape mismatches (wrong query, wrong
    /// `k` or index options, a sample row of the wrong width) reject the
    /// snapshot and leave `self` unchanged. The planner and replan policy
    /// are configuration, not state — they keep `self`'s current values.
    pub fn restore_from_snapshot(&mut self, dec: &mut Decoder) -> Result<(), CodecError> {
        let (group, _) = Group::restore_from(dec, self.index().query(), |_| Ok(()))?;
        if group.members.len() != 1 || group.index().options() != self.index().options() {
            return Err(CodecError::Corrupt(
                "snapshot is not a group of this driver",
            ));
        }
        if group.members[0].reservoir.capacity() != self.k() {
            return Err(CodecError::Corrupt("snapshot reservoir capacity mismatch"));
        }
        let rebuilds = dec.u64()?;
        let checked_at = dec.u64()?;
        self.group = group;
        self.replanner.rebuilds = rebuilds;
        self.replanner.checked_at = checked_at;
        Ok(())
    }

    /// Estimated heap bytes of index + reservoir (the sample buffer's
    /// whole capacity).
    pub fn heap_size(&self) -> usize {
        self.group.heap_size()
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
    fn replan_on_canonical_plan_is_a_noop() {
        let mut rj = ReservoirJoin::new(line3(), 100, 1).unwrap();
        let mut rng = RsjRng::seed_from_u64(2);
        for _ in 0..200 {
            rj.process(rng.index(3), &[rng.below_u64(5), rng.below_u64(5)]);
        }
        let before: Vec<Vec<u64>> = rj.samples().to_vec();
        let edges = rj.plan().tree.canonical_edges();
        // Line-3 has a unique tree, so replan can at most move the root —
        // never rebuild — and the reservoir must be byte-identical.
        rj.replan();
        assert_eq!(rj.rebuilds(), 0);
        assert_eq!(rj.plan().tree.canonical_edges(), edges);
        assert_eq!(rj.samples().to_vec(), before);
    }

    fn greedy() -> Planner {
        Planner {
            hold_margin: 0.0,
            ..Planner::default()
        }
    }

    /// Star-4 sharing HUB (16 candidate trees), a stream over it with mild
    /// hub skew (so the cost model has something to chew on), and a plan
    /// over a tree the greedy planner does *not* settle on for that stream
    /// — a driver started on it is guaranteed to rebuild at its next
    /// greedy `replan`.
    fn star4_off_tree() -> (Query, Plan, Vec<(usize, [u64; 2])>) {
        let mut qb = QueryBuilder::new();
        for i in 1..=4 {
            qb.relation(&format!("G{i}"), &["HUB", &format!("B{i}")]);
        }
        let q = qb.build().unwrap();
        let trees = rsj_query::all_join_trees(&q, 32);
        assert_eq!(trees.len(), 16);
        let stream: Vec<(usize, [u64; 2])> = {
            let mut rng = RsjRng::seed_from_u64(4);
            (0..120)
                .map(|_| {
                    let rel = rng.index(4);
                    let hub = if rng.below_u64(3) == 0 {
                        0
                    } else {
                        rng.below_u64(8)
                    };
                    (rel, [hub, rng.below_u64(40)])
                })
                .collect()
        };
        // Scout which tree the greedy planner settles on for this data,
        // then pick a different one.
        let winner_edges = {
            let mut scout = ReservoirJoin::new(q.clone(), 4, 0).unwrap();
            for (rel, t) in &stream {
                scout.process(*rel, t);
            }
            scout.set_planner(greedy());
            scout.replan();
            scout.plan().tree.canonical_edges()
        };
        let alt = trees
            .iter()
            .find(|t| t.canonical_edges() != winner_edges)
            .expect("16 trees, one winner")
            .clone();
        let mut plan = Plan::canonical(&q).unwrap();
        plan.tree = alt;
        plan.is_canonical = false;
        (q, plan, stream)
    }

    #[test]
    fn replan_rebuild_preserves_the_result_set() {
        // Start from a non-GYO tree, zero the hold margin, and force a
        // greedy replan; whatever orientation wins, the maintained sample
        // set (k >= |Q|) must be exactly the live result set before and
        // after.
        let (q, plan, stream) = star4_off_tree();
        let mut rj =
            ReservoirJoin::with_plan(q, 1 << 16, 3, IndexOptions::default(), plan).unwrap();
        for (rel, t) in &stream {
            rj.process(*rel, t);
        }
        let before: FxHashSet<Vec<u64>> = rj.samples().iter().map(<[u64]>::to_vec).collect();
        let live = crate::count::exact_result_count(rj.index().query(), rj.index().database());
        assert_eq!(before.len() as u128, live, "k >= |Q| collects everything");
        rj.set_planner(greedy());
        let changed = rj.replan();
        assert!(changed, "greedy replan must leave the degenerate start");
        assert_eq!(rj.rebuilds(), 1, "tree change rebuilds the index");
        let after: FxHashSet<Vec<u64>> = rj.samples().iter().map(<[u64]>::to_vec).collect();
        assert_eq!(after, before, "replan altered Q(R)");
        assert_eq!(
            crate::count::exact_result_count(rj.index().query(), rj.index().database()),
            live
        );
        // The index still accepts updates and stays consistent post-swap.
        assert!(rj.process(0, &[999, 999]).is_some());
        assert_eq!(
            crate::count::exact_result_count(rj.index().query(), rj.index().database()),
            live
        );
    }

    #[test]
    fn restore_after_a_rebuild_round_trips_and_continues_identically() {
        // The image of an index `replan` rebuilt: the rebuilt tree, the
        // reassigned tuple ids and the post-rebuild repair state must all
        // survive snapshot -> restore -> snapshot byte for byte, and the
        // restored driver must then follow the original op for op.
        let (q, plan, stream) = star4_off_tree();
        let build = || {
            let mut rj =
                ReservoirJoin::with_plan(q.clone(), 8, 5, IndexOptions::default(), plan.clone())
                    .unwrap();
            rj.set_planner(greedy());
            rj
        };
        let mut rj = build();
        let mut live = Vec::new();
        for &(rel, t) in &stream {
            if rj.process(rel, &t).is_some() {
                live.push((rel, t));
            }
        }
        assert!(rj.replan() && rj.rebuilds() == 1, "no rebuild to snapshot");
        let image = |rj: &ReservoirJoin| {
            let mut enc = Encoder::new();
            rj.snapshot_to(&mut enc);
            enc.into_bytes()
        };
        let bytes = image(&rj);
        let mut restored = build();
        let mut dec = Decoder::new(&bytes);
        restored.restore_from_snapshot(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(image(&restored), bytes, "restore lost rebuilt state");
        assert_eq!(restored.rebuilds(), 1);
        let mut rng = RsjRng::seed_from_u64(6);
        for step in 0..300 {
            if step % 3 == 2 && !live.is_empty() {
                let (rel, t) = live.swap_remove(rng.index(live.len()));
                assert_eq!(rj.delete(rel, &t), restored.delete(rel, &t));
            } else {
                let (rel, t) = (rng.index(4), [rng.below_u64(8), rng.below_u64(40)]);
                let tid = rj.process(rel, &t);
                assert_eq!(tid, restored.process(rel, &t));
                if tid.is_some() {
                    live.push((rel, t));
                }
            }
            assert_eq!(rj.samples(), restored.samples(), "diverged at {step}");
        }
        assert!(rj.deletes() > 0);
    }

    #[test]
    fn auto_replan_rebuild_is_safe_mid_stream() {
        // Regression: the automatic replan check must never fire between
        // an index insert and the consumption of its delta batch — a
        // rebuild reassigns tuple ids (tombstones compact), which used to
        // panic in delta_batch on turnstile streams. Force frequent
        // checks with a greedy planner on a multi-tree query with
        // interleaved deletes and verify exactness end to end.
        let mut qb = QueryBuilder::new();
        for i in 1..=4 {
            qb.relation(&format!("G{i}"), &["HUB", &format!("B{i}")]);
        }
        let q = qb.build().unwrap();
        let mut rj = ReservoirJoin::new(q.clone(), 1 << 16, 9).unwrap();
        rj.set_planner(rsj_query::Planner {
            hold_margin: 0.0,
            ..rsj_query::Planner::default()
        });
        rj.set_replan_policy(ReplanPolicy {
            auto: true,
            min_inserts: 4,
        });
        let mut rng = RsjRng::seed_from_u64(77);
        let mut live: Vec<(usize, [u64; 2])> = Vec::new();
        for step in 0..600 {
            if step % 5 == 4 && !live.is_empty() {
                let (rel, t) = live.swap_remove(rng.index(live.len()));
                assert!(rj.delete(rel, &t).is_some());
            } else {
                let rel = rng.index(4);
                let t = [rng.below_u64(6), rng.below_u64(12)];
                if rj.process(rel, &t).is_some() {
                    live.push((rel, t));
                }
            }
        }
        let got: FxHashSet<Vec<u64>> = rj.samples().iter().map(<[u64]>::to_vec).collect();
        let population =
            crate::count::exact_result_count(rj.index().query(), rj.index().database());
        assert_eq!(
            got.len() as u128,
            population,
            "k >= |Q| collects everything"
        );
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
        let mut enc = Encoder::new();
        rj.snapshot_to(&mut enc);
        let bytes = enc.into_bytes();
        let mut restored = ReservoirJoin::new(line3(), 8, 42).unwrap();
        let mut dec = Decoder::new(&bytes);
        restored.restore_from_snapshot(&mut dec).unwrap();
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
        assert!(wrong_k
            .restore_from_snapshot(&mut Decoder::new(&bytes))
            .is_err());
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
