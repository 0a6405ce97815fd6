//! Reservoir sampling over cyclic joins via GHDs (paper §5).
//!
//! Each GHD bag incrementally materializes the join of its assigned
//! relations with worst-case-optimal delta enumeration ([`crate::wcoj`]);
//! every delta tuple is then inserted into an acyclic [`ReservoirJoin`]
//! over the *bag-level* query, whose join results are exactly the original
//! query's results. Correctness rests on
//! `Q(R) ⋉ t = ⊎_{t' ∈ Δ_u} Q_bag(R_bag) ⋉ t'` (the bag deltas partition
//! the new results), and the cost is `O(N^w log N + k log N log(N/k))`
//! (Theorem 5.4), `w` being the decomposition's width.
//!
//! Design note (documented in DESIGN.md): bags join their *assigned*
//! relations only; the paper additionally semi-joins projections of
//! overlapping relations from other bags, an optimization that does not
//! affect correctness or the `N^w` bound.

use crate::reservoir_join::ReservoirJoin;
use crate::wcoj::BagJoin;
use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::Value;
use rsj_query::{Ghd, Query};
use rsj_stream::Rows;

/// Reservoir sampling over a cyclic (or any) join query.
pub struct CyclicReservoirJoin {
    query: Query,
    ghd: Ghd,
    bags: Vec<BagJoin>,
    inner: ReservoirJoin,
    /// Total bag-delta tuples produced (the simulated stream length, whose
    /// bound is `O(N^w)`).
    bag_tuples: u64,
    /// Original-stream tuples accepted / deleted (set semantics).
    inserts: u64,
    deletes: u64,
}

impl CyclicReservoirJoin {
    /// Builds the driver, searching for a minimum-width GHD automatically.
    pub fn new(
        query: Query,
        k: usize,
        seed: u64,
    ) -> Result<CyclicReservoirJoin, Box<dyn std::error::Error>> {
        Self::with_options(query, k, seed, rsj_index::IndexOptions::default())
    }

    /// Builds the driver with explicit index options for the inner
    /// bag-level acyclic driver, searching for a minimum-width GHD.
    pub fn with_options(
        query: Query,
        k: usize,
        seed: u64,
        options: rsj_index::IndexOptions,
    ) -> Result<CyclicReservoirJoin, Box<dyn std::error::Error>> {
        let ghd = Ghd::search(&query)?;
        Self::with_ghd_options(query, ghd, k, seed, options)
    }

    /// Builds the driver with an explicit decomposition.
    pub fn with_ghd(
        query: Query,
        ghd: Ghd,
        k: usize,
        seed: u64,
    ) -> Result<CyclicReservoirJoin, Box<dyn std::error::Error>> {
        Self::with_ghd_options(query, ghd, k, seed, rsj_index::IndexOptions::default())
    }

    /// Builds the driver with an explicit decomposition and index options.
    pub fn with_ghd_options(
        query: Query,
        ghd: Ghd,
        k: usize,
        seed: u64,
        options: rsj_index::IndexOptions,
    ) -> Result<CyclicReservoirJoin, Box<dyn std::error::Error>> {
        // Attribute-id translation: bag attrs are ids of the *original*
        // query; the bag-level query re-interns the same names in bag
        // order, so a bag's sorted attr list maps positionally onto the
        // bag-level relation schema.
        let bags = ghd
            .bags()
            .iter()
            .map(|bag| {
                let rel_attrs: Vec<Vec<(usize, usize)>> = bag
                    .relations
                    .iter()
                    .map(|&r| {
                        query
                            .relation(r)
                            .attrs
                            .iter()
                            .enumerate()
                            .map(|(schema_pos, a)| {
                                let bag_idx = bag
                                    .attrs
                                    .iter()
                                    .position(|b| b == a)
                                    .expect("relation attr inside its bag");
                                (bag_idx, schema_pos)
                            })
                            .collect()
                    })
                    .collect();
                BagJoin::new(bag.attrs.len(), &rel_attrs)
            })
            .collect();
        let inner = ReservoirJoin::with_options(ghd.bag_query().clone(), k, seed, options)?;
        Ok(CyclicReservoirJoin {
            query,
            ghd,
            bags,
            inner,
            bag_tuples: 0,
            inserts: 0,
            deletes: 0,
        })
    }

    /// The bag index and within-bag relation index an original relation
    /// routes to.
    fn route(&self, rel: usize) -> (usize, usize) {
        let bag = self.ghd.bag_of(rel);
        let ri = self.ghd.bags()[bag]
            .relations
            .iter()
            .position(|&r| r == rel)
            .expect("relation assigned to its bag");
        (bag, ri)
    }

    /// Processes one input tuple of the original query. A duplicate insert
    /// is a no-op (set semantics).
    pub fn process(&mut self, rel: usize, tuple: &[Value]) {
        let (bag, ri) = self.route(rel);
        let Some(deltas) = self.bags[bag].insert_and_delta(ri, tuple) else {
            return;
        };
        self.inserts += 1;
        for d in deltas {
            self.bag_tuples += 1;
            self.inner.process(bag, &d);
        }
    }

    /// Deletes one input tuple of the original query: the bag's *dead*
    /// delta — every bag result that joined through the departing tuple —
    /// routes to the inner driver's delete path, which cascades across the
    /// other bags and repairs its reservoir by eviction-and-backfill.
    /// Correct for the same reason insertion is: the bag deltas partition
    /// `Q(R) ⋉ t`, so retracting them retracts exactly the results lost.
    /// Deleting an absent tuple is a no-op.
    pub fn delete(&mut self, rel: usize, tuple: &[Value]) {
        let (bag, ri) = self.route(rel);
        let Some(dead) = self.bags[bag].delete_and_delta(ri, tuple) else {
            return;
        };
        self.deletes += 1;
        for d in dead {
            self.inner.delete(bag, &d);
        }
    }

    /// Original-stream tuples accepted so far (set semantics).
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Original-stream tuples deleted so far (present at deletion time).
    pub fn deletes(&self) -> u64 {
        self.deletes
    }

    /// Exact live `|Q(R)|`: the inner driver's memoized index count over
    /// its bag-level groups (one `O(N^w)` worst-case pass after each
    /// change, shared with the delete repair).
    pub fn exact_result_count(&self) -> u128 {
        self.inner.exact_count()
    }

    /// Serializes the full dynamic state: bag trie contents, the stream
    /// counters, then the inner driver's snapshot.
    pub fn snapshot_to(&self, enc: &mut Encoder) {
        enc.put_usize(self.bags.len());
        for b in &self.bags {
            b.snapshot_to(enc);
        }
        enc.put_u64(self.bag_tuples);
        enc.put_u64(self.inserts);
        enc.put_u64(self.deletes);
        self.inner.snapshot_to(enc);
    }

    /// Restores from a [`CyclicReservoirJoin::snapshot_to`] image taken by
    /// a driver built with the same `(query, ghd, k, seed, options)`. On
    /// error the receiver may be partially overwritten and must be
    /// discarded.
    pub fn restore_from_snapshot(&mut self, dec: &mut Decoder) -> Result<(), CodecError> {
        let n = dec.seq_len(2)?;
        if n != self.bags.len() {
            return Err(CodecError::Corrupt("bag count mismatch"));
        }
        for b in &mut self.bags {
            b.restore_from_snapshot(dec)?;
        }
        self.bag_tuples = dec.u64()?;
        self.inserts = dec.u64()?;
        self.deletes = dec.u64()?;
        self.inner.restore_from_snapshot(dec)
    }

    /// Current samples, as value tuples indexed by the bag-level query's
    /// attribute ids (same attribute *names* as the original query; use
    /// [`Self::sample_named`] for name–value pairs).
    pub fn samples(&self) -> Rows<'_> {
        self.inner.samples()
    }

    /// Samples as sorted `(attribute name, value)` pairs of the original
    /// query — convenient for assertions and display.
    pub fn sample_named(&self) -> Vec<Vec<(String, Value)>> {
        let q = self.inner.index().query();
        self.samples()
            .iter()
            .map(|s| {
                let mut kv: Vec<(String, Value)> = q
                    .attr_names()
                    .iter()
                    .cloned()
                    .zip(s.iter().copied())
                    .collect();
                kv.sort();
                kv
            })
            .collect()
    }

    /// The decomposition in use.
    pub fn ghd(&self) -> &Ghd {
        &self.ghd
    }

    /// The original query.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The inner acyclic driver (over the bag-level query).
    pub fn inner(&self) -> &ReservoirJoin {
        &self.inner
    }

    /// Mutable access to the inner acyclic driver (re-planning the
    /// bag-level orientation).
    pub fn inner_mut(&mut self) -> &mut ReservoirJoin {
        &mut self.inner
    }

    /// Bag-delta tuples produced so far (`O(N^w)`).
    pub fn bag_tuples(&self) -> u64 {
        self.bag_tuples
    }

    /// Estimated heap bytes (bag tries + inner driver).
    pub fn heap_size(&self) -> usize {
        self.bags.iter().map(BagJoin::heap_size).sum::<usize>() + self.inner.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_common::rng::RsjRng;
    use rsj_common::stats::{chi_square_critical, chi_square_uniform};
    use rsj_common::{FxHashMap, FxHashSet};
    use rsj_query::QueryBuilder;

    fn triangle_query() -> Query {
        let mut qb = QueryBuilder::new();
        qb.relation("R1", &["X", "Y"]);
        qb.relation("R2", &["Y", "Z"]);
        qb.relation("R3", &["Z", "X"]);
        qb.build().unwrap()
    }

    fn dumbbell_query() -> Query {
        let mut qb = QueryBuilder::new();
        qb.relation("R1", &["x1", "x2"]);
        qb.relation("R2", &["x1", "x3"]);
        qb.relation("R3", &["x2", "x3"]);
        qb.relation("R4", &["x5", "x6"]);
        qb.relation("R5", &["x4", "x5"]);
        qb.relation("R6", &["x4", "x6"]);
        qb.relation("R7", &["x3", "x4"]);
        qb.build().unwrap()
    }

    #[test]
    fn triangle_collects_all_results() {
        let mut rng = RsjRng::seed_from_u64(31);
        let mut crj = CyclicReservoirJoin::new(triangle_query(), 100_000, 1).unwrap();
        let mut edges: [FxHashSet<(u64, u64)>; 3] =
            [Default::default(), Default::default(), Default::default()];
        for _ in 0..400 {
            let rel = rng.index(3);
            let e = (rng.below_u64(10), rng.below_u64(10));
            if edges[rel].insert(e) {
                crj.process(rel, &[e.0, e.1]);
            }
        }
        // Brute force triangles (x,y,z).
        let mut brute: FxHashSet<(u64, u64, u64)> = FxHashSet::default();
        for &(x, y) in &edges[0] {
            for &(y2, z) in &edges[1] {
                if y == y2 && edges[2].contains(&(z, x)) {
                    brute.insert((x, y, z));
                }
            }
        }
        assert!(!brute.is_empty());
        // Samples carry attrs X, Y, Z (bag query attr names).
        let q = crj.inner().index().query().clone();
        let pos = |n: &str| q.attr_names().iter().position(|a| a == n).unwrap();
        let (px, py, pz) = (pos("X"), pos("Y"), pos("Z"));
        let got: FxHashSet<(u64, u64, u64)> = crj
            .samples()
            .iter()
            .map(|s| (s[px], s[py], s[pz]))
            .collect();
        assert_eq!(got, brute);
    }

    #[test]
    fn triangle_reservoir_is_uniform() {
        // Fixed instance with a known set of triangles; k=2 reservoir over
        // many seeds must include each triangle equally often.
        let edges: Vec<(usize, (u64, u64))> = vec![
            (0, (1, 2)),
            (1, (2, 3)),
            (2, (3, 1)), // triangle A
            (0, (4, 5)),
            (1, (5, 6)),
            (2, (6, 4)), // triangle B
            (0, (1, 5)),
            (1, (5, 3)), // triangle C = (1,5,3): needs R3 (3,1) — present
            (0, (7, 8)), // noise
        ];
        // Triangles: A=(1,2,3), B=(4,5,6), C=(1,5,3).
        let trials = 4000u64;
        let mut counts: FxHashMap<Vec<u64>, u64> = FxHashMap::default();
        for seed in 0..trials {
            let mut crj = CyclicReservoirJoin::new(triangle_query(), 2, seed).unwrap();
            for (rel, e) in &edges {
                crj.process(*rel, &[e.0, e.1]);
            }
            assert_eq!(crj.samples().len(), 2);
            for s in crj.samples() {
                *counts.entry(s.to_vec()).or_default() += 1;
            }
        }
        assert_eq!(counts.len(), 3, "expected 3 triangles: {counts:?}");
        let obs: Vec<u64> = counts.values().copied().collect();
        let (stat, df) = chi_square_uniform(&obs);
        assert!(stat < chi_square_critical(df, 0.0001), "chi2={stat}");
    }

    #[test]
    fn dumbbell_end_to_end() {
        // Small dumbbell instance: one triangle on each side, one bridge.
        let mut crj = CyclicReservoirJoin::new(dumbbell_query(), 10, 3).unwrap();
        // Left triangle on (1,2,3): R1(x1,x2)=(1,2), R2(x1,x3)=(1,3),
        // R3(x2,x3)=(2,3).
        crj.process(0, &[1, 2]);
        crj.process(1, &[1, 3]);
        crj.process(2, &[2, 3]);
        // Right triangle on (4,5,6): R5(x4,x5)=(4,5), R6(x4,x6)=(4,6),
        // R4(x5,x6)=(5,6).
        crj.process(4, &[4, 5]);
        crj.process(5, &[4, 6]);
        crj.process(3, &[5, 6]);
        assert!(crj.samples().is_empty(), "no bridge yet");
        // Bridge R7(x3,x4) = (3,4).
        crj.process(6, &[3, 4]);
        let named = crj.sample_named();
        assert_eq!(named.len(), 1);
        let expected: Vec<(String, u64)> = [
            ("x1", 1),
            ("x2", 2),
            ("x3", 3),
            ("x4", 4),
            ("x5", 5),
            ("x6", 6),
        ]
        .iter()
        .map(|(n, v)| (n.to_string(), *v))
        .collect();
        assert_eq!(named[0], expected);
        assert!((crj.ghd().width() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn bag_tuple_count_tracks_simulated_stream() {
        let mut crj = CyclicReservoirJoin::new(triangle_query(), 10, 5).unwrap();
        crj.process(0, &[1, 2]);
        crj.process(1, &[2, 3]);
        assert_eq!(crj.bag_tuples(), 0);
        crj.process(2, &[3, 1]);
        assert_eq!(crj.bag_tuples(), 1);
    }

    #[test]
    fn triangle_deletes_track_live_results() {
        // Random turnstile stream; at the end the sample set (k >= |Q|)
        // must equal the brute-force join of the live edges, and the
        // driver's exact count must agree.
        let mut rng = RsjRng::seed_from_u64(47);
        let mut crj = CyclicReservoirJoin::new(triangle_query(), 100_000, 1).unwrap();
        let mut edges: [FxHashSet<(u64, u64)>; 3] =
            [Default::default(), Default::default(), Default::default()];
        for _ in 0..900 {
            let rel = rng.index(3);
            let e = (rng.below_u64(9), rng.below_u64(9));
            if rng.below_u64(4) == 0 && edges[rel].contains(&e) {
                edges[rel].remove(&e);
                crj.delete(rel, &[e.0, e.1]);
            } else if edges[rel].insert(e) {
                crj.process(rel, &[e.0, e.1]);
            }
        }
        let mut brute: FxHashSet<(u64, u64, u64)> = FxHashSet::default();
        for &(x, y) in &edges[0] {
            for &(y2, z) in &edges[1] {
                if y == y2 && edges[2].contains(&(z, x)) {
                    brute.insert((x, y, z));
                }
            }
        }
        assert!(!brute.is_empty(), "test instance lost all triangles");
        let q = crj.inner().index().query().clone();
        let pos = |n: &str| q.attr_names().iter().position(|a| a == n).unwrap();
        let (px, py, pz) = (pos("X"), pos("Y"), pos("Z"));
        let got: FxHashSet<(u64, u64, u64)> = crj
            .samples()
            .iter()
            .map(|s| (s[px], s[py], s[pz]))
            .collect();
        assert_eq!(got, brute);
        assert_eq!(crj.samples().len(), brute.len(), "stale duplicate samples");
        assert_eq!(crj.exact_result_count(), brute.len() as u128);
        assert!(crj.deletes() > 0);
    }

    #[test]
    fn delete_then_reinsert_restores_the_dead_delta() {
        let mut crj = CyclicReservoirJoin::new(triangle_query(), 10, 9).unwrap();
        crj.process(0, &[1, 2]);
        crj.process(1, &[2, 3]);
        crj.process(2, &[3, 1]);
        assert_eq!(crj.samples().len(), 1);
        crj.delete(1, &[2, 3]);
        assert!(crj.samples().is_empty());
        assert_eq!(crj.exact_result_count(), 0);
        crj.process(1, &[2, 3]);
        assert_eq!(crj.sample_named().len(), 1);
        // Deleting an absent tuple is a no-op.
        crj.delete(0, &[8, 8]);
        assert_eq!(crj.samples().len(), 1);
        assert_eq!((crj.inserts(), crj.deletes()), (4, 1));
    }

    #[test]
    fn cyclic_snapshot_round_trips_mid_stream() {
        let mut rng = RsjRng::seed_from_u64(53);
        let mut ops: Vec<(bool, usize, [u64; 2])> = Vec::new();
        let mut edges: [FxHashSet<(u64, u64)>; 3] = Default::default();
        while ops.len() < 300 {
            let rel = rng.index(3);
            let e = (rng.below_u64(8), rng.below_u64(8));
            if rng.below_u64(5) == 0 && edges[rel].contains(&e) {
                edges[rel].remove(&e);
                ops.push((false, rel, [e.0, e.1]));
            } else if edges[rel].insert(e) {
                ops.push((true, rel, [e.0, e.1]));
            }
        }
        let mut crj = CyclicReservoirJoin::new(triangle_query(), 8, 11).unwrap();
        for (ins, rel, t) in &ops[..200] {
            if *ins {
                crj.process(*rel, t);
            } else {
                crj.delete(*rel, t);
            }
        }
        let mut enc = Encoder::new();
        crj.snapshot_to(&mut enc);
        let bytes = enc.into_bytes();
        let mut restored = CyclicReservoirJoin::new(triangle_query(), 8, 11).unwrap();
        restored
            .restore_from_snapshot(&mut Decoder::new(&bytes))
            .unwrap();
        for (ins, rel, t) in &ops[200..] {
            if *ins {
                crj.process(*rel, t);
                restored.process(*rel, t);
            } else {
                crj.delete(*rel, t);
                restored.delete(*rel, t);
            }
        }
        assert_eq!(crj.samples(), restored.samples());
        assert_eq!(crj.bag_tuples(), restored.bag_tuples());
        assert_eq!(crj.inserts(), restored.inserts());
        assert_eq!(crj.deletes(), restored.deletes());
        // Truncated images are rejected.
        let mut fresh = CyclicReservoirJoin::new(triangle_query(), 8, 11).unwrap();
        assert!(fresh
            .restore_from_snapshot(&mut Decoder::new(&bytes[..bytes.len() / 3]))
            .is_err());
    }

    #[test]
    fn acyclic_query_works_through_cyclic_driver() {
        // The GHD driver must degrade gracefully to acyclic queries.
        let mut qb = QueryBuilder::new();
        qb.relation("R", &["X", "Y"]);
        qb.relation("S", &["Y", "Z"]);
        let mut crj = CyclicReservoirJoin::new(qb.build().unwrap(), 10, 7).unwrap();
        crj.process(0, &[1, 2]);
        crj.process(1, &[2, 3]);
        assert_eq!(crj.samples().len(), 1);
    }
}
