//! Extra cyclic-driver coverage: 4-cycles, five-cycles through manual
//! GHDs, and stress randomization against brute force.

use rsj_common::rng::RsjRng;
use rsj_common::FxHashSet;
use rsj_core::{CyclicReservoirJoin, JoinSampler, SamplerExt};
use rsj_query::{Ghd, QueryBuilder};

fn cycle4_query() -> rsj_query::Query {
    let mut qb = QueryBuilder::new();
    qb.relation("R1", &["A", "B"]);
    qb.relation("R2", &["B", "C"]);
    qb.relation("R3", &["C", "D"]);
    qb.relation("R4", &["D", "A"]);
    qb.build().unwrap()
}

fn brute_cycle4(edges: &[FxHashSet<(u64, u64)>; 4]) -> FxHashSet<(u64, u64, u64, u64)> {
    let mut out = FxHashSet::default();
    for &(a, b) in &edges[0] {
        for &(b2, c) in &edges[1] {
            if b != b2 {
                continue;
            }
            for &(c2, d) in &edges[2] {
                if c != c2 {
                    continue;
                }
                if edges[3].contains(&(d, a)) {
                    out.insert((a, b, c, d));
                }
            }
        }
    }
    out
}

#[test]
fn cycle4_collects_exactly_brute_force() {
    let q = cycle4_query();
    for seed in 0..3u64 {
        let mut rng = RsjRng::seed_from_u64(seed);
        let mut crj = CyclicReservoirJoin::new(q.clone(), 1 << 22, seed).unwrap();
        let mut edges: [FxHashSet<(u64, u64)>; 4] = Default::default();
        for _ in 0..300 {
            let rel = rng.index(4);
            let e = (rng.below_u64(8), rng.below_u64(8));
            if edges[rel].insert(e) {
                crj.process(rel, &[e.0, e.1]);
            }
        }
        let truth = brute_cycle4(&edges);
        let q_inner = crj.inner().index().query().clone();
        let pos = |n: &str| q_inner.attr_names().iter().position(|a| a == n).unwrap();
        let (pa, pb, pc, pd) = (pos("A"), pos("B"), pos("C"), pos("D"));
        let got: FxHashSet<(u64, u64, u64, u64)> = crj
            .samples()
            .iter()
            .map(|s| (s[pa], s[pb], s[pc], s[pd]))
            .collect();
        assert_eq!(got, truth, "seed {seed}");
        assert_eq!(got.len(), crj.samples().len(), "no duplicates");
    }
}

#[test]
fn manual_ghd_matches_searched_ghd_results() {
    let q = cycle4_query();
    // Manual decomposition: {R1,R2} and {R3,R4}.
    let ghd = Ghd::manual(&q, &[vec![0, 1], vec![2, 3]]).unwrap();
    let mut rng = RsjRng::seed_from_u64(5);
    let stream: Vec<(usize, [u64; 2])> = (0..200)
        .map(|_| (rng.index(4), [rng.below_u64(6), rng.below_u64(6)]))
        .collect();
    let run = |ghd: Option<Ghd>| {
        let mut crj = match ghd {
            Some(g) => {
                let opts = rsj_index::IndexOptions::default();
                CyclicReservoirJoin::with_ghd_options(q.clone(), g, 1 << 22, 1, opts).unwrap()
            }
            None => CyclicReservoirJoin::new(q.clone(), 1 << 22, 1).unwrap(),
        };
        for (rel, t) in &stream {
            crj.process(*rel, t);
        }
        let mut named = crj.samples_named();
        named.sort();
        named
    };
    assert_eq!(run(Some(ghd)), run(None));
}

#[test]
fn bag_stream_size_respects_agm() {
    // Triangle: simulated bag-tuple count = #triangle closures, bounded by
    // AGM = E^{3/2}.
    let mut qb = QueryBuilder::new();
    qb.relation("R1", &["X", "Y"]);
    qb.relation("R2", &["Y", "Z"]);
    qb.relation("R3", &["Z", "X"]);
    let q = qb.build().unwrap();
    let mut crj = CyclicReservoirJoin::new(q, 10, 1).unwrap();
    let mut rng = RsjRng::seed_from_u64(7);
    let mut inserted = 0u64;
    let mut seen: FxHashSet<(usize, u64, u64)> = FxHashSet::default();
    for _ in 0..600 {
        let rel = rng.index(3);
        let e = (rng.below_u64(20), rng.below_u64(20));
        if seen.insert((rel, e.0, e.1)) {
            inserted += 1;
            crj.process(rel, &[e.0, e.1]);
        }
    }
    let agm = ((inserted as f64).powf(1.5)).ceil() as u64;
    assert!(
        crj.rewrite().bag_tuples() <= agm,
        "bag tuples {} > AGM {agm}",
        crj.rewrite().bag_tuples()
    );
}

#[test]
fn cyclic_driver_duplicate_edges_ignored() {
    let mut qb = QueryBuilder::new();
    qb.relation("R1", &["X", "Y"]);
    qb.relation("R2", &["Y", "Z"]);
    qb.relation("R3", &["Z", "X"]);
    let q = qb.build().unwrap();
    let mut crj = CyclicReservoirJoin::new(q, 100, 1).unwrap();
    for _ in 0..3 {
        crj.process(0, &[1, 2]);
        crj.process(1, &[2, 3]);
        crj.process(2, &[3, 1]);
    }
    assert_eq!(crj.samples().len(), 1);
    assert_eq!(crj.rewrite().bag_tuples(), 1);
}
