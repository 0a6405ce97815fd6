//! SJoin exactness at depth: counts, delta sizes and positional retrieval
//! over 4-relation chains and stars, with composite keys — the structures
//! QX exercises.

use rsj_baselines::{SJoin, SJoinIndex};
use rsj_common::rng::RsjRng;
use rsj_common::{FxHashSet, Value};
use rsj_query::{Query, QueryBuilder};

fn line4() -> Query {
    let mut qb = QueryBuilder::new();
    qb.relation("G1", &["A", "B"]);
    qb.relation("G2", &["B", "C"]);
    qb.relation("G3", &["C", "D"]);
    qb.relation("G4", &["D", "E"]);
    qb.build().unwrap()
}

fn brute_line4(tuples: &[(usize, [Value; 2])]) -> FxHashSet<Vec<Value>> {
    let mut out = FxHashSet::default();
    let by_rel = |r: usize| tuples.iter().filter(move |(rr, _)| *rr == r);
    for (_, t1) in by_rel(0) {
        for (_, t2) in by_rel(1) {
            if t1[1] != t2[0] {
                continue;
            }
            for (_, t3) in by_rel(2) {
                if t2[1] != t3[0] {
                    continue;
                }
                for (_, t4) in by_rel(3) {
                    if t3[1] == t4[0] {
                        out.insert(vec![t1[0], t1[1], t2[1], t3[1], t4[1]]);
                    }
                }
            }
        }
    }
    out
}

#[test]
fn line4_total_and_delta_enumeration_exact() {
    let mut rng = RsjRng::seed_from_u64(1);
    let mut idx = SJoinIndex::new(line4()).unwrap();
    let mut tuples = Vec::new();
    let mut enumerated: FxHashSet<Vec<Value>> = FxHashSet::default();
    for _ in 0..250 {
        let rel = rng.index(4);
        let t = [rng.below_u64(4), rng.below_u64(4)];
        if let Some(tid) = idx.insert(rel, &t) {
            tuples.push((rel, t));
            let size = idx.delta_size(rel, tid);
            for z in 0..size {
                let r = idx.delta_retrieve(rel, tid, z);
                assert!(
                    enumerated.insert(idx.materialize(&r)),
                    "duplicate across deltas"
                );
            }
        }
    }
    let truth = brute_line4(&tuples);
    assert_eq!(enumerated, truth);
    assert_eq!(idx.total_results(), truth.len() as u128);
}

#[test]
fn composite_key_join_exact() {
    // QX-style: R(I, T, M) ⋈ S(I, T, C) on the composite (I, T).
    let mut qb = QueryBuilder::new();
    qb.relation("R", &["I", "T", "M"]);
    qb.relation("S", &["I", "T", "C"]);
    let q = qb.build().unwrap();
    let mut idx = SJoinIndex::new(q).unwrap();
    let mut rng = RsjRng::seed_from_u64(3);
    let mut rs: Vec<[Value; 3]> = Vec::new();
    let mut ss: Vec<[Value; 3]> = Vec::new();
    for _ in 0..200 {
        let t = [rng.below_u64(4), rng.below_u64(4), rng.below_u64(50)];
        if rng.index(2) == 0 {
            if idx.insert(0, &t).is_some() {
                rs.push(t);
            }
        } else if idx.insert(1, &t).is_some() {
            ss.push(t);
        }
    }
    let mut truth = 0u128;
    for a in &rs {
        for b in &ss {
            if a[0] == b[0] && a[1] == b[1] {
                truth += 1;
            }
        }
    }
    assert_eq!(idx.total_results(), truth);
}

#[test]
fn sjoin_reservoir_prefix_validity() {
    let q = line4();
    let mut rng = RsjRng::seed_from_u64(5);
    let mut sj = SJoin::new(q, 1 << 22, 1).unwrap();
    let mut tuples = Vec::new();
    for step in 0..200 {
        let rel = rng.index(4);
        let t = [rng.below_u64(3), rng.below_u64(3)];
        if sj.process(rel, &t).is_some() {
            tuples.push((rel, t));
        }
        if step % 40 == 39 {
            let truth = brute_line4(&tuples);
            let got: FxHashSet<Vec<Value>> = sj.samples().iter().map(<[u64]>::to_vec).collect();
            assert_eq!(got, truth, "prefix at {step}");
        }
    }
}

#[test]
fn star3_hub_explosion_exact() {
    // One hub with n tuples per arm: join size n^3 plus per-arm products —
    // exact counters must keep up with u128 magnitudes.
    let mut qb = QueryBuilder::new();
    qb.relation("G1", &["H", "B1"]);
    qb.relation("G2", &["H", "B2"]);
    qb.relation("G3", &["H", "B3"]);
    let q = qb.build().unwrap();
    let mut idx = SJoinIndex::new(q).unwrap();
    let n = 40u64;
    for i in 0..n {
        idx.insert(0, &[7, i]);
        idx.insert(1, &[7, i]);
        idx.insert(2, &[7, i]);
    }
    assert_eq!(idx.total_results(), (n as u128).pow(3));
}
