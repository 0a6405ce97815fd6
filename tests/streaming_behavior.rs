//! Streaming-semantics tests: correctness at every prefix, duplicate
//! handling, arrival-order invariance of the result *set*, and unbounded
//! operation (no knowledge of N anywhere).

use rsjoin::prelude::*;

fn line3_query() -> Query {
    let mut qb = QueryBuilder::new();
    qb.relation("G1", &["A", "B"]);
    qb.relation("G2", &["B", "C"]);
    qb.relation("G3", &["C", "D"]);
    qb.build().unwrap()
}

/// Brute-force join of the accepted tuples so far.
fn brute(tuples: &[(usize, Vec<u64>)]) -> std::collections::BTreeSet<Vec<u64>> {
    let mut out = std::collections::BTreeSet::new();
    for (r1, t1) in tuples.iter().filter(|(r, _)| *r == 0) {
        for (r2, t2) in tuples.iter().filter(|(r, _)| *r == 1) {
            for (r3, t3) in tuples.iter().filter(|(r, _)| *r == 2) {
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
fn samples_valid_and_complete_at_every_prefix() {
    let mut rng = RsjRng::seed_from_u64(1);
    let q = line3_query();
    let mut rj = ReservoirJoin::new(q, 1_000_000, 2).unwrap();
    let mut accepted = Vec::new();
    for step in 0..300 {
        let rel = rng.index(3);
        let t = vec![rng.below_u64(5), rng.below_u64(5)];
        if rj.process(rel, &t).is_some() {
            accepted.push((rel, t));
        }
        if step % 25 == 24 {
            let truth = brute(&accepted);
            let got: std::collections::BTreeSet<Vec<u64>> =
                rj.samples().iter().map(<[u64]>::to_vec).collect();
            assert_eq!(got, truth, "prefix at step {step}");
        }
    }
}

#[test]
fn arrival_order_does_not_change_final_result_set() {
    let mut rng = RsjRng::seed_from_u64(3);
    let base: Vec<(usize, Vec<u64>)> = (0..150)
        .map(|_| (rng.index(3), vec![rng.below_u64(5), rng.below_u64(5)]))
        .collect();
    let run = |order_seed: u64| {
        let mut s = base.clone();
        let mut prng = RsjRng::seed_from_u64(order_seed);
        for i in (1..s.len()).rev() {
            let j = prng.index(i + 1);
            s.swap(i, j);
        }
        let mut rj = ReservoirJoin::new(line3_query(), 1_000_000, 5).unwrap();
        for (rel, t) in &s {
            rj.process(*rel, t);
        }
        rj.samples()
            .iter()
            .map(<[u64]>::to_vec)
            .collect::<std::collections::BTreeSet<_>>()
    };
    let a = run(10);
    assert!(!a.is_empty());
    assert_eq!(a, run(11));
    assert_eq!(a, run(12));
}

#[test]
fn heavy_duplicates_are_no_ops_everywhere() {
    // Every engine must treat re-sent tuples as no-ops (set semantics);
    // checked through the uniform stats interface.
    let q = line3_query();
    let mut stream = TupleStream::new();
    for (rel, t) in [
        (0, vec![1, 2]),
        (1, vec![2, 3]),
        (2, vec![3, 4]),
        (0, vec![5, 2]),
    ] {
        stream.push(rel, t);
    }
    for engine in Engine::ALL {
        if !engine.supports(&q) {
            continue;
        }
        let mut s = engine.build(&q, 100, 1, &EngineOpts::default()).unwrap();
        for round in 0..5 {
            s.apply_ops(OpStream::from(&stream).ops()).unwrap();
            if let Some(n) = s.stats().inserts {
                assert_eq!(n, 4, "{engine} round {round}");
            }
            assert_eq!(s.exact_count(), 2, "{engine} round {round}");
            assert_eq!(s.samples().len(), 2, "{engine} round {round}");
        }
    }
}

#[test]
fn works_on_unbounded_style_stream() {
    // Feed a long stream in small pieces, interleaving queries of state —
    // nothing may require knowing N upfront.
    let q = line3_query();
    let mut rj = ReservoirJoin::new(q, 10, 7).unwrap();
    let mut rng = RsjRng::seed_from_u64(9);
    let mut last_bound = 0u128;
    for chunk in 0..20 {
        for _ in 0..200 {
            let rel = rng.index(3);
            rj.process(rel, &[rng.below_u64(30), rng.below_u64(30)]);
        }
        let bound = FullSampler::default().implicit_size(rj.index());
        assert!(bound >= last_bound, "result bound shrank at chunk {chunk}");
        last_bound = bound;
        assert!(rj.samples().len() <= 10);
    }
    assert_eq!(rj.samples().len(), 10);
}

#[test]
fn empty_relations_mean_no_samples_ever() {
    // If one relation never receives tuples, the join stays empty no
    // matter how much the others grow.
    let q = line3_query();
    let mut rj = ReservoirJoin::new(q, 10, 1).unwrap();
    let mut rng = RsjRng::seed_from_u64(4);
    for _ in 0..500 {
        let rel = rng.index(2); // never relation 2
        rj.process(rel, &[rng.below_u64(5), rng.below_u64(5)]);
    }
    assert!(rj.samples().is_empty());
    assert_eq!(FullSampler::default().implicit_size(rj.index()), 0);
}

#[test]
fn late_arriving_relation_unlocks_results() {
    let q = line3_query();
    let mut rj = ReservoirJoin::new(q, 1_000, 1).unwrap();
    for a in 0..10u64 {
        rj.process(0, &[a, 0]);
    }
    for c in 0..10u64 {
        rj.process(1, &[0, c]);
    }
    assert!(rj.samples().is_empty());
    // One G3 tuple unlocks 10 * 1 results for C=0.
    rj.process(2, &[0, 99]);
    assert_eq!(rj.samples().len(), 10);
    // Another unlocks 10 more for C=1.
    rj.process(2, &[1, 98]);
    assert_eq!(rj.samples().len(), 20);
}

#[test]
fn two_table_memory_lower_bound_scenario() {
    // The §2.1 adversarial scenario: N tuples all in R1, then one R2 tuple.
    // The first join result must be sampled — the algorithm must have kept
    // all of R1.
    let mut qb = QueryBuilder::new();
    qb.relation("R1", &["X", "Y"]);
    qb.relation("R2", &["Y", "Z"]);
    let q = qb.build().unwrap();
    let mut rj = ReservoirJoin::new(q, 5, 3).unwrap();
    for x in 0..1000u64 {
        rj.process(0, &[x, x % 7]);
    }
    assert!(rj.samples().is_empty());
    rj.process(1, &[3, 42]);
    // All R1 tuples with Y=3 join: ~143 results; reservoir holds 5.
    assert_eq!(rj.samples().len(), 5);
    for s in rj.samples() {
        assert_eq!(s[1], 3);
        assert_eq!(s[2], 42);
    }
}
