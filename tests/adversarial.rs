//! Adversarial end-to-end scenarios: extreme skew, composite keys, long
//! chains, and the degenerate patterns that separate the paper's algorithm
//! from the baselines.

use rsjoin::prelude::*;

#[test]
fn power_of_two_boundary_degrees() {
    // Degrees that sit exactly at powers of two stress the cnt~ change
    // detection: inserting the (2^j + 1)-th tuple must trigger exactly one
    // doubling.
    let mut qb = QueryBuilder::new();
    qb.relation("R", &["X", "Y"]);
    qb.relation("S", &["Y", "Z"]);
    let q = qb.build().unwrap();
    let mut rj = ReservoirJoin::new(q, 1 << 20, 1).unwrap();
    for j in [1u64, 2, 4, 8, 16, 32, 64] {
        // Grow S⋉{Y=0} to exactly j tuples, then add one R probe.
        let start = rj.samples().len();
        while rj.index().database().relation(1).len() < j as usize {
            let z = rj.index().database().relation(1).len() as u64;
            rj.process(1, &[0, z]);
        }
        rj.process(0, &[j, 0]);
        // The probe joins with all j S-tuples plus earlier probes' results.
        assert!(rj.samples().len() > start, "no growth at degree {j}");
    }
    // Total: Σ_j j results from probes... validate against SJoin's exact
    // count.
    let mut qb = QueryBuilder::new();
    qb.relation("R", &["X", "Y"]);
    qb.relation("S", &["Y", "Z"]);
    let mut sj = SJoin::new(qb.build().unwrap(), 1 << 20, 1).unwrap();
    for t in rj
        .index()
        .database()
        .relation(1)
        .iter()
        .map(|(_, t)| t.to_vec())
        .collect::<Vec<_>>()
    {
        sj.process(1, &t);
    }
    for t in rj
        .index()
        .database()
        .relation(0)
        .iter()
        .map(|(_, t)| t.to_vec())
        .collect::<Vec<_>>()
    {
        sj.process(0, &t);
    }
    assert_eq!(rj.samples().len() as u128, sj.index().total_results());
}

#[test]
fn composite_key_end_to_end() {
    // Join on a 2-attribute composite key (QX's (item, ticket) shape) with
    // collision-prone values: (1,2) vs (2,1) must not cross-match.
    let mut qb = QueryBuilder::new();
    qb.relation("R", &["I", "T", "M"]);
    qb.relation("S", &["I", "T", "C"]);
    let q = qb.build().unwrap();
    let mut rj = ReservoirJoin::new(q, 1 << 20, 1).unwrap();
    rj.process(0, &[1, 2, 100]);
    rj.process(0, &[2, 1, 101]);
    rj.process(1, &[1, 2, 200]);
    assert_eq!(rj.samples().len(), 1);
    assert_eq!(rj.samples()[0], vec![1, 2, 100, 200]);
    rj.process(1, &[2, 1, 201]);
    assert_eq!(rj.samples().len(), 2);
}

#[test]
fn six_relation_chain() {
    // Deepest acyclic shape in the paper's family: line-6. Exercise
    // propagation through 5 levels and 6 rooted trees.
    let mut qb = QueryBuilder::new();
    for i in 0..6 {
        qb.relation(
            &format!("G{i}"),
            &[&format!("A{i}"), &format!("A{}", i + 1)],
        );
    }
    let q = qb.build().unwrap();
    let mut rng = RsjRng::seed_from_u64(3);
    let mut stream = TupleStream::new();
    for _ in 0..400 {
        stream.push(rng.index(6), vec![rng.below_u64(3), rng.below_u64(3)]);
    }
    let run = |engine: Engine, seed: u64| {
        let mut s = engine
            .build(&q, 1 << 20, seed, &EngineOpts::default())
            .unwrap();
        s.process_batch(stream.tuples());
        s.samples_named()
            .into_iter()
            .collect::<std::collections::BTreeSet<_>>()
    };
    let a = run(Engine::Reservoir, 1);
    let b = run(Engine::SJoin, 2);
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

#[test]
fn all_tuples_one_relation_then_flood() {
    // §2.1's lower-bound scenario, at scale, plus a flood after: the first
    // results arrive in one gigantic delta batch.
    let mut qb = QueryBuilder::new();
    qb.relation("R", &["X", "Y"]);
    qb.relation("S", &["Y", "Z"]);
    let q = qb.build().unwrap();
    let mut rj = ReservoirJoin::new(q, 100, 1).unwrap();
    for x in 0..20_000u64 {
        rj.process(0, &[x, 0]);
    }
    assert!(rj.samples().is_empty());
    rj.process(1, &[0, 1]); // one delta batch of 20,000 results
    assert_eq!(rj.samples().len(), 100);
    // The reservoir should NOT have stopped 20k times for that batch:
    // fill (100) + ~k log(N/k) skips.
    assert!(
        rj.reservoir_stops() < 2_000,
        "stops {}",
        rj.reservoir_stops()
    );
}

#[test]
fn skew_flip_flop() {
    // Alternate which side of the join is heavy; counts must stay
    // consistent through repeated doubling/halving pressure (insert-only,
    // so counts never shrink — but the *hot* key alternates).
    let mut qb = QueryBuilder::new();
    qb.relation("G1", &["A", "B"]);
    qb.relation("G2", &["B", "C"]);
    qb.relation("G3", &["C", "D"]);
    let q = qb.build().unwrap();
    let mut stream = TupleStream::new();
    for round in 0..6u64 {
        let hot = round % 2;
        for i in 0..50u64 {
            stream.push(0, vec![round * 100 + i, hot]);
            stream.push(1, vec![hot, hot]);
            stream.push(2, vec![hot, round * 100 + i]);
        }
    }
    let run = |engine: Engine, seed: u64| {
        let mut s = engine
            .build(&q, 1 << 22, seed, &EngineOpts::default())
            .unwrap();
        s.process_batch(stream.tuples());
        let set: std::collections::BTreeSet<_> = s.samples_named().into_iter().collect();
        (set, s.exact_count())
    };
    let (a, rj_exact) = run(Engine::Reservoir, 1);
    let (b, sj_exact) = run(Engine::SJoin, 2);
    assert_eq!(a.len() as u128, sj_exact);
    assert_eq!(rj_exact, sj_exact);
    assert_eq!(a, b);
}

#[test]
fn values_at_u64_extremes() {
    let mut qb = QueryBuilder::new();
    qb.relation("R", &["X", "Y"]);
    qb.relation("S", &["Y", "Z"]);
    let q = qb.build().unwrap();
    let mut rj = ReservoirJoin::new(q, 10, 1).unwrap();
    rj.process(0, &[u64::MAX, u64::MAX - 1]);
    rj.process(1, &[u64::MAX - 1, 0]);
    assert_eq!(rj.samples().to_vec(), [[u64::MAX, u64::MAX - 1, 0]]);
}
