//! Statistical uniformity tests: the sample distribution of every engine
//! matches the uniform distribution over the true result set, at final and
//! intermediate timestamps. Fixed seeds; all machinery (counting harness,
//! chi-square thresholds, alpha levels) lives in `rsj-testutil` — see its
//! crate docs for the documented base level and the Bonferroni correction
//! applied when one family of checks spans several engines.

use rsj_testutil::{inclusion_counts, UniformityCheck};
use rsjoin::prelude::*;

type NamedSample = rsj_testutil::NamedSample;

fn line3_query() -> Query {
    let mut qb = QueryBuilder::new();
    qb.relation("G1", &["A", "B"]);
    qb.relation("G2", &["B", "C"]);
    qb.relation("G3", &["C", "D"]);
    qb.build().unwrap()
}

/// A fixed line-3 instance with 24 results and skewed multiplicities.
fn skewed_stream() -> TupleStream {
    let mut s = TupleStream::new();
    for a in 0..4u64 {
        s.push(0, vec![a, 1]);
    }
    s.push(1, vec![1, 2]);
    s.push(1, vec![1, 3]);
    for d in 0..2u64 {
        s.push(2, vec![2, d]);
    }
    for d in 0..4u64 {
        s.push(2, vec![3, 10 + d]);
    }
    // 4 * (2 + 4) = 24 results.
    s
}

/// RSJoin and SJoin each run the same skewed instance — one family of two
/// comparisons sharing the base alpha budget.
#[test]
fn rsjoin_and_sjoin_uniform_with_k3() {
    let check = UniformityCheck::across(2);
    for (engine, expect_full) in [(Engine::Reservoir, true), (Engine::SJoin, false)] {
        let counts = inclusion_counts(
            &engine,
            &line3_query(),
            &EngineOpts::default(),
            &skewed_stream(),
            3,
            0..6000,
            expect_full,
        );
        check.assert_uniform(&counts, 24, &format!("{engine} k=3"));
    }
}

#[test]
fn rsjoin_and_sjoin_agree_distributionally() {
    // Same instance, same k: the two engines' inclusion frequencies per
    // result must both be k/|Q(R)| within noise.
    let stream = skewed_stream();
    let q = line3_query();
    let opts = EngineOpts::default();
    let trials = 4000u64;
    let k = 4;
    let rs_counts = inclusion_counts(&Engine::Reservoir, &q, &opts, &stream, k, 0..trials, true);
    let sj_counts = inclusion_counts(
        &Engine::SJoin,
        &q,
        &opts,
        &stream,
        k,
        50_000..50_000 + trials,
        false,
    );
    let expect = trials as f64 * k as f64 / 24.0;
    for (r, c) in &rs_counts {
        let c = *c as f64;
        assert!(
            (c - expect).abs() < expect * 0.25,
            "rsjoin freq off for {r:?}: {c} vs {expect}"
        );
        let sc = sj_counts.get(r).copied().unwrap_or(0) as f64;
        assert!(
            (sc - expect).abs() < expect * 0.25,
            "sjoin freq off for {r:?}: {sc} vs {expect}"
        );
    }
}

#[test]
fn uniform_at_intermediate_prefix() {
    // After only part of the stream, the reservoir must be uniform over
    // the partial result set.
    let full = skewed_stream();
    // Prefix: 4 G1 tuples + both G2 tuples + the two C=2 G3 tuples
    // => 4 * 2 = 8 results.
    let prefix: TupleStream = full.iter().take(8).cloned().collect();
    let counts = inclusion_counts(
        &Engine::Reservoir,
        &line3_query(),
        &EngineOpts::default(),
        &prefix,
        2,
        90_000..95_000,
        false,
    );
    UniformityCheck::single().assert_uniform(&counts, 8, "prefix");
}

#[test]
fn fk_driver_uniform() {
    // fact ⋈ dim with k=1 over a 6-result instance.
    let mut qb = QueryBuilder::new();
    qb.relation("fact", &["K", "M"]);
    qb.relation("dim", &["K", "D"]);
    let q = qb.build().unwrap();
    let opts = EngineOpts {
        fks: Some(FkSchema::none(2).with_pk(1, vec![0])),
        ..EngineOpts::default()
    };
    let mut stream = TupleStream::new();
    for (rel, t) in [
        (0, vec![1, 100]),
        (0, vec![1, 101]),
        (1, vec![1, 7]),
        (0, vec![1, 102]),
        (0, vec![2, 103]),
        (1, vec![2, 8]),
        (0, vec![2, 104]),
        (0, vec![2, 105]),
    ] {
        stream.push(rel, t);
    }
    let counts = inclusion_counts(&Engine::FkReservoir, &q, &opts, &stream, 1, 0..6000, true);
    UniformityCheck::single().assert_uniform(&counts, 6, "fk k=1");
}

/// `SJoin_opt` resolves a declared key through its own combiner in front
/// of the exact-count index: facts arriving before and after their
/// dimension row must be sampled alike.
#[test]
fn sjoin_opt_uniform_under_declared_keys() {
    let mut qb = QueryBuilder::new();
    qb.relation("fact", &["K", "M"]);
    qb.relation("dim", &["K", "D"]);
    let q = qb.build().unwrap();
    let opts = EngineOpts {
        fks: Some(FkSchema::none(2).with_pk(1, vec![0])),
        ..EngineOpts::default()
    };
    let mut stream = TupleStream::new();
    for m in 0..8u64 {
        stream.push(0, vec![m % 3, 200 + m]);
        if m == 3 {
            stream.push(1, vec![0, 9]);
            stream.push(1, vec![1, 9]);
        }
    }
    stream.push(1, vec![2, 9]);
    // Every one of the 8 facts finds its dimension row.
    let counts = inclusion_counts(&Engine::SJoinOpt, &q, &opts, &stream, 2, 0..6000, true);
    UniformityCheck::single().assert_uniform(&counts, 8, "SJoin_opt k=2");
}

/// The rebuild-and-redraw strawman is the ground truth other tests compare
/// against, so its own draw must be uniform too.
#[test]
fn naive_rebuild_uniform_with_k2() {
    let counts = inclusion_counts(
        &Engine::Naive,
        &line3_query(),
        &EngineOpts::default(),
        &skewed_stream(),
        2,
        0..4000,
        true,
    );
    UniformityCheck::single().assert_uniform(&counts, 24, "NaiveRebuild k=2");
}

/// The symmetric hash join feeds a classic reservoir one delta at a time;
/// results whose halves arrive in either order must be equally likely.
#[test]
fn symmetric_hash_join_uniform_with_k2() {
    let mut qb = QueryBuilder::new();
    qb.relation("R", &["X", "Y"]);
    qb.relation("S", &["Y", "Z"]);
    let q = qb.build().unwrap();
    let mut stream = TupleStream::new();
    for (rel, t) in [
        (0, vec![0, 1]),
        (1, vec![1, 10]),
        (0, vec![1, 1]),
        (1, vec![2, 20]),
        (1, vec![1, 11]),
        (0, vec![2, 1]),
        (0, vec![3, 2]),
        (1, vec![2, 21]),
        (1, vec![2, 22]),
    ] {
        stream.push(rel, t);
    }
    // Y=1: 3 R rows x 2 S rows; Y=2: 1 x 3 => 9 results.
    let counts = inclusion_counts(
        &Engine::Symmetric,
        &q,
        &EngineOpts::default(),
        &stream,
        2,
        0..6000,
        true,
    );
    UniformityCheck::single().assert_uniform(&counts, 9, "SymmetricHashJoin k=2");
}

#[test]
fn cyclic_driver_uniform() {
    // Triangle instance with 4 triangles; k=1.
    let mut qb = QueryBuilder::new();
    qb.relation("R1", &["X", "Y"]);
    qb.relation("R2", &["Y", "Z"]);
    qb.relation("R3", &["Z", "X"]);
    let q = qb.build().unwrap();
    let mut stream = TupleStream::new();
    for (rel, t) in [
        (0, vec![0, 1]),
        (0, vec![0, 2]),
        (1, vec![1, 4]),
        (1, vec![2, 4]),
        (1, vec![1, 5]),
        (1, vec![2, 5]),
        (2, vec![4, 0]),
        (2, vec![5, 0]),
    ] {
        stream.push(rel, t);
    }
    // Triangles: (0,1,4), (0,2,4), (0,1,5), (0,2,5).
    let counts = inclusion_counts(
        &Engine::Cyclic,
        &q,
        &EngineOpts::default(),
        &stream,
        1,
        0..6000,
        true,
    );
    UniformityCheck::single().assert_uniform(&counts, 4, "cyclic k=1");
}

/// The harness's named-sample normalization keeps engines comparable: spot
/// check the shape once here rather than per test.
#[test]
fn named_samples_are_sorted_pairs() {
    let counts = inclusion_counts(
        &Engine::Reservoir,
        &line3_query(),
        &EngineOpts::default(),
        &skewed_stream(),
        1,
        0..1,
        true,
    );
    let sample: &NamedSample = counts.keys().next().unwrap();
    let names: Vec<&str> = sample.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["A", "B", "C", "D"]);
}
