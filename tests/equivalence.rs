//! Cross-algorithm equivalence: with `k` larger than the join, every
//! algorithm must hold *exactly* the full result set, for every query
//! shape, under randomized streams. All engines are built by the
//! [`Engine`] factory and driven through `dyn JoinSampler` — no
//! per-engine loops.

use rsjoin::prelude::*;

type ResultSet = std::collections::BTreeSet<Vec<(String, u64)>>;

const K_ALL: usize = 1_000_000;

/// Streams `stream` through `engine` and returns the normalized
/// (attr-name, value) result set, comparable across engines with
/// different internal attribute orders.
fn collect(engine: Engine, q: &Query, opts: &EngineOpts, stream: &TupleStream) -> ResultSet {
    let mut s = engine
        .build(q, K_ALL, 7, opts)
        .unwrap_or_else(|e| panic!("{engine}: {e}"));
    s.process_batch(stream.tuples());
    s.samples_named().into_iter().collect()
}

fn line4_query() -> Query {
    let mut qb = QueryBuilder::new();
    qb.relation("G1", &["A", "B"]);
    qb.relation("G2", &["B", "C"]);
    qb.relation("G3", &["C", "D"]);
    qb.relation("G4", &["D", "E"]);
    qb.build().unwrap()
}

fn star3_query() -> Query {
    let mut qb = QueryBuilder::new();
    qb.relation("G1", &["A", "B1"]);
    qb.relation("G2", &["A", "B2"]);
    qb.relation("G3", &["A", "B3"]);
    qb.build().unwrap()
}

fn random_binary_stream(rels: usize, n: usize, dom: u64, seed: u64) -> TupleStream {
    let mut rng = RsjRng::seed_from_u64(seed);
    let mut s = TupleStream::new();
    for _ in 0..n {
        s.push(
            rng.index(rels),
            vec![rng.below_u64(dom), rng.below_u64(dom)],
        );
    }
    s
}

#[test]
fn rsjoin_equals_naive_on_line4() {
    let opts = EngineOpts::default();
    for seed in 0..3 {
        let stream = random_binary_stream(4, 120, 4, 100 + seed);
        let q = line4_query();
        assert_eq!(
            collect(Engine::Reservoir, &q, &opts, &stream),
            collect(Engine::Naive, &q, &opts, &stream),
            "seed {seed}"
        );
    }
}

#[test]
fn rsjoin_equals_sjoin_on_star3() {
    let opts = EngineOpts::default();
    for seed in 0..3 {
        let stream = random_binary_stream(3, 150, 5, 200 + seed);
        let q = star3_query();
        let a = collect(Engine::Reservoir, &q, &opts, &stream);
        assert!(!a.is_empty(), "degenerate instance");
        assert_eq!(a, collect(Engine::SJoin, &q, &opts, &stream), "seed {seed}");
    }
}

#[test]
fn grouping_never_changes_results() {
    // A 3-relation query with a wide (groupable) middle node.
    let mut qb = QueryBuilder::new();
    qb.relation("Ra", &["X", "Y"]);
    qb.relation("Rb", &["Y", "Z", "W"]);
    qb.relation("Rc", &["W", "U"]);
    let q = qb.build().unwrap();
    let mut rng = RsjRng::seed_from_u64(5);
    let mut stream = TupleStream::new();
    for _ in 0..200 {
        let rel = rng.index(3);
        let t = if rel == 1 {
            vec![rng.below_u64(4), rng.below_u64(8), rng.below_u64(4)]
        } else {
            vec![rng.below_u64(4), rng.below_u64(4)]
        };
        stream.push(rel, t);
    }
    let run = |grouping: bool| {
        let opts = EngineOpts {
            index: IndexOptions { grouping },
            ..EngineOpts::default()
        };
        collect(Engine::Reservoir, &q, &opts, &stream)
    };
    let with = run(true);
    assert!(!with.is_empty());
    assert_eq!(with, run(false));
}

#[test]
fn cyclic_triangle_equals_naive() {
    let mut qb = QueryBuilder::new();
    qb.relation("R1", &["X", "Y"]);
    qb.relation("R2", &["Y", "Z"]);
    qb.relation("R3", &["Z", "X"]);
    let q = qb.build().unwrap();
    let opts = EngineOpts::default();
    for seed in 0..3 {
        let stream = random_binary_stream(3, 150, 6, 300 + seed);
        assert_eq!(
            collect(Engine::Cyclic, &q, &opts, &stream),
            collect(Engine::Naive, &q, &opts, &stream),
            "seed {seed}"
        );
    }
}

#[test]
fn fk_rewrite_preserves_results_under_all_orders() {
    // fact(K,M) ⋈ c(K,HD) ⋈ d(HD,IB) with PKs on c and d; plain vs _opt
    // engines on a shuffled stream including late-arriving dimensions.
    let mut qb = QueryBuilder::new();
    qb.relation("fact", &["K", "M"]);
    qb.relation("c", &["K", "HD"]);
    qb.relation("d", &["HD", "IB"]);
    let q = qb.build().unwrap();
    let opts = EngineOpts {
        fks: Some(FkSchema::none(3).with_pk(1, vec![0]).with_pk(2, vec![2])),
        ..EngineOpts::default()
    };
    let mut rng = RsjRng::seed_from_u64(9);
    let mut stream = TupleStream::new();
    for k in 0..12u64 {
        stream.push(1, vec![k, k % 5]);
    }
    for hd in 0..5u64 {
        stream.push(2, vec![hd, hd % 2]);
    }
    for _ in 0..60 {
        stream.push(0, vec![rng.below_u64(12), rng.below_u64(30)]);
    }
    for perm_seed in 0..4 {
        let mut s = stream.clone();
        s.shuffle(&mut RsjRng::seed_from_u64(perm_seed));
        let a = collect(Engine::Reservoir, &q, &opts, &s);
        let b = collect(Engine::FkReservoir, &q, &opts, &s);
        assert!(!a.is_empty());
        assert_eq!(a, b, "perm {perm_seed}");
    }
}

#[test]
fn dynamic_sampler_and_reservoir_agree_on_support() {
    // Every result the ad-hoc sampler can produce must be in the full
    // result set collected by the reservoir with huge k, and vice versa.
    // (`DynamicSampleIndex` is the on-demand sampling facade, not one of
    // the streaming engines, so it keeps its own insert interface.)
    let q = star3_query();
    let stream = random_binary_stream(3, 100, 4, 11);
    let full = collect(Engine::Reservoir, &q, &EngineOpts::default(), &stream);
    let mut ix = DynamicSampleIndex::new(q.clone(), 2).unwrap();
    for t in stream.iter() {
        ix.insert(t.relation, &t.values);
    }
    let sampled: ResultSet = ix
        .sample_many(3000)
        .iter()
        .map(|s| {
            let mut kv: Vec<(String, u64)> = q
                .attr_names()
                .iter()
                .cloned()
                .zip(s.iter().copied())
                .collect();
            kv.sort();
            kv
        })
        .collect();
    assert!(!full.is_empty());
    // With 3000 draws over a small result set, support should be covered.
    assert_eq!(sampled, full);
}
