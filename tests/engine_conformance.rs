//! Cross-engine conformance: one workload streamed through every
//! [`Engine`] variant via `dyn JoinSampler`, asserting exact agreement of
//! the collected result sets (and therefore join counts) against the
//! `NaiveRebuild` ground truth.
//!
//! This is the executor layer's contract test: every engine, however it
//! rewrites or decomposes the query internally, must expose the same
//! name→value result set through the uniform interface. No per-engine
//! driver code appears anywhere in this file — engines are built by the
//! factory and driven exclusively through the trait.

use rsj_testutil::{line3, two_table};
use rsjoin::core::exact_result_count;
use rsjoin::prelude::*;

type ResultSet = std::collections::BTreeSet<Vec<(String, u64)>>;

/// `k` large enough that the reservoir collects every result.
const K_ALL: usize = 1 << 22;

/// Builds `engine`, streams `stream` through the trait, returns the
/// normalized result set.
fn collect(engine: &Engine, query: &Query, opts: &EngineOpts, stream: &TupleStream) -> ResultSet {
    let mut sampler = engine
        .build(query, K_ALL, 7, opts)
        .unwrap_or_else(|e| panic!("{engine}: {e}"));
    sampler.process_batch(stream.tuples());
    sampler.samples_named().into_iter().collect()
}

/// Streams through every supporting engine and asserts agreement with
/// `NaiveRebuild`. Returns the (common) result count.
fn conform(query: &Query, opts: &EngineOpts, stream: &TupleStream, label: &str) -> usize {
    let truth = collect(&Engine::Naive, query, opts, stream);
    for engine in Engine::ALL {
        if engine == Engine::Naive || !engine.supports(query) {
            continue;
        }
        let got = collect(&engine, query, opts, stream);
        assert_eq!(
            got.len(),
            truth.len(),
            "{label}: {engine} count {} != naive count {}",
            got.len(),
            truth.len()
        );
        assert_eq!(got, truth, "{label}: {engine} disagrees with NaiveRebuild");
    }
    truth.len()
}

fn random_stream(rels: usize, n: usize, dom: u64, seed: u64) -> TupleStream {
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
fn all_seven_engines_agree_on_two_table_join() {
    // The only query shape every engine (including SymmetricHashJoin)
    // supports: R(X,Y) ⋈ S(Y,Z).
    let mut qb = QueryBuilder::new();
    qb.relation("R", &["X", "Y"]);
    qb.relation("S", &["Y", "Z"]);
    let q = qb.build().unwrap();
    let opts = EngineOpts::default();
    for seed in 0..3 {
        let stream = random_stream(2, 150, 6, 40 + seed);
        let n = conform(&q, &opts, &stream, "two-table");
        assert!(n > 0, "degenerate instance at seed {seed}");
    }
}

#[test]
fn acyclic_engines_agree_on_line3() {
    let mut qb = QueryBuilder::new();
    qb.relation("G1", &["A", "B"]);
    qb.relation("G2", &["B", "C"]);
    qb.relation("G3", &["C", "D"]);
    let q = qb.build().unwrap();
    let opts = EngineOpts::default();
    for seed in 0..3 {
        let stream = random_stream(3, 150, 5, 60 + seed);
        let n = conform(&q, &opts, &stream, "line-3");
        assert!(n > 0, "degenerate instance at seed {seed}");
    }
}

#[test]
fn fk_engines_agree_under_declared_keys() {
    // fact(K,M) ⋈ c(K,HD) ⋈ d(HD,IB) with PKs on c and d: the `_opt`
    // engines take the combination rewrite, the others run the original
    // query; results must match regardless.
    let mut qb = QueryBuilder::new();
    qb.relation("fact", &["K", "M"]);
    qb.relation("c", &["K", "HD"]);
    qb.relation("d", &["HD", "IB"]);
    let q = qb.build().unwrap();
    let opts = EngineOpts {
        fks: Some(FkSchema::none(3).with_pk(1, vec![0]).with_pk(2, vec![2])),
        ..EngineOpts::default()
    };
    let mut stream = TupleStream::new();
    for k in 0..12u64 {
        stream.push(1, vec![k, k % 5]);
    }
    for hd in 0..5u64 {
        stream.push(2, vec![hd, hd % 2]);
    }
    let mut rng = RsjRng::seed_from_u64(9);
    for _ in 0..60 {
        stream.push(0, vec![rng.below_u64(12), rng.below_u64(30)]);
    }
    // Dimensions must arrive in any order relative to facts.
    stream.shuffle(&mut RsjRng::seed_from_u64(3));
    let n = conform(&q, &opts, &stream, "fk-chain");
    assert!(n > 0);
}

#[test]
fn cyclic_engines_agree_on_triangle() {
    let mut qb = QueryBuilder::new();
    qb.relation("R1", &["X", "Y"]);
    qb.relation("R2", &["Y", "Z"]);
    qb.relation("R3", &["Z", "X"]);
    let q = qb.build().unwrap();
    let opts = EngineOpts::default();
    for seed in 0..2 {
        let stream = random_stream(3, 120, 6, 80 + seed);
        conform(&q, &opts, &stream, "triangle");
    }
}

#[test]
fn acyclic_engines_agree_on_star4() {
    // Four relations sharing one hub attribute: every delta fans out into
    // the product of the other three spokes.
    let mut qb = QueryBuilder::new();
    qb.relation("S1", &["A", "W"]);
    qb.relation("S2", &["A", "X"]);
    qb.relation("S3", &["A", "Y"]);
    qb.relation("S4", &["A", "Z"]);
    let q = qb.build().unwrap();
    let opts = EngineOpts::default();
    for seed in 0..2 {
        let stream = random_stream(4, 100, 6, 120 + seed);
        let n = conform(&q, &opts, &stream, "star-4");
        assert!(n > 0, "degenerate instance at seed {seed}");
    }
}

#[test]
fn cyclic_engines_agree_on_four_cycle() {
    // The smallest cycle whose GHD needs bags of two relations each.
    let mut qb = QueryBuilder::new();
    qb.relation("R1", &["W", "X"]);
    qb.relation("R2", &["X", "Y"]);
    qb.relation("R3", &["Y", "Z"]);
    qb.relation("R4", &["Z", "W"]);
    let q = qb.build().unwrap();
    let opts = EngineOpts::default();
    for seed in 0..2 {
        let stream = random_stream(4, 120, 4, 140 + seed);
        let n = conform(&q, &opts, &stream, "4-cycle");
        assert!(n > 0, "degenerate instance at seed {seed}");
    }
}

/// Every engine's own `exact_count` against the oracle
/// (`exact_result_count` over a `Database` mirror of the live tuples), at
/// every prefix of a turnstile stream and again on a twin restored from
/// that prefix's image: the count is the published population of a boxed
/// service member, so it must be exact wherever the engine is.
#[test]
fn every_engine_counts_exactly_at_every_prefix_and_across_restore() {
    let mut qb = QueryBuilder::new();
    qb.relation("R1", &["X", "Y"]);
    qb.relation("R2", &["Y", "Z"]);
    qb.relation("R3", &["Z", "X"]);
    let triangle = qb.build().unwrap();
    // An edgeless join tree: the count is the relation's size.
    let mut qb = QueryBuilder::new();
    qb.relation("R", &["A", "B"]);
    let single = qb.build().unwrap();
    for q in [single, two_table(), line3(), triangle] {
        let ops = rsj_testutil::turnstile_ops(&q, 240, 5, 23);
        assert!(ops.iter().any(StreamOp::is_delete));
        let mut db = Database::new();
        for r in q.relations() {
            db.add_relation(r.name.clone(), r.attrs.len());
        }
        for engine in Engine::ALL.iter().filter(|e| e.supports(&q)) {
            let build = || engine.build(&q, 6, 5, &EngineOpts::default()).unwrap();
            let mut s = build();
            let mut mirror = db.clone();
            for (i, op) in ops.iter().enumerate() {
                s.process_op(op).unwrap();
                let t = op.tuple();
                match op {
                    StreamOp::Insert(_) => mirror.relation_mut(t.relation).insert(&t.values),
                    StreamOp::Delete(_) => mirror.relation_mut(t.relation).remove(&t.values),
                };
                if (i + 1) % 40 != 0 {
                    continue;
                }
                let want = exact_result_count(&q, &mirror);
                assert_eq!(s.exact_count(), want, "{engine} after {} ops", i + 1);
                let mut twin = build();
                twin.restore_state(&s.snapshot_state().unwrap()).unwrap();
                assert_eq!(twin.exact_count(), want, "{engine} restored at {}", i + 1);
            }
            assert!(exact_result_count(&q, &mirror) > 0, "{engine}: degenerate");
        }
    }
}

#[test]
fn engines_report_their_identity_and_capacity() {
    let mut qb = QueryBuilder::new();
    qb.relation("R", &["X", "Y"]);
    qb.relation("S", &["Y", "Z"]);
    let q = qb.build().unwrap();
    for engine in Engine::ALL {
        let s = engine.build(&q, 17, 1, &EngineOpts::default()).unwrap();
        assert_eq!(s.name(), engine.name());
        assert_eq!(s.k(), 17);
        assert!(s.samples().is_empty());
    }
}

#[test]
fn stats_flow_through_the_trait() {
    let mut qb = QueryBuilder::new();
    qb.relation("R", &["X", "Y"]);
    qb.relation("S", &["Y", "Z"]);
    let q = qb.build().unwrap();
    let stream = random_stream(2, 100, 5, 1);
    for engine in [Engine::Reservoir, Engine::SJoin, Engine::Symmetric] {
        let mut s = engine.build(&q, 10, 1, &EngineOpts::default()).unwrap();
        s.process_batch(stream.tuples());
        let st = s.stats();
        assert!(st.inserts.unwrap() > 0, "{engine} tracks accepted tuples");
    }
}

// ---------------------------------------------------------------------------
// One contract, every entry point
// ---------------------------------------------------------------------------

/// A quarter of the ops delete a live tuple, so every path below
/// exercises repair as well as ingest.
fn turnstile_ops(rels: usize, n: usize, dom: u64, seed: u64) -> Vec<StreamOp> {
    let config = rsjoin::datagen::TurnstileConfig {
        delete_ratio: 0.25,
        policy: rsjoin::datagen::VictimPolicy::Uniform,
        seed,
    };
    config
        .weave(&random_stream(rels, n, dom, seed))
        .ops()
        .to_vec()
}

fn feed_primitives<S: JoinSampler + ?Sized>(s: &mut S, ops: &[StreamOp]) {
    for op in ops {
        let t = op.tuple();
        match op {
            StreamOp::Insert(_) => s.process(t.relation, &t.values),
            StreamOp::Delete(_) => s.delete(t.relation, &t.values),
        }
    }
}

/// Ragged chunks, so delete-free windows (columnar path) and mixed
/// windows (per-op path) both occur at varying offsets.
fn feed_batches<S: JoinSampler + ?Sized>(s: &mut S, ops: &[StreamOp]) {
    let mut rest = ops;
    for len in [1usize, 7, 64, 3, 29].into_iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (chunk, tail) = rest.split_at(len.min(rest.len()));
        s.process_op_batch(chunk).unwrap();
        rest = tail;
    }
}

/// Samples, stats and state image. `heap_bytes` is left out: it estimates
/// allocated capacity, which a restore sizes exactly and a long-running
/// engine has grown by doubling.
fn observe<S: JoinSampler + ?Sized>(s: &S) -> (Vec<Vec<Value>>, SamplerStats, Vec<u8>) {
    let stats = SamplerStats {
        heap_bytes: None,
        ..s.stats()
    };
    let image = s.snapshot_state().expect("healthy engines have an image");
    (s.samples(), stats, image)
}

/// The same turnstile stream through the primitives, through
/// `process_op`, through ragged `process_op_batch` chunks, and through
/// the `Box` forwarding impl leaves every engine in the same bytes —
/// samples, stats and state image — and an engine restored from that
/// image continues identically.
#[test]
fn every_ingest_path_yields_identical_bytes() {
    let q = two_table();
    let ops = turnstile_ops(2, 320, 6, 77);
    let (head, tail) = ops.split_at(200);
    assert!(tail.iter().any(StreamOp::is_delete));
    for engine in Engine::ALL {
        let build = || engine.build(&q, 6, 11, &EngineOpts::default()).unwrap();

        let mut reference = build();
        feed_primitives(&mut *reference, head);
        let want = observe(&*reference);

        let mut via_ops = build();
        for op in head {
            via_ops.process_op(op).unwrap();
        }
        assert_eq!(observe(&*via_ops), want, "{engine}: process_op");

        let mut via_batches = build();
        feed_batches(&mut *via_batches, head);
        assert_eq!(observe(&*via_batches), want, "{engine}: process_op_batch");

        // `S = Box<dyn JoinSampler + Send>`: the forwarding impl, with the
        // provided methods running on the outside of the box.
        let mut boxed = build();
        feed_batches(&mut boxed, head);
        assert_eq!(observe(&boxed), want, "{engine}: through Box");

        let mut restored = build();
        restored.restore_state(&want.2).unwrap();
        feed_primitives(&mut *reference, tail);
        feed_batches(&mut restored, tail);
        assert_eq!(
            observe(&restored),
            observe(&*reference),
            "{engine}: restored engine diverged on the tail"
        );
    }
}

/// Malformed ops — unknown relation, short tuple, long tuple — come back
/// as the typed error from `process_op`, sink a whole `process_op_batch`
/// when one sits in the middle, and leave the state image byte-identical.
/// The rewriting engines are checked on queries they actually rewrite:
/// relation 2 exists in their *input* query but not in the single-relation
/// rewrite / single-bag decomposition they index.
#[test]
fn malformed_ops_return_a_typed_error_and_apply_nothing() {
    let mut qb = QueryBuilder::new();
    qb.relation("fact", &["K", "M"]);
    qb.relation("c", &["K", "HD"]);
    qb.relation("d", &["HD", "IB"]);
    let chain = qb.build().unwrap();
    let fk_opts = EngineOpts {
        fks: Some(FkSchema::none(3).with_pk(1, vec![0]).with_pk(2, vec![2])),
        ..EngineOpts::default()
    };
    let mut qb = QueryBuilder::new();
    qb.relation("R1", &["X", "Y"]);
    qb.relation("R2", &["Y", "Z"]);
    qb.relation("R3", &["Z", "X"]);
    let triangle = qb.build().unwrap();
    let plain = EngineOpts::default();
    let mut cases: Vec<(Engine, Query, &EngineOpts)> = Engine::ALL
        .into_iter()
        .map(|e| (e, two_table(), &plain))
        .collect();
    cases.push((Engine::FkReservoir, chain.clone(), &fk_opts));
    cases.push((Engine::SJoinOpt, chain, &fk_opts));
    cases.push((Engine::Cyclic, triangle, &plain));

    for (engine, q, opts) in cases {
        let nrels = q.num_relations();
        let mut s = engine.build(&q, 6, 3, opts).unwrap();
        assert_eq!(s.input_query().num_relations(), nrels, "{engine}");
        if nrels == 3 {
            assert!(
                s.output_query().num_relations() < 3,
                "{engine} must rewrite"
            );
        }
        let valid = StreamOp::insert(nrels - 1, vec![40, 41]);
        s.process_op(&valid).unwrap();
        let before = s.snapshot_state().unwrap();

        let unknown = StreamOp::insert(nrels, vec![1, 2]);
        let short = StreamOp::insert(0, vec![1]);
        let long = StreamOp::delete(nrels - 1, vec![1, 2, 3]);
        let arity = |relation, got| SharedStoreError::ArityMismatch {
            relation,
            expected: 2,
            got,
        };
        for (bad, want) in [
            (&unknown, SharedStoreError::UnknownRelation(nrels)),
            (&short, arity(0, 1)),
            (&long, arity(nrels - 1, 3)),
        ] {
            assert_eq!(s.process_op(bad), Err(want), "{engine}");
            // Mid-batch, on the columnar (delete-free) route and on the
            // per-op route alike.
            let inserts = [valid.clone(), bad.clone(), valid.clone()];
            assert!(s.process_op_batch(&inserts).is_err(), "{engine}");
            let mixed = [StreamOp::delete(0, vec![40, 41]), bad.clone()];
            assert!(s.process_op_batch(&mixed).is_err(), "{engine}");
        }
        assert_eq!(
            s.snapshot_state().unwrap(),
            before,
            "{engine}: a rejected op or batch mutated the engine"
        );
        // ... and the engine keeps working.
        s.process_op_batch(&[StreamOp::insert(0, vec![50, 51])])
            .unwrap();
        assert_ne!(s.snapshot_state().unwrap(), before, "{engine}");
    }
}
