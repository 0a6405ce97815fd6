//! Hand-rooted plans: the plan a sampler is built with (join tree and
//! sampling root, fixed at build time) changes how it draws, never what it
//! holds.
//!
//! 1. every canonical plan is a join tree spanning the query, rooted at 0;
//! 2. with `k >= |Q(R)|`, every join tree and every root collects exactly
//!    the live result set, through inserts and deletes;
//! 3. samples drawn under a non-canonical tree and root stay uniform over
//!    `Q(R)`, repair draws included;
//! 4. an image carries its plan, and an insert-only stream never reads the
//!    root;
//! 5. a plan that does not fit its query is refused at build time.

use proptest::prelude::*;
use rsj_testutil::{
    brute_join_named, digest, live_sets, op_inclusion_counts, turnstile_ops, NamedSample,
    UniformityCheck,
};
use rsjoin::common::FxHashSet;
use rsjoin::engine::{Engine, EngineOpts};
use rsjoin::prelude::*;
use rsjoin::queries::{line_k, star_k};

/// Builds a random acyclic-by-construction query: a relation tree where
/// each edge carries a shared attribute drawn from a small label pool
/// (label collisions merge edges into star-like cliques, producing queries
/// with many join trees), plus one private attribute per relation.
/// `parent_raw[i] % (i+1)` is relation `i+1`'s tree parent.
fn build_query(n: usize, parent_raw: &[usize], labels: &[usize]) -> Query {
    let parents: Vec<usize> = (1..n).map(|i| parent_raw[i - 1] % i).collect();
    let mut qb = QueryBuilder::new();
    for r in 0..n {
        let mut attrs: Vec<String> = vec![format!("P{r}")];
        for (child0, &p) in parents.iter().enumerate() {
            let child = child0 + 1;
            if child == r || p == r {
                let name = format!("S{}", labels[child0] % 3);
                if !attrs.contains(&name) {
                    attrs.push(name);
                }
            }
        }
        let refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
        qb.relation(&format!("R{r}"), &refs);
    }
    qb.build().expect("tree-structured query is well-formed")
}

/// One of `q`'s join trees, picked by `pick` among the spanning trees in
/// which every relation `i > 0` hangs off a relation before it.
fn some_join_tree(q: &Query, pick: usize) -> JoinTree {
    let n = q.num_relations();
    let mut trees = Vec::new();
    let mut parents = vec![0usize; n];
    loop {
        let edges: Vec<(usize, usize)> = (1..n).map(|i| (parents[i], i)).collect();
        let tree = JoinTree::from_edges(n, &edges);
        if tree.satisfies_connectedness(q) {
            trees.push(tree);
        }
        // The next parent vector, odometer-style: digit `i` runs over 0..i.
        let Some(i) = (1..n).find(|&i| parents[i] + 1 < i) else {
            break;
        };
        parents[i] += 1;
        parents[1..i].iter_mut().for_each(|p| *p = 0);
    }
    trees.swap_remove(pick % trees.len())
}

fn plan(tree: &JoinTree, root: usize) -> Plan {
    Plan {
        tree: tree.clone(),
        root,
    }
}

fn live_results(q: &Query, ops: &[StreamOp]) -> FxHashSet<NamedSample> {
    brute_join_named(q, &live_sets(q, &OpStream::from_vec(ops.to_vec())))
}

/// A graph workload's stream as a turnstile stream: every fifth op
/// deletes the tuple inserted four ops before it.
fn with_deletes(w: &rsjoin::queries::Workload) -> Vec<StreamOp> {
    let mut ops = Vec::new();
    let mut inserted = Vec::new();
    for t in w.preload.iter().chain(w.stream.iter()) {
        if ops.len() % 5 == 4 {
            let (rel, values): &(usize, Vec<Value>) = &inserted[inserted.len() - 4];
            ops.push(StreamOp::delete(*rel, values.clone()));
        }
        inserted.push((t.relation, t.values.clone()));
        ops.push(StreamOp::insert(t.relation, t.values.clone()));
    }
    ops
}

/// A small random graph: `m` edges over `v` vertices.
fn edges(m: usize, v: u64, seed: u64) -> Vec<(Value, Value)> {
    let mut rng = RsjRng::seed_from_u64(seed);
    (0..m)
        .map(|_| (rng.below_u64(v), rng.below_u64(v)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn canonical_plans_are_valid_join_trees(
        n in 2usize..7,
        parent_raw in proptest::collection::vec(0usize..16, 6..7),
        labels in proptest::collection::vec(0usize..3, 6..7),
    ) {
        let q = build_query(n, &parent_raw, &labels);
        prop_assume!(JoinTree::build(&q).is_some());
        let plan = Plan::canonical(&q).expect("acyclic queries have a plan");
        prop_assert_eq!(plan.root, 0);
        prop_assert_eq!(plan.tree.len(), n, "the tree spans every relation");
        prop_assert_eq!(plan.tree.edges().len(), n - 1);
        prop_assert!(plan.tree.satisfies_connectedness(&q), "not a join tree");
        // The index takes the plan it was handed.
        let rj = ReservoirJoin::new(q.clone(), 4, 1).unwrap();
        prop_assert_eq!(rj.plan().tree.canonical_edges(), plan.tree.canonical_edges());
        prop_assert_eq!(rj.plan().root, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_join_tree_and_root_keeps_the_live_population(
        n in 2usize..6,
        parent_raw in proptest::collection::vec(0usize..16, 5..6),
        labels in proptest::collection::vec(0usize..3, 5..6),
        pick in 0usize..1000,
        seed in 0u64..1 << 20,
    ) {
        let q = build_query(n, &parent_raw, &labels);
        prop_assume!(JoinTree::build(&q).is_some());
        let tree = some_join_tree(&q, pick);
        let ops = turnstile_ops(&q, 90, 3, seed);
        let expect = live_results(&q, &ops);
        for root in 0..n {
            let mut rj =
                ReservoirJoin::with_plan(q.clone(), 1 << 16, 7, IndexOptions::default(), plan(&tree, root))
                    .unwrap();
            rj.apply_ops(&ops).unwrap();
            let got: FxHashSet<NamedSample> = rj.samples_named().into_iter().collect();
            prop_assert_eq!(rj.exact_count(), expect.len() as u128, "root {}", root);
            prop_assert!(got == expect, "root {}: sample set is not the live result set", root);
        }
    }
}

#[test]
fn hand_rooted_engines_agree_with_live_results_on_graph_workloads() {
    let star4 = star_k(4, &edges(24, 6, 3), 5);
    let inner_fork = JoinTree::from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
    let line4 = line_k(4, &edges(40, 8, 4), 6);
    let cases = [
        (&star4, Plan::canonical(&star4.query).unwrap().tree),
        (&star4, inner_fork),
        (&line4, Plan::canonical(&line4.query).unwrap().tree),
    ];
    for (w, tree) in cases {
        let ops = with_deletes(w);
        assert!(ops.iter().any(StreamOp::is_delete));
        let expect = live_results(&w.query, &ops);
        assert!(!expect.is_empty(), "{}: degenerate instance", w.name);
        for root in 0..w.query.num_relations() {
            let opts = EngineOpts {
                plan: Some(plan(&tree, root)),
                ..EngineOpts::default()
            };
            let mut s = Engine::Reservoir
                .build(&w.query, 1 << 18, 11, &opts)
                .unwrap();
            s.apply_ops(&ops).unwrap();
            let got: FxHashSet<NamedSample> = s.samples_named().into_iter().collect();
            let at = format!("{}, tree {:?}, root {root}", w.name, tree.canonical_edges());
            assert_eq!(s.exact_count(), expect.len() as u128, "{at}");
            assert!(got == expect, "{at}: sample set is not the live result set");
        }
    }
}

/// A star-3 instance small enough to enumerate, sampled through a tree
/// other than the canonical one and a root other than 0, with deletes
/// that force repair draws through that root.
#[test]
fn hand_rooted_samples_stay_uniform() {
    let w = star_k(3, &edges(14, 4, 21), 2);
    let q = &w.query;
    let canonical = Plan::canonical(q).unwrap().tree.canonical_edges();
    let tree = [
        JoinTree::from_edges(3, &[(0, 1), (0, 2)]),
        JoinTree::from_edges(3, &[(1, 0), (1, 2)]),
        JoinTree::from_edges(3, &[(2, 0), (2, 1)]),
    ]
    .into_iter()
    .find(|t| t.canonical_edges() != canonical)
    .unwrap();
    let ops = OpStream::from_vec(with_deletes(&w));
    let expect = brute_join_named(q, &live_sets(q, &ops));
    let support = expect.len();
    assert!(
        (6..=200).contains(&support),
        "need an enumerable instance, got {support}"
    );
    let opts = EngineOpts {
        plan: Some(plan(&tree, 2)),
        ..EngineOpts::default()
    };
    let counts = op_inclusion_counts(&Engine::Reservoir, q, &opts, &ops, &expect, 3, 0..4000);
    UniformityCheck::single().assert_uniform(&counts, support, "hand-rooted star-3");
    // The root was read: on some seed, root 0 repairs to another reservoir.
    let rows_at = |root: usize, seed: u64| {
        let mut rj = ReservoirJoin::with_plan(
            q.clone(),
            3,
            seed,
            IndexOptions::default(),
            plan(&tree, root),
        )
        .unwrap();
        rj.apply_ops(ops.ops()).unwrap();
        rj.samples()
            .iter()
            .map(<[Value]>::to_vec)
            .collect::<Vec<_>>()
    };
    assert!(
        (0..64).any(|seed| rows_at(0, seed) != rows_at(2, seed)),
        "no repair drew through the root — the test lost its teeth"
    );
}

#[test]
fn an_image_carries_its_plan() {
    // Restoring a hand-rooted image into a canonically built driver adopts
    // the image's tree and root; both then sample identically.
    let w = star_k(4, &edges(24, 6, 8), 9);
    let q = &w.query;
    let tree = JoinTree::from_edges(4, &[(0, 1), (1, 2), (1, 3)]);
    assert_ne!(
        tree.canonical_edges(),
        Plan::canonical(q).unwrap().tree.canonical_edges()
    );
    let ops = with_deletes(&w);
    let (head, tail) = ops.split_at(ops.len() / 2);
    let mut rj =
        ReservoirJoin::with_plan(q.clone(), 6, 3, IndexOptions::default(), plan(&tree, 3)).unwrap();
    rj.apply_ops(head).unwrap();
    let mut twin = ReservoirJoin::new(q.clone(), 6, 3).unwrap();
    twin.restore_state(&rj.snapshot_state().unwrap()).unwrap();
    assert_eq!(twin.plan().root, 3);
    assert_eq!(twin.plan().tree.canonical_edges(), tree.canonical_edges());
    rj.apply_ops(tail).unwrap();
    twin.apply_ops(tail).unwrap();
    let rows = |r: &ReservoirJoin| {
        r.samples()
            .iter()
            .map(<[Value]>::to_vec)
            .collect::<Vec<_>>()
    };
    assert_eq!(rows(&rj).len(), 6);
    assert_eq!(digest(&rows(&twin)), digest(&rows(&rj)));
    assert_eq!(twin.snapshot_state(), rj.snapshot_state());
}

#[test]
fn insert_only_streams_never_read_the_root() {
    // The root only steers full-result draws, which only delete repair
    // makes: without deletes every root keeps the same reservoir, in the
    // same order.
    for w in [
        line_k(3, &edges(60, 10, 12), 13),
        star_k(4, &edges(30, 6, 14), 15),
    ] {
        let tree = Plan::canonical(&w.query).unwrap().tree;
        let ops: Vec<StreamOp> = w
            .stream
            .iter()
            .map(|t| StreamOp::insert(t.relation, t.values.clone()))
            .collect();
        let run = |root: usize| {
            let mut rj = ReservoirJoin::with_plan(
                w.query.clone(),
                8,
                17,
                IndexOptions::default(),
                plan(&tree, root),
            )
            .unwrap();
            rj.apply_ops(&ops).unwrap();
            let rows: Vec<Vec<Value>> = rj.samples().iter().map(<[Value]>::to_vec).collect();
            assert_eq!(rows.len(), 8, "{}: fewer results than k", w.name);
            digest(&rows)
        };
        let at_root_0 = run(0);
        for root in 1..w.query.num_relations() {
            assert_eq!(run(root), at_root_0, "{}, root {root}", w.name);
        }
    }
}

#[test]
fn a_tree_that_is_not_a_join_tree_is_refused_at_build_time() {
    // Spanning, but G1-G3-G2 breaks attribute A1's subtree (A1 lives in
    // G1 and G2 only).
    let q = line_k(3, &[], 0).query;
    let bad = plan(&JoinTree::from_edges(3, &[(0, 2), (1, 2)]), 0);
    let opts = EngineOpts {
        plan: Some(bad.clone()),
        ..EngineOpts::default()
    };
    match Engine::Reservoir.build(&q, 8, 1, &opts) {
        Err(EngineError::Build(m)) => assert!(m.contains("join-tree property"), "{m}"),
        other => panic!("expected a build error, got {:?}", other.err()),
    }
    let mut svc = SamplerService::new(q.clone());
    let reg = QueryOpts {
        plan: Some(bad),
        ..QueryOpts::new(8, 1)
    };
    match svc.register(&q, &reg) {
        Err(e @ ServiceError::Index(_)) => {
            assert!(e.to_string().contains("join-tree property"), "{e}")
        }
        other => panic!("expected an index error, got {:?}", other.err()),
    }
}
