//! Differential tests of the exact `|Q(R)|` kernels.
//!
//! Three independent computations must agree at **every step** of a random
//! turnstile stream: `DynamicIndex::exact_count` (a pass over the index's
//! own groups and posting lists), `exact_result_count` (the `Database`
//! message pass, backtracking for cyclic queries) and brute-force
//! enumeration of the live tuple sets. The shapes cover a leaf-only chain
//! (line-3, line-4), a root and an inner node with several children
//! (star-4 over explicit trees — the per-item scratch path), §4.4 grouped
//! nodes with one and with two children, and the cyclic dumbbell, whose
//! index lives over bag-level relations inside the GHD driver. The same
//! agreement is then checked after a snapshot/restore and after
//! delete-everything-then-reinsert.
//!
//! The anchored count — the ledger an index group settles at deletes with
//! rooted walks, behind `ReservoirJoin::exact_count` and a service group's
//! `exact_count` — is held to the stateless pass and brute force the same
//! way: at every step, over every shape and several sampling roots, with
//! insert bursts whose new tuples join each other (the walks' attribution
//! mask), a hub whose settle outweighs a pass (the budget drop) and
//! across a snapshot/restore.

use proptest::prelude::*;
use rsj_testutil::brute_join_named;
use rsjoin::common::codec::{Decoder, Encoder};
use rsjoin::common::FxHashSet;
use rsjoin::core::exact_result_count;
use rsjoin::prelude::*;
use rsjoin::queries::{dumbbell, line_k, star_k};

type Live = Vec<FxHashSet<Vec<Value>>>;

fn query(relations: &[(&str, &[&str])]) -> Query {
    let mut qb = QueryBuilder::new();
    for (name, attrs) in relations {
        qb.relation(name, attrs);
    }
    qb.build().unwrap()
}

/// The graph benchmark queries of `rsj-queries`, without their streams.
fn line(k: usize) -> Query {
    line_k(k, &[], 0).query
}

fn star4() -> Query {
    star_k(4, &[], 0).query
}

/// Example 4.5's shape: `Rb` is a grouped inner node in the view rooted
/// at `Ra`.
fn grouped_chain() -> Query {
    query(&[
        ("Ra", &["X", "Y"]),
        ("Rb", &["Y", "Z", "W"]),
        ("Rc", &["W", "U"]),
    ])
}

/// A grouped inner node with two children (`ē = {Y, W, V} ⊊ schema`).
fn grouped_fork() -> Query {
    query(&[
        ("Ra", &["X", "Y"]),
        ("Rb", &["Y", "Z", "W", "V"]),
        ("Rc", &["W", "U"]),
        ("Rd", &["V", "T"]),
    ])
}

/// The acyclic shapes, each with the tree its index is built over
/// (`None` = the canonical GYO tree).
fn acyclic_shapes() -> Vec<(&'static str, Query, Option<JoinTree>)> {
    vec![
        ("line-3", line(3), None),
        ("line-4", line(4), None),
        ("star-4", star4(), None),
        (
            "star-4, root with three children",
            star4(),
            Some(JoinTree::from_edges(4, &[(0, 1), (0, 2), (0, 3)])),
        ),
        (
            "star-4, inner node with two children",
            star4(),
            Some(JoinTree::from_edges(4, &[(0, 1), (1, 2), (1, 3)])),
        ),
        ("grouped chain", grouped_chain(), None),
        ("grouped fork", grouped_fork(), None),
    ]
}

fn build_index(q: &Query, tree: &Option<JoinTree>, grouping: bool) -> DynamicIndex {
    let options = IndexOptions { grouping };
    match tree {
        Some(t) => DynamicIndex::with_tree(q.clone(), t, options),
        None => DynamicIndex::new(q.clone(), options),
    }
    .unwrap()
}

/// One step of a random turnstile stream over `q`: a delete of a random
/// live tuple with probability ~1/3, else an insert of a random tuple
/// (possibly a duplicate).
fn random_op(q: &Query, live: &Live, dom: u64, rng: &mut RsjRng) -> StreamOp {
    let total: usize = live.iter().map(FxHashSet::len).sum();
    if total > 0 && rng.below_u64(3) == 0 {
        let mut pick = rng.index(total);
        for (rel, side) in live.iter().enumerate() {
            if pick < side.len() {
                // Hash-set order is fixed for a fixed insertion history.
                let t = side.iter().nth(pick).unwrap().clone();
                return StreamOp::delete(rel, t);
            }
            pick -= side.len();
        }
    }
    let rel = rng.index(q.num_relations());
    let values = (0..q.relation(rel).attrs.len())
        .map(|_| rng.below_u64(dom))
        .collect();
    StreamOp::insert(rel, values)
}

fn apply_live(live: &mut Live, op: &StreamOp) {
    let t = op.tuple();
    if op.is_delete() {
        live[t.relation].remove(&t.values);
    } else {
        live[t.relation].insert(t.values.clone());
    }
}

fn apply_index(idx: &mut DynamicIndex, op: &StreamOp) {
    let t = op.tuple();
    if op.is_delete() {
        idx.delete(t.relation, &t.values);
    } else {
        idx.insert(t.relation, &t.values);
    }
}

/// Both kernels against brute force.
fn assert_counts_agree(idx: &DynamicIndex, live: &Live, at: &str) {
    let brute = brute_join_named(idx.query(), live).len() as u128;
    assert_eq!(idx.exact_count(), brute, "index kernel, {at}");
    assert_eq!(
        exact_result_count(idx.query(), idx.database()),
        brute,
        "database kernel, {at}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn kernels_agree_with_brute_force_at_every_step(
        seed in 0u64..1 << 40,
        steps in 80usize..160,
        dom in 2u64..4,
        grouping in any::<bool>(),
    ) {
        for (name, q, tree) in acyclic_shapes() {
            let mut rng = RsjRng::seed_from_u64(seed);
            let mut idx = build_index(&q, &tree, grouping);
            let mut live: Live = vec![FxHashSet::default(); q.num_relations()];
            let mut nonzero = 0;
            for step in 0..steps {
                let op = random_op(&q, &live, dom, &mut rng);
                apply_live(&mut live, &op);
                apply_index(&mut idx, &op);
                assert_counts_agree(&idx, &live, &format!("{name} step {step}"));
                nonzero += usize::from(idx.exact_count() > 0);
            }
            prop_assert!(nonzero > 0, "{name}: the join never had a result");

            // A restored index counts what the original does.
            let mut enc = Encoder::new();
            idx.snapshot_state_to(&mut enc);
            let bytes = enc.into_bytes();
            let mut restored = build_index(&q, &tree, grouping);
            restored.restore_state_from(&mut Decoder::new(&bytes)).unwrap();
            assert_counts_agree(&restored, &live, &format!("{name} restored"));

            // Delete everything (stale item slots, parked group tuples),
            // then bring every tuple back.
            let before = idx.exact_count();
            for (rel, side) in live.iter().enumerate() {
                for t in side {
                    prop_assert!(idx.delete(rel, t).is_some());
                }
            }
            let empty: Live = vec![FxHashSet::default(); q.num_relations()];
            assert_counts_agree(&idx, &empty, &format!("{name} emptied"));
            for (rel, side) in live.iter().enumerate() {
                for t in side {
                    prop_assert!(idx.insert(rel, t).is_some());
                }
            }
            assert_counts_agree(&idx, &live, &format!("{name} refilled"));
            prop_assert_eq!(idx.exact_count(), before);
        }
    }

    /// The cyclic driver counts over its inner index of *bag* relations;
    /// the reference counts over the original seven edge relations.
    #[test]
    fn cyclic_driver_count_matches_backtracking_at_every_step(
        seed in 0u64..1 << 40,
        steps in 80usize..160,
    ) {
        let q = dumbbell(&[], 0).query;
        let mut rng = RsjRng::seed_from_u64(seed);
        let mut crj = CyclicReservoirJoin::new(q.clone(), 8, seed).unwrap();
        let mut db = Database::new();
        for r in q.relations() {
            db.add_relation(r.name.clone(), r.attrs.len());
        }
        let mut live: Live = vec![FxHashSet::default(); q.num_relations()];
        for step in 0..steps {
            let op = random_op(&q, &live, 3, &mut rng);
            apply_live(&mut live, &op);
            let t = op.tuple();
            if op.is_delete() {
                crj.delete(t.relation, &t.values);
                db.relation_mut(t.relation).remove(&t.values);
            } else {
                crj.process(t.relation, &t.values);
                db.relation_mut(t.relation).insert(&t.values);
            }
            let brute = brute_join_named(&q, &live).len() as u128;
            prop_assert_eq!(crj.exact_count(), brute, "driver, step {}", step);
            prop_assert_eq!(exact_result_count(&q, &db), brute, "backtracking, step {}", step);
        }
    }
}

/// A stream for the anchored count: turnstile steps as [`random_op`], and
/// every 16th step a burst of eight inserts with no delete between them,
/// so that new tuples of several relations join each other before the
/// next delete settles them.
fn bursty_ops(q: &Query, steps: usize, dom: u64, rng: &mut RsjRng) -> Vec<StreamOp> {
    let mut live: Live = vec![FxHashSet::default(); q.num_relations()];
    let mut ops = Vec::new();
    for step in 0..steps {
        let burst = if step % 16 == 15 { 8 } else { 1 };
        for _ in 0..burst {
            let op = match burst {
                1 => random_op(q, &live, dom, rng),
                _ => {
                    let rel = rng.index(q.num_relations());
                    let arity = q.relation(rel).attrs.len();
                    StreamOp::insert(rel, (0..arity).map(|_| rng.below_u64(dom)).collect())
                }
            };
            apply_live(&mut live, &op);
            ops.push(op);
        }
    }
    ops
}

/// A driver over `tree` with sampling root `root`.
fn driver(q: &Query, tree: &Option<JoinTree>, root: usize, grouping: bool) -> ReservoirJoin {
    ReservoirJoin::with_plan(
        q.clone(),
        4,
        7,
        IndexOptions { grouping },
        plan_over(q, tree, root),
    )
    .unwrap()
}

fn plan_over(q: &Query, tree: &Option<JoinTree>, root: usize) -> Plan {
    let mut plan = Plan::canonical(q).unwrap();
    if let Some(t) = tree {
        plan.tree = t.clone();
    }
    plan.root = root;
    plan
}

fn apply_driver(rj: &mut ReservoirJoin, op: &StreamOp) {
    let t = op.tuple();
    if op.is_delete() {
        rj.delete(t.relation, &t.values);
    } else {
        rj.process(t.relation, &t.values);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn anchored_counts_agree_with_the_pass_at_every_step(
        seed in 0u64..1 << 40,
        steps in 60usize..120,
        dom in 2u64..4,
        grouping in any::<bool>(),
    ) {
        for (name, q, tree) in acyclic_shapes() {
            let mut rng = RsjRng::seed_from_u64(seed);
            let ops = bursty_ops(&q, steps, dom, &mut rng);
            let root = rng.index(q.num_relations());
            let mut rj = driver(&q, &tree, root, grouping);
            let mut svc = SamplerService::with_opts(q.clone(), ServiceOpts { publish_every: 0 });
            let opts = QueryOpts {
                index: IndexOptions { grouping },
                plan: Some(plan_over(&q, &tree, (root + 1) % q.num_relations())),
                ..QueryOpts::new(4, 9)
            };
            let h = svc.register(&q, &opts).unwrap();
            let mut live: Live = vec![FxHashSet::default(); q.num_relations()];
            for (step, op) in ops.iter().enumerate() {
                apply_live(&mut live, op);
                apply_driver(&mut rj, op);
                svc.process_op(op).unwrap();
                let at = format!("{name}, root {root}, op {step}");
                assert_counts_agree(rj.index(), &live, &at);
                let pass = rj.index().exact_count();
                prop_assert_eq!(rj.exact_count(), pass, "driver, {}", at);
                prop_assert_eq!(svc.exact_count(h).unwrap(), pass, "service group, {}", at);
            }
            prop_assert!(ops.iter().any(StreamOp::is_delete), "{}: never anchored", name);

            // A restore starts unanchored; the twin and the original then
            // count (and sample) identically through more churn.
            let bytes = rj.snapshot_state().unwrap();
            let mut twin = driver(&q, &tree, root, grouping);
            twin.restore_state(&bytes).unwrap();
            for (step, op) in bursty_ops(&q, 40, dom, &mut rng).iter().enumerate() {
                if op.is_delete() && !live[op.tuple().relation].contains(&op.tuple().values) {
                    continue;
                }
                apply_live(&mut live, op);
                apply_driver(&mut rj, op);
                apply_driver(&mut twin, op);
                let brute = brute_join_named(&q, &live).len() as u128;
                prop_assert_eq!(rj.exact_count(), brute, "{} continued, op {}", name, step);
                prop_assert_eq!(twin.exact_count(), brute, "{} restored, op {}", name, step);
                prop_assert_eq!(twin.samples(), rj.samples(), "{} restored, op {}", name, step);
            }
        }
    }
}

/// A settle heavier than a full pass is dropped for the pass: a hub key of
/// line-3 whose every new partner walks all of the hub's items.
#[test]
fn a_hub_burst_drops_the_settle_for_a_pass() {
    let q = line(3);
    let mut rj = driver(&q, &None, 0, true);
    let mut live: Live = vec![FxHashSet::default(); 3];
    let apply = |rj: &mut ReservoirJoin, live: &mut Live, op: StreamOp| {
        apply_live(live, &op);
        apply_driver(rj, &op);
        let brute = brute_join_named(rj.index().query(), live).len() as u128;
        assert_eq!(rj.exact_count(), brute);
        assert_eq!(rj.index().exact_count(), brute);
    };
    for c in 0..200 {
        apply(&mut rj, &mut live, StreamOp::insert(1, vec![0, c]));
        apply(&mut rj, &mut live, StreamOp::insert(2, vec![c, c % 7]));
    }
    apply(&mut rj, &mut live, StreamOp::delete(2, vec![0, 0]));
    let anchored = rj.count_passes();
    // Cheap settles: a few inserts away from the hub.
    for a in 0..5 {
        apply(&mut rj, &mut live, StreamOp::insert(0, vec![a, 1000 + a]));
    }
    apply(&mut rj, &mut live, StreamOp::delete(0, vec![0, 1000]));
    assert_eq!(rj.count_passes(), anchored, "a light settle paid a pass");
    // A burst on the hub: each new G1 tuple's walk visits its 200 items.
    for a in 0..40 {
        apply(&mut rj, &mut live, StreamOp::insert(0, vec![a, 0]));
    }
    let before = rj.count_passes();
    apply(&mut rj, &mut live, StreamOp::delete(1, vec![0, 5]));
    assert_eq!(
        rj.count_passes(),
        before + 1,
        "the heavy settle was not dropped"
    );
    // Re-anchored: churn on continues without passes while it stays light.
    for a in 0..4 {
        apply(&mut rj, &mut live, StreamOp::insert(2, vec![1000 + a, 1]));
        apply(&mut rj, &mut live, StreamOp::delete(2, vec![1000 + a, 1]));
    }
    assert_eq!(rj.count_passes(), before + 1);
}

/// ROADMAP item 4, "counts cannot silently overflow": both kernels
/// saturate, i.e. report `min(|Q(R)|, u128::MAX)`.
///
/// A star of 26 relations with 32 tuples each on one hub value has
/// `32^25 · r` results for `r` tuples in the first relation. The dynamic
/// index can only hold states whose own rounded counts fit a `u128`, and
/// those bound the exact count from above — so its kernel is pinned at
/// the largest power of two it can represent, `2^127` (`r = 4`), where it
/// must still be exact. The `Database` kernel has no such bound: at
/// `r = 32` the true count is `2^130` and it reports `u128::MAX`.
#[test]
fn counts_saturate_at_the_u128_extreme() {
    const ARMS: usize = 26;
    let mut qb = QueryBuilder::new();
    for i in 0..ARMS {
        qb.relation(&format!("G{i}"), &["HUB", &format!("B{i}")]);
    }
    let q = qb.build().unwrap();
    let mut idx = DynamicIndex::new(q.clone(), IndexOptions::default()).unwrap();
    for rel in 1..ARMS {
        for b in 0..32 {
            idx.insert(rel, &[7, b]);
        }
    }
    for b in 0..4 {
        idx.insert(0, &[7, b]);
        let want = (b as u128 + 1) << 125;
        assert_eq!(idx.exact_count(), want, "index kernel at r = {}", b + 1);
        assert_eq!(exact_result_count(&q, idx.database()), want);
    }
    assert_eq!(idx.exact_count(), 1 << 127);

    let mut db = Database::new();
    for r in q.relations() {
        db.add_relation(r.name.clone(), r.attrs.len());
    }
    for rel in 0..ARMS {
        for b in 0..32 {
            db.relation_mut(rel).insert(&[7, b]);
        }
    }
    assert_eq!(exact_result_count(&q, &db), u128::MAX, "2^130 saturates");
    // One arm short of the cap the product is exact again.
    for b in 1..32 {
        db.relation_mut(0).remove(&[7, b]).unwrap();
    }
    assert_eq!(exact_result_count(&q, &db), 1 << 125);
}
