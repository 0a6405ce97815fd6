//! Property tests for the cost-based planner's invariants:
//!
//! 1. every emitted plan's tree satisfies the join-tree property
//!    (per-attribute connectedness — the running-intersection property in
//!    tree form) and spans every relation, with a root and partition
//!    attribute in range;
//! 2. candidate costs are invariant under relation relabeling: permuting
//!    the relations (and the statistics with them) permutes the
//!    candidates, not their scores;
//! 3. `replan()` preserves the exact live `|Q(R)|` and the maintained
//!    sample set.

use proptest::prelude::*;
use rsjoin::core::exact_result_count;
use rsjoin::prelude::*;
use rsjoin::query::all_join_trees;
use rsjoin::query::plan::empty_statistics;

/// Builds a random acyclic-by-construction query: a relation tree where
/// each edge carries a shared attribute drawn from a small label pool
/// (label collisions merge edges into star-like cliques, producing queries
/// with many candidate join trees), plus one private attribute per
/// relation. `parent_raw[i] % (i+1)` is relation `i+1`'s tree parent.
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

/// Random observations shaped for `q`.
fn observe(q: &Query, draws: &[(usize, u64)]) -> TableStatistics {
    let mut stats = empty_statistics(q);
    for &(rel0, x) in draws {
        let rel = rel0 % q.num_relations();
        let arity = q.relation(rel).attrs.len();
        let tuple: Vec<u64> = (0..arity).map(|pos| (x >> (8 * (pos % 8))) % 7).collect();
        stats.observe_insert(rel, &tuple);
    }
    stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariant 1: structural validity of everything the planner emits.
    #[test]
    fn plans_are_valid_join_trees(
        n in 2usize..6,
        parent_raw in proptest::collection::vec(0usize..16, 5..6),
        labels in proptest::collection::vec(0usize..3, 5..6),
        draws in proptest::collection::vec((0usize..8, any::<u64>()), 0..120)
    ) {
        let q = build_query(n, &parent_raw, &labels);
        prop_assume!(JoinTree::build(&q).is_some());
        let stats = observe(&q, &draws);
        let plan = Planner::default().plan(&q, &stats).expect("acyclic");
        prop_assert_eq!(plan.tree.len(), q.num_relations());
        prop_assert_eq!(plan.tree.edges().len(), q.num_relations() - 1);
        prop_assert!(plan.tree.satisfies_connectedness(&q), "connectedness violated");
        prop_assert!(plan.root < q.num_relations());
        prop_assert!(plan.cost.total.is_finite());
        // Every enumerated candidate is itself valid.
        for t in all_join_trees(&q, 64) {
            prop_assert!(t.satisfies_connectedness(&q));
        }
    }

    /// Invariant 2: cost is invariant under relation relabeling.
    #[test]
    fn cost_is_invariant_under_relabeling(
        n in 2usize..6,
        parent_raw in proptest::collection::vec(0usize..16, 5..6),
        labels in proptest::collection::vec(0usize..3, 5..6),
        draws in proptest::collection::vec((0usize..8, any::<u64>()), 0..120),
        rot in 1usize..5
    ) {
        let q = build_query(n, &parent_raw, &labels);
        prop_assume!(JoinTree::build(&q).is_some());
        // Relabel by rotation: relation r becomes perm[r] = (r + rot) % n.
        let perm: Vec<usize> = (0..n).map(|r| (r + rot) % n).collect();
        let mut inv = vec![0usize; n];
        for (r, &pr) in perm.iter().enumerate() {
            inv[pr] = r;
        }
        let mut qb = QueryBuilder::new();
        for &old in &inv {
            let schema = q.relation(old);
            let attrs: Vec<&str> = schema.attrs.iter().map(|&a| q.attr_name(a)).collect();
            qb.relation(&schema.name, &attrs);
        }
        let qp = qb.build().unwrap();
        let stats = observe(&q, &draws);
        let stats_p = {
            let draws_p: Vec<(usize, u64)> = draws
                .iter()
                .map(|&(rel0, x)| (perm[rel0 % n], x))
                .collect();
            observe(&qp, &draws_p)
        };
        let planner = Planner::default();
        for tree in all_join_trees(&q, 32) {
            let edges_p: Vec<(usize, usize)> = tree
                .canonical_edges()
                .iter()
                .map(|&(i, j)| (perm[i].min(perm[j]), perm[i].max(perm[j])))
                .collect();
            let tree_p = JoinTree::from_edges(n, &edges_p);
            for root in 0..n {
                let a = planner.score(&q, &tree, root, &stats);
                let b = planner.score(&qp, &tree_p, perm[root], &stats_p);
                match (a, b) {
                    (Some(a), Some(b)) => {
                        prop_assert!(
                            (a.total - b.total).abs() < 1e-9 * (1.0 + a.total.abs()),
                            "total {} vs {}", a.total, b.total
                        );
                        prop_assert!((a.insert - b.insert).abs() < 1e-9 * (1.0 + a.insert.abs()));
                        prop_assert!((a.sample - b.sample).abs() < 1e-9 * (1.0 + a.sample.abs()));
                    }
                    (None, None) => {}
                    _ => prop_assert!(false, "feasibility differed under relabeling"),
                }
            }
        }
    }

    /// Invariant 3: `replan()` preserves the exact live `|Q(R)|` and the
    /// collected sample set (k >= |Q|), even when it rebuilds the index.
    #[test]
    fn replan_preserves_live_population(
        n in 2usize..6,
        parent_raw in proptest::collection::vec(0usize..16, 5..6),
        labels in proptest::collection::vec(0usize..3, 5..6),
        stream in proptest::collection::vec((0usize..8, 0u64..5, 0u64..5), 1..100)
    ) {
        let q = build_query(n, &parent_raw, &labels);
        prop_assume!(JoinTree::build(&q).is_some());
        let mut rj = ReservoirJoin::new(q.clone(), 1 << 16, 7).unwrap();
        for &(rel0, a, b) in &stream {
            let rel = rel0 % q.num_relations();
            let arity = q.relation(rel).attrs.len();
            let tuple: Vec<u64> = (0..arity).map(|p| if p % 2 == 0 { a } else { b }).collect();
            rj.process(rel, &tuple);
        }
        let live_before = exact_result_count(rj.index().query(), rj.index().database());
        let set_before: std::collections::BTreeSet<Vec<u64>> =
            rj.samples().iter().map(<[u64]>::to_vec).collect();
        prop_assert_eq!(set_before.len() as u128, live_before);
        // Greedy planner maximizes the chance of an actual rebuild.
        rj.set_planner(Planner { hold_margin: 0.0, ..Planner::default() });
        rj.replan();
        let live_after = exact_result_count(rj.index().query(), rj.index().database());
        prop_assert_eq!(live_before, live_after, "replan changed |Q(R)|");
        let set_after: std::collections::BTreeSet<Vec<u64>> =
            rj.samples().iter().map(<[u64]>::to_vec).collect();
        prop_assert_eq!(set_before, set_after, "replan changed the sample set");
    }
}
