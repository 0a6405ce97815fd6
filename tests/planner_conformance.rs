//! Cross-engine conformance over the plan-sensitive workloads
//! (snowflake, self-join line, skewed star): every engine that supports
//! the query must collect exactly the true
//! result set with `k >= |Q(R)|`, agreeing with the exact counter; and
//! samples drawn *after* an adaptive `replan()` (including a forced index
//! rebuild) must still be uniform over `Q(R)`.

use rsj_common::{FxHashMap, FxHashSet};
use rsj_testutil::{brute_join_named, live_sets, NamedSample, UniformityCheck};
use rsjoin::engine::{workload_opts, Engine};
use rsjoin::prelude::*;
use rsjoin::queries::{self_join_line, skewed_star, snowflake, Workload};

/// Preload + stream as one insert-only stream (the engines' full input).
fn full_stream(w: &Workload) -> TupleStream {
    let mut s = TupleStream::new();
    for t in w.preload.iter().chain(w.stream.iter()) {
        s.push(t.relation, t.values.clone());
    }
    s
}

#[test]
fn all_engines_agree_with_exact_counts_on_planner_workloads() {
    let workloads = [
        snowflake(160, 5),
        self_join_line(3, 90, 7),
        skewed_star(4, 120, 9),
    ];
    for w in &workloads {
        let stream = full_stream(w);
        let expect = brute_join_named(&w.query, &live_sets(&w.query, &OpStream::from(&stream)));
        assert!(!expect.is_empty(), "{}: degenerate instance", w.name);
        let exact = expect.len() as u128;
        for engine in Engine::ALL.iter().filter(|e| e.supports(&w.query)) {
            let mut s = engine
                .build(&w.query, 1 << 18, 11, &workload_opts(w))
                .unwrap_or_else(|e| panic!("{}: {engine}: {e}", w.name));
            s.apply_ops(OpStream::from(&stream).ops()).unwrap();
            let got: FxHashSet<NamedSample> = s.samples_named().into_iter().collect();
            assert_eq!(got, expect, "{}: {engine}", w.name);
            assert_eq!(s.exact_count(), exact, "{}: {engine} exact count", w.name);
        }
    }
}

#[test]
fn replan_mid_stream_preserves_exactness_across_engines() {
    // Drive half the stream, force a replan through the trait, then the
    // rest; with k >= |Q|
    // the final sample set must still be exactly the live results.
    let workloads = [
        snowflake(120, 13),
        self_join_line(3, 80, 15),
        skewed_star(4, 100, 17),
    ];
    for w in &workloads {
        let stream = full_stream(w);
        let expect = brute_join_named(&w.query, &live_sets(&w.query, &OpStream::from(&stream)));
        for engine in [Engine::Reservoir, Engine::FkReservoir] {
            if !engine.supports(&w.query) {
                continue;
            }
            let mut s = engine
                .build(&w.query, 1 << 18, 3, &workload_opts(w))
                .unwrap_or_else(|e| panic!("{}: {engine}: {e}", w.name));
            let half = stream.len() / 2;
            for t in stream.iter().take(half) {
                s.process(t.relation, &t.values);
            }
            s.replan();
            for t in stream.iter().skip(half) {
                s.process(t.relation, &t.values);
            }
            let got: FxHashSet<NamedSample> = s.samples_named().into_iter().collect();
            assert_eq!(got, expect, "{}: {engine} post-replan", w.name);
        }
    }
}

/// Post-replan uniformity: force an actual index rebuild (greedy planner,
/// deliberately bad starting tree) mid-stream and chi-square the final
/// reservoir against the uniform distribution over `Q(R)`.
#[test]
fn post_rebuild_samples_stay_uniform() {
    // A tiny skewed-star-3 instance small enough to enumerate.
    let w = skewed_star(3, 24, 21);
    let stream = full_stream(&w);
    let expect = brute_join_named(&w.query, &live_sets(&w.query, &OpStream::from(&stream)));
    let support = expect.len();
    assert!(
        (6..=200).contains(&support),
        "need an enumerable instance, got {support}"
    );
    let trees = rsjoin::query::all_join_trees(&w.query, 8);
    assert!(trees.len() > 1, "star-3 must offer alternative trees");
    // Find the orientation a greedy planner settles on for this instance,
    // then deliberately start every trial from a *different* tree so the
    // mid-stream replan is guaranteed to rebuild.
    let greedy = Planner {
        hold_margin: 0.0,
        ..Planner::default()
    };
    let winner_edges = {
        let mut scout = ReservoirJoin::new(w.query.clone(), 4, 0).unwrap();
        for t in stream.iter().take(stream.len() / 2) {
            scout.process(t.relation, &t.values);
        }
        scout.set_planner(greedy);
        scout.replan();
        scout.plan().tree.canonical_edges()
    };
    let bad_tree = trees
        .iter()
        .find(|t| t.canonical_edges() != winner_edges)
        .expect("some tree differs from the greedy winner")
        .clone();
    let k = 3;
    let trials = 4000u64;
    let mut counts: FxHashMap<NamedSample, u64> = FxHashMap::default();
    let mut rebuilds = 0u64;
    for seed in 0..trials {
        let mut plan = Plan::canonical(&w.query).unwrap();
        plan.tree = bad_tree.clone();
        plan.is_canonical = false;
        let mut rj =
            ReservoirJoin::with_plan(w.query.clone(), k, seed, IndexOptions::default(), plan)
                .unwrap();
        rj.set_planner(greedy);
        let half = stream.len() / 2;
        for t in stream.iter().take(half) {
            rj.process(t.relation, &t.values);
        }
        rj.replan();
        rebuilds += rj.rebuilds();
        for t in stream.iter().skip(half) {
            rj.process(t.relation, &t.values);
        }
        assert_eq!(rj.samples().len(), k.min(support), "seed {seed}");
        for named in {
            let s: &dyn JoinSampler = &rj;
            s.samples_named()
        } {
            assert!(expect.contains(&named), "dead sample {named:?}");
            *counts.entry(named).or_default() += 1;
        }
    }
    assert!(
        rebuilds > 0,
        "the forced replan never rebuilt — the test lost its teeth"
    );
    UniformityCheck::single().assert_uniform(&counts, support, "post-rebuild");
}
