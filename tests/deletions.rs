//! Turnstile correctness across the engine matrix.
//!
//! The update-model contract (ARCHITECTURE.md, "Update model") promises
//! that every engine keeps its maintained sample uniform over the
//! *post-delete* `Q(R)`. These tests drive interleaved
//! insert/delete streams end-to-end through the executor trait and check:
//! validity (every sample is a live join result), cardinality
//! (`min(k, |Q(R)|)` samples), statistical uniformity at a 20% delete
//! ratio at the end of a stream and at 20% and 50% at mid-stream prefixes
//! (every delete is a repair point), and delete-then-reinsert round trips.
//! The counting/brute-force/chi-square machinery is `rsj-testutil`'s; the
//! multi-engine uniformity family runs Bonferroni-corrected (one
//! comparison per dynamic engine).

use rsj_common::{FxHashMap, FxHashSet, Value};
use rsj_datagen::{TurnstileConfig, VictimPolicy};
use rsj_storage::{OpStream, StreamOp, TupleStream};
use rsj_testutil::{
    brute_join_named, line3, live_sets, op_inclusion_counts, random_stream, two_table,
    UniformityCheck,
};
use rsjoin::engine::{Engine, EngineOpts};
use rsjoin::prelude::*;

/// The engines the turnstile contract declares fully dynamic, per query
/// shape (SymmetricHashJoin only runs two-table joins). Since the signed
/// delta pipelines landed this is *every* engine family; with no keys
/// declared the `_opt` engines run the identity rewrite here, and the
/// FK-combining case is exercised separately below.
fn dynamic_engines(query: &Query) -> Vec<Engine> {
    let mut engines = vec![
        Engine::Reservoir,
        Engine::FkReservoir,
        Engine::Cyclic,
        Engine::SJoin,
        Engine::SJoinOpt,
        Engine::Naive,
    ];
    if query.num_relations() == 2 {
        engines.push(Engine::Symmetric);
    }
    engines
}

#[test]
fn turnstile_end_to_end_across_the_engine_matrix() {
    for (query, dom) in [(line3(), 6), (two_table(), 8)] {
        let stream = random_stream(&query, 300, dom, 11);
        for policy in [VictimPolicy::Uniform, VictimPolicy::Recent] {
            let ops = TurnstileConfig {
                delete_ratio: 0.25,
                policy,
                seed: 5,
            }
            .weave(&stream);
            assert!(ops.num_deletes() > 0);
            let expect = brute_join_named(&query, &live_sets(&query, &ops));
            for engine in dynamic_engines(&query) {
                let mut s = engine
                    .build(&query, 1 << 16, 9, &EngineOpts::default())
                    .unwrap_or_else(|e| panic!("{engine}: {e}"));
                s.process_op_batch(ops.ops()).unwrap();
                let got: FxHashSet<Vec<(String, Value)>> = s.samples_named().into_iter().collect();
                // k >= |Q(R)|: the maintained sample must be exactly the
                // live result set — insertions collected, deletions'
                // casualties evicted, backfill complete.
                assert_eq!(got, expect, "{engine}/{policy:?}");
            }
        }
    }
}

#[test]
fn sample_cardinality_tracks_live_population() {
    // Small k: |samples| must equal min(k, |Q(R)|) at several read points.
    let query = line3();
    let k = 4;
    let mut ops = OpStream::new();
    for a in 0..3u64 {
        ops.push_insert(0, vec![a, 1]);
    }
    ops.push_insert(1, vec![1, 2]);
    for d in 0..4u64 {
        ops.push_insert(2, vec![2, d]);
    }
    // 12 results now; delete the middle tuple -> 0; re-add -> 12.
    for engine in dynamic_engines(&query) {
        let mut s = engine.build(&query, k, 2, &EngineOpts::default()).unwrap();
        s.process_op_batch(ops.ops()).unwrap();
        assert_eq!(s.samples().len(), k, "{engine} full");
        s.process_op(&StreamOp::delete(1, vec![1, 2])).unwrap();
        assert_eq!(s.samples().len(), 0, "{engine} emptied");
        s.process_op(&StreamOp::insert(1, vec![1, 2])).unwrap();
        assert_eq!(s.samples().len(), k, "{engine} refilled");
        // Shrink below k: delete G1 tuples until only one chain remains.
        s.process_op(&StreamOp::delete(0, vec![1, 1])).unwrap();
        s.process_op(&StreamOp::delete(0, vec![2, 1])).unwrap();
        s.process_op(&StreamOp::delete(2, vec![2, 0])).unwrap();
        // Live: 1 G1 tuple x 1 G2 x 3 G3 = 3 < k.
        assert_eq!(s.samples().len(), 3, "{engine} below k");
    }
}

/// The maintained sample must stay uniform over the post-delete `Q(R)` —
/// the acceptance-criteria chi-square at a 20% delete ratio, with deletes
/// interleaved mid-stream (not just at the end) so repair points and
/// subsequent insertions both land in the measured distribution. One
/// Bonferroni family across the dynamic engines.
#[test]
fn uniform_under_twenty_percent_deletes() {
    let query = line3();
    let ops: OpStream = {
        let mut o = OpStream::new();
        o.push_insert(0, vec![1, 10]);
        o.push_insert(1, vec![10, 20]);
        o.push_insert(2, vec![20, 5]);
        o.push_insert(2, vec![20, 6]);
        o.push_insert(0, vec![2, 10]);
        o.push_delete(2, vec![20, 5]); // kills 2 results
        o.push_insert(2, vec![20, 7]);
        o.push_insert(0, vec![3, 10]);
        o.push_insert(1, vec![10, 21]);
        o.push_insert(2, vec![21, 8]);
        o.push_delete(0, vec![2, 10]); // kills the A=2 chains
        o.push_insert(2, vec![21, 9]);
        o.push_delete(2, vec![21, 8]); // kills 2 results again
        o.push_insert(2, vec![21, 8]); // ... and re-inserts them
        o.push_insert(0, vec![4, 10]);
        o
    };
    assert_eq!(ops.num_deletes() * 5, ops.len(), "20% delete ratio");
    let expect = brute_join_named(&query, &live_sets(&query, &ops));
    // G1 {1,3,4} x (20->{6,7} + 21->{8,9}) = 3 * 4 = 12 live results.
    assert_eq!(expect.len(), 12);
    let k = 3;
    let trials = 4000u64;
    let engines = dynamic_engines(&query);
    let check = UniformityCheck::across(engines.len());
    for engine in engines {
        let counts = op_inclusion_counts(
            &engine,
            &query,
            &EngineOpts::default(),
            &ops,
            &expect,
            k,
            0..trials,
        );
        check.assert_uniform(&counts, 12, &format!("{engine} at 20% deletes"));
    }
}

/// The live join results after the first `n` ops of `ops`.
fn live_results(query: &Query, ops: &OpStream, n: usize) -> FxHashSet<Vec<(String, Value)>> {
    let mut prefix = OpStream::new();
    for op in &ops.ops()[..n] {
        prefix.push(op.clone());
    }
    brute_join_named(query, &live_sets(query, &prefix))
}

/// Every delete is a repair point, so the sample is exactly uniform after
/// every op, not only at the end of a stream: one Bonferroni family over
/// the dynamic engines, 20 % and 50 % delete weaves, and three mid-stream
/// prefixes of each, read from one run per seed. A 50 % weave drains
/// toward empty, so its prefixes sit where the live join is still large.
#[test]
fn uniform_at_mid_stream_prefixes_under_twenty_and_fifty_percent_deletes() {
    let query = line3();
    let (k, trials) = (3, 1500u64);
    let engines = dynamic_engines(&query);
    let cases: Vec<(f64, OpStream, Vec<usize>)> = [0.2, 0.5]
        .into_iter()
        .map(|delete_ratio| {
            // A preload of inserts, then the churn the ratio applies to.
            let stream = random_stream(&query, 36, 3, 19);
            let (preload, churn) = stream.tuples().split_at(12);
            let mut ops = OpStream::new();
            let mut rest = TupleStream::new();
            for t in preload {
                ops.push_insert(t.relation, t.values.clone());
            }
            for t in churn {
                rest.push(t.relation, t.values.clone());
            }
            let woven = TurnstileConfig {
                delete_ratio,
                policy: VictimPolicy::Uniform,
                seed: 23,
            }
            .weave(&rest);
            for op in woven.iter() {
                ops.push(op.clone());
            }
            // Prefixes ending in a delete, with more live results than k.
            let ends: Vec<usize> = (1..=ops.len())
                .filter(|&n| ops.ops()[n - 1].is_delete())
                .filter(|&n| live_results(&query, &ops, n).len() > k)
                .collect();
            assert!(
                ends.len() >= 3,
                "{delete_ratio}: {} live prefixes",
                ends.len()
            );
            let picks = (1..=3).map(|i| ends[i * (ends.len() - 1) / 3]).collect();
            (delete_ratio, ops, picks)
        })
        .collect();
    let check = UniformityCheck::across(engines.len() * cases.len() * 3);
    for (ratio, ops, ends) in &cases {
        let expects: Vec<FxHashSet<Vec<(String, Value)>>> =
            ends.iter().map(|&n| live_results(&query, ops, n)).collect();
        for engine in &engines {
            let mut counts = vec![FxHashMap::default(); ends.len()];
            for seed in 0..trials {
                let mut s = engine
                    .build(&query, k, seed, &EngineOpts::default())
                    .unwrap();
                let mut done = 0;
                for (i, &end) in ends.iter().enumerate() {
                    s.process_op_batch(&ops.ops()[done..end]).unwrap();
                    done = end;
                    let named = s.samples_named();
                    assert_eq!(named.len(), k, "{engine} seed {seed} after {end} ops");
                    for sample in named {
                        assert!(expects[i].contains(&sample), "{engine}: dead sample");
                        *counts[i].entry(sample).or_insert(0u64) += 1;
                    }
                }
            }
            for ((counts, expect), end) in counts.iter().zip(&expects).zip(ends) {
                let label = format!(
                    "{engine} at {ratio} deletes, after {end} of {} ops",
                    ops.len()
                );
                check.assert_uniform(counts, expect.len(), &label);
            }
        }
    }
}

#[test]
fn delete_then_reinsert_matches_fresh_insert_only_run() {
    // Round-tripping half the stream through delete+reinsert must land on
    // the same final sample *set* as a fresh insert-only run (k >= |Q|).
    let query = line3();
    let stream = random_stream(&query, 200, 5, 21);
    let round_trip: OpStream = {
        let mut o = OpStream::from(&stream);
        for t in stream.iter().step_by(2) {
            o.push(StreamOp::Delete(t.clone()));
        }
        for t in stream.iter().step_by(2) {
            o.push(StreamOp::Insert(t.clone()));
        }
        o
    };
    let expect = brute_join_named(&query, &live_sets(&query, &round_trip));
    assert!(!expect.is_empty(), "degenerate instance");
    for engine in dynamic_engines(&query) {
        let mut fresh = engine
            .build(&query, 1 << 16, 3, &EngineOpts::default())
            .unwrap();
        fresh.process_batch(stream.tuples());
        let fresh_set: FxHashSet<Vec<(String, Value)>> =
            fresh.samples_named().into_iter().collect();
        assert_eq!(fresh_set, expect, "{engine} fresh");
        let mut rt = engine
            .build(&query, 1 << 16, 3, &EngineOpts::default())
            .unwrap();
        rt.process_op_batch(round_trip.ops()).unwrap();
        let rt_set: FxHashSet<Vec<(String, Value)>> = rt.samples_named().into_iter().collect();
        assert_eq!(rt_set, expect, "{engine} round-trip");
    }
}

/// Every engine's own `exact_count` must agree with the
/// brute-force `|Q(R)|` after a delete-heavy stream — the acceptance
/// check that the `_opt` combiners and the cyclic bag store track the
/// *live* database, not the arrival history.
#[test]
fn exact_result_counts_survive_turnstile() {
    let query = line3();
    let stream = random_stream(&query, 400, 6, 17);
    let ops = TurnstileConfig {
        delete_ratio: 0.3,
        policy: VictimPolicy::Uniform,
        seed: 3,
    }
    .weave(&stream);
    let expect = brute_join_named(&query, &live_sets(&query, &ops)).len() as u128;
    for engine in [
        Engine::Reservoir,
        Engine::FkReservoir,
        Engine::SJoinOpt,
        Engine::Cyclic,
        Engine::SJoin,
    ] {
        let mut s = engine.build(&query, 8, 5, &EngineOpts::default()).unwrap();
        s.process_op_batch(ops.ops()).unwrap();
        assert_eq!(s.exact_count(), expect, "{engine}");
        assert!(
            s.stats().deletes.unwrap() > 0,
            "{engine}: no deletes counted"
        );
    }
}

/// The `_opt` engines with a *real* foreign-key schema: deletes hit facts
/// and both dimension levels (with PK slots re-filled by different
/// tuples), and the signed combiner must still land on the brute-force
/// live result set with an exact count.
#[test]
fn fk_combining_engines_stay_exact_under_pk_turnstile() {
    let mut qb = QueryBuilder::new();
    qb.relation("F", &["K", "M"]);
    qb.relation("D1", &["K", "L"]);
    qb.relation("D2", &["L", "W"]);
    let query = qb.build().unwrap();
    // Global attr ids: K=0, M=1, L=2, W=3. D1's PK is K, D2's is L.
    let fks = FkSchema::none(3).with_pk(1, vec![0]).with_pk(2, vec![2]);
    let mut ops = OpStream::new();
    for k in 0..6u64 {
        ops.push_insert(1, vec![k, k % 3 + 10]);
    }
    for l in 10..13u64 {
        ops.push_insert(2, vec![l, l + 100]);
    }
    for i in 0..30u64 {
        ops.push_insert(0, vec![i % 6, 1000 + i]);
    }
    ops.push_delete(2, vec![11, 111]); // kills every L=11 chain
    ops.push_delete(1, vec![4, 11]); // kills the K=4 chains
    ops.push_delete(0, vec![0, 1000]);
    ops.push_delete(0, vec![3, 1003]);
    ops.push_insert(1, vec![4, 12]); // PK K=4 re-filled, now pointing at L=12
    ops.push_insert(2, vec![11, 211]); // PK L=11 re-filled with a new payload
    ops.push_insert(0, vec![0, 2000]);
    let expect = brute_join_named(&query, &live_sets(&query, &ops));
    assert!(!expect.is_empty(), "degenerate instance");
    let opts = EngineOpts {
        fks: Some(fks),
        ..EngineOpts::default()
    };
    for engine in [Engine::FkReservoir, Engine::SJoinOpt] {
        let mut s = engine.build(&query, 1 << 16, 7, &opts).unwrap();
        s.process_op_batch(ops.ops()).unwrap();
        let got: FxHashSet<Vec<(String, Value)>> = s.samples_named().into_iter().collect();
        assert_eq!(got, expect, "{engine}");
        assert_eq!(s.exact_count(), expect.len() as u128, "{engine}");
        assert!(
            s.stats().deletes.unwrap() >= 4,
            "{engine}: deletes under-counted"
        );
    }
}

/// Deleting every live tuple, in a shuffled order, drains each engine to
/// an empty sample and an exact count of zero; fresh inserts then fill
/// the drained engine with exactly the results of the refill alone.
#[test]
fn draining_to_empty_then_refilling_tracks_the_live_join() {
    let query = line3();
    let stream = random_stream(&query, 150, 5, 41);
    let mut ops = OpStream::from(&stream);
    let mut victims = TupleStream::new();
    for (rel, live) in live_sets(&query, &ops).into_iter().enumerate() {
        let mut rows: Vec<Vec<Value>> = live.into_iter().collect();
        rows.sort();
        for row in rows {
            victims.push(rel, row);
        }
    }
    victims.shuffle(&mut RsjRng::seed_from_u64(47));
    for t in victims.iter() {
        ops.push_delete(t.relation, t.values.clone());
    }
    assert!(live_sets(&query, &ops).iter().all(|l| l.is_empty()));
    let refill = random_stream(&query, 60, 5, 43);
    let expect = brute_join_named(&query, &live_sets(&query, &OpStream::from(&refill)));
    assert!(!expect.is_empty(), "degenerate refill");
    for engine in dynamic_engines(&query) {
        let mut s = engine
            .build(&query, 1 << 16, 5, &EngineOpts::default())
            .unwrap();
        s.process_op_batch(ops.ops()).unwrap();
        assert!(
            s.samples().is_empty(),
            "{engine}: samples survived the drain"
        );
        assert_eq!(s.exact_count(), 0, "{engine}");
        s.process_batch(refill.tuples());
        let got: FxHashSet<Vec<(String, Value)>> = s.samples_named().into_iter().collect();
        assert_eq!(got, expect, "{engine} after refill");
        assert_eq!(s.exact_count(), expect.len() as u128, "{engine}");
    }
}
