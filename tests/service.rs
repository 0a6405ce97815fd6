//! Conformance, uniformity, and epoch-consistency suite for the resident
//! [`SamplerService`].
//!
//! Four contracts (invariant 8 in ARCHITECTURE.md and its neighbours):
//!
//! 1. **Sharing is invisible** — a query registered on the service (early
//!    or mid-stream, in any index group) ends with a reservoir
//!    *byte-identical* to a standalone sampler fed the same stream. The
//!    shared index and the backfill replay are pure optimizations.
//! 2. **Reads are uniform** — a reader's `snapshot().sample(n)` taken
//!    mid-ingest is a uniform draw from the live join result at the
//!    snapshot's LSN (chi-square at the usual family-wise level).
//! 3. **Reads are never torn** — every `(lsn, |Q(R)|, samples)` triple a
//!    concurrent reader observes is exactly the triple some single
//!    publish point wrote; no snapshot ever mixes two epochs.
//! 4. **Interleavings are reproducible** — the seeded [`Schedule`] sweep
//!    drives register/deregister/ingest/read/publish churn and every seed
//!    is a one-line reproduction. Width: `RSJ_SERVICE_SEEDS` (default 12;
//!    CI's service-sweep job runs more).

use rsj_testutil::{
    brute_join_named, digest, line3, live_sets, two_table, NamedSample, Schedule, Scratch, Step,
    StepMix, UniformityCheck,
};
use rsjoin::common::{FxHashMap, FxHashSet, HeapSize};
use rsjoin::engine::{Engine, EngineOpts};
use rsjoin::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};

// ---------------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------------

/// A seeded turnstile stream over `query`'s binary relations: random
/// inserts with every `del_every`-th op deleting a random live tuple.
fn turnstile_ops(query: &Query, n: usize, dom: u64, del_every: usize, seed: u64) -> OpStream {
    let mut rng = RsjRng::seed_from_u64(seed);
    let mut live: Vec<(usize, Vec<Value>)> = Vec::new();
    let mut ops = OpStream::new();
    for step in 0..n {
        if del_every > 0 && step % del_every == del_every - 1 && !live.is_empty() {
            let (rel, t) = live.swap_remove(rng.index(live.len()));
            ops.push_delete(rel, t);
        } else {
            let rel = rng.index(query.num_relations());
            let t = vec![rng.below_u64(dom), rng.below_u64(dom)];
            if !live.contains(&(rel, t.clone())) {
                live.push((rel, t.clone()));
            }
            ops.push_insert(rel, t);
        }
    }
    ops
}

/// The standalone twin of a shared-path registration: same engine, plans
/// pinned (the service never replans, so neither may the reference).
fn standalone(q: &Query, k: usize, seed: u64) -> ReservoirJoin {
    let mut rj = ReservoirJoin::new(q.clone(), k, seed).unwrap();
    rj.set_replan_policy(ReplanPolicy {
        auto: false,
        min_inserts: u64::MAX,
    });
    rj
}

/// A service sample row (universe attribute order) as the engine-neutral
/// sorted `(attr, value)` form the brute-force oracle produces.
fn named(q: &Query, row: &[Value]) -> NamedSample {
    let mut kv: Vec<(String, Value)> = q
        .attr_names()
        .iter()
        .cloned()
        .zip(row.iter().copied())
        .collect();
    kv.sort();
    kv
}

fn brute_of_ops(q: &Query, ops: &OpStream) -> FxHashSet<NamedSample> {
    brute_join_named(q, &live_sets(q, ops))
}

// ---------------------------------------------------------------------------
// 1. Conformance: sharing is invisible
// ---------------------------------------------------------------------------

/// Four members of one shared index (different `k` and seeds) each end
/// byte-identical to their standalone twin over a turnstile stream.
#[test]
fn shared_members_conform_to_standalone_samplers() {
    let q = line3();
    let ops = turnstile_ops(&q, 400, 6, 5, 11);
    let mut svc = SamplerService::new(q.clone());
    let params: Vec<(usize, u64)> = vec![(4, 100), (7, 101), (16, 102), (1, 103)];
    let handles: Vec<QueryHandle> = params
        .iter()
        .map(|&(k, seed)| svc.register(&q, &QueryOpts::new(k, seed)).unwrap())
        .collect();
    assert_eq!(svc.num_groups(), 1, "identical tree + options must share");
    for op in ops.iter() {
        svc.process_op(op).unwrap();
    }
    for (&(k, seed), h) in params.iter().zip(&handles) {
        let mut twin = standalone(&q, k, seed);
        twin.process_op_batch(ops.ops()).unwrap();
        assert_eq!(
            digest(&svc.samples(*h).unwrap()),
            digest(&JoinSampler::samples(&twin)),
            "shared member (k={k}, seed={seed}) diverged from its twin"
        );
    }
    let brute = brute_of_ops(&q, &ops);
    for h in &handles {
        assert_eq!(svc.exact_count(*h).unwrap(), brute.len() as u128);
    }
}

/// A query registered mid-stream backfills from the retained history to
/// the exact state of an early registration — and of a standalone twin
/// that saw the whole stream — both at the registration point and after
/// ingest continues.
#[test]
fn mid_stream_registration_is_byte_identical_to_early() {
    let q = line3();
    let ops = turnstile_ops(&q, 360, 6, 4, 23);
    let mut svc = SamplerService::new(q.clone());
    let early = svc.register(&q, &QueryOpts::new(8, 42)).unwrap();
    for op in ops.iter().take(220) {
        svc.process_op(op).unwrap();
    }
    let late = svc.register(&q, &QueryOpts::new(8, 42)).unwrap();
    assert_eq!(
        digest(&svc.samples(early).unwrap()),
        digest(&svc.samples(late).unwrap()),
        "backfill must reproduce the early member's state at registration"
    );
    for op in ops.iter().skip(220) {
        svc.process_op(op).unwrap();
    }
    let mut twin = standalone(&q, 8, 42);
    twin.process_op_batch(ops.ops()).unwrap();
    let want = digest(&JoinSampler::samples(&twin));
    assert_eq!(digest(&svc.samples(early).unwrap()), want);
    assert_eq!(digest(&svc.samples(late).unwrap()), want);
}

/// An op the service rejects for its schema — unknown relation, short or
/// long tuple — leaves the whole service image byte-unchanged, every
/// index group alike, and the service then carries on exactly as a twin
/// that never saw it.
#[test]
fn rejected_ops_leave_the_service_image_unchanged() {
    let q = line3();
    let build = || {
        let mut svc = SamplerService::new(q.clone());
        let mut ungrouped = QueryOpts::new(5, 3);
        ungrouped.index = IndexOptions { grouping: false };
        svc.register(&q, &QueryOpts::new(6, 1)).unwrap();
        svc.register(&q, &ungrouped).unwrap();
        assert_eq!(svc.num_groups(), 2);
        svc
    };
    let image = |svc: &SamplerService| {
        let mut enc = rsjoin::common::codec::Encoder::new();
        svc.snapshot_to(&mut enc);
        enc.into_bytes()
    };
    let ops = turnstile_ops(&q, 200, 6, 5, 13);
    let (head, tail) = ops.ops().split_at(120);
    let (mut svc, mut twin) = (build(), build());
    for op in head {
        svc.process_op(op).unwrap();
        twin.process_op(op).unwrap();
    }
    let before = image(&svc);
    for bad in [
        StreamOp::insert(3, vec![1, 2]),
        StreamOp::delete(0, vec![1]),
        StreamOp::insert(2, vec![1, 2, 3]),
    ] {
        assert!(matches!(svc.process_op(&bad), Err(ServiceError::Store(_))));
        assert_eq!(image(&svc), before, "a rejected op mutated the service");
    }
    for op in tail {
        svc.process_op(op).unwrap();
        twin.process_op(op).unwrap();
    }
    assert_eq!(image(&svc), image(&twin));
}

/// The service holds index groups only, so a cyclic query is refused
/// with a typed error and registers nothing. The same query runs as the
/// GHD engine, durable under the same wrapper the service uses.
#[test]
fn cyclic_queries_are_refused_and_run_as_an_engine() {
    let mut qb = QueryBuilder::new();
    qb.relation("R1", &["X", "Y"]);
    qb.relation("R2", &["Y", "Z"]);
    qb.relation("R3", &["Z", "X"]);
    let q = qb.build().unwrap();
    let mut svc = SamplerService::new(q.clone());
    assert!(matches!(
        svc.register(&q, &QueryOpts::new(4, 1)),
        Err(ServiceError::Cyclic)
    ));
    assert_eq!((svc.num_queries(), svc.store().live_refs()), (0, 0));

    let ops = turnstile_ops(&q, 150, 4, 5, 23);
    let brute = brute_of_ops(&q, &ops);
    assert!(!brute.is_empty(), "the stream closes triangles");
    let scratch = Scratch::new("cyclic");
    let open = || {
        Persistent::open(
            Engine::Cyclic
                .build(&q, 4, 1, &EngineOpts::default())
                .unwrap(),
            scratch.path(),
            CheckpointPolicy::EveryOps(50),
        )
        .unwrap()
    };
    let mut p = open();
    for op in ops.iter() {
        p.process_op(op).unwrap();
    }
    p.flush().unwrap();
    assert_eq!(p.engine().exact_count(), brute.len() as u128);
    let want = digest(&p.engine().samples());
    drop(p);
    let r = open();
    assert_eq!(r.next_lsn(), ops.len() as u64);
    assert_eq!(digest(&r.engine().samples()), want);
}

// ---------------------------------------------------------------------------
// 2. Uniformity: reader subsamples mid-ingest
// ---------------------------------------------------------------------------

/// `snapshot().sample(n)` mid-ingest is uniform over the live join result
/// at the snapshot's LSN: a uniform subsample of a uniform reservoir is
/// uniform over `Q(R)`. Checked at a mid-stream publish point and again
/// at end of stream (two comparisons sharing the family-wise budget).
#[test]
fn reader_subsamples_are_uniform_mid_ingest() {
    let q = two_table();
    let ops = turnstile_ops(&q, 120, 4, 0, 77);
    let mid = 60;
    let brute_mid = brute_of_ops(
        &q,
        &OpStream::from_vec(ops.iter().take(mid).cloned().collect()),
    );
    let brute_end = brute_of_ops(&q, &ops);
    assert!(
        brute_mid.len() >= 8,
        "fixture too sparse: {}",
        brute_mid.len()
    );
    // Enough runs for ~60 expected hits per cell at the wider support.
    let support = brute_mid.len().max(brute_end.len());
    let runs = (support * 30) as u64;
    let mut counts_mid: FxHashMap<NamedSample, u64> = FxHashMap::default();
    let mut counts_end: FxHashMap<NamedSample, u64> = FxHashMap::default();
    for seed in 0..runs {
        let mut svc = SamplerService::with_opts(q.clone(), ServiceOpts { publish_every: 0 });
        let h = svc.register(&q, &QueryOpts::new(5, seed)).unwrap();
        let reader = svc.reader(h).unwrap();
        let mut rng = RsjRng::seed_from_u64(rsjoin::common::rng::child_seed(seed, 9));
        for op in ops.iter().take(mid) {
            svc.process_op(op).unwrap();
        }
        svc.publish();
        // The read happens mid-ingest: the stream continues below.
        for row in reader.snapshot().sample(2, &mut rng) {
            *counts_mid.entry(named(&q, &row)).or_default() += 1;
        }
        for op in ops.iter().skip(mid) {
            svc.process_op(op).unwrap();
        }
        svc.publish();
        for row in reader.snapshot().sample(2, &mut rng) {
            *counts_end.entry(named(&q, &row)).or_default() += 1;
        }
    }
    let check = UniformityCheck::across(2);
    check.assert_uniform(&counts_mid, brute_mid.len(), "service reader (mid-stream)");
    check.assert_uniform(
        &counts_end,
        brute_end.len(),
        "service reader (end of stream)",
    );
}

// ---------------------------------------------------------------------------
// 3. Epoch consistency: no torn pairs under real concurrency
// ---------------------------------------------------------------------------

/// Concurrent readers spinning on `snapshot()` while the service ingests
/// never observe a torn `(lsn, |Q(R)|, samples)` triple: every observed
/// triple is exactly one a single publish point wrote, epochs and LSNs
/// are monotone per reader, and a brute-force anchor validates a spread
/// of the published triples themselves.
#[test]
fn concurrent_readers_never_observe_torn_pairs() {
    let q = two_table();
    let ops = turnstile_ops(&q, 1500, 9, 4, 5);
    let (k, seed, publish_every) = (16, 3, 5);

    // Pass 1 (single-threaded reference): the service publishes at a
    // deterministic cadence; record every published triple, and anchor a
    // spread of them against the brute-force oracle.
    let mut expected: FxHashMap<u64, (u128, u64)> = FxHashMap::default();
    {
        let mut svc = SamplerService::with_opts(q.clone(), ServiceOpts { publish_every });
        let h = svc.register(&q, &QueryOpts::new(k, seed)).unwrap();
        let reader = svc.reader(h).unwrap();
        let mut model: Vec<FxHashSet<Vec<Value>>> = vec![FxHashSet::default(); 2];
        let record =
            |expected: &mut FxHashMap<u64, (u128, u64)>, snap: &SampleSnapshot, at: u64| {
                if snap.lsn == at {
                    let prev = expected.insert(snap.lsn, (snap.population, digest(&snap.samples)));
                    assert!(
                        prev.is_none_or(|p| p == (snap.population, digest(&snap.samples))),
                        "republish at lsn {at} changed the triple"
                    );
                }
            };
        record(&mut expected, &reader.snapshot(), 0);
        for (i, op) in ops.iter().enumerate() {
            svc.process_op(op).unwrap();
            let t = op.tuple();
            if op.is_delete() {
                model[t.relation].remove(&t.values);
            } else {
                model[t.relation].insert(t.values.clone());
            }
            let snap = reader.snapshot();
            record(&mut expected, &snap, (i + 1) as u64);
            // Brute-force anchor every 250 ops: the published population
            // and samples really are the live join at that LSN.
            if snap.lsn == (i + 1) as u64 && (i + 1) % 250 == 0 {
                let brute = brute_join_named(&q, &model);
                assert_eq!(
                    snap.population,
                    brute.len() as u128,
                    "anchor at lsn {}",
                    i + 1
                );
                assert_eq!(snap.samples.len(), k.min(brute.len()));
                for row in &snap.samples {
                    assert!(
                        brute.contains(&named(&q, row)),
                        "dead sample at lsn {}",
                        i + 1
                    );
                }
            }
        }
        svc.publish();
        record(&mut expected, &reader.snapshot(), ops.len() as u64);
    }
    assert!(
        expected.len() > 200,
        "cadence fixture broke: {}",
        expected.len()
    );

    // Pass 2: identical service, real reader threads racing the ingest.
    let mut svc = SamplerService::with_opts(q.clone(), ServiceOpts { publish_every });
    let h = svc.register(&q, &QueryOpts::new(k, seed)).unwrap();
    let reader = svc.reader(h).unwrap();
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let mut observers = Vec::new();
        for _ in 0..4 {
            let r = reader.clone();
            let stop = &stop;
            observers.push(scope.spawn(move || {
                let mut seen: Vec<(u64, u64, u128, u64)> = Vec::new();
                loop {
                    let done = stop.load(Ordering::Acquire);
                    let snap = r.snapshot();
                    seen.push((snap.epoch, snap.lsn, snap.population, digest(&snap.samples)));
                    if done {
                        return seen;
                    }
                    std::hint::spin_loop();
                }
            }));
        }
        for op in ops.iter() {
            svc.process_op(op).unwrap();
        }
        svc.publish();
        stop.store(true, Ordering::Release);
        let mut reads = 0usize;
        for obs in observers {
            let seen = obs.join().unwrap();
            reads += seen.len();
            let mut last = (0u64, 0u64);
            for (epoch, lsn, population, dig) in seen {
                assert_eq!(epoch % 2, 0, "odd epoch escaped the seqlock");
                assert!(
                    (epoch, lsn) >= last,
                    "reader went back in time: {:?} after {last:?}",
                    (epoch, lsn)
                );
                last = (epoch, lsn);
                let want = expected
                    .get(&lsn)
                    .unwrap_or_else(|| panic!("snapshot at unpublished lsn {lsn}"));
                assert_eq!(
                    (population, dig),
                    *want,
                    "torn pair at lsn {lsn}: observed triple matches no publish point"
                );
            }
        }
        assert!(reads >= 4, "observers never read");
    });
}

// ---------------------------------------------------------------------------
// 4. Seeded interleaving sweep
// ---------------------------------------------------------------------------

fn sweep_seeds() -> u64 {
    std::env::var("RSJ_SERVICE_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
}

/// One seeded interleaving: registration churn, turnstile ingest, reader
/// snapshots, and explicit publishes in the order [`Schedule`] derives
/// from the seed, with the brute-force oracle checked at every register
/// and publish step. Returns a trace digest for the determinism check.
fn run_interleaving(seed: u64) -> u64 {
    let q = two_table();
    let dom = 6u64;
    let mix = StepMix::default();
    let mut sched = Schedule::from_seed(seed);
    let mut svc = SamplerService::with_opts(q.clone(), ServiceOpts { publish_every: 0 });
    let mut model: Vec<FxHashSet<Vec<Value>>> = vec![FxHashSet::default(); 2];
    let mut live: Vec<(QueryHandle, usize, SampleReader)> = Vec::new();
    let mut next_reg: u64 = 0;
    let mut trace: Vec<u64> = Vec::new();

    let register = |svc: &mut SamplerService,
                    live: &mut Vec<(QueryHandle, usize, SampleReader)>,
                    next_reg: &mut u64,
                    aux: &mut RsjRng,
                    model: &[FxHashSet<Vec<Value>>]| {
        let k = 2 + aux.index(5);
        let reg_seed = 1000 * seed + *next_reg;
        *next_reg += 1;
        let mut opts = QueryOpts::new(k, reg_seed);
        if aux.index(4) == 0 {
            // One in four registrations pins a plan rooted at the second
            // relation instead of the canonical one.
            let mut plan = Plan::canonical(&q).expect("acyclic");
            plan.root = 1;
            opts.plan = Some(plan);
        }
        opts.index = IndexOptions {
            grouping: aux.index(2) == 0,
        };
        let h = svc.register(&q, &opts).unwrap();
        // Backfill correctness at an arbitrary point of the history.
        let brute = brute_join_named(&q, model);
        assert_eq!(svc.exact_count(h).unwrap(), brute.len() as u128);
        let samples = svc.samples(h).unwrap();
        assert_eq!(samples.len(), k.min(brute.len()));
        for row in &samples {
            assert!(
                brute.contains(&named(&q, row)),
                "dead sample after backfill"
            );
        }
        let reader = svc.reader(h).unwrap();
        live.push((h, k, reader));
        h.id()
    };

    // The workload starts with one registration so readers exist.
    let _ = register(&mut svc, &mut live, &mut next_reg, sched.aux(), &model);
    for _ in 0..300 {
        match sched.next_step(&mix, live.len()) {
            Step::Ingest => {
                let aux = sched.aux();
                let deletable: Vec<(usize, Vec<Value>)> = if aux.index(4) == 0 {
                    model
                        .iter()
                        .enumerate()
                        .flat_map(|(r, s)| s.iter().map(move |t| (r, t.clone())))
                        .collect()
                } else {
                    Vec::new()
                };
                let op = if !deletable.is_empty() {
                    let (rel, t) = deletable[aux.index(deletable.len())].clone();
                    StreamOp::delete(rel, t)
                } else {
                    StreamOp::insert(aux.index(2), vec![aux.below_u64(dom), aux.below_u64(dom)])
                };
                let lsn = svc.process_op(&op).unwrap();
                let t = op.tuple();
                if op.is_delete() {
                    model[t.relation].remove(&t.values);
                } else {
                    model[t.relation].insert(t.values.clone());
                }
                trace.push(1_000_000 + lsn);
            }
            Step::Read(i) => {
                let (_, _, reader) = &live[i % live.len()];
                let snap = reader.snapshot();
                assert!(snap.lsn <= svc.lsn(), "snapshot from the future");
                trace.push(2_000_000 + snap.epoch + snap.lsn + snap.population as u64);
            }
            Step::Register => {
                let id = register(&mut svc, &mut live, &mut next_reg, sched.aux(), &model);
                trace.push(3_000_000 + id);
            }
            Step::Deregister => {
                if live.len() > 1 {
                    let victim = sched.aux().index(live.len());
                    let (h, _, _) = live.swap_remove(victim);
                    svc.deregister(h).unwrap();
                    assert!(!svc.registered(h));
                    trace.push(4_000_000 + h.id());
                }
            }
            Step::Publish => {
                svc.publish();
                let brute = brute_join_named(&q, &model);
                for (_, k, reader) in &live {
                    let snap = reader.snapshot();
                    assert_eq!(snap.lsn, svc.lsn(), "stale publish");
                    assert_eq!(snap.population, brute.len() as u128);
                    assert_eq!(snap.samples.len(), (*k).min(brute.len()));
                    for row in &snap.samples {
                        assert!(brute.contains(&named(&q, row)), "dead published sample");
                    }
                }
                trace.push(5_000_000 + svc.lsn() + brute.len() as u64);
            }
        }
    }
    // Drain every registration; the store must return to baseline.
    for (h, _, _) in live.drain(..) {
        svc.deregister(h).unwrap();
    }
    assert_eq!(svc.store().live_refs(), 0);
    assert_eq!(svc.heap_size(), svc.store().heap_size());
    digest(&[trace])
}

/// Sweeps seeded interleavings (width `RSJ_SERVICE_SEEDS`), asserting the
/// oracle checks inside each run and that every seed replays to the exact
/// same trace — any failure is reproducible from the printed seed alone.
#[test]
fn interleaving_sweep_is_deterministic_and_correct() {
    for seed in 0..sweep_seeds() {
        let a = run_interleaving(seed);
        let b = run_interleaving(seed);
        assert_eq!(a, b, "seed {seed}: interleaving replay diverged");
    }
}

// ---------------------------------------------------------------------------
// 5. Durability round-trip (facade wrapper)
// ---------------------------------------------------------------------------

/// The durable service recovers registrations from the checkpoint and the
/// log suffix from the WAL: after crash-reopen, every member — in either
/// of two index groups — continues byte-identically to the uninterrupted
/// original.
#[test]
fn persistent_service_round_trips_checkpoint_and_wal() {
    let q = two_table();
    let dir = std::env::temp_dir().join(format!("rsj-service-rt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ops = turnstile_ops(&q, 220, 6, 5, 13);
    let open = || {
        PersistentService::open(
            SamplerService::new(q.clone()),
            &dir,
            CheckpointPolicy::Manual,
            &mut |_, _| None,
        )
        .unwrap()
    };

    let mut ps = open();
    let shared = ps
        .service_mut()
        .register(&q, &QueryOpts::new(8, 4))
        .unwrap();
    let mut ungrouped = QueryOpts::new(5, 9);
    ungrouped.index = IndexOptions { grouping: false };
    let other = ps.service_mut().register(&q, &ungrouped).unwrap();
    assert_eq!(ps.service().num_groups(), 2);
    for op in ops.iter().take(150) {
        ps.process_op(op).unwrap();
    }
    ps.checkpoint().unwrap();
    for op in ops.iter().skip(150) {
        ps.process_op(op).unwrap();
    }
    ps.flush().unwrap();
    let want_shared = digest(&ps.service().samples(shared).unwrap());
    let want_other = digest(&ps.service().samples(other).unwrap());
    let want_lsn = ps.service().lsn();
    drop(ps);

    let restored = open();
    let svc = restored.service();
    assert_eq!(svc.lsn(), want_lsn, "WAL suffix not replayed");
    assert_eq!(
        (svc.num_queries(), svc.num_groups()),
        (2, 2),
        "registrations lost in recovery"
    );
    // Handles survive the checkpoint with their ids.
    assert_eq!(digest(&svc.samples(shared).unwrap()), want_shared);
    assert_eq!(digest(&svc.samples(other).unwrap()), want_other);
    let brute = brute_of_ops(&q, &ops);
    assert_eq!(svc.exact_count(shared).unwrap(), brute.len() as u128);
    assert_eq!(svc.exact_count(other).unwrap(), brute.len() as u128);
    let _ = std::fs::remove_dir_all(&dir);
}
