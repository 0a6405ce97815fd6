//! Conformance, uniformity, and epoch-consistency suite for the resident
//! [`SamplerService`].
//!
//! Four contracts (invariant 8 in ARCHITECTURE.md and its neighbours):
//!
//! 1. **Sharing is invisible** — a query registered on the service (early
//!    or mid-stream, row or columnar path, shared or boxed) ends with a
//!    reservoir *byte-identical* to a standalone sampler fed the same
//!    stream. The shared index and the backfill replay are pure
//!    optimizations.
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
    brute_join_named, digest, line3, live_sets, two_table, Imageless, NamedSample, Schedule, Step,
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

/// The columnar ingest path is byte-identical to the row path for every
/// member — shared and boxed — across uneven chunk boundaries.
#[test]
fn columnar_ingest_matches_row_ingest_for_every_member() {
    let q = line3();
    let mut rng = RsjRng::seed_from_u64(31);
    let mut rows: Vec<InputTuple> = Vec::new();
    for _ in 0..300 {
        rows.push(InputTuple::new(
            rng.index(q.num_relations()),
            vec![rng.below_u64(7), rng.below_u64(7)],
        ));
    }
    let build = |svc: &mut SamplerService| {
        let a = svc.register(&q, &QueryOpts::new(6, 1)).unwrap();
        let b = svc.register(&q, &QueryOpts::new(12, 2)).unwrap();
        let c = svc
            .register_sampler(
                Engine::SJoin
                    .build(&q, 5, 3, &EngineOpts::default())
                    .unwrap(),
            )
            .unwrap();
        (a, b, c)
    };
    let mut columnar = SamplerService::new(q.clone());
    let hc = build(&mut columnar);
    // Uneven chunks: 37 rows per batch exercises mid-batch group state.
    for chunk in rows.chunks(37) {
        columnar
            .process_columnar(&ColumnarBatch::from_rows(chunk))
            .unwrap();
    }
    let mut rowwise = SamplerService::new(q.clone());
    let hr = build(&mut rowwise);
    for t in &rows {
        rowwise.process(t.relation, &t.values).unwrap();
    }
    assert_eq!(columnar.lsn(), rowwise.lsn());
    for (a, b) in [(hc.0, hr.0), (hc.1, hr.1), (hc.2, hr.2)] {
        assert_eq!(
            digest(&columnar.samples(a).unwrap()),
            digest(&rowwise.samples(b).unwrap()),
            "columnar and row paths diverged"
        );
        assert_eq!(
            columnar.exact_count(a).unwrap(),
            rowwise.exact_count(b).unwrap()
        );
    }
}

/// Every boxed engine family conforms: registered mid-stream on the
/// service (backfill + residency), its final reservoir is byte-identical
/// to the same engine fed the stream directly, and the member's own
/// exact count agrees with the brute-force oracle.
#[test]
fn boxed_engine_matrix_conforms_to_direct_execution() {
    let q = two_table();
    let engines = [
        Engine::Naive,
        Engine::SJoin,
        Engine::SJoinOpt,
        Engine::Symmetric,
        Engine::FkReservoir,
        Engine::Cyclic,
    ];
    for engine in &engines {
        let ops = turnstile_ops(&q, 240, 6, 5, 47);
        let mut svc = SamplerService::new(q.clone());
        for op in ops.iter().take(150) {
            svc.process_op(op).unwrap();
        }
        let h = svc
            .register_sampler(engine.build(&q, 7, 9, &EngineOpts::default()).unwrap())
            .unwrap();
        for op in ops.iter().skip(150) {
            svc.process_op(op).unwrap();
        }
        let mut twin = engine.build(&q, 7, 9, &EngineOpts::default()).unwrap();
        twin.process_op_batch(ops.ops()).unwrap();
        assert_eq!(
            digest(&svc.samples(h).unwrap()),
            digest(&twin.samples()),
            "{engine}: service residency diverged from direct execution"
        );
        let brute = brute_of_ops(&q, &ops);
        assert_eq!(
            svc.exact_count(h).unwrap(),
            brute.len() as u128,
            "{engine}: exact count disagrees with brute force"
        );
        svc.publish();
        let snap = svc.reader(h).unwrap().snapshot();
        assert_eq!(snap.lsn, ops.len() as u64);
        assert_eq!(snap.population, brute.len() as u128);
        assert_eq!(digest(&snap.samples), digest(&svc.samples(h).unwrap()));
    }
}

/// A columnar batch a boxed foreign-key member would reject — a primary
/// key already bound to another tuple, by the live state or by an earlier
/// row of the same batch — comes back as the member's typed error before
/// any row is retained or applied: the service image is byte-identical
/// and ingest carries on.
#[test]
fn columnar_batch_runs_the_boxed_members_checks_first() {
    let mut qb = QueryBuilder::new();
    qb.relation("fact", &["K", "M"]);
    qb.relation("c", &["K", "HD"]);
    let q = qb.build().unwrap();
    let opts = EngineOpts {
        fks: Some(FkSchema::none(2).with_pk(1, vec![0])),
        ..EngineOpts::default()
    };
    let mut svc = SamplerService::new(q.clone());
    let shared = svc.register(&q, &QueryOpts::new(4, 1)).unwrap();
    let boxed = svc
        .register_sampler(Engine::FkReservoir.build(&q, 4, 2, &opts).unwrap())
        .unwrap();
    let rows = |rows: &[(usize, [Value; 2])]| {
        let rows: Vec<InputTuple> = rows
            .iter()
            .map(|&(rel, t)| InputTuple::new(rel, t.to_vec()))
            .collect();
        ColumnarBatch::from_rows(&rows)
    };
    svc.process_columnar(&rows(&[(1, [1, 10]), (0, [1, 100])]))
        .unwrap();
    let image = |svc: &SamplerService| {
        let mut enc = rsjoin::common::codec::Encoder::new();
        svc.snapshot_to(&mut enc).unwrap();
        enc.into_bytes()
    };
    let before = image(&svc);
    for bad in [
        rows(&[(0, [2, 200]), (1, [1, 11])]),
        rows(&[(1, [2, 20]), (0, [2, 201]), (1, [2, 21])]),
    ] {
        assert!(matches!(
            svc.process_columnar(&bad),
            Err(ServiceError::Store(SharedStoreError::PrimaryKeyConflict(1)))
        ));
        assert_eq!(image(&svc), before, "a rejected batch mutated the service");
    }
    svc.process_columnar(&rows(&[(1, [2, 20]), (0, [2, 200])]))
        .unwrap();
    assert_eq!(svc.lsn(), 4);
    assert_eq!(svc.exact_count(shared).unwrap(), 2);
    assert_eq!(svc.exact_count(boxed).unwrap(), 2);
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
        let h = if aux.index(4) == 0 {
            // One in four registrations takes the boxed path.
            svc.register_sampler(
                Engine::Naive
                    .build(&q, k, reg_seed, &EngineOpts::default())
                    .unwrap(),
            )
            .unwrap()
        } else {
            let mut opts = QueryOpts::new(k, reg_seed);
            opts.index = IndexOptions {
                grouping: aux.index(2) == 0,
            };
            svc.register(&q, &opts).unwrap()
        };
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
/// log suffix from the WAL: after crash-reopen, every member — shared and
/// boxed — continues byte-identically to the uninterrupted original.
#[test]
fn persistent_service_round_trips_checkpoint_and_wal() {
    let q = two_table();
    let dir = std::env::temp_dir().join(format!("rsj-service-rt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ops = turnstile_ops(&q, 220, 6, 5, 13);
    let mut rebuild = |name: &str, k: usize| -> Option<Box<dyn JoinSampler + Send>> {
        (name == "NaiveRebuild")
            .then(|| Box::new(NaiveRebuild::new(two_table(), k, 9)) as Box<dyn JoinSampler + Send>)
    };

    let mut ps = PersistentService::open(
        SamplerService::new(q.clone()),
        &dir,
        CheckpointPolicy::Manual,
        &mut rebuild,
    )
    .unwrap();
    let shared = ps
        .service_mut()
        .register(&q, &QueryOpts::new(8, 4))
        .unwrap();
    let boxed = ps
        .service_mut()
        .register_sampler(
            Engine::Naive
                .build(&q, 5, 9, &EngineOpts::default())
                .unwrap(),
        )
        .unwrap();
    for op in ops.iter().take(150) {
        ps.process_op(op).unwrap();
    }
    ps.checkpoint().unwrap();
    for op in ops.iter().skip(150) {
        ps.process_op(op).unwrap();
    }
    ps.flush().unwrap();
    let want_shared = digest(&ps.service().samples(shared).unwrap());
    let want_boxed = digest(&ps.service().samples(boxed).unwrap());
    let want_lsn = ps.service().lsn();
    drop(ps);

    let restored = PersistentService::open(
        SamplerService::new(q.clone()),
        &dir,
        CheckpointPolicy::Manual,
        &mut rebuild,
    )
    .unwrap();
    let svc = restored.service();
    assert_eq!(svc.lsn(), want_lsn, "WAL suffix not replayed");
    assert_eq!(svc.num_queries(), 2, "registrations lost in recovery");
    // Handles survive the checkpoint with their ids.
    assert_eq!(digest(&svc.samples(shared).unwrap()), want_shared);
    assert_eq!(digest(&svc.samples(boxed).unwrap()), want_boxed);
    let brute = brute_of_ops(&q, &ops);
    assert_eq!(svc.exact_count(shared).unwrap(), brute.len() as u128);
    assert_eq!(svc.exact_count(boxed).unwrap(), brute.len() as u128);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A boxed member with no state image — an [`Imageless`] engine switched
/// off — fails the service snapshot with a typed error before a byte is
/// written; the durable wrapper's checkpoint fails
/// the same way, the previous checkpoint still restores, and ingest and
/// reads carry on.
#[test]
fn degraded_boxed_member_fails_the_snapshot_not_the_service() {
    let q = two_table();
    let dir = std::env::temp_dir().join(format!("rsj-service-degraded-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ops = turnstile_ops(&q, 220, 6, 5, 17);
    fn member() -> Imageless<Box<dyn JoinSampler + Send>> {
        Imageless::new(
            Engine::Reservoir
                .build(&two_table(), 5, 9, &EngineOpts::default())
                .unwrap(),
        )
    }
    let mut rebuild = |name: &str, _k: usize| -> Option<Box<dyn JoinSampler + Send>> {
        (name == "RSJoin").then(|| Box::new(member()) as Box<dyn JoinSampler + Send>)
    };

    let mut ps = PersistentService::open(
        SamplerService::new(q.clone()),
        &dir,
        CheckpointPolicy::Manual,
        &mut rebuild,
    )
    .unwrap();
    let shared = ps
        .service_mut()
        .register(&q, &QueryOpts::new(8, 4))
        .unwrap();
    let healthy = ps
        .service_mut()
        .register_sampler(Box::new(member()))
        .unwrap();
    for op in ops.iter().take(120) {
        ps.process_op(op).unwrap();
    }
    ps.checkpoint().unwrap();

    // The member registers with its image already switched off.
    let mut doomed = member();
    doomed.set_image(false);
    let dead = ps.service_mut().register_sampler(Box::new(doomed)).unwrap();

    let mut enc = rsjoin::common::codec::Encoder::new();
    assert!(matches!(
        ps.service().snapshot_to(&mut enc),
        Err(ServiceError::SnapshotUnavailable("RSJoin"))
    ));
    assert!(enc.into_bytes().is_empty(), "a failed snapshot wrote bytes");
    for op in ops.iter().skip(120).take(40) {
        ps.process_op(op).unwrap();
    }
    assert!(matches!(
        ps.checkpoint(),
        Err(PersistError::NoImage("RSJoin"))
    ));
    assert_eq!(ps.ops_since_checkpoint(), 0, "a failed attempt re-arms");
    for op in ops.iter().skip(160) {
        ps.process_op(op).unwrap();
    }
    assert!(ps.service().samples(dead).unwrap().len() <= 5);
    ps.flush().unwrap();
    let want_shared = digest(&ps.service().samples(shared).unwrap());
    let want_healthy = digest(&ps.service().samples(healthy).unwrap());
    let want_lsn = ps.service().lsn();
    drop(ps);

    let restored = PersistentService::open(
        SamplerService::new(q.clone()),
        &dir,
        CheckpointPolicy::Manual,
        &mut rebuild,
    )
    .unwrap();
    let svc = restored.service();
    assert_eq!(svc.lsn(), want_lsn, "WAL suffix not replayed");
    assert_eq!(svc.num_queries(), 2, "the last good checkpoint's members");
    assert_eq!(digest(&svc.samples(shared).unwrap()), want_shared);
    assert_eq!(digest(&svc.samples(healthy).unwrap()), want_healthy);
    let _ = std::fs::remove_dir_all(&dir);
}
