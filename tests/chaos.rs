//! The deterministic chaos harness: seeded fault schedules driven through
//! the supervision and durability layers.
//!
//! Every run is reproducible from a `u64` seed ([`FaultPlan::from_seed`]).
//! The sweeps check the three contracts of the fault-tolerance layer:
//!
//! 1. **Healing is invisible** — a sharded run whose workers are killed
//!    and restarted ends with a reservoir *byte-identical* to its
//!    fault-free twin (invariant 9 in ARCHITECTURE.md).
//! 2. **Retry is invisible** — transient and torn WAL writes absorbed by
//!    backoff leave recovery digests identical to a clean run, across
//!    every persistent engine family.
//! 3. **Degradation is honest and uniform** — out-of-space degrades
//!    instead of corrupting, dead-past-budget shards serve a chi-square
//!    uniform sample over the surviving population, and no injected panic
//!    ever escapes the public API.
//!
//! The sweep width is `RSJ_CHAOS_SEEDS` (default 60; CI runs a smaller
//! dedicated job — see .github/workflows/ci.yml).

use rsj_testutil::{
    digest, final_segment, line3, turnstile_ops, FaultFs, FaultPlan, FsOp, IoFault, Scratch,
    TestSleeper,
};
use rsjoin::engine::Engine;
use rsjoin::prelude::*;
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

// ---------------------------------------------------------------------------
// Harness plumbing
// ---------------------------------------------------------------------------

/// Silences the panic-hook noise of *injected* worker deaths (they are
/// caught by the supervisor; the default hook would still print a
/// backtrace per kill). Real panics keep the default report.
fn quiet_injected_panics() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let default = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|s| s.contains(INJECTED_FAULT))
                || info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains(INJECTED_FAULT));
            if !injected {
                default(info);
            }
        }));
    });
}

fn sweep_seeds() -> u64 {
    std::env::var("RSJ_CHAOS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

fn two_rel() -> Query {
    let mut qb = QueryBuilder::new();
    qb.relation("R", &["x", "y"]);
    qb.relation("S", &["y", "z"]);
    qb.build().unwrap()
}

const K: usize = 16;

/// A supervised sharded sampler running `inner` engines per shard.
fn sharded(
    inner: &Engine,
    query: &Query,
    shards: usize,
    policy: SupervisorPolicy,
    seed: u64,
) -> ShardedSampler {
    let inner = inner.clone();
    let q = query.clone();
    ShardedSampler::with_policy(query, K, seed, shards, None, policy, move |shard_seed| {
        inner
            .build(&q, K, shard_seed, &EngineOpts::default())
            .map_err(|e| e.to_string())
    })
    .unwrap()
}

/// The shardable inner families the kill sweep rotates through.
fn kill_families() -> Vec<(Engine, Query)> {
    vec![
        (Engine::Reservoir, line3()),
        (Engine::Naive, line3()),
        (Engine::SJoin, line3()),
        (Engine::Symmetric, two_rel()),
    ]
}

/// The engine families the WAL fault sweep rotates
/// through (the recovery suite's matrix).
fn persist_families() -> Vec<(Engine, Query)> {
    vec![
        (Engine::Reservoir, line3()),
        (Engine::Naive, line3()),
        (Engine::SJoin, line3()),
        (Engine::sharded(Engine::Reservoir, 2), line3()),
        (Engine::Symmetric, two_rel()),
    ]
}

// ---------------------------------------------------------------------------
// Sweep 1: killed-and-healed runs are byte-identical to fault-free twins
// ---------------------------------------------------------------------------

/// For every seed: derive a fault plan (1–2 worker kills, 0–1 stalls),
/// drive the same turnstile stream through a fault-free twin and a faulted
/// twin, restart-heal the faulted one along the way, and require the final
/// reservoirs to be byte-identical. Rotates engine family, shard count,
/// and snapshot cadence with the seed, so the sweep covers restart from
/// snapshot image *and* restart by full replay.
#[test]
fn healed_runs_are_byte_identical_to_fault_free_twins() {
    quiet_injected_panics();
    let families = kill_families();
    let n_ops = 200;
    for seed in 0..sweep_seeds() {
        let (inner, query) = &families[(seed as usize) % families.len()];
        let shards = 2 + (seed as usize % 2);
        let plan = FaultPlan::from_seed(seed, n_ops as u64, shards);
        // Even seeds heal from snapshot images, odd seeds by full replay.
        let policy = SupervisorPolicy {
            snapshot_every: if seed % 2 == 0 { 32 } else { 0 },
            ..SupervisorPolicy::default()
        };
        let ops = turnstile_ops(query, n_ops, 6, seed ^ 0xFEED);

        let mut clean = sharded(inner, query, shards, policy, seed);
        for op in &ops {
            clean.process_op(op).unwrap();
        }
        let expect = digest(&clean.samples());

        let mut faulted = sharded(inner, query, shards, policy, seed);
        for (i, op) in ops.iter().enumerate() {
            for &(shard, at) in &plan.kills {
                if at == i as u64 {
                    faulted.inject_fault(shard, ShardFault::Panic);
                }
            }
            for &(shard, ms) in &plan.stalls {
                if plan.kills.first().is_some_and(|&(_, at)| at == i as u64) {
                    faulted.inject_fault(shard, ShardFault::Stall(ms));
                }
            }
            faulted.process_op(op).unwrap();
        }
        assert_eq!(
            digest(&faulted.samples()),
            expect,
            "seed {seed} ({inner} x{shards}): healed run diverged from its fault-free twin"
        );
        assert_eq!(
            faulted.health(),
            ShardHealth::Healthy,
            "seed {seed}: every kill is within budget, so the pool must heal"
        );
        let restarts = faulted.stats().restarts.unwrap_or(0);
        assert!(
            restarts >= 1,
            "seed {seed}: at least one kill must have caused a restart"
        );
    }
}

// ---------------------------------------------------------------------------
// Sweep 2: WAL write faults absorbed by retry leave recovery digests intact
// ---------------------------------------------------------------------------

/// For every seed and a rotating persistent engine family: arm the plan's
/// WAL faults (transient and torn appends/syncs, plus a checkpoint-write
/// failure on every third seed) under `Persistent::open_with`, kill at a
/// seed-derived op boundary, recover on a clean filesystem, finish the
/// stream — and require the uninterrupted digest. Backoff delays are
/// recorded, not slept.
#[test]
fn wal_fault_sweep_recovers_byte_identically() {
    quiet_injected_panics();
    let families = persist_families();
    let n_ops = 160;
    for seed in 0..sweep_seeds() {
        let (engine, query) = &families[(seed as usize) % families.len()];
        let ops = turnstile_ops(query, n_ops, 5, seed ^ 0xBEEF);
        let mut clean = engine
            .build(query, K, 0xD15EA5E, &EngineOpts::default())
            .unwrap();
        for op in &ops {
            clean.process_op(op).unwrap();
        }
        let expect = digest(&clean.samples());

        let plan = FaultPlan::from_seed(seed, n_ops as u64, 1);
        let (fs, handle) = FaultFs::new();
        plan.arm(&handle);
        if seed % 3 == 0 {
            // A failed checkpoint write: not retryable, absorbed by the
            // re-arm path (the previous checkpoint stays valid).
            handle.fail_at(FsOp::WriteFile, 1 + seed % 2, IoFault::Full);
        }
        let sleeper = TestSleeper::new();
        let scratch = Scratch::new("walsweep");
        let mut p = Persistent::open_with(
            engine
                .build(query, K, 0xD15EA5E, &EngineOpts::default())
                .unwrap(),
            scratch.path(),
            CheckpointPolicy::EveryOps(37),
            WalOptions {
                auto_flush: 0,
                ..WalOptions::default()
            },
            Box::new(fs),
            Box::new(sleeper.clone()),
        )
        .unwrap();
        let kill = (plan.kills[0].1 as usize).min(n_ops - 1).max(1);
        for op in &ops[..kill] {
            p.process_op(op)
                .unwrap_or_else(|e| panic!("seed {seed} ({engine}): {e}"));
        }
        assert_eq!(
            p.health(),
            DurabilityHealth::Durable,
            "seed {seed}: retryable faults must not degrade"
        );
        let absorbed = p.retries();
        p.flush().unwrap();
        drop(p);

        // Recovery on a clean filesystem must land exactly at the kill
        // point and converge on the uninterrupted digest.
        let mut r = Persistent::open(
            engine
                .build(query, K, 0xD15EA5E, &EngineOpts::default())
                .unwrap(),
            scratch.path(),
            CheckpointPolicy::EveryOps(37),
        )
        .unwrap();
        for op in &ops[kill..] {
            r.process_op(op).unwrap();
        }
        assert_eq!(
            digest(&r.engine().samples()),
            expect,
            "seed {seed} ({engine}): faulted WAL run diverged after recovery"
        );
        if absorbed > 0 {
            assert!(
                !sleeper.slept().is_empty(),
                "seed {seed}: absorbed retries must have taken backoff"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Out-of-space: degrade, keep serving, heal on checkpoint
// ---------------------------------------------------------------------------

/// ENOSPC mid-stream degrades the durability wrapper instead of failing
/// it: the triggering op surfaces the typed error exactly once (after
/// being applied), later ops apply silently and are counted as lost, reads
/// keep working, and a successful checkpoint after space is freed heals
/// the wrapper — recovery afterwards covers the ops logged *and* lost.
#[test]
fn out_of_space_degrades_then_heals_on_checkpoint() {
    let query = line3();
    let ops = turnstile_ops(&query, 120, 5, 0x5ACE);
    let mut clean = Engine::Reservoir
        .build(&query, K, 7, &EngineOpts::default())
        .unwrap();
    for op in &ops {
        clean.process_op(op).unwrap();
    }
    let expect = digest(&clean.samples());

    let (fs, handle) = FaultFs::new();
    let scratch = Scratch::new("enospc");
    let mut p = Persistent::open_with(
        Engine::Reservoir
            .build(&query, K, 7, &EngineOpts::default())
            .unwrap(),
        scratch.path(),
        CheckpointPolicy::Manual,
        WalOptions {
            auto_flush: 0,
            ..WalOptions::default()
        },
        Box::new(fs),
        Box::new(TestSleeper::new()),
    )
    .unwrap();
    for op in &ops[..60] {
        p.process_op(op).unwrap();
    }

    handle.set_full(true);
    let err = p
        .process_op(&ops[60])
        .expect_err("first ENOSPC is surfaced");
    assert!(
        matches!(err, PersistError::Wal(ref w) if w.is_out_of_space()),
        "unexpected error: {err}"
    );
    for op in &ops[61..90] {
        p.process_op(op).unwrap(); // degraded: applied, unlogged, counted
    }
    assert_eq!(
        p.health(),
        DurabilityHealth::Degraded {
            lost_ops: 30,
            since_lsn: 60
        }
    );
    assert_eq!(p.stats().degraded, Some(1));
    assert!(
        !p.engine().samples().is_empty(),
        "degraded wrapper keeps serving reads"
    );
    // Checkpoints fail while the device is full — non-fatally.
    assert!(p.checkpoint().is_err());
    assert_eq!(p.checkpoint_failures(), 1);

    // Space freed: the next checkpoint heals (its snapshot includes the
    // lost ops), and the run finishes durable.
    handle.set_full(false);
    p.checkpoint().unwrap();
    assert_eq!(p.health(), DurabilityHealth::Durable);
    assert_eq!(p.stats().degraded, Some(0));
    for op in &ops[90..] {
        p.process_op(op).unwrap();
    }
    p.flush().unwrap();
    drop(p);

    let r = Persistent::open(
        Engine::Reservoir
            .build(&query, K, 7, &EngineOpts::default())
            .unwrap(),
        scratch.path(),
        CheckpointPolicy::Manual,
    )
    .unwrap();
    assert_eq!(
        digest(&r.engine().samples()),
        expect,
        "post-heal recovery must cover the ops lost while degraded"
    );
}

/// The durable service degrades the same way: an out-of-space append at
/// op `M` still applies the op, surfaces once, serves reads while
/// degraded, heals at the next checkpoint, and reopens byte-identical.
#[test]
fn service_out_of_space_degrades_then_heals_on_checkpoint() {
    const M: usize = 40;
    let query = line3();
    let ops = turnstile_ops(&query, 120, 5, 0x5ACE);
    let register = |svc: &mut SamplerService| -> Vec<QueryHandle> {
        vec![
            svc.register(&query, &QueryOpts::new(K, 1)).unwrap(),
            svc.register_sampler(
                Engine::Naive
                    .build(&query, K, 7, &EngineOpts::default())
                    .unwrap(),
            )
            .unwrap(),
        ]
    };
    let digests = |svc: &SamplerService, handles: &[QueryHandle]| -> Vec<u64> {
        handles
            .iter()
            .map(|&h| digest(&svc.samples(h).unwrap()))
            .collect()
    };
    let mut rebuild = |name: &str, k: usize| -> Option<Box<dyn JoinSampler + Send>> {
        (name == "NaiveRebuild").then(|| {
            Engine::Naive
                .build(&line3(), k, 7, &EngineOpts::default())
                .unwrap()
        })
    };
    let mut clean = SamplerService::new(query.clone());
    let handles = register(&mut clean);
    for op in &ops {
        clean.process_op(op).unwrap();
    }
    let expect = digests(&clean, &handles);

    let (fs, handle) = FaultFs::new();
    handle.fail_at(FsOp::Append, M as u64, IoFault::Full);
    let scratch = Scratch::new("svc-enospc");
    let mut p = PersistentService::open_with(
        SamplerService::new(query.clone()),
        scratch.path(),
        CheckpointPolicy::Manual,
        &mut rebuild,
        WalOptions {
            auto_flush: 0,
            ..WalOptions::default()
        },
        Box::new(fs),
        Box::new(TestSleeper::new()),
    )
    .unwrap();
    assert_eq!(register(p.service_mut()), handles);
    p.checkpoint().unwrap();
    for op in &ops[..M] {
        p.process_op(op).unwrap();
    }
    let err = p.process_op(&ops[M]).expect_err("first ENOSPC is surfaced");
    assert!(
        matches!(err, PersistError::Wal(ref w) if w.is_out_of_space()),
        "unexpected error: {err}"
    );
    assert_eq!(p.service().lsn(), M as u64 + 1, "the op still applied");
    for op in &ops[M + 1..90] {
        p.process_op(op).unwrap(); // degraded: applied, unlogged, counted
    }
    assert_eq!(
        p.health(),
        DurabilityHealth::Degraded {
            lost_ops: (90 - M) as u64,
            since_lsn: M as u64
        }
    );
    assert!(
        handles
            .iter()
            .all(|&h| !p.service().samples(h).unwrap().is_empty()),
        "degraded wrapper keeps serving reads"
    );

    p.checkpoint().unwrap();
    assert_eq!(p.health(), DurabilityHealth::Durable);
    assert_eq!(p.checkpoint_failures(), 0);
    for op in &ops[90..] {
        p.process_op(op).unwrap();
    }
    p.flush().unwrap();
    drop(p);

    let r = PersistentService::open(
        SamplerService::new(query.clone()),
        scratch.path(),
        CheckpointPolicy::Manual,
        &mut rebuild,
    )
    .unwrap();
    assert_eq!(r.service().lsn(), clean.lsn());
    assert_eq!(
        digests(r.service(), &handles),
        expect,
        "post-heal recovery must cover the ops lost while degraded"
    );
}

// ---------------------------------------------------------------------------
// Torn-write fault matrix: every byte offset of a record
// ---------------------------------------------------------------------------

/// Crash-style torn writes at *every byte offset* of the final record:
/// the append reports success but only a prefix hits disk. Reopening must
/// recover exactly the flushed prefix — whole records survive, the torn
/// one never becomes an op, and no offset panics or corrupts.
#[test]
fn torn_write_matrix_recovers_the_flushed_prefix() {
    let query = line3();
    let ops = turnstile_ops(&query, 8, 5, 0x70AA);
    // Frame length of the final record: encoded payload + 8 header bytes,
    // measured by appending it once more and diffing the segment length.
    let frame_len = {
        let scratch = Scratch::new("torn-probe");
        let mut wal = Wal::open(scratch.path().join("wal")).unwrap();
        for op in &ops {
            wal.append(op).unwrap();
        }
        wal.flush().unwrap();
        let before = fs::metadata(final_segment(scratch.path())).unwrap().len();
        wal.append(&ops[ops.len() - 1]).unwrap();
        wal.flush().unwrap();
        (fs::metadata(final_segment(scratch.path())).unwrap().len() - before) as usize
    };
    assert!(frame_len > 8, "frame must have header + payload");

    for torn_at in 0..frame_len {
        let scratch = Scratch::new("torn-matrix");
        let (fs_shim, handle) = FaultFs::new();
        // Appends 0..n-1 are clean; append n-1 writes only `torn_at` bytes.
        handle.fail_at(
            FsOp::Append,
            ops.len() as u64 - 1,
            IoFault::SilentTorn(torn_at),
        );
        let mut wal = Wal::open_with(
            scratch.path().join("wal"),
            WalOptions {
                auto_flush: 0,
                ..WalOptions::default()
            },
            Box::new(fs_shim),
            Box::new(TestSleeper::new()),
        )
        .unwrap();
        for op in &ops {
            wal.append(op).unwrap();
        }
        drop(wal); // the crash

        let mut r = Wal::open(scratch.path().join("wal")).unwrap();
        let recovered = r.replay_from(0).unwrap();
        assert_eq!(
            recovered.len(),
            ops.len() - 1,
            "torn at byte {torn_at}: exactly the flushed prefix must survive"
        );
        assert_eq!(
            &recovered[..],
            &ops[..ops.len() - 1],
            "torn at byte {torn_at}: surviving ops must be intact"
        );
        assert_eq!(r.next_lsn(), ops.len() as u64 - 1);
    }
}

// ---------------------------------------------------------------------------
// Degraded mode: uniform over the surviving population
// ---------------------------------------------------------------------------

/// Kill one of two shards past its restart budget and draw one sample per
/// seed: the inclusion counts over many seeds must be chi-square uniform
/// over the population owned by the *surviving* shard. Degradation loses
/// coverage, never uniformity.
#[test]
fn degraded_samples_are_uniform_over_the_surviving_population() {
    quiet_injected_panics();
    let query = line3();
    // One join result per B value: G1(b, b) x G2(b, b) x G3(b, 9).
    let n_results = 6u64;
    let mut ops = Vec::new();
    for b in 0..n_results {
        ops.push(StreamOp::insert(0, vec![b, b]));
        ops.push(StreamOp::insert(1, vec![b, b]));
    }
    for b in 0..n_results {
        ops.push(StreamOp::insert(2, vec![b, 9]));
    }

    let policy = SupervisorPolicy {
        max_restarts: 0,
        ..SupervisorPolicy::default()
    };
    // Partition on B (attr 1): each result's owner is its G1 tuple's route.
    let probe = ShardedSampler::with_policy(&query, 1, 0, 2, Some(1), policy, |sd| {
        Engine::Reservoir
            .build(&line3(), 1, sd, &EngineOpts::default())
            .map_err(|e| e.to_string())
    })
    .unwrap();
    let survivors: Vec<u64> = (0..n_results)
        .filter(|&b| probe.plan().route(0, &[b, b]) == Some(0))
        .collect();
    drop(probe);
    assert!(
        survivors.len() >= 2 && survivors.len() < n_results as usize,
        "fixture must split results across both shards, got {survivors:?}"
    );

    let mut counts: rsjoin::common::FxHashMap<u64, u64> = Default::default();
    let runs = 1400;
    for seed in 0..runs {
        let mut s = ShardedSampler::with_policy(&query, 1, seed, 2, Some(1), policy, |sd| {
            Engine::Reservoir
                .build(&line3(), 1, sd, &EngineOpts::default())
                .map_err(|e| e.to_string())
        })
        .unwrap();
        for op in &ops {
            s.process_op(op).unwrap();
        }
        s.inject_fault(1, ShardFault::Panic);
        let samples = s.samples();
        assert!(
            matches!(s.health(), ShardHealth::Degraded { ref dead_shards, .. } if dead_shards == &[1]),
            "seed {seed}: budget 0 must leave shard 1 dead"
        );
        assert_eq!(samples.len(), 1, "seed {seed}");
        let b = samples[0][0];
        assert!(
            survivors.contains(&b),
            "seed {seed}: sample {b} is owned by the dead shard"
        );
        *counts.entry(b).or_default() += 1;
        assert_eq!(s.stats().degraded, Some(1), "seed {seed}");
    }
    rsj_testutil::UniformityCheck::single().assert_uniform(
        &counts,
        survivors.len(),
        "degraded sharded sampler",
    );
}

/// A degraded sharded engine has no state image. Its checkpoints must
/// fail like any other failed attempt — counted, window re-armed, the
/// previous checkpoint and the log left valid — not silently re-attempt
/// on every subsequent op.
#[test]
fn imageless_checkpoints_are_counted_and_rearm_the_window() {
    quiet_injected_panics();
    let query = line3();
    let ops = turnstile_ops(&query, 200, 5, 3);
    let scratch = Scratch::new("noimage");
    let no_restarts = SupervisorPolicy {
        max_restarts: 0,
        ..SupervisorPolicy::default()
    };
    let mut p = Persistent::open(
        sharded(&Engine::Reservoir, &query, 2, no_restarts, 7),
        scratch.path(),
        CheckpointPolicy::EveryOps(40),
    )
    .unwrap();
    for op in &ops[..100] {
        p.process_op(op).unwrap();
    }
    assert_eq!(p.checkpoint_failures(), 0, "two healthy checkpoints so far");
    p.engine_mut().inject_fault(1, ShardFault::Panic);
    let _ = p.engine().samples(); // the read discovers the death
    assert!(matches!(p.engine().health(), ShardHealth::Degraded { .. }));

    assert!(matches!(
        p.checkpoint(),
        Err(PersistError::NoImage("Sharded"))
    ));
    assert_eq!(p.checkpoint_failures(), 1);
    assert_eq!(p.ops_since_checkpoint(), 0, "a failed attempt re-arms");
    for (i, op) in ops[100..].iter().enumerate() {
        p.process_op(op).unwrap();
        assert_eq!(p.ops_since_checkpoint(), (i as u64 + 1) % 40, "op {i}");
    }
    assert_eq!(
        p.checkpoint_failures(),
        3,
        "100 ops at a 40-op window are two more attempts, not one per op"
    );
    p.flush().unwrap();
    drop(p);

    // The last good checkpoint (lsn 80) plus the log recover the whole
    // stream into a healthy engine, byte-identical to a fault-free twin.
    let r = Persistent::open(
        sharded(&Engine::Reservoir, &query, 2, no_restarts, 7),
        scratch.path(),
        CheckpointPolicy::Manual,
    )
    .unwrap();
    assert_eq!(r.next_lsn(), 200);
    let mut twin = sharded(&Engine::Reservoir, &query, 2, no_restarts, 7);
    for op in &ops {
        twin.process_op(op).unwrap();
    }
    assert_eq!(digest(&r.engine().samples()), digest(&twin.samples()));
}

// ---------------------------------------------------------------------------
// No panic escapes the public API
// ---------------------------------------------------------------------------

/// Nasty schedules — kills before any op, repeated kills of the same
/// shard past the budget, kills plus stalls interleaved — must never let
/// a panic escape the `JoinSampler` surface: every call returns.
#[test]
fn no_injected_panic_escapes_the_facade() {
    quiet_injected_panics();
    let query = line3();
    for seed in 0..20u64 {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let policy = SupervisorPolicy {
                max_restarts: seed % 3, // includes budget 0: degrade paths
                snapshot_every: if seed % 2 == 0 { 16 } else { 0 },
                ..SupervisorPolicy::default()
            };
            let mut s = sharded(&Engine::Reservoir, &query, 2, policy, seed);
            let ops = turnstile_ops(&query, 80, 5, seed);
            s.inject_fault(0, ShardFault::Panic); // before any op
            for (i, op) in ops.iter().enumerate() {
                if i % 17 == 3 {
                    s.inject_fault((i / 17) % 2, ShardFault::Panic);
                }
                if i == 40 {
                    s.inject_fault(1, ShardFault::Stall(1));
                }
                s.process_op(op).unwrap();
            }
            // Reads and stats must return regardless of pool health.
            let _ = s.samples();
            let _ = s.samples_named();
            let _ = s.stats();
            let _ = s.health();
            drop(s);
        }));
        assert!(
            outcome.is_ok(),
            "seed {seed}: a panic escaped the public API"
        );
    }
}
