//! The deterministic chaos harness: seeded fault schedules driven through
//! the durability layer.
//!
//! Every run is reproducible from a `u64` seed ([`FaultPlan::from_seed`]).
//! The sweeps check the two contracts of the fault-tolerance layer
//! (invariant 7 in ARCHITECTURE.md):
//!
//! 1. **Retry is invisible** — transient and torn WAL writes absorbed by
//!    backoff leave recovery digests identical to a clean run, across
//!    every persistent engine family.
//! 2. **Degradation is honest** — out-of-space degrades instead of
//!    corrupting and heals on the next checkpoint, a failed checkpoint
//!    keeps the previous one, and a failed append logs nothing.
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

// ---------------------------------------------------------------------------
// Harness plumbing
// ---------------------------------------------------------------------------

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

/// The engine families the WAL fault sweep rotates
/// through (the recovery suite's matrix).
fn persist_families() -> Vec<(Engine, Query)> {
    vec![
        (Engine::Reservoir, line3()),
        (Engine::Naive, line3()),
        (Engine::SJoin, line3()),
        (Engine::Symmetric, two_rel()),
    ]
}

// ---------------------------------------------------------------------------
// Sweep: WAL write faults absorbed by retry leave recovery digests intact
// ---------------------------------------------------------------------------

/// For every seed and a rotating persistent engine family: arm the plan's
/// WAL faults (transient and torn appends/syncs, plus a checkpoint-write
/// failure on every third seed) under `Persistent::open_with`, kill at a
/// seed-derived op boundary, recover on a clean filesystem, finish the
/// stream — and require the uninterrupted digest. Backoff delays are
/// recorded, not slept.
#[test]
fn wal_fault_sweep_recovers_byte_identically() {
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

        let plan = FaultPlan::from_seed(seed, n_ops as u64);
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
        let kill = 1 + RsjRng::seed_from_u64(seed ^ 0x4B11).index(n_ops - 1);
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

/// Three transient failures of one append, one short of the default
/// four-attempt budget, are absorbed one backoff step at a time: the
/// delays double from the 1 ms base, the count surfaces in `retries()` and
/// the stats, the wrapper stays durable, and recovery lands on the clean
/// digest.
#[test]
fn absorbed_append_faults_back_off_exponentially() {
    let query = line3();
    let ops = turnstile_ops(&query, 60, 5, 0xB0FF);
    let engine = || {
        Engine::Reservoir
            .build(&query, K, 7, &EngineOpts::default())
            .unwrap()
    };
    let mut clean = engine();
    for op in &ops {
        clean.process_op(op).unwrap();
    }
    let expect = digest(&clean.samples());

    let (fs, handle) = FaultFs::new();
    let sleeper = TestSleeper::new();
    let scratch = Scratch::new("backoff");
    let mut p = Persistent::open_with(
        engine(),
        scratch.path(),
        CheckpointPolicy::Manual,
        WalOptions {
            auto_flush: 0,
            ..WalOptions::default()
        },
        Box::new(fs),
        Box::new(sleeper.clone()),
    )
    .unwrap();
    for op in &ops[..20] {
        p.process_op(op).unwrap();
    }
    let next = handle.calls(FsOp::Append);
    for i in 0..3 {
        handle.fail_at(FsOp::Append, next + i, IoFault::Transient);
    }
    for op in &ops[20..] {
        p.process_op(op).unwrap();
    }
    assert_eq!(handle.fired(), 3);
    assert_eq!(
        sleeper.slept(),
        [1, 2, 4].map(std::time::Duration::from_millis)
    );
    assert_eq!(p.retries(), 3);
    assert_eq!(p.stats().retries, Some(3));
    assert_eq!(p.health(), DurabilityHealth::Durable);
    p.flush().unwrap();
    drop(p);

    let r = Persistent::open(engine(), scratch.path(), CheckpointPolicy::Manual).unwrap();
    assert_eq!(r.next_lsn(), ops.len() as u64);
    assert_eq!(digest(&r.engine().samples()), expect);
}

/// A retryable torn append leaves a partial frame on disk; the WAL cuts
/// the segment back to its flushed length before the retry, so the log
/// replays every op exactly once and no garbage frame survives.
#[test]
fn a_torn_append_is_cut_back_before_its_retry() {
    let query = line3();
    let ops = turnstile_ops(&query, 30, 5, 0x7EA2);
    let scratch = Scratch::new("torn-retry");
    let (fs, handle) = FaultFs::new();
    let sleeper = TestSleeper::new();
    let mut wal = Wal::open_with(
        scratch.path().join("wal"),
        WalOptions {
            auto_flush: 0,
            ..WalOptions::default()
        },
        Box::new(fs),
        Box::new(sleeper.clone()),
    )
    .unwrap();
    let (next, cuts) = (handle.calls(FsOp::Append), handle.calls(FsOp::Truncate));
    handle.fail_at(FsOp::Append, next + 10, IoFault::Torn(5));
    for op in &ops {
        wal.append(op).unwrap();
    }
    wal.flush().unwrap();
    assert_eq!(wal.retries(), 1);
    assert_eq!(sleeper.slept().len(), 1);
    assert_eq!(
        handle.calls(FsOp::Truncate),
        cuts + 1,
        "the partial frame is cut back once"
    );
    drop(wal);

    let mut r = Wal::open(scratch.path().join("wal")).unwrap();
    assert_eq!(r.replay_from(0).unwrap(), ops);
    assert_eq!(r.next_lsn(), ops.len() as u64);
}

/// A checkpoint whose write fails is counted and leaves the previous
/// checkpoint in place; it loses no logging, so the wrapper stays durable
/// and recovery from the older checkpoint plus the log is byte-identical.
#[test]
fn a_failed_checkpoint_write_keeps_the_previous_checkpoint() {
    let query = line3();
    let ops = turnstile_ops(&query, 120, 5, 0xC4EC);
    let engine = || {
        Engine::Reservoir
            .build(&query, K, 7, &EngineOpts::default())
            .unwrap()
    };
    let mut clean = engine();
    for op in &ops {
        clean.process_op(op).unwrap();
    }
    let expect = digest(&clean.samples());

    let (fs, handle) = FaultFs::new();
    let scratch = Scratch::new("cp-fail");
    let mut p = Persistent::open_with(
        engine(),
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
    for op in &ops[..50] {
        p.process_op(op).unwrap();
    }
    p.checkpoint().unwrap();
    for op in &ops[50..80] {
        p.process_op(op).unwrap();
    }
    handle.fail_at(
        FsOp::WriteFile,
        handle.calls(FsOp::WriteFile),
        IoFault::Full,
    );
    let err = p.checkpoint().expect_err("the checkpoint write fails");
    assert!(
        matches!(err, PersistError::Wal(ref w) if w.is_out_of_space()),
        "unexpected error: {err}"
    );
    assert_eq!(p.checkpoint_failures(), 1);
    assert_eq!(p.health(), DurabilityHealth::Durable);
    let cp = Checkpoint::read_from(scratch.path().join(rsjoin::persist::CHECKPOINT_FILE)).unwrap();
    assert_eq!(cp.lsn, 50, "the previous checkpoint stays in place");
    for op in &ops[80..] {
        p.process_op(op).unwrap();
    }
    p.flush().unwrap();
    drop(p);

    let r = Persistent::open(engine(), scratch.path(), CheckpointPolicy::Manual).unwrap();
    assert_eq!(r.next_lsn(), ops.len() as u64);
    assert_eq!(digest(&r.engine().samples()), expect);
}

/// A checkpoint whose file lands but whose log rotation fails keeps the
/// frames still buffered for the old segment: the new segment's header
/// write fails, the old segment stays the active one, and the buffered
/// frames (ops 50..80) must reach it ahead of later appends. Dropping them
/// there would shift every later op down 30 LSNs, below the new
/// checkpoint's, and replay would skip them.
#[test]
fn a_failed_log_rotation_keeps_the_buffered_frames() {
    let query = line3();
    let ops = turnstile_ops(&query, 200, 5, 0x207A);
    let engine = || {
        Engine::Reservoir
            .build(&query, K, 7, &EngineOpts::default())
            .unwrap()
    };
    let mut clean = engine();
    for op in &ops {
        clean.process_op(op).unwrap();
    }
    let expect = digest(&clean.samples());

    let (fs, handle) = FaultFs::new();
    let scratch = Scratch::new("rotate-fail");
    let mut p = Persistent::open_with(
        engine(),
        scratch.path(),
        CheckpointPolicy::Manual,
        WalOptions::default(),
        Box::new(fs),
        Box::new(TestSleeper::new()),
    )
    .unwrap();
    for op in &ops[..50] {
        p.process_op(op).unwrap();
    }
    p.flush().unwrap();
    for op in &ops[50..80] {
        p.process_op(op).unwrap(); // buffered: below the auto-flush size
    }
    // Write call n is the checkpoint file, n + 1 the new segment header.
    handle.fail_at(
        FsOp::WriteFile,
        handle.calls(FsOp::WriteFile) + 1,
        IoFault::Full,
    );
    assert!(p.checkpoint().is_err(), "the rotation fails");
    assert_eq!(p.checkpoint_failures(), 1);
    let cp = Checkpoint::read_from(scratch.path().join(rsjoin::persist::CHECKPOINT_FILE)).unwrap();
    assert_eq!(cp.lsn, 80, "the checkpoint file itself landed");
    for op in &ops[80..] {
        p.process_op(op).unwrap();
    }
    assert_eq!(p.next_lsn(), 200);
    p.flush().unwrap();
    drop(p);

    let r = Persistent::open(engine(), scratch.path(), CheckpointPolicy::Manual).unwrap();
    assert_eq!(r.next_lsn(), 200, "no logged op lost its LSN");
    assert_eq!(digest(&r.engine().samples()), expect);
}

/// Checkpoint writes that keep failing cost one attempt per policy
/// window, not one per op: every failed attempt — explicit or
/// policy-driven — is counted and re-arms the `EveryOps` window, and the
/// last good checkpoint plus the log still recover the whole stream.
#[test]
fn failed_checkpoints_are_counted_and_rearm_the_window() {
    let query = line3();
    let ops = turnstile_ops(&query, 200, 5, 3);
    let engine = || {
        Engine::Reservoir
            .build(&query, K, 7, &EngineOpts::default())
            .unwrap()
    };
    let (fs, handle) = FaultFs::new();
    let scratch = Scratch::new("cp-rearm");
    let mut p = Persistent::open_with(
        engine(),
        scratch.path(),
        CheckpointPolicy::EveryOps(40),
        WalOptions {
            auto_flush: 0,
            ..WalOptions::default()
        },
        Box::new(fs),
        Box::new(TestSleeper::new()),
    )
    .unwrap();
    for op in &ops[..100] {
        p.process_op(op).unwrap();
    }
    assert_eq!(p.checkpoint_failures(), 0, "two healthy checkpoints so far");
    // Every checkpoint write from here on fails: a failed attempt makes
    // one write call, so an attempt per op would burn all of these.
    let next = handle.calls(FsOp::WriteFile);
    for i in 0..20 {
        handle.fail_at(FsOp::WriteFile, next + i, IoFault::Full);
    }

    assert!(p.checkpoint().is_err());
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
    assert_eq!(handle.fired(), 3);
    assert_eq!(p.health(), DurabilityHealth::Durable);
    p.flush().unwrap();
    drop(p);

    // The last good checkpoint (lsn 80) plus the log recover the whole
    // stream, byte-identical to a fault-free twin.
    let cp = Checkpoint::read_from(scratch.path().join(rsjoin::persist::CHECKPOINT_FILE)).unwrap();
    assert_eq!(cp.lsn, 80);
    let r = Persistent::open(engine(), scratch.path(), CheckpointPolicy::Manual).unwrap();
    assert_eq!(r.next_lsn(), 200);
    let mut twin = engine();
    for op in &ops {
        twin.process_op(op).unwrap();
    }
    assert_eq!(digest(&r.engine().samples()), digest(&twin.samples()));
}

/// An append whose flush exhausts its retries is rejected without being
/// applied, and it is not logged either: the WAL drops its frame, so the
/// next op takes its LSN and recovery replays exactly the applied ops.
/// Swept over every failure position of the stream.
#[test]
fn a_rejected_append_is_neither_applied_nor_replayed() {
    let query = line3();
    let ops = turnstile_ops(&query, 60, 5, 0xB0FF);
    let engine = || {
        Engine::Reservoir
            .build(&query, K, 7, &EngineOpts::default())
            .unwrap()
    };
    for fail_at in 5..55 {
        let (fs, handle) = FaultFs::new();
        let scratch = Scratch::new("append-reject");
        let mut p = Persistent::open_with(
            engine(),
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
        let mut applied = 0u64;
        for (i, op) in ops.iter().enumerate() {
            if i == fail_at {
                // As many transient faults as the default retry policy
                // has attempts: every attempt of this append fails.
                let next = handle.calls(FsOp::Append);
                for j in 0..4 {
                    handle.fail_at(FsOp::Append, next + j, IoFault::Transient);
                }
                assert!(
                    matches!(p.process_op(op), Err(PersistError::Wal(_))),
                    "op {i}: retries exhausted"
                );
            } else {
                p.process_op(op).unwrap();
                applied += 1;
            }
        }
        assert_eq!(p.next_lsn(), applied, "fail at {fail_at}: lsn");
        let live = (digest(&p.engine().samples()), p.engine().exact_count());
        p.flush().unwrap();
        drop(p);

        let r = Persistent::open(engine(), scratch.path(), CheckpointPolicy::Manual).unwrap();
        assert_eq!(r.next_lsn(), applied, "fail at {fail_at}: replayed ops");
        assert_eq!(
            (digest(&r.engine().samples()), r.engine().exact_count()),
            live,
            "fail at {fail_at}: recovered state differs from the live engine"
        );
    }
}

/// The same for the durable service over a buffering log: the ops
/// acknowledged before the failed append are still pending when its flush
/// gives up, and they land with the next flush; the failed op is neither
/// retained by the service nor logged.
#[test]
fn a_rejected_service_append_keeps_earlier_buffered_ops() {
    const M: usize = 45;
    let query = line3();
    let ops = turnstile_ops(&query, 90, 5, 0x5E4F);
    let (fs, handle) = FaultFs::new();
    let scratch = Scratch::new("svc-append-reject");
    let mut p = PersistentService::open_with(
        SamplerService::new(query.clone()),
        scratch.path(),
        CheckpointPolicy::Manual,
        WalOptions {
            auto_flush: 256,
            ..WalOptions::default()
        },
        Box::new(fs),
        Box::new(TestSleeper::new()),
    )
    .unwrap();
    let h = p
        .service_mut()
        .register(&query, &QueryOpts::new(K, 1))
        .unwrap();
    p.checkpoint().unwrap();
    let mut failed = None;
    for (i, op) in ops.iter().enumerate() {
        if i == M {
            // Nothing is pending; the next flush, which carries op M and
            // whatever follows it up to the threshold, fails.
            p.flush().unwrap();
            let next = handle.calls(FsOp::Append);
            for j in 0..4 {
                handle.fail_at(FsOp::Append, next + j, IoFault::Transient);
            }
        }
        let lsn = p.service().lsn();
        match p.process_op(op) {
            Ok(()) => {}
            Err(PersistError::Wal(_)) if failed.is_none() => {
                assert_eq!(p.service().lsn(), lsn, "op {i} was retained");
                failed = Some(i);
            }
            Err(e) => panic!("op {i}: {e}"),
        }
    }
    let failed = failed.expect("a flush failed");
    assert!(failed > M, "acknowledged ops were pending at the failure");
    assert_eq!(p.next_lsn(), ops.len() as u64 - 1);
    assert_eq!(p.service().lsn(), p.next_lsn());
    let live = digest(&p.service().samples(h).unwrap());
    p.flush().unwrap();
    drop(p);

    let r = PersistentService::open(
        SamplerService::new(query.clone()),
        scratch.path(),
        CheckpointPolicy::Manual,
        &mut |_, _| None,
    )
    .unwrap();
    assert_eq!(
        r.service().lsn(),
        ops.len() as u64 - 1,
        "failed at op {failed}"
    );
    assert_eq!(digest(&r.service().samples(h).unwrap()), live);
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
    // Two index groups: the second registration's options differ.
    let register = |svc: &mut SamplerService| -> Vec<QueryHandle> {
        let mut ungrouped = QueryOpts::new(K, 7);
        ungrouped.index = IndexOptions { grouping: false };
        vec![
            svc.register(&query, &QueryOpts::new(K, 1)).unwrap(),
            svc.register(&query, &ungrouped).unwrap(),
        ]
    };
    let digests = |svc: &SamplerService, handles: &[QueryHandle]| -> Vec<u64> {
        handles
            .iter()
            .map(|&h| digest(&svc.samples(h).unwrap()))
            .collect()
    };
    let mut clean = SamplerService::new(query.clone());
    let handles = register(&mut clean);
    assert_eq!(clean.num_groups(), 2);
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
        &mut |_, _| None,
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
