//! Crash-recovery harness for the durability layer (`rsjoin::persist`).
//!
//! The contract under test: kill a [`Persistent`]-wrapped engine at *any*
//! op boundary of a turnstile stream, recover from the checkpoint + WAL
//! suffix into a freshly built engine, finish the stream — and the final
//! reservoir is **byte-identical** (FNV digest over the sample matrix) to
//! an uninterrupted run of the same stream. The sweep covers every engine
//! family — including the signed-delta FK combiners and the cyclic GHD
//! driver — checkpoint cadences from every-op to never, torn log tails,
//! and cross-engine checkpoint rejection.

use rsj_testutil::{digest, final_segment, line3, turnstile_ops, Scratch};
use rsjoin::engine::Engine;
use rsjoin::prelude::*;
use std::fs;

// ---------------------------------------------------------------------------
// Turnstile workloads
// ---------------------------------------------------------------------------

fn two_rel() -> Query {
    let mut qb = QueryBuilder::new();
    qb.relation("R", &["x", "y"]);
    qb.relation("S", &["y", "z"]);
    qb.build().unwrap()
}

type BoxedSampler = Box<dyn JoinSampler + Send>;

fn build(engine: &Engine, query: &Query) -> BoxedSampler {
    engine
        .build(query, 16, 0xD15EA5E, &EngineOpts::default())
        .unwrap()
}

/// Digest of an uninterrupted run over the whole stream.
fn uninterrupted_digest(engine: &Engine, query: &Query, ops: &[StreamOp]) -> u64 {
    let mut s = build(engine, query);
    for op in ops {
        s.process_op(op).unwrap();
    }
    digest(&s.samples())
}

/// Every engine family and the query each runs (SymmetricHashJoin is
/// binary-only; the `_opt` engines recover their signed FK combiner, the
/// cyclic driver its bag tries, alongside the inner reservoir).
fn recovery_engines() -> Vec<(Engine, Query)> {
    vec![
        (Engine::Reservoir, line3()),
        (Engine::FkReservoir, line3()),
        (Engine::Cyclic, line3()),
        (Engine::Naive, line3()),
        (Engine::SJoin, line3()),
        (Engine::SJoinOpt, line3()),
        (Engine::Symmetric, two_rel()),
    ]
}

// ---------------------------------------------------------------------------
// Kill-at-random-op recovery, every engine family
// ---------------------------------------------------------------------------

/// For each engine: run through `Persistent`, "kill" at a random op
/// boundary (drop after flush), recover into a freshly built engine,
/// finish the stream, and require the exact uninterrupted digest. Kill
/// points straddle checkpoint boundaries (policy: every 71 ops).
#[test]
fn kill_at_random_op_recovers_byte_identically() {
    let n_ops = 500;
    let mut rng = RsjRng::seed_from_u64(0xDEAD);
    for (engine, query) in recovery_engines() {
        let ops = turnstile_ops(&query, n_ops, 6, 0xFEED);
        let expect = uninterrupted_digest(&engine, &query, &ops);
        // Deterministic edge kills plus random interior ones.
        let mut kills = vec![0, 1, 70, 71, 72, n_ops - 1, n_ops];
        kills.extend((0..4).map(|_| rng.index(n_ops)));
        for kill in kills {
            let scratch = Scratch::new(engine.name());
            let mut p = Persistent::open(
                build(&engine, &query),
                scratch.path(),
                CheckpointPolicy::EveryOps(71),
            )
            .unwrap();
            for op in &ops[..kill] {
                p.process_op(op).unwrap();
            }
            p.flush().unwrap();
            drop(p); // the kill: in-memory engine state is gone

            let mut r = Persistent::open(
                build(&engine, &query),
                scratch.path(),
                CheckpointPolicy::EveryOps(71),
            )
            .unwrap();
            assert_eq!(
                r.next_lsn(),
                kill as u64,
                "{}: recovery must land exactly at the kill point",
                engine.name()
            );
            for op in &ops[kill..] {
                r.process_op(op).unwrap();
            }
            assert_eq!(
                digest(&r.engine().samples()),
                expect,
                "{} killed at op {kill}: recovered stream diverged",
                engine.name()
            );
        }
    }

    // The resident service through the same wrapper: two members sharing
    // one index group and a third in a second group (its index options
    // differ), checkpointed after registration.
    let query = line3();
    let ops = turnstile_ops(&query, n_ops, 6, 0xFEED);
    let register = |svc: &mut SamplerService| -> Vec<QueryHandle> {
        let mut ungrouped = QueryOpts::new(16, 3);
        ungrouped.index = IndexOptions { grouping: false };
        vec![
            svc.register(&query, &QueryOpts::new(16, 1)).unwrap(),
            svc.register(&query, &QueryOpts::new(8, 2)).unwrap(),
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
    let mut kills = vec![0, 1, 70, 71, 72, n_ops - 1, n_ops];
    kills.extend((0..4).map(|_| rng.index(n_ops)));
    for kill in kills {
        let scratch = Scratch::new("service");
        let open = || {
            PersistentService::open(
                SamplerService::new(query.clone()),
                scratch.path(),
                CheckpointPolicy::EveryOps(71),
                &mut |_, _| None,
            )
            .unwrap()
        };
        let mut p = open();
        assert_eq!(register(p.service_mut()), handles);
        p.checkpoint().unwrap();
        for op in &ops[..kill] {
            p.process_op(op).unwrap();
        }
        p.flush().unwrap();
        drop(p);

        let mut r = open();
        assert_eq!(
            r.service().lsn(),
            kill as u64,
            "service killed at op {kill}"
        );
        for op in &ops[kill..] {
            r.process_op(op).unwrap();
        }
        assert_eq!(r.service().lsn(), clean.lsn());
        assert_eq!(
            digests(r.service(), &handles),
            expect,
            "service killed at op {kill}: recovered members diverged"
        );
    }
}

/// Checkpoint-cadence sweep (proptest-style, hand-rolled seeds): for a
/// spread of `EveryOps` cadences — every op, primes, larger than the
/// stream (i.e. never) — and several stream seeds, a mid-stream kill must
/// recover to the identical digest. Catches any state the snapshot forgets
/// and any op the truncated log drops.
#[test]
fn checkpoint_cadence_sweep_preserves_digests() {
    let engine = Engine::Reservoir;
    let query = line3();
    let n_ops = 300;
    for stream_seed in [11u64, 222, 3333] {
        let ops = turnstile_ops(&query, n_ops, 5, stream_seed);
        let expect = uninterrupted_digest(&engine, &query, &ops);
        let mut rng = RsjRng::seed_from_u64(stream_seed ^ 0xC0FFEE);
        for cadence in [1u64, 2, 13, 97, 10_000] {
            let kill = 1 + rng.index(n_ops - 1);
            let scratch = Scratch::new("cadence");
            let mut p = Persistent::open(
                build(&engine, &query),
                scratch.path(),
                CheckpointPolicy::EveryOps(cadence),
            )
            .unwrap();
            for op in &ops[..kill] {
                p.process_op(op).unwrap();
            }
            p.flush().unwrap();
            drop(p);

            let mut r = Persistent::open(
                build(&engine, &query),
                scratch.path(),
                CheckpointPolicy::EveryOps(cadence),
            )
            .unwrap();
            for op in &ops[kill..] {
                r.process_op(op).unwrap();
            }
            assert_eq!(
                digest(&r.engine().samples()),
                expect,
                "cadence {cadence}, kill {kill}, stream {stream_seed}"
            );
        }
    }
}

/// Manual checkpoints at arbitrary points (plus log truncation) are
/// equally recoverable, and checkpointing twice in a row is fine.
#[test]
fn manual_checkpoints_recover() {
    let engine = Engine::SJoin;
    let query = line3();
    let ops = turnstile_ops(&query, 240, 5, 77);
    let expect = uninterrupted_digest(&engine, &query, &ops);
    let scratch = Scratch::new("manual");
    let mut p = Persistent::open(
        build(&engine, &query),
        scratch.path(),
        CheckpointPolicy::Manual,
    )
    .unwrap();
    for (i, op) in ops[..200].iter().enumerate() {
        p.process_op(op).unwrap();
        if i == 60 || i == 61 || i == 150 {
            p.checkpoint().unwrap();
            assert_eq!(p.ops_since_checkpoint(), 0);
        }
    }
    p.flush().unwrap();
    drop(p);

    let mut r = Persistent::open(
        build(&engine, &query),
        scratch.path(),
        CheckpointPolicy::Manual,
    )
    .unwrap();
    assert_eq!(r.next_lsn(), 200);
    for op in &ops[200..] {
        r.process_op(op).unwrap();
    }
    assert_eq!(digest(&r.engine().samples()), expect);
}

// ---------------------------------------------------------------------------
// Torn tails
// ---------------------------------------------------------------------------

/// Garbage appended past the last record (a torn in-flight append) is
/// dropped on recovery; the flushed prefix survives intact.
#[test]
fn torn_tail_garbage_is_discarded() {
    let engine = Engine::Reservoir;
    let query = line3();
    let ops = turnstile_ops(&query, 200, 5, 99);
    let expect = uninterrupted_digest(&engine, &query, &ops);
    let scratch = Scratch::new("torn-garbage");
    let mut p = Persistent::open(
        build(&engine, &query),
        scratch.path(),
        CheckpointPolicy::EveryOps(64),
    )
    .unwrap();
    for op in &ops[..150] {
        p.process_op(op).unwrap();
    }
    p.sync().unwrap();
    drop(p);

    // The crash left half an appended record: length prefix + junk.
    let seg = final_segment(scratch.path());
    let mut bytes = fs::read(&seg).unwrap();
    bytes.extend_from_slice(&[0x44, 0x00, 0x00, 0x00, 0xAB, 0xCD, 0xEF]);
    fs::write(&seg, bytes).unwrap();

    let mut r = Persistent::open(
        build(&engine, &query),
        scratch.path(),
        CheckpointPolicy::EveryOps(64),
    )
    .unwrap();
    assert_eq!(r.next_lsn(), 150, "torn bytes must not become ops");
    for op in &ops[150..] {
        r.process_op(op).unwrap();
    }
    assert_eq!(digest(&r.engine().samples()), expect);
}

/// A truncated final segment (the tail of the last record never hit disk)
/// recovers the surviving record prefix; finishing the stream from the
/// recovered LSN still converges on the uninterrupted digest.
#[test]
fn truncated_final_segment_recovers_the_prefix() {
    let engine = Engine::Reservoir;
    let query = line3();
    let ops = turnstile_ops(&query, 200, 5, 55);
    let expect = uninterrupted_digest(&engine, &query, &ops);
    let scratch = Scratch::new("torn-truncate");
    let mut p = Persistent::open(
        build(&engine, &query),
        scratch.path(),
        CheckpointPolicy::EveryOps(64),
    )
    .unwrap();
    for op in &ops[..150] {
        p.process_op(op).unwrap();
    }
    p.sync().unwrap();
    drop(p);

    // Chop 5 bytes off the final segment — the last record is now torn.
    let seg = final_segment(scratch.path());
    let bytes = fs::read(&seg).unwrap();
    fs::write(&seg, &bytes[..bytes.len() - 5]).unwrap();

    let mut r = Persistent::open(
        build(&engine, &query),
        scratch.path(),
        CheckpointPolicy::EveryOps(64),
    )
    .unwrap();
    let recovered = r.next_lsn() as usize;
    assert!(
        (128..150).contains(&recovered),
        "exactly the checkpointed prefix plus whole tail records survive, got {recovered}"
    );
    for op in &ops[recovered..] {
        r.process_op(op).unwrap();
    }
    assert_eq!(digest(&r.engine().samples()), expect);
}

// ---------------------------------------------------------------------------
// Rejections
// ---------------------------------------------------------------------------

/// A checkpoint written by one engine must not restore into another.
#[test]
fn recovery_rejects_checkpoint_from_different_engine() {
    let query = line3();
    let ops = turnstile_ops(&query, 80, 5, 13);
    let scratch = Scratch::new("mismatch");
    let mut p = Persistent::open(
        build(&Engine::Reservoir, &query),
        scratch.path(),
        CheckpointPolicy::Manual,
    )
    .unwrap();
    for op in &ops {
        p.process_op(op).unwrap();
    }
    p.checkpoint().unwrap();
    drop(p);

    let err = Persistent::open(
        build(&Engine::Naive, &query),
        scratch.path(),
        CheckpointPolicy::Manual,
    )
    .err()
    .expect("cross-engine restore must fail");
    assert!(
        matches!(err, PersistError::Engine(ref m) if m.contains("RSJoin")),
        "unexpected error: {err}"
    );
}

/// A log is input from outside the program: replaying one written for a
/// different query is a typed [`PersistError::Engine`] on every engine
/// family, never an unwinding index or arity panic — and the live path
/// rejects a malformed op before it can reach the log at all.
#[test]
fn log_written_for_another_query_is_rejected_not_replayed() {
    let wide = line3();
    let narrow = two_rel();
    let ops = turnstile_ops(&wide, 60, 5, 29);
    assert!(ops.iter().any(|op| op.tuple().relation == 2));
    let scratch = Scratch::new("schema");
    let reopen = || {
        Persistent::open(
            build(&Engine::Reservoir, &wide),
            scratch.path(),
            CheckpointPolicy::Manual,
        )
        .unwrap()
    };
    let mut p = reopen();
    for op in &ops {
        p.process_op(op).unwrap();
    }
    // Malformed live ops: typed error, nothing logged.
    for bad in [
        StreamOp::insert(3, vec![1, 2]),
        StreamOp::delete(0, vec![1, 2, 3]),
    ] {
        assert!(matches!(p.process_op(&bad), Err(PersistError::Engine(_))));
    }
    assert_eq!(p.next_lsn(), ops.len() as u64, "rejected ops were logged");
    p.flush().unwrap();
    drop(p);

    for engine in Engine::ALL {
        let err = Persistent::open(
            build(&engine, &narrow),
            scratch.path(),
            CheckpointPolicy::Manual,
        )
        .err()
        .unwrap_or_else(|| panic!("{engine}: foreign log must not replay"));
        assert!(
            matches!(err, PersistError::Engine(ref m) if m.contains("relation 2")),
            "{engine}: unexpected error: {err}"
        );
    }
    // The rejections left the log intact: its own engine still recovers.
    assert_eq!(
        digest(&reopen().engine().samples()),
        uninterrupted_digest(&Engine::Reservoir, &wide, &ops)
    );
}

/// Checkpointing truncates the log: old segments disappear, and recovery
/// afterwards reads only the fresh segment.
#[test]
fn checkpoint_truncates_the_log() {
    let engine = Engine::Reservoir;
    let query = line3();
    let ops = turnstile_ops(&query, 120, 5, 31);
    let scratch = Scratch::new("truncate");
    let mut p = Persistent::open(
        build(&engine, &query),
        scratch.path(),
        CheckpointPolicy::Manual,
    )
    .unwrap();
    for op in &ops {
        p.process_op(op).unwrap();
    }
    p.flush().unwrap(); // appends are buffered; measure what's on disk
    let before: u64 = fs::read_dir(scratch.path().join("wal"))
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    p.checkpoint().unwrap();
    let after: u64 = fs::read_dir(scratch.path().join("wal"))
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    assert!(
        after < before / 4,
        "checkpoint must truncate the log ({before} -> {after} bytes)"
    );
    drop(p);
    let r = Persistent::open(
        build(&engine, &query),
        scratch.path(),
        CheckpointPolicy::Manual,
    )
    .unwrap();
    assert_eq!(r.next_lsn(), 120, "lsn is global, surviving truncation");
}

// ---------------------------------------------------------------------------
// Hostile images: a sample row of the wrong width
// ---------------------------------------------------------------------------

/// `image` with the length prefix of its last encoded copy of sample
/// `row` rewritten to `claimed` words. The reservoir is the last thing in
/// an image that holds whole rows, so the last copy is the reservoir's.
fn splice_row_length(image: &[u8], row: &[Value], claimed: usize) -> Vec<u8> {
    let needle: Vec<u8> = std::iter::once(row.len() as u64)
        .chain(row.iter().copied())
        .flat_map(u64::to_le_bytes)
        .collect();
    let at = image
        .windows(needle.len())
        .rposition(|w| w == needle)
        .expect("the image holds the sample row, length-prefixed");
    let mut spliced = image.to_vec();
    spliced[at..at + 8].copy_from_slice(&(claimed as u64).to_le_bytes());
    spliced
}

/// A sample row shorter than the query's attribute set used to restore
/// fine and panic at the next delete's eviction scan; a longer one
/// published a ragged epoch payload. Both are corruption now, on every
/// engine that stores sample rows — and the engines that decode their
/// whole image before committing any of it come out untouched.
#[test]
fn sample_row_of_the_wrong_width_is_corruption_on_every_row_storing_engine() {
    let query = line3();
    let ops = turnstile_ops(&query, 160, 4, 23);
    for (engine, atomic) in [
        (Engine::Reservoir, true),
        (Engine::SJoin, true),
        (Engine::FkReservoir, true),
        (Engine::Cyclic, false),
        (Engine::SJoinOpt, true),
    ] {
        let mut live = build(&engine, &query);
        live.apply_ops(&ops).unwrap();
        let image = live.snapshot_state().expect("image");
        let samples = live.samples();
        let row = samples.last().expect("the stream joins");
        for claimed in [row.len() - 1, row.len() + 1] {
            let hostile = splice_row_length(&image, row, claimed);
            let err = build(&engine, &query)
                .restore_state(&hostile)
                .expect_err("ragged image accepted");
            assert!(
                matches!(err, rsjoin::common::CodecError::Corrupt(_)),
                "{engine}: {err}"
            );
            if atomic {
                live.restore_state(&hostile).unwrap_err();
                assert_eq!(live.snapshot_state().as_ref(), Some(&image), "{engine}");
            }
        }
        // The untouched image still restores, and deletes run on it.
        let mut back = build(&engine, &query);
        back.restore_state(&image).unwrap();
        for op in ops.iter().filter(|op| !op.is_delete()) {
            let t = op.tuple();
            back.delete(t.relation, &t.values);
        }
        assert!(back.samples().is_empty(), "{engine}");
    }
}

/// `Relation::restore_from` rebuilds the dedup table from the rows, and
/// the rebuild is also a check of the two things it used to take on
/// trust.
#[test]
fn relation_image_with_a_wrong_live_count_or_a_doubled_row_is_corrupt() {
    use rsjoin::common::codec::{CodecError, Decoder, Encoder};
    use rsjoin::storage::relation::Relation;
    let restore = |rows: &[u64], dead: &[bool], live: usize| {
        let mut e = Encoder::new();
        e.put_str("R");
        e.put_usize(2);
        e.put_u64s(rows);
        e.put_bools(dead);
        e.put_usize(live);
        Relation::restore_from(&mut Decoder::new(e.as_slice()))
    };
    // (1,2) deleted, (3,4) deleted, (1,2) re-inserted: legal.
    let r = restore(&[1, 2, 3, 4, 1, 2], &[true, true, false], 1).unwrap();
    assert_eq!((r.len(), r.num_slots()), (1, 3));
    assert!(r.contains(&[1, 2]) && !r.contains(&[3, 4]));
    // `live` must be the number of untombstoned slots, not merely ≤ it.
    assert_eq!(
        restore(&[1, 2, 3, 4], &[false, true], 2).unwrap_err(),
        CodecError::Corrupt("relation live count disagrees with tombstones")
    );
    // Two live copies of one row: set semantics already broken.
    assert_eq!(
        restore(&[1, 2, 3, 4, 1, 2], &[false, true, false], 2).unwrap_err(),
        CodecError::Corrupt("relation holds one row live twice")
    );
}

/// Offset of the `live` count of relation `name` (arity 2) in an engine
/// image: after the name, the arity, the value arena and the tombstones.
fn live_count_at(image: &[u8], name: &str) -> usize {
    let mut header = (name.len() as u64).to_le_bytes().to_vec();
    header.extend_from_slice(name.as_bytes());
    header.extend_from_slice(&2u64.to_le_bytes());
    let len_at = |at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap()) as usize;
    let arena = image
        .windows(header.len())
        .position(|w| w == header)
        .expect("the image holds the relation")
        + header.len();
    let tombstones = arena + 8 + 8 * len_at(arena);
    tombstones + 8 + len_at(tombstones)
}

/// A relation's `live` count used to be restored on trust (any value up
/// to the slot count), so `total_tuples()` — the `N` every repair
/// threshold is a fraction of — could come back wrong. The dedup rebuild
/// counts the live rows itself: a disagreeing image is corruption, and
/// the engine it was offered to is untouched.
#[test]
fn relation_live_count_is_verified_on_restore() {
    let query = line3();
    let ops = turnstile_ops(&query, 160, 4, 29);
    let mut live = build(&Engine::Reservoir, &query);
    live.apply_ops(&ops).unwrap();
    let image = live.snapshot_state().expect("image");
    let at = live_count_at(&image, "G2");
    let count = u64::from_le_bytes(image[at..at + 8].try_into().unwrap());
    assert!(count > 0 && count < 160, "found the live count: {count}");
    let mut hostile = image.clone();
    hostile[at..at + 8].copy_from_slice(&(count - 1).to_le_bytes());
    let err = live.restore_state(&hostile).unwrap_err();
    assert!(
        matches!(err, rsjoin::common::CodecError::Corrupt(_)),
        "{err}"
    );
    assert_eq!(live.snapshot_state(), Some(image));
}

/// The same splice in a service snapshot: rejected as corruption with
/// the live service — registrations, samples, published epochs — intact.
#[test]
fn service_snapshot_with_a_ragged_sample_row_is_rejected_whole() {
    let query = line3();
    let ops = turnstile_ops(&query, 160, 4, 29);
    let mut svc = SamplerService::new(query.clone());
    let handles = [
        svc.register(&query, &QueryOpts::new(16, 1)).unwrap(),
        svc.register(&query, &QueryOpts::new(8, 2)).unwrap(),
    ];
    for op in &ops {
        svc.process_op(op).unwrap();
    }
    svc.publish();
    let snapshot = |svc: &SamplerService| {
        let mut enc = rsjoin::common::Encoder::new();
        svc.snapshot_to(&mut enc);
        enc.into_bytes()
    };
    let image = snapshot(&svc);
    let before: Vec<_> = handles.iter().map(|&h| svc.samples(h).unwrap()).collect();
    let row = before[1].last().expect("the stream joins");
    for claimed in [row.len() - 1, row.len() + 1] {
        let hostile = splice_row_length(&image, row, claimed);
        let err = svc
            .restore_from_snapshot(&mut rsjoin::common::Decoder::new(&hostile))
            .expect_err("ragged snapshot accepted");
        assert!(
            matches!(err, rsjoin::common::CodecError::Corrupt(_)),
            "{err}"
        );
        assert_eq!(
            snapshot(&svc),
            image,
            "a rejected restore changed the service"
        );
        for (&h, want) in handles.iter().zip(&before) {
            assert_eq!(&svc.samples(h).unwrap(), want);
            assert_eq!(&svc.reader(h).unwrap().snapshot().samples, want);
        }
    }
}

/// A service image carries every member's registration id and the next id
/// to hand out. An id at or past that next id, or one that repeats, would let
/// `register` hand out a live handle a second time — and `deregister` of
/// either copy remove the other's member. Both are corruption, rejected
/// with the receiver untouched.
#[test]
fn service_snapshot_that_could_hand_out_a_live_handle_twice_is_rejected_whole() {
    use rsjoin::common::{CodecError, Decoder, Encoder};
    let query = line3();
    let snapshot = |svc: &SamplerService| {
        let mut enc = Encoder::new();
        svc.snapshot_to(&mut enc);
        enc.into_bytes()
    };
    let u64_at =
        |image: &[u8], at: usize| u64::from_le_bytes(image[at..at + 8].try_into().unwrap());
    let first = QueryOpts::new(8, 1);
    let mut second = QueryOpts::new(4, 7);
    second.index = IndexOptions { grouping: false };
    let ops = turnstile_ops(&query, 80, 4, 31);
    let mut svc = SamplerService::new(query.clone());
    let shared = svc.register(&query, &first).unwrap();
    for op in &ops {
        svc.process_op(op).unwrap();
    }
    // The store image comes first; `next_id` is the word right after it.
    let mut store = Encoder::new();
    svc.store().snapshot_to(&mut store);
    let next_id_at = store.as_slice().len();
    let one_member = snapshot(&svc);
    assert_eq!(u64_at(&one_member, next_id_at), 2);
    let mut past_next = one_member.clone();
    past_next[next_id_at..next_id_at + 8].copy_from_slice(&1u64.to_le_bytes());

    // A second member, in a second group, gets id 2. Its id is tagged
    // inside its group's image: a twin whose second member got id 3 (a
    // registration came and went first) differs from this image only in
    // `next_id` and that tag, which locates it.
    svc.register(&query, &second).unwrap();
    let two_members = snapshot(&svc);
    let mut twin = SamplerService::new(query.clone());
    twin.register(&query, &first).unwrap();
    for op in &ops {
        twin.process_op(op).unwrap();
    }
    let gone = twin.register(&query, &first).unwrap();
    twin.deregister(gone).unwrap();
    twin.register(&query, &second).unwrap();
    let twin_image = snapshot(&twin);
    assert_eq!(twin_image.len(), two_members.len());
    let differ: Vec<usize> = (0..two_members.len())
        .filter(|&i| two_members[i] != twin_image[i])
        .collect();
    assert_eq!(differ.len(), 2, "only the next id and one tag differ");
    assert_eq!(differ[0], next_id_at);
    let tag_at = differ[1];
    assert_eq!(
        (u64_at(&two_members, tag_at), u64_at(&twin_image, tag_at)),
        (2, 3)
    );
    let mut repeated = two_members.clone();
    repeated[tag_at..tag_at + 8].copy_from_slice(&1u64.to_le_bytes());

    for hostile in [&past_next, &repeated] {
        let err = svc
            .restore_from_snapshot(&mut Decoder::new(hostile))
            .expect_err("an image that hands out a live handle twice was accepted");
        assert_eq!(
            err,
            CodecError::Corrupt("registration id repeats or is not below the next id")
        );
        assert_eq!(
            snapshot(&svc),
            two_members,
            "a rejected restore changed the service"
        );
    }
    // The untouched images restore, and the next registration is new.
    for image in [&one_member, &two_members] {
        svc.restore_from_snapshot(&mut Decoder::new(image)).unwrap();
        let before = svc.handles();
        let fresh = svc.register(&query, &QueryOpts::new(8, 1)).unwrap();
        assert!(!before.contains(&fresh), "{fresh:?} handed out twice");
        svc.deregister(fresh).unwrap();
        assert_eq!(svc.handles(), before);
        assert!(svc.registered(shared));
    }
}

/// Image `a` cut at `len − 1`, `len − 9` and `len / 2`, and with one
/// trailing byte.
fn mangled(a: &[u8]) -> Vec<Vec<u8>> {
    let mut cuts: Vec<Vec<u8>> = [a.len() - 1, a.len() - 9, a.len() / 2]
        .map(|n| a[..n].to_vec())
        .into();
    cuts.push([a, &[0]].concat());
    cuts
}

/// A restore that returns `Err` changes nothing. Image A, mangled, is
/// restored into a receiver holding image B: every engine and the service
/// must reject it and still hold B, byte for byte — whether the image
/// stops short (the reader fails midway) or runs on (every reader
/// succeeds and only the end check fails).
#[test]
fn a_failed_restore_leaves_the_receiver_as_it_was() {
    use rsjoin::core::Durable;
    for (engine, query) in recovery_engines() {
        let run = |seed: u64| {
            let mut s = build(&engine, &query);
            for op in &turnstile_ops(&query, 200, 6, seed) {
                s.process_op(op).unwrap();
            }
            s
        };
        let a = run(1).snapshot_state().unwrap();
        let mut receiver = run(2);
        let b = receiver.snapshot_state().unwrap();
        assert_ne!(a, b, "{engine}: the two streams must differ");
        for hostile in mangled(&a) {
            let len = hostile.len();
            assert!(
                receiver.restore_state(&hostile).is_err(),
                "{engine}: {len} bytes"
            );
            assert!(
                receiver.snapshot_state().unwrap() == b,
                "{engine}: a failed restore of {len} bytes changed the receiver"
            );
        }
    }

    // A capacity word no buffer can hold is rejected before anything is
    // allocated for it: the symmetric join's reservoir capacity, patched
    // to 2^62 - 1, used to panic or abort the process.
    let (query, k) = (two_rel(), 4099);
    let run = |seed: u64| {
        let opts = EngineOpts::default();
        let mut s = Engine::Symmetric
            .build(&query, k, 0xD15EA5E, &opts)
            .unwrap();
        for op in &turnstile_ops(&query, 200, 6, seed) {
            s.process_op(op).unwrap();
        }
        s
    };
    let mut hostile = run(1).snapshot_state().unwrap();
    let mut receiver = run(2);
    let b = receiver.snapshot_state().unwrap();
    let word = (k as u64).to_le_bytes();
    let at: Vec<usize> = (hostile.windows(8).enumerate())
        .filter_map(|(i, w)| (w == word).then_some(i))
        .collect();
    assert_eq!(
        at.len(),
        1,
        "the capacity word is the only {k} in the image"
    );
    hostile[at[0]..at[0] + 8].copy_from_slice(&(u64::MAX >> 2).to_le_bytes());
    assert!(receiver.restore_state(&hostile).is_err());
    assert!(
        receiver.snapshot_state().unwrap() == b,
        "symmetric: a failed restore of a huge capacity changed the receiver"
    );

    let query = line3();
    let run = |seed: u64| {
        let mut ungrouped = QueryOpts::new(8, 2);
        ungrouped.index = IndexOptions { grouping: false };
        let mut svc = SamplerService::new(query.clone());
        svc.register(&query, &QueryOpts::new(8, 1)).unwrap();
        svc.register(&query, &ungrouped).unwrap();
        for op in &turnstile_ops(&query, 200, 6, seed) {
            svc.process_op(op).unwrap();
        }
        svc
    };
    let image = |svc: &SamplerService| {
        let mut enc = rsjoin::common::codec::Encoder::new();
        svc.image_to(&mut enc);
        enc.into_bytes()
    };
    let a = image(&run(1));
    let mut receiver = run(2);
    let b = image(&receiver);
    for hostile in mangled(&a) {
        let len = hostile.len();
        assert!(Durable::restore(&mut receiver, &hostile).is_err());
        assert!(
            image(&receiver) == b,
            "service: a failed restore of {len} bytes changed the receiver"
        );
    }
    Durable::restore(&mut receiver, &a).unwrap();
}

// ---------------------------------------------------------------------------
// Foreign-key engines: primary keys and combiner images
// ---------------------------------------------------------------------------

/// `F(K, M) ⋈ D(K, L)` with `D`'s primary key `K`: the combiner folds `D`
/// into `F`, so every `D` insert binds a key.
fn fk_engine(engine: &Engine) -> (Query, BoxedSampler) {
    let mut qb = QueryBuilder::new();
    qb.relation("F", &["K", "M"]);
    qb.relation("D", &["K", "L"]);
    let query = qb.build().unwrap();
    let opts = EngineOpts {
        fks: Some(FkSchema::none(2).with_pk(1, vec![0])),
        ..EngineOpts::default()
    };
    let s = engine.build(&query, 16, 0xD15EA5E, &opts).unwrap();
    (query, s)
}

/// A dimension insert that binds a bound primary key to a different tuple
/// used to be logged and then panic the engine, so every later open of
/// the directory panicked in replay. It is a typed rejection now, checked
/// before the op is logged, on every path an op enters by.
#[test]
fn conflicting_primary_key_is_rejected_before_it_is_logged() {
    let conflict = StreamOp::insert(1, vec![7, 200]);
    let ops = [
        StreamOp::insert(1, vec![7, 100]),
        StreamOp::insert(0, vec![7, 1]),
        StreamOp::insert(1, vec![7, 100]), // identical: an idempotent no-op
    ];
    for engine in [Engine::FkReservoir, Engine::SJoinOpt] {
        let scratch = Scratch::new("pk");
        let open = || {
            let (_, s) = fk_engine(&engine);
            Persistent::open(s, scratch.path(), CheckpointPolicy::Manual).unwrap()
        };
        let mut p = open();
        for op in &ops {
            p.process_op(op).unwrap();
        }
        let image = p.engine().snapshot_state();
        let err = p.process_op(&conflict).unwrap_err();
        assert!(
            matches!(err, PersistError::Engine(ref m) if m.contains("primary key")),
            "{engine}: {err}"
        );
        assert_eq!(
            p.next_lsn(),
            ops.len() as u64,
            "{engine}: the conflict was logged"
        );
        assert_eq!(p.engine().snapshot_state(), image, "{engine}");
        p.flush().unwrap();
        drop(p);
        let mut r = open();
        assert_eq!(r.next_lsn(), ops.len() as u64, "{engine}");
        assert_eq!(r.engine().snapshot_state(), image, "{engine}");
        // Freeing the key first makes the same insert legal, in one batch too.
        let rebind = [StreamOp::delete(1, vec![7, 100]), conflict.clone()];
        let (_, mut bare) = fk_engine(&engine);
        bare.apply_ops(&ops).unwrap();
        let before = bare.snapshot_state();
        let rejected = Err(SharedStoreError::PrimaryKeyConflict(1));
        assert_eq!(bare.process_op(&conflict), rejected, "{engine}");
        assert_eq!(bare.apply_ops(&[rebind[1].clone()]), rejected);
        assert_eq!(bare.snapshot_state(), before, "{engine}: rejection applied");
        bare.apply_ops(&rebind).unwrap();
        for op in &rebind {
            r.process_op(op).unwrap();
        }
        assert_eq!(r.engine().snapshot_state(), bare.snapshot_state());
        assert_eq!(bare.samples_named().len(), 1, "{engine}");
    }
}

/// A combiner image lists every live fact in the registry its walk puts
/// it in. An image that files a fact anywhere else used to restore, and
/// the next retraction of that fact panicked. Each such image is
/// corruption now, and so is any image whose inner engine image fails
/// after the combiner's decoded: the receiver is left as it was.
#[test]
fn combiner_image_that_misfiles_a_fact_is_rejected_whole() {
    let ops = [
        StreamOp::insert(1, vec![7, 70]),
        StreamOp::insert(1, vec![8, 80]),
        StreamOp::insert(0, vec![7, 1]), // fact 0: passes D(7)
        StreamOp::insert(0, vec![8, 2]), // fact 1: passes D(8)
        StreamOp::insert(0, vec![9, 3]), // fact 2: waits on K = 9
        StreamOp::insert(0, vec![7, 4]), // fact 3 ...
        StreamOp::delete(0, vec![7, 4]), // ... dead
    ];
    // The registry, its lists end to end: D(7)'s consumers, D(8)'s, then
    // the facts waiting on K = 9.
    let registry = |ids: &[u32]| -> Vec<u8> {
        (ids.iter().chain(&[u32::MAX]))
            .flat_map(|f| f.to_le_bytes())
            .collect()
    };
    let good = registry(&[0, 1, 2]);
    let hostile = [
        ("key swapped", registry(&[1, 0, 2])),
        ("id listed twice", registry(&[0, 0, 1, 2])),
        ("dead id listed", registry(&[0, 3, 1, 2])),
        ("fact missing from passed", registry(&[1, 2])),
    ];
    for engine in [Engine::FkReservoir, Engine::SJoinOpt] {
        let (_, mut live) = fk_engine(&engine);
        live.apply_ops(&ops).unwrap();
        let image = live.snapshot_state().unwrap();
        let at = image
            .windows(good.len())
            .position(|w| w == good)
            .expect("the image holds the registry");
        assert!(!image[at + 1..].windows(good.len()).any(|w| w == good));
        // Move the receiver on, so "unchanged" cannot mean "restored".
        live.process_op(&StreamOp::insert(1, vec![9, 90])).unwrap();
        let current = live.snapshot_state();
        for (case, bytes) in &hostile {
            let mut bad = image[..at].to_vec();
            bad.extend_from_slice(bytes);
            bad.extend_from_slice(&image[at + good.len()..]);
            let err = live.restore_state(&bad).unwrap_err();
            assert!(
                matches!(err, rsjoin::common::CodecError::Corrupt(_)),
                "{engine}, {case}: {err}"
            );
            assert_eq!(live.snapshot_state(), current, "{engine}, {case}");
        }
        // A sound combiner image followed by a broken inner one.
        live.restore_state(&image[..image.len() - 1]).unwrap_err();
        assert_eq!(live.snapshot_state(), current, "{engine}: inner failure");
        // The untouched image restores, and retracts every fact it lists.
        live.restore_state(&image).unwrap();
        for f in [[7, 1], [8, 2], [9, 3]] {
            live.delete(0, &f);
        }
        assert_eq!(live.stats().deletes, Some(4), "{engine}");
    }
}
