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

use rsjoin::engine::Engine;
use rsjoin::prelude::*;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Scratch dirs (no tempfile dependency) and digesting
// ---------------------------------------------------------------------------

static SCRATCH_ID: AtomicU64 = AtomicU64::new(0);

/// Self-cleaning scratch directory under the system temp dir.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let id = SCRATCH_ID.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("rsj-recovery-{tag}-{}-{id}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// FNV-1a over the sample matrix, in reservoir order — same digest the
/// golden-determinism suite pins, so "equal digests" means "identical
/// reservoir bytes".
fn digest(samples: &[Vec<Value>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(samples.len() as u64);
    for s in samples {
        eat(s.len() as u64);
        for &v in s {
            eat(v);
        }
    }
    h
}

// ---------------------------------------------------------------------------
// Turnstile workloads
// ---------------------------------------------------------------------------

fn line3() -> Query {
    let mut qb = QueryBuilder::new();
    qb.relation("G1", &["A", "B"]);
    qb.relation("G2", &["B", "C"]);
    qb.relation("G3", &["C", "D"]);
    qb.build().unwrap()
}

fn two_rel() -> Query {
    let mut qb = QueryBuilder::new();
    qb.relation("R", &["x", "y"]);
    qb.relation("S", &["y", "z"]);
    qb.build().unwrap()
}

/// Mixed insert/delete stream: every op either inserts a random tuple or
/// (1 in 4) deletes a currently-live one, so replay exercises the repair
/// paths, not just appends.
fn turnstile_ops(query: &Query, n_ops: usize, domain: u64, seed: u64) -> Vec<StreamOp> {
    let mut rng = RsjRng::seed_from_u64(seed);
    let nrels = query.num_relations();
    let mut live: Vec<(usize, Vec<Value>)> = Vec::new();
    let mut live_set: rsjoin::common::FxHashSet<(usize, Vec<Value>)> = Default::default();
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        if !live.is_empty() && rng.below_u64(4) == 0 {
            let j = rng.index(live.len());
            let (rel, t) = live.swap_remove(j);
            live_set.remove(&(rel, t.clone()));
            ops.push(StreamOp::delete(rel, t));
        } else {
            let rel = rng.index(nrels);
            let arity = query.relation(rel).attrs.len();
            let t: Vec<Value> = (0..arity).map(|_| rng.below_u64(domain)).collect();
            if live_set.insert((rel, t.clone())) {
                live.push((rel, t.clone()));
            }
            ops.push(StreamOp::insert(rel, t));
        }
    }
    ops
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
        (Engine::sharded(Engine::Reservoir, 2), line3()),
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

fn final_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    segs.sort();
    segs.pop().expect("wal has at least one segment")
}

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

    let mut engines: Vec<Engine> = Engine::ALL.to_vec();
    engines.push(Engine::sharded(Engine::Reservoir, 2));
    for engine in engines {
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
        (Engine::FkReservoir, false),
        (Engine::Cyclic, false),
        (Engine::SJoinOpt, false),
    ] {
        let mut live = build(&engine, &query);
        live.process_op_batch(&ops).unwrap();
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
    live.process_op_batch(&ops).unwrap();
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
        svc.snapshot_to(&mut enc).unwrap();
        enc.into_bytes()
    };
    let image = snapshot(&svc);
    let before: Vec<_> = handles.iter().map(|&h| svc.samples(h).unwrap()).collect();
    let row = before[1].last().expect("the stream joins");
    for claimed in [row.len() - 1, row.len() + 1] {
        let hostile = splice_row_length(&image, row, claimed);
        let err = svc
            .restore_from_snapshot(&mut rsjoin::common::Decoder::new(&hostile), &mut |_, _| {
                None
            })
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
