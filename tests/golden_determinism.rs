//! Golden-determinism guard: fixed seed + fixed stream ⇒ byte-identical
//! final reservoirs.
//!
//! The dynamic index promises that internal layout changes (hash tables,
//! posting arenas, batching) are invisible to the sampling distribution:
//! group and item ids are arrival-ordered and retrieval is positional, so
//! for a fixed seed the reservoir must come out byte-for-byte identical no
//! matter how the index stores its postings. These digests were recorded
//! from the pre-arena implementation (tiny per-key `Vec` posting lists,
//! std `FxHashMap`s, per-tree re-hashing); any future layout change that
//! shifts them is changing *samples*, not just memory layout, and must be
//! treated as a correctness bug, not a test update.
//!
//! A deliberate change to the sampling stream moves them on purpose, in a
//! commit that changes only the pins. The `RSJoin`-family pins moved once
//! that way: when a dummy stop began passing its whole dummy run, so the
//! skip phase draws one skip per run instead of one per dummy (same law,
//! fewer draws). The `SJoin`/`SJoin_opt` and WAL segment pins did not
//! move.

use rsj_testutil::digest;
use rsjoin::engine::{run_workload, workload_opts, Engine};
use rsjoin::prelude::*;

/// Zipf-skewed graph stream: line-3, heavy hubs, duplicates included.
fn graph_workload() -> rsj_queries::Workload {
    let edges = rsj_datagen::GraphConfig {
        nodes: 300,
        edges: 2400,
        zipf: 0.8,
        seed: 4242,
    }
    .generate();
    rsj_queries::line_k(3, &edges, 7)
}

/// QY over tpcds-lite: wide tuples (groupable nodes) and a real FK schema,
/// so the grouped arena and the foreign-key combiner are both on the path.
fn relational_workload() -> rsj_queries::Workload {
    let data = rsj_datagen::TpcdsLite::generate(1, 99);
    rsj_queries::qy(&data, 31)
}

fn run(w: &rsj_queries::Workload, engine: Engine) -> u64 {
    let sampler = run_workload(w, &engine, 64, 0xD15EA5E).unwrap();
    digest(&sampler.samples())
}

#[test]
fn rsjoin_reservoir_bytes_are_pinned() {
    assert_eq!(
        run(&graph_workload(), Engine::Reservoir),
        0x8EC1_DD70_342F_C997,
        "RSJoin/line3"
    );
}

#[test]
fn rsjoin_grouped_reservoir_bytes_are_pinned() {
    assert_eq!(
        run(&relational_workload(), Engine::Reservoir),
        0xDCC3_2A43_07F8_2DB3,
        "RSJoin/QY"
    );
}

#[test]
fn rsjoin_opt_reservoir_bytes_are_pinned() {
    assert_eq!(
        run(&relational_workload(), Engine::FkReservoir),
        0xE526_C134_7CA6_0216,
        "RSJoin_opt/QY"
    );
}

/// On an acyclic query every GHD bag is a single relation, so the cyclic
/// engine's bag-level RSJoin sees RSJoin's arrivals and lands on its bytes.
#[test]
fn cyclic_reservoir_bytes_are_pinned() {
    assert_eq!(
        run(&graph_workload(), Engine::Cyclic),
        0x8EC1_DD70_342F_C997,
        "RSJoin_cyclic/line3"
    );
}

/// Star-4 with `k` four times the stream (the paper's `k > N` regime,
/// Fig. 8): every node is grouped on its hub value, and stops dominate.
/// Besides the samples this pins how many positions the reservoir stopped
/// at and how many of those replaced a sample, so a faster stop path must
/// stop, and write, exactly where this one does. A dummy stop passes its
/// whole dummy run: 150 198 stops, where stopping at every dummy took
/// 284 668 (178 368 of them on dummies). Both counters are read from the
/// engine's image: its last
/// eight words are the reservoir's stops and replacements, the repair RNG
/// (four words) and the insert and delete counters.
#[test]
fn star4_bigk_reservoir_bytes_are_pinned() {
    let edges = rsj_datagen::GraphConfig {
        nodes: 150,
        edges: 750,
        zipf: 1.0,
        seed: 4545,
    }
    .generate();
    let w = rsj_queries::star_k(4, &edges, 46);
    let sampler = run_workload(&w, &Engine::Reservoir, 4 * w.stream.len(), 0xD15EA5E).unwrap();
    let image = sampler.snapshot_state().expect("RSJoin has an image");
    let word = |from_end: usize| {
        let at = image.len() - 8 * from_end;
        u64::from_le_bytes(image[at..at + 8].try_into().unwrap())
    };
    let (stops, replacements) = (word(8), word(7));
    assert_eq!(Some(stops), sampler.stats().reservoir_stops, "image layout");
    let d = digest(&sampler.samples());
    if std::env::var_os("RSJ_PIN_PLANS").is_some() {
        println!("star-4: 0x{d:016X} stops {stops} replacements {replacements}");
        return;
    }
    assert_eq!(
        (d, stops, replacements),
        (0x54B6_F189_659B_9DC8, 150_198, 94_159),
        "RSJoin/star-4, k = 4N: samples, stops, replacements"
    );
}

/// Runs `engine` over `w`'s preload, then its stream woven with 20 %
/// uniform deletes (seed 9).
fn run_turnstile(w: &rsj_queries::Workload, engine: Engine) -> Box<dyn JoinSampler + Send> {
    use rsj_datagen::{TurnstileConfig, VictimPolicy};
    let mut s = engine
        .build(&w.query, 64, 0xD15EA5E, &workload_opts(w))
        .unwrap();
    for t in &w.preload {
        s.process(t.relation, &t.values);
    }
    let ops = TurnstileConfig {
        delete_ratio: 0.2,
        policy: VictimPolicy::Uniform,
        seed: 9,
    }
    .weave(&w.stream);
    assert!(ops.num_deletes() > 0, "{engine}: weave produced no deletes");
    s.apply_ops(ops.ops()).unwrap();
    s
}

/// FNV-1a over raw bytes.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Post-delete reservoirs are golden too: the signed delta pipelines
/// (`_opt` FK combiner retraction, cyclic bag delta forwarding) and the
/// eviction-and-backfill repair they feed are all deterministic for a
/// fixed seed, so a fixed turnstile weave pins the final bytes exactly
/// like the insert-only digests above. A shift here means the *delete*
/// path changed samples; the insert-only pins would not catch it.
///
/// All four moved together once, on purpose: when every delete became a
/// repair point and the skip-state redraw became one Beta draw (the RSJoin
/// family then recalibrates at every delete, `SJoin_opt` draws its
/// recalibration differently). The insert-only pins did not move. The
/// three `RSJoin`-family ones moved again when a dummy stop began passing
/// its dummy run; `SJoin_opt`'s did not.
#[test]
fn post_delete_reservoirs_are_pinned() {
    let cases: [(&str, rsj_queries::Workload, Engine, u64); 4] = [
        (
            "RSJoin_opt/line3+deletes",
            graph_workload(),
            Engine::FkReservoir,
            0x0954_2040_E5A5_2057,
        ),
        (
            "RSJoin_cyclic/line3+deletes",
            graph_workload(),
            Engine::Cyclic,
            0x0954_2040_E5A5_2057,
        ),
        (
            "SJoin_opt/line3+deletes",
            graph_workload(),
            Engine::SJoinOpt,
            0x09AB_018A_FAD6_0F4F,
        ),
        (
            "RSJoin_opt/QY+deletes",
            relational_workload(),
            Engine::FkReservoir,
            0xE0FB_0124_3F15_ABA9,
        ),
    ];
    for (name, w, engine, expect) in cases {
        let d = digest(&run_turnstile(&w, engine).samples());
        if std::env::var_os("RSJ_PIN_PLANS").is_some() {
            println!("{name}: 0x{d:016X}");
            continue;
        }
        assert_eq!(d, expect, "{name}: post-delete reservoir bytes moved");
    }
}

/// The rewriting engines' state images are golden too. Each is the
/// rewrite's image (the foreign-key combiner's registries, or the GHD bag
/// tries and counters) followed by the inner engine's, so these pin both
/// halves and their order; the durability pins below cover only `RSJoin`.
/// A digest shift here is a snapshot wire-format change and falls under
/// the format-version bump rule below — unless, like the dummy-run
/// re-pin, the samples and counters it carries moved while the layout did
/// not.
#[test]
fn rewriting_engine_images_are_pinned() {
    let cases: [(&str, Box<dyn JoinSampler + Send>, u64); 3] = [
        (
            "RSJoin_opt/QY",
            run_workload(&relational_workload(), &Engine::FkReservoir, 64, 0xD15EA5E).unwrap(),
            0x1103_4F14_1C50_AF67,
        ),
        (
            "RSJoin_cyclic/line3+deletes",
            run_turnstile(&graph_workload(), Engine::Cyclic),
            0xA17C_E32D_0701_1284,
        ),
        (
            "SJoin_opt/line3+deletes",
            run_turnstile(&graph_workload(), Engine::SJoinOpt),
            0xDBA3_0E2D_9673_0BB2,
        ),
    ];
    for (name, s, expect) in cases {
        let d = fnv(&s.snapshot_state().expect("every engine has an image"));
        if std::env::var_os("RSJ_PIN_PLANS").is_some() {
            println!("{name}: 0x{d:016X}");
            continue;
        }
        assert_eq!(d, expect, "{name}: state image moved");
    }
}

/// On-disk durability images are golden too: the WAL segment and the
/// checkpoint written for a fixed engine/seed/stream must be
/// byte-identical across releases, or old logs stop being replayable.
///
/// **Format-version bump rule**: these digests pin WAL/checkpoint
/// `FORMAT_VERSION = 9` (crates/storage/src/wal.rs) *and* every engine's
/// canonical snapshot image. Any deliberate change to the record layout,
/// the checkpoint layout, or a snapshot wire format MUST (1) bump
/// `FORMAT_VERSION` so old files are rejected loudly instead of
/// misparsed, and (2) re-pin these digests in the same commit, with a
/// migration note. A digest shift without a version bump is a corruption
/// bug, not a test update.
///
/// **Migration note, 1 → 2**: `KeyMap` images gained a layout byte, tags
/// shrank to 4 bytes and narrow (arity ≤ 1) tables write bare `u64` keys;
/// `Relation` images dropped the dedup table, which restore now rebuilds.
/// The segment digest moved only through the version word in its header —
/// the record encoding is unchanged. v1 files are rejected with the
/// version error; there is no in-place upgrade, a v1 directory is
/// re-ingested from its source stream.
///
/// **Migration note, 2 → 3**: `RSJoin`-family engine images (`RSJoin`,
/// `RSJoin_opt`'s inner driver, the cyclic driver's bag-level driver, and
/// every image embedding one — boxed service members) now
/// use the index-group layout the sampler service already wrote per group:
/// grouping flag, join tree, index state, member count, then the member's
/// plan, reservoir, repair RNG and counters, followed by the driver's
/// rebuild count and last replan checkpoint. v2 wrote the plan first and
/// the counters in a driver-specific order. The service's own group
/// framing is unchanged. The checkpoint digest moved for that reason; the
/// segment digest moved only through the version word in its header — WAL
/// record encoding is unchanged. v2 files are rejected with the version
/// error, like v1.
///
/// **Migration note, 3 → 4**: only the foreign-key combiner image in
/// front of `RSJoin_opt` and `SJoin_opt` changed — fact and dimension
/// `Relation` images plus the registry lists in list order, instead of
/// full accumulated tuples, a fact slab and sorted dimension lists. The
/// pinned images below are `RSJoin`'s, so both digests moved only through
/// the version word in their headers (checked by bumping the version
/// alone on the v3 code: same two digests). v3 files are rejected with the
/// version error, like v1 and v2.
///
/// **Migration note, 4 → 5**: a sharded image now holds each worker's
/// engine bytes alone; v4 followed each with the shard's live-tuple
/// copy. No pinned image is a sharded one, so both digests moved only
/// through the version word in their headers (checked by bumping the
/// version alone on the v4 code: same two digests). v4 files are rejected
/// with the version error, like every older version.
///
/// **Migration note, 5 → 6**: an index-group member's image ends at its
/// insert and delete counters; v5 followed them with the last repair
/// point's population and the deletes since, which existed only to space
/// repair points out — every delete is one now. The pinned stream deletes,
/// so the checkpoint digest moved for that reason and because each delete
/// now recalibrates (the `O(1)` Beta redraw draws the repair RNG
/// differently from the order-statistics chain). The segment digest moved
/// only through the version word in its header (checked by bumping the
/// version alone on the v5 code: same segment digest, 0x7499CEDF0F87DEB2).
/// v5 files are rejected with the version error, like every older version.
///
/// **Migration note, 6 → 7**: a posting list of at most two items keeps
/// them in its header words and owns no chunk, so `PostingArena` images
/// carry fewer chunks and less slack, and a short list's header words are
/// items, not chunk ids. The checkpoint digest moved for that reason. The
/// segment digest moved only through the version word in its header
/// (checked by bumping the version alone on the v6 code: same segment
/// digest, 0x4B6256F957840053). v6 files are rejected with the version
/// error, like every older version.
///
/// **Migration note, 7 → 8**: a plan image, which every `RSJoin`-family
/// image embeds, no longer carries a partition attribute (it served only
/// the partition-parallel executor, which was removed). The checkpoint
/// digest moved for that reason. The segment digest moved only through
/// the version word in its header (checked by bumping the version alone
/// on the v7 code: same segment digest, 0xDE69A663F85E9F28). v7 files are
/// rejected with the version error, like every older version.
///
/// **Migration note, 8 → 9**: a service image ends at its index groups;
/// v8 followed them with a count of boxed (non-shared) members and their
/// engine images, and that member kind is gone. The pinned images are
/// `RSJoin`'s, so both digests moved only through the version word in
/// their headers (checked by bumping the version alone on the v8 code:
/// same two digests). v8 files are rejected with the version error, like
/// every older version.
///
/// **Re-pin without a bump, still 9**: the checkpoint digest moved when a
/// dummy stop began passing its whole dummy run. That is a deliberate
/// change to the sampling stream, not a layout change: the checkpoint
/// carries other samples, skip state and stop counters in the v9 layout,
/// so v9 files stay readable and `FORMAT_VERSION` stays 9. The segment
/// digest did not move.
///
/// **Migration note, 9 → 10**: plans are fixed at build time, so an
/// `RSJoin` image ends at its index group — v9 followed it with the
/// driver's rebuild count and last replan checkpoint — and a plan image,
/// which every index-group member embeds, is its tree and root alone — v9
/// followed them with four cost scores, a candidate count and a canonical
/// flag. The checkpoint digest and the `RSJoin_opt` and `RSJoin_cyclic`
/// image pins moved for that reason; the `SJoin_opt` image pin did not.
/// The segment digest moved only through the version word in its header
/// (checked by bumping the version alone on the v9 code: same segment
/// digest, 0x85FD7EB28FC72FC6). v9 files are rejected with the version
/// error, like every older version.
#[test]
fn durability_images_are_pinned() {
    use rsjoin::prelude::{CheckpointPolicy, Persistent};

    let file_digest = |path: std::path::PathBuf| fnv(&std::fs::read(path).unwrap());
    let (query, ops) = durability_stream();

    let dir = std::env::temp_dir().join(format!("rsj-golden-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::Reservoir;
    let mut p = Persistent::open(
        engine
            .build(&query, 16, 0xD15EA5E, &Default::default())
            .unwrap(),
        &dir,
        CheckpointPolicy::Manual,
    )
    .unwrap();
    for op in &ops[..100] {
        p.process_op(op).unwrap();
    }
    p.checkpoint().unwrap(); // checkpoint @ lsn 100, log truncated
    for op in &ops[100..] {
        p.process_op(op).unwrap();
    }
    p.flush().unwrap();
    drop(p);

    let checkpoint = file_digest(dir.join("checkpoint.rsjc"));
    // After truncation the live segment is wal-00000001.log, holding ops
    // 100..120.
    let segment = file_digest(dir.join("wal").join("wal-00000001.log"));
    std::fs::remove_dir_all(&dir).unwrap();
    if std::env::var_os("RSJ_PIN_PLANS").is_some() {
        println!("checkpoint: 0x{checkpoint:016X}\nsegment: 0x{segment:016X}");
        return;
    }
    assert_eq!(
        checkpoint, 0xE950_0D0D_E298_6343,
        "checkpoint image moved — see the format-version bump rule above"
    );
    assert_eq!(
        segment, 0x85FD_7EB2_8FC7_2FC6,
        "WAL segment image moved — see the format-version bump rule above"
    );
}

/// The fixed turnstile stream both durability pins log: 120 ops over
/// line-3, inserts with every 5th op deleting the tuple inserted four ops
/// earlier.
fn durability_stream() -> (Query, Vec<StreamOp>) {
    let mut qb = QueryBuilder::new();
    qb.relation("G1", &["A", "B"]);
    qb.relation("G2", &["B", "C"]);
    qb.relation("G3", &["C", "D"]);
    let query = qb.build().unwrap();
    let mut rng = RsjRng::seed_from_u64(0x90_1D);
    let mut ops: Vec<StreamOp> = Vec::new();
    let mut recent: Vec<(usize, Vec<Value>)> = Vec::new();
    for i in 0..120usize {
        if i % 5 == 4 {
            let (rel, t) = recent.remove(0);
            ops.push(StreamOp::delete(rel, t));
        } else {
            let rel = rng.index(3);
            let t = vec![rng.below_u64(6), rng.below_u64(6)];
            recent.push((rel, t.clone()));
            ops.push(StreamOp::insert(rel, t));
        }
    }
    (query, ops)
}

/// The service checkpoint is pinned beside the engine one: the same
/// stream through a durable `SamplerService` with two index groups (a
/// grouped and an ungrouped registration), checkpointed at op 100. The
/// service image frames its store, groups and member cores, so a change
/// to how a checkpoint is framed or checksummed shows here too.
#[test]
fn service_durability_images_are_pinned() {
    let file_digest = |path: std::path::PathBuf| fnv(&std::fs::read(path).unwrap());
    let (query, ops) = durability_stream();

    let dir = std::env::temp_dir().join(format!(
        "rsj-golden-service-durability-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut p = PersistentService::open(
        SamplerService::new(query.clone()),
        &dir,
        CheckpointPolicy::Manual,
        &mut |_, _| None,
    )
    .unwrap();
    let mut ungrouped = QueryOpts::new(16, 7);
    ungrouped.index = IndexOptions { grouping: false };
    p.service_mut()
        .register(&query, &QueryOpts::new(16, 0xD15EA5E))
        .unwrap();
    p.service_mut().register(&query, &ungrouped).unwrap();
    for op in &ops[..100] {
        p.process_op(op).unwrap();
    }
    p.checkpoint().unwrap(); // checkpoint @ lsn 100, log truncated
    for op in &ops[100..] {
        p.process_op(op).unwrap();
    }
    p.flush().unwrap();
    drop(p);

    let checkpoint = file_digest(dir.join("checkpoint.rsjc"));
    // The segment holds ops 100..120 alone, so it matches the engine pin.
    let segment = file_digest(dir.join("wal").join("wal-00000001.log"));
    std::fs::remove_dir_all(&dir).unwrap();
    if std::env::var_os("RSJ_PIN_PLANS").is_some() {
        println!("service checkpoint: 0x{checkpoint:016X}\nservice segment: 0x{segment:016X}");
        return;
    }
    assert_eq!(
        checkpoint, 0xA183_1221_E156_FE6E,
        "service checkpoint image moved — see the format-version bump rule above"
    );
    assert_eq!(
        segment, 0x85FD_7EB2_8FC7_2FC6,
        "service WAL segment image moved — see the format-version bump rule above"
    );
}

/// The turnstile machinery must be invisible to insert-only runs: driving
/// the identical insert-only stream through the `StreamOp` path
/// (`apply_ops`) consumes the same randomness and must reproduce
/// the exact pinned digest — repair RNGs exist but are never touched.
#[test]
fn op_stream_path_reproduces_insert_only_digests() {
    let w = graph_workload();
    let engine = Engine::Reservoir;
    let sampler = {
        let mut s = engine
            .build(&w.query, 64, 0xD15EA5E, &rsjoin::engine::workload_opts(&w))
            .unwrap();
        let ops: rsj_storage::OpStream = w
            .preload
            .iter()
            .chain(w.stream.iter())
            .map(|t| rsj_storage::StreamOp::Insert(t.clone()))
            .collect();
        s.apply_ops(ops.ops()).unwrap();
        s
    };
    assert_eq!(
        digest(&sampler.samples()),
        0x8EC1_DD70_342F_C997,
        "RSJoin/line3 via StreamOp"
    );
}
