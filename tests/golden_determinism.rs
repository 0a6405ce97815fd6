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
        0x42B7_36F8_2FB0_5316,
        "RSJoin/line3"
    );
}

#[test]
fn rsjoin_grouped_reservoir_bytes_are_pinned() {
    assert_eq!(
        run(&relational_workload(), Engine::Reservoir),
        0x7B60_24CE_90D1_C2BE,
        "RSJoin/QY"
    );
}

#[test]
fn rsjoin_opt_reservoir_bytes_are_pinned() {
    assert_eq!(
        run(&relational_workload(), Engine::FkReservoir),
        0xD85D_8DF7_05E9_87FE,
        "RSJoin_opt/QY"
    );
}

/// On an acyclic query every GHD bag is a single relation, so the cyclic
/// engine's bag-level RSJoin sees RSJoin's arrivals and lands on its bytes.
#[test]
fn cyclic_reservoir_bytes_are_pinned() {
    assert_eq!(
        run(&graph_workload(), Engine::Cyclic),
        0x42B7_36F8_2FB0_5316,
        "RSJoin_cyclic/line3"
    );
}

/// Runs `engine` over `w`'s preload, then its stream woven with 20 %
/// uniform deletes (seed 9).
fn run_turnstile(w: &rsj_queries::Workload, engine: Engine) -> Box<dyn JoinSampler + Send> {
    use rsj_datagen::{TurnstileConfig, VictimPolicy};
    let mut s = engine
        .build(&w.query, 64, 0xD15EA5E, &workload_opts(w))
        .unwrap();
    s.process_batch(&w.preload);
    let ops = TurnstileConfig {
        delete_ratio: 0.2,
        policy: VictimPolicy::Uniform,
        seed: 9,
    }
    .weave(&w.stream);
    assert!(ops.num_deletes() > 0, "{engine}: weave produced no deletes");
    s.process_op_batch(ops.ops()).unwrap();
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
/// recalibration differently). The insert-only pins did not move.
#[test]
fn post_delete_reservoirs_are_pinned() {
    let cases: [(&str, rsj_queries::Workload, Engine, u64); 4] = [
        (
            "RSJoin_opt/line3+deletes",
            graph_workload(),
            Engine::FkReservoir,
            0xAD97_19CD_83FC_8741,
        ),
        (
            "RSJoin_cyclic/line3+deletes",
            graph_workload(),
            Engine::Cyclic,
            0xAD97_19CD_83FC_8741,
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
            0x25E5_EF68_73E0_1EEF,
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
/// the format-version bump rule below.
#[test]
fn rewriting_engine_images_are_pinned() {
    let cases: [(&str, Box<dyn JoinSampler + Send>, u64); 3] = [
        (
            "RSJoin_opt/QY",
            run_workload(&relational_workload(), &Engine::FkReservoir, 64, 0xD15EA5E).unwrap(),
            0x96A0_2C8D_D12A_2792,
        ),
        (
            "RSJoin_cyclic/line3+deletes",
            run_turnstile(&graph_workload(), Engine::Cyclic),
            0x5615_624E_0703_543C,
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
#[test]
fn durability_images_are_pinned() {
    use rsjoin::prelude::{CheckpointPolicy, Persistent};

    let file_digest = |path: std::path::PathBuf| fnv(&std::fs::read(path).unwrap());

    // Fixed turnstile stream over line-3: inserts with every 5th op
    // deleting the tuple inserted four ops earlier.
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
        checkpoint, 0x2FFE_A43C_A446_9320,
        "checkpoint image moved — see the format-version bump rule above"
    );
    assert_eq!(
        segment, 0xBFC3_6894_41B7_7629,
        "WAL segment image moved — see the format-version bump rule above"
    );
}

/// Digest of a planner choice: tree edge set and root.
fn plan_digest(plan: &Plan) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let edges = plan.tree.canonical_edges();
    eat(edges.len() as u64);
    for (i, j) in edges {
        eat(i as u64);
        eat(j as u64);
    }
    eat(plan.root as u64);
    h
}

/// The planner's default choice for a workload, run against statistics
/// observed from the workload's full input under set semantics (preload
/// then stream, in arrival order — exactly what an engine's live database
/// would report at end of stream).
fn default_plan(w: &rsj_queries::Workload) -> Plan {
    let mut stats = rsjoin::query::plan::empty_statistics(&w.query);
    let mut seen: rsjoin::common::FxHashSet<(usize, Vec<Value>)> = Default::default();
    for t in w.preload.iter().chain(w.stream.iter()) {
        if seen.insert((t.relation, t.values.clone())) {
            stats.observe_insert(t.relation, &t.values);
        }
    }
    Planner::default().plan(&w.query, &stats).expect("acyclic")
}

/// Pin the planner's default tree/root choices on the existing
/// and new workloads. A silent cost-model change that moves any default
/// choice fails here loudly; deliberate model changes must update these
/// digests *knowingly* (and re-run `fig_planner` to show the new choices
/// are no slower).
#[test]
fn planner_default_choices_are_pinned() {
    let cases: [(&str, rsj_queries::Workload, u64); 5] = [
        ("line-3", graph_workload(), 0x96E8_ED4C_AE81_F7A4),
        ("QY", relational_workload(), 0x65A3_3853_936E_31A5),
        (
            "snowflake",
            rsj_queries::snowflake(192, 23),
            0xC5E1_883C_E202_9B47,
        ),
        (
            "self-line-3",
            rsj_queries::self_join_line(3, 96, 29),
            0x96E8_ED4C_AE81_F7A4,
        ),
        (
            "skewed-star-4",
            rsj_queries::skewed_star(4, 128, 31),
            0x4750_D333_8B61_98A4,
        ),
    ];
    for (name, w, expect) in cases {
        let plan = default_plan(&w);
        assert!(plan.tree.satisfies_connectedness(&w.query), "{name}");
        if std::env::var_os("RSJ_PIN_PLANS").is_some() {
            println!(
                "{name}: 0x{:016X} (tree {:?}, root {})",
                plan_digest(&plan),
                plan.tree.canonical_edges(),
                plan.root
            );
            continue;
        }
        assert_eq!(
            plan_digest(&plan),
            expect,
            "{name}: planner default choice moved (tree {:?}, root {})",
            plan.tree.canonical_edges(),
            plan.root
        );
    }
}

/// The turnstile machinery must be invisible to insert-only runs: driving
/// the identical insert-only stream through the `StreamOp` path
/// (`process_op_batch`) consumes the same randomness and must reproduce
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
        s.process_op_batch(ops.ops()).unwrap();
        s
    };
    assert_eq!(
        digest(&sampler.samples()),
        0x42B7_36F8_2FB0_5316,
        "RSJoin/line3 via StreamOp"
    );
}
