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

use rsjoin::engine::{run_workload, workload_opts, Engine};
use rsjoin::prelude::*;

/// FNV-1a over the sample matrix, in reservoir order.
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
fn sharded_reservoir_bytes_are_pinned() {
    assert_eq!(
        run(&graph_workload(), Engine::sharded(Engine::Reservoir, 2)),
        0xE1E4_CF08_D938_BC0C,
        "Sharded<RSJoinx2>/line3"
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

/// The columnar fast path must be byte-invisible: `run_workload` ships the
/// preload and stream as struct-of-arrays batches with bulk-hashed keys, so
/// the four pinned digests above already certify the columnar path. This
/// test drives the identical arrivals tuple-at-a-time (the historical row
/// shape) and checks both ingest shapes land on the same pinned bytes —
/// including through the sharded router, whose columnar side partitions on
/// vectorized column hashes instead of per-tuple hashing.
#[test]
fn row_shaped_ingest_reproduces_columnar_digests() {
    let cases: [(&str, rsj_queries::Workload, Engine, u64); 4] = [
        (
            "RSJoin/line3",
            graph_workload(),
            Engine::Reservoir,
            0x42B7_36F8_2FB0_5316,
        ),
        (
            "Sharded<RSJoinx2>/line3",
            graph_workload(),
            Engine::sharded(Engine::Reservoir, 2),
            0xE1E4_CF08_D938_BC0C,
        ),
        (
            "RSJoin/QY",
            relational_workload(),
            Engine::Reservoir,
            0x7B60_24CE_90D1_C2BE,
        ),
        (
            "RSJoin_opt/QY",
            relational_workload(),
            Engine::FkReservoir,
            0xD85D_8DF7_05E9_87FE,
        ),
    ];
    for (name, w, engine, expect) in cases {
        let mut s = engine
            .build(&w.query, 64, 0xD15EA5E, &workload_opts(&w))
            .unwrap();
        s.process_batch(&w.preload);
        s.process_batch(w.stream.tuples());
        assert_eq!(digest(&s.samples()), expect, "{name}: row-shaped ingest");
    }
}

/// Post-delete reservoirs are golden too: the signed delta pipelines
/// (`_opt` FK combiner retraction, cyclic bag delta forwarding) and the
/// eviction-and-backfill repair they feed are all deterministic for a
/// fixed seed, so a fixed turnstile weave pins the final bytes exactly
/// like the insert-only digests above. A shift here means the *delete*
/// path changed samples; the insert-only pins would not catch it.
#[test]
fn post_delete_reservoirs_are_pinned() {
    use rsj_datagen::{TurnstileConfig, VictimPolicy};
    let cases: [(&str, rsj_queries::Workload, Engine, u64); 4] = [
        (
            "RSJoin_opt/line3+deletes",
            graph_workload(),
            Engine::FkReservoir,
            0x32D4_5898_FC46_EDF9,
        ),
        (
            "RSJoin_cyclic/line3+deletes",
            graph_workload(),
            Engine::Cyclic,
            0x32D4_5898_FC46_EDF9,
        ),
        (
            "SJoin_opt/line3+deletes",
            graph_workload(),
            Engine::SJoinOpt,
            0x86BA_1A96_C801_1427,
        ),
        (
            "RSJoin_opt/QY+deletes",
            relational_workload(),
            Engine::FkReservoir,
            0xBF6F_9FBC_1E0B_26A8,
        ),
    ];
    for (name, w, engine, expect) in cases {
        let mut s = engine
            .build(&w.query, 64, 0xD15EA5E, &workload_opts(&w))
            .unwrap();
        s.process_batch(&w.preload);
        let ops = TurnstileConfig {
            delete_ratio: 0.2,
            policy: VictimPolicy::Uniform,
            seed: 9,
        }
        .weave(&w.stream);
        assert!(ops.num_deletes() > 0, "{name}: weave produced no deletes");
        s.process_op_batch(ops.ops()).unwrap();
        let d = digest(&s.samples());
        if std::env::var_os("RSJ_PIN_PLANS").is_some() {
            println!("{name}: 0x{d:016X}");
            continue;
        }
        assert_eq!(d, expect, "{name}: post-delete reservoir bytes moved");
    }
}

/// On-disk durability images are golden too: the WAL segment and the
/// checkpoint written for a fixed engine/seed/stream must be
/// byte-identical across releases, or old logs stop being replayable.
///
/// **Format-version bump rule**: these digests pin WAL/checkpoint
/// `FORMAT_VERSION = 2` (crates/storage/src/wal.rs) *and* every engine's
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
#[test]
fn durability_images_are_pinned() {
    use rsjoin::prelude::{CheckpointPolicy, Persistent};

    // FNV-1a over raw file bytes.
    fn file_digest(path: &std::path::Path) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in std::fs::read(path).unwrap() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

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

    let checkpoint = file_digest(&dir.join("checkpoint.rsjc"));
    // After truncation the live segment is wal-00000001.log, holding ops
    // 100..120.
    let segment = file_digest(&dir.join("wal").join("wal-00000001.log"));
    std::fs::remove_dir_all(&dir).unwrap();
    if std::env::var_os("RSJ_PIN_PLANS").is_some() {
        println!("checkpoint: 0x{checkpoint:016X}\nsegment: 0x{segment:016X}");
        return;
    }
    assert_eq!(
        checkpoint, 0xC660_506B_3779_7734,
        "checkpoint image moved — see the format-version bump rule above"
    );
    assert_eq!(
        segment, 0x76B8_85F2_5241_B9DE,
        "WAL segment image moved — see the format-version bump rule above"
    );
}

/// Digest of a planner choice: tree edge set, root, partition attribute.
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
    eat(plan.partition_attr as u64);
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

/// Pin the planner's default tree/root/partition choices on the existing
/// and new workloads. A silent cost-model change that moves any default
/// choice fails here loudly; deliberate model changes must update these
/// digests *knowingly* (and re-run `fig_planner` to show the new choices
/// are no slower).
#[test]
fn planner_default_choices_are_pinned() {
    let cases: [(&str, rsj_queries::Workload, u64); 5] = [
        ("line-3", graph_workload(), 0xA93B_B823_B561_9E45),
        ("QY", relational_workload(), 0x4EC9_42DD_7ADB_EFC1),
        (
            "snowflake",
            rsj_queries::snowflake(192, 23),
            0xD650_9511_7FB3_ABC4,
        ),
        (
            "self-line-3",
            rsj_queries::self_join_line(3, 96, 29),
            0xA93B_B823_B561_9E45,
        ),
        (
            "skewed-star-4",
            rsj_queries::skewed_star(4, 128, 31),
            0xCB46_E9C7_16D0_1524,
        ),
    ];
    for (name, w, expect) in cases {
        let plan = default_plan(&w);
        assert!(plan.tree.satisfies_connectedness(&w.query), "{name}");
        if std::env::var_os("RSJ_PIN_PLANS").is_some() {
            println!(
                "{name}: 0x{:016X} (tree {:?}, root {}, partition {})",
                plan_digest(&plan),
                plan.tree.canonical_edges(),
                plan.root,
                plan.partition_attr
            );
            continue;
        }
        assert_eq!(
            plan_digest(&plan),
            expect,
            "{name}: planner default choice moved (tree {:?}, root {}, partition {})",
            plan.tree.canonical_edges(),
            plan.root,
            plan.partition_attr
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
