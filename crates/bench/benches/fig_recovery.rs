//! Durability costs: WAL logging overhead and restore latency.
//!
//! Not a paper figure — the paper's engines are in-memory only. This
//! harness prices the durability layer (`rsjoin::persist`) so its two
//! promises can be tracked across commits:
//!
//! * **Logging is cheap.** The same turnstile stream is driven through an
//!   engine bare and through `Persistent` (pure logging, no mid-stream
//!   checkpoints); CI gates the ratio at ≤ 1.15×. A separate series with
//!   periodic checkpoints prices the snapshot cadence.
//! * **Restore is log-suffix-linear.** Recovery latency is swept against
//!   stream length twice: replaying the whole log from LSN 0, and
//!   restoring a checkpoint with an empty suffix. The gap is what a
//!   checkpoint buys at restart.
//!
//! Knobs: `RSJ_SCALE` (stream size), `RSJ_CAP_SECS` (unused here — runs
//! are short), standard `RSJ_BENCH_JSON` output.

use rsj_bench::*;
use rsj_datagen::{GraphConfig, TurnstileConfig, VictimPolicy};
use rsj_queries::line_k;
use rsj_storage::OpStream;
use rsjoin::engine::{Engine, EngineOpts};
use rsjoin::prelude::{CheckpointPolicy, Persistent, SamplerExt};
use std::path::PathBuf;
use std::time::Instant;

/// Self-cleaning scratch directory under the system temp dir.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("rsj-fig-recovery-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn ops_stream(nodes: usize, edges: usize) -> (rsj_queries::Workload, OpStream) {
    let edges = GraphConfig {
        nodes,
        edges,
        zipf: 0.8,
        seed: 42,
    }
    .generate();
    let w = line_k(3, &edges, 1);
    let ops = TurnstileConfig {
        delete_ratio: 0.2,
        policy: VictimPolicy::Uniform,
        seed: 7,
    }
    .weave(&w.stream);
    (w, ops)
}

fn build(
    engine: &Engine,
    w: &rsj_queries::Workload,
) -> Box<dyn rsjoin::prelude::JoinSampler + Send> {
    engine
        .build(&w.query, 64, 3, &EngineOpts::default())
        .unwrap_or_else(|e| panic!("{engine}: {e}"))
}

/// ns/op of the bare engine (no durability).
fn bare_ns_per_op(engine: &Engine, w: &rsj_queries::Workload, ops: &OpStream) -> f64 {
    let mut s = build(engine, w);
    let start = Instant::now();
    for op in ops.iter() {
        s.process_op(op).unwrap();
    }
    let _ = s.samples();
    start.elapsed().as_nanos() as f64 / ops.len() as f64
}

/// ns/op through `Persistent` under the given checkpoint policy.
fn wal_ns_per_op(
    engine: &Engine,
    w: &rsj_queries::Workload,
    ops: &OpStream,
    policy: CheckpointPolicy,
    tag: &str,
) -> f64 {
    let scratch = Scratch::new(tag);
    let mut p = Persistent::open(build(engine, w), &scratch.0, policy).unwrap();
    let start = Instant::now();
    for op in ops.iter() {
        p.process_op(op).unwrap();
    }
    p.flush().unwrap();
    let _ = p.engine().samples();
    start.elapsed().as_nanos() as f64 / ops.len() as f64
}

/// Best-of-`n` (minimum) — the standard noise-robust point estimate for a
/// deterministic workload; the CI gate needs a stable ratio, not a mean.
fn best_of(n: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..n).map(|_| f()).fold(f64::INFINITY, f64::min)
}

fn overhead_sweep() {
    let (w, ops) = ops_stream(scaled(1200), scaled(6000));
    println!(
        "\n{:<22} {:>14} {:>14} {:>14} {:>9}",
        "engine", "bare ns/op", "wal ns/op", "wal+ckpt", "overhead"
    );
    for engine in [Engine::Reservoir, Engine::SJoin] {
        let bare = best_of(3, || bare_ns_per_op(&engine, &w, &ops));
        let wal = best_of(3, || {
            wal_ns_per_op(&engine, &w, &ops, CheckpointPolicy::Manual, "wal")
        });
        let ckpt = best_of(3, || {
            wal_ns_per_op(
                &engine,
                &w,
                &ops,
                CheckpointPolicy::EveryOps(4096),
                "wal-ckpt",
            )
        });
        println!(
            "{:<22} {bare:>14.0} {wal:>14.0} {ckpt:>14.0} {:>8.3}x",
            format!("{engine}"),
            wal / bare
        );
        for (series, ns) in [("no-wal", bare), ("wal", wal), ("wal-ckpt4096", ckpt)] {
            record_json(
                &fig_name(),
                &format!("{}/{series}", w.name),
                engine.name(),
                ops.len(),
                (ns * ops.len() as f64) as u128,
                Some(1e9 / ns),
                None,
                None,
                false,
            );
        }
    }
}

fn restore_sweep() {
    println!(
        "\n{:<14} {:>10} {:>16} {:>16}",
        "stream", "ops", "replay restore", "ckpt restore"
    );
    let engine = Engine::Reservoir;
    for mult in [1usize, 4, 16] {
        let (w, ops) = ops_stream(scaled(300 * mult), scaled(1500 * mult));
        // Log-replay restore: the whole stream lives in the WAL.
        let replay = {
            let scratch = Scratch::new("restore-replay");
            let mut p =
                Persistent::open(build(&engine, &w), &scratch.0, CheckpointPolicy::Manual).unwrap();
            for op in ops.iter() {
                p.process_op(op).unwrap();
            }
            drop(p); // flushes
            let start = Instant::now();
            let r =
                Persistent::open(build(&engine, &w), &scratch.0, CheckpointPolicy::Manual).unwrap();
            let d = start.elapsed();
            assert_eq!(r.next_lsn(), ops.len() as u64);
            d
        };
        // Checkpoint restore: snapshot at end-of-stream, empty suffix.
        let ckpt = {
            let scratch = Scratch::new("restore-ckpt");
            let mut p =
                Persistent::open(build(&engine, &w), &scratch.0, CheckpointPolicy::Manual).unwrap();
            for op in ops.iter() {
                p.process_op(op).unwrap();
            }
            p.checkpoint().unwrap();
            drop(p);
            let start = Instant::now();
            let r =
                Persistent::open(build(&engine, &w), &scratch.0, CheckpointPolicy::Manual).unwrap();
            let d = start.elapsed();
            assert_eq!(r.next_lsn(), ops.len() as u64);
            d
        };
        println!(
            "{:<14} {:>10} {:>16} {:>16}",
            format!("x{mult}"),
            ops.len(),
            format!("{replay:.2?}"),
            format!("{ckpt:.2?}")
        );
        for (series, d) in [("restore-replay", replay), ("restore-checkpoint", ckpt)] {
            record_json(
                &fig_name(),
                &format!("{series}/x{mult}"),
                engine.name(),
                ops.len(),
                d.as_nanos(),
                None,
                None,
                None,
                false,
            );
        }
    }
}

fn main() {
    banner(
        "Durability costs",
        "WAL logging overhead and restore latency (rsjoin::persist)",
    );
    overhead_sweep();
    restore_sweep();
    println!("\n(CI gates line3/wal over line3/no-wal at 1.15x — see ci.yml)");
}
