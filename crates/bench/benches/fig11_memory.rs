//! Figure 11: memory usage vs. input size (line-3 and Q10).
//!
//! Paper setup: record memory after every 10% of the input; RSJoin uses
//! ~60% of SJoin's memory on line-3 and RSJoin_opt ~31% of SJoin_opt's on
//! Q10; all curves are linear in the input even when the join size grows
//! polynomially. We report structural heap accounting (ARCHITECTURE.md,
//! "Hot-path memory layout").

use rsj_bench::*;
use rsj_datagen::{GraphConfig, LdbcLite};
use rsj_queries::{line_k, q10, Workload};
use rsjoin::engine::Engine;

/// Streams the workload through `engine`, recording the trait-reported
/// heap footprint after every 10% of the stream (preload untimed).
fn checkpoint_mems(w: &Workload, engine: Engine, k: usize) -> Vec<usize> {
    let mut s = engine
        .build(&w.query, k, 1, &workload_opts(w))
        .unwrap_or_else(|e| panic!("{}: {engine}: {e}", w.name));
    for t in &w.preload {
        s.process(t.relation, &t.values);
    }
    let tuples = w.stream.tuples();
    let checkpoints: Vec<usize> = (1..=10).map(|i| i * tuples.len() / 10).collect();
    let mut out = Vec::new();
    let mut next = 0;
    for (i, t) in tuples.iter().enumerate() {
        s.process(t.relation, &t.values);
        if i + 1 == checkpoints[next] {
            out.push(s.stats().heap_bytes.expect("engine tracks heap"));
            next += 1;
            if next == checkpoints.len() {
                break;
            }
        }
    }
    out
}

fn main() {
    banner("Figure 11", "memory usage vs input size (line-3, Q10)");

    // --- line-3: RSJoin vs SJoin ---------------------------------------
    let edges = GraphConfig {
        nodes: scaled(3000),
        edges: scaled(15_000),
        zipf: 1.0,
        seed: 42,
    }
    .generate();
    let w = line_k(3, &edges, 1);
    let k = scaled(10_000);
    let rj_mem = checkpoint_mems(&w, Engine::Reservoir, k);
    let sj_mem = checkpoint_mems(&w, Engine::SJoin, k);
    println!("\nline-3 (KiB):");
    println!(
        "{:>6} {:>12} {:>12} {:>8}",
        "input", "RSJoin", "SJoin", "ratio"
    );
    for i in 0..10 {
        println!(
            "{:>5}% {:>12} {:>12} {:>7.2}",
            (i + 1) * 10,
            rj_mem[i] / 1024,
            sj_mem[i] / 1024,
            rj_mem[i] as f64 / sj_mem[i] as f64
        );
    }

    // --- Q10: RSJoin_opt vs SJoin_opt ----------------------------------
    let ldbc = LdbcLite::generate(scaled(1), 7);
    let w = q10(&ldbc, 2);
    let k = scaled(20_000);
    let rj_mem = checkpoint_mems(&w, Engine::FkReservoir, k);
    let sj_mem = checkpoint_mems(&w, Engine::SJoinOpt, k);
    println!("\nQ10 (KiB):");
    println!(
        "{:>6} {:>12} {:>12} {:>8}",
        "input", "RSJoin_opt", "SJoin_opt", "ratio"
    );
    for i in 0..10 {
        println!(
            "{:>5}% {:>12} {:>12} {:>7.2}",
            (i + 1) * 10,
            rj_mem[i] / 1024,
            sj_mem[i] / 1024,
            rj_mem[i] as f64 / sj_mem[i] as f64
        );
    }
    println!(
        "\nshape check: both curves grow ~linearly with the input; \
         RSJoin uses less memory than SJoin at every checkpoint \
         (paper: 60% on line-3, 31% on Q10)."
    );
}
