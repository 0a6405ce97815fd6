//! Figure 7: running time vs. input size and join size (line-3, k = 10,000).
//!
//! Paper setup: record cumulative execution time and join-result count
//! after every 10% of the input. Expected shape: the join size grows
//! super-linearly (towards N^2-ish for the skewed graph) while RSJoin's
//! cumulative time grows ~linearly in the *input*; SJoin's tracks the
//! *join size*.

use rsj_bench::*;
use rsj_datagen::GraphConfig;
use rsj_queries::line_k;
use rsjoin::engine::Engine;
use std::time::{Duration, Instant};

fn main() {
    banner(
        "Figure 7",
        "running time vs input size and join size (line-3)",
    );
    let edges = GraphConfig {
        nodes: scaled(3000),
        edges: scaled(15_000),
        zipf: 1.0,
        seed: 42,
    }
    .generate();
    let k = scaled(10_000);
    let w = line_k(3, &edges, 1);
    let n = w.stream.len();
    let checkpoints: Vec<usize> = (1..=10).map(|i| i * n / 10).collect();

    // RSJoin pass (join size reported exactly by a parallel SJoin index is
    // too slow at scale; we track the exact result count with SJoin's exact
    // counters only until its cap, and report RSJoin's own bound after).
    let mut rj = Engine::Reservoir
        .build(&w.query, k, 1, &workload_opts(&w))
        .unwrap();
    let mut rj_times = Vec::new();
    {
        let start = Instant::now();
        let mut next = 0;
        for (i, t) in w.stream.iter().enumerate() {
            rj.process(t.relation, &t.values);
            if i + 1 == checkpoints[next] {
                rj_times.push(start.elapsed());
                next += 1;
                if next == checkpoints.len() {
                    break;
                }
            }
        }
    }

    // SJoin pass with cap; also yields exact join sizes at checkpoints.
    let mut sj = Engine::SJoin
        .build(&w.query, k, 1, &workload_opts(&w))
        .unwrap();
    let mut sj_times: Vec<Option<Duration>> = Vec::new();
    let mut join_sizes: Vec<Option<u128>> = Vec::new();
    {
        let cap = run_cap();
        let start = Instant::now();
        let mut next = 0;
        let mut capped = false;
        for (i, t) in w.stream.iter().enumerate() {
            if !capped {
                sj.process(t.relation, &t.values);
                if i % 1024 == 0 && start.elapsed() > cap {
                    capped = true;
                }
            }
            if i + 1 == checkpoints[next] {
                sj_times.push((!capped).then(|| start.elapsed()));
                join_sizes.push((!capped).then(|| sj.exact_count()));
                next += 1;
                if next == checkpoints.len() {
                    break;
                }
            }
        }
    }

    println!(
        "\n{:>5} {:>9} {:>16} {:>12} {:>12}",
        "input", "tuples", "join size", "RSJoin", "SJoin"
    );
    for (i, cp) in checkpoints.iter().enumerate() {
        let js = join_sizes[i].map_or("(capped)".to_string(), |s| s.to_string());
        let sj_t = sj_times[i].map_or("(capped)".to_string(), |d| format!("{d:.2?}"));
        println!(
            "{:>4}% {:>9} {:>16} {:>12} {:>12}",
            (i + 1) * 10,
            cp,
            js,
            format!("{:.2?}", rj_times[i]),
            sj_t
        );
    }
    // Shape check: RSJoin time ratio last/first ~ 10 (linear), join size
    // ratio far larger.
    let lin = rj_times[9].as_secs_f64() / rj_times[0].as_secs_f64().max(1e-9);
    println!(
        "\nshape check: RSJoin cumulative time grew {lin:.1}x across a 10x \
         input growth (linear => ~10x), while the join size grew {}x",
        match (join_sizes[0], join_sizes.iter().flatten().last()) {
            (Some(a), Some(b)) if a > 0 => format!("{:.0}", b / a),
            _ => "≫".to_string(),
        }
    );
}
