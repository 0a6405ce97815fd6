//! Turnstile throughput: the fully-dynamic engines under interleaved
//! insert/delete streams.
//!
//! Not a paper figure — the paper's evaluation streams inserts only, while
//! its maintained-sample guarantee is stated under updates. This harness
//! opens that workload: the line-3 graph stream is woven with deletions at
//! a sweep of ratios (and both victim policies at the EXPERIMENTS.md
//! default ratio), then replayed through every fully-dynamic engine —
//! which, since the signed delta pipelines, is every engine family: the
//! `_opt` rewrites (identity FK schema here) and the cyclic GHD driver
//! sweep alongside the original three. Expected shape: RSJoin degrades
//! gracefully with the delete ratio (unlink scans + amortized repair
//! points); SJoin pays its usual exact re-weighting on both directions;
//! the front layers add combiner retraction / bag delta enumeration on
//! top of their inner driver.
//!
//! Knobs: `RSJ_SCALE` (stream size), `RSJ_CAP_SECS` (per-run cap),
//! `RSJ_DELETE_RATIOS` (comma-separated, default `0,0.1,0.2,0.3`).

use rsj_bench::*;
use rsj_datagen::{GraphConfig, TurnstileConfig, VictimPolicy};
use rsj_queries::line_k;
use rsjoin::engine::{Engine, EngineOpts};

fn ratios() -> Vec<f64> {
    std::env::var("RSJ_DELETE_RATIOS")
        .ok()
        .map(|s| s.split(',').filter_map(|x| x.trim().parse().ok()).collect())
        .unwrap_or_else(|| vec![0.0, 0.1, 0.2, 0.3])
}

fn main() {
    banner(
        "Turnstile deletions",
        "fully-dynamic engines on insert+delete streams (line-3)",
    );
    let edges = GraphConfig {
        nodes: scaled(1200),
        edges: scaled(6000),
        zipf: 0.8,
        seed: 42,
    }
    .generate();
    let w = line_k(3, &edges, 1);
    let k = 64;
    let engines = [
        Engine::Reservoir,
        Engine::FkReservoir,
        Engine::Cyclic,
        Engine::SJoin,
        Engine::SJoinOpt,
        Engine::sharded(Engine::Reservoir, 2),
    ];

    println!(
        "\n{:<22} {:>8} {:>10} {:>10} {:>12} {:>12}",
        "engine", "ratio", "policy", "ops", "wall", "ops/s"
    );
    let mut sweep = Vec::new();
    for ratio in ratios() {
        sweep.push((ratio, VictimPolicy::Uniform));
    }
    // Victim-policy A/B at the default ratio.
    sweep.push((0.2, VictimPolicy::Recent));

    for (ratio, policy) in sweep {
        let ops = TurnstileConfig {
            delete_ratio: ratio,
            policy,
            seed: 7,
        }
        .weave(&w.stream);
        for engine in &engines {
            let mut sampler = engine
                .build(&w.query, k, 3, &EngineOpts::default())
                .unwrap_or_else(|e| panic!("{engine}: {e}"));
            let out = run_sampler_ops(&ops, sampler.as_mut());
            let per_s = match out {
                Outcome::Finished(d) => ops.len() as f64 / d.as_secs_f64().max(f64::MIN_POSITIVE),
                Outcome::TimedOut { frac } => (ops.len() as f64 * frac) / run_cap().as_secs_f64(),
            };
            let st = sampler.stats();
            println!(
                "{:<22} {:>8.2} {:>10} {:>10} {:>12} {:>12.0}",
                format!("{engine}"),
                ratio,
                format!("{policy:?}"),
                ops.len(),
                format!("{out}"),
                per_s,
            );
            record_json(
                &fig_name(),
                &format!("{}/d{ratio}/{policy:?}", w.name),
                engine.name(),
                ops.len(),
                match out {
                    Outcome::Finished(d) => d.as_nanos(),
                    Outcome::TimedOut { .. } => run_cap().as_nanos(),
                },
                Some(per_s),
                st.inserts.map(|i| (i, st.deletes.unwrap_or(0))),
                fault_counters(&st),
                matches!(out, Outcome::TimedOut { .. }),
            );
        }
    }
    println!(
        "\n(every engine family is fully dynamic; NaiveRebuild is skipped as a \
         ground-truth-only strawman and SymmetricHashJoin is binary-only)"
    );
}
