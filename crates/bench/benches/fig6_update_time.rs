//! Figure 6: per-tuple update-time distribution on the line-4 join.
//!
//! Paper setup: sampling disabled, per-tuple index update times measured.
//! Expected shape: RSJoin's updates cluster tightly (≈10 µs, avg 13 µs in
//! the paper, worst case ~ms — amortized O(log N)); SJoin's span 0.5 µs to
//! hundreds of ms with a far larger average (no amortized guarantee).

use rsj_baselines::SJoinIndex;
use rsj_bench::*;
use rsj_common::stats::{LogHistogram, Summary};
use rsj_datagen::GraphConfig;
use rsj_index::{DynamicIndex, IndexOptions};
use rsj_queries::line_k;
use std::time::Instant;

fn main() {
    banner(
        "Figure 6",
        "update time distribution (line-4, sampling disabled)",
    );
    let edges = GraphConfig {
        nodes: scaled(3000),
        edges: scaled(15_000),
        zipf: 1.0,
        seed: 42,
    }
    .generate();
    let w = line_k(4, &edges, 1);

    let mut rs_summary = Summary::new();
    let mut rs_hist = LogHistogram::new();
    let mut rs_total_ns = 0u128;
    {
        let mut idx = DynamicIndex::new(w.query.clone(), IndexOptions::default()).unwrap();
        for t in w.stream.iter() {
            let t0 = Instant::now();
            idx.insert(t.relation, &t.values);
            let ns = t0.elapsed().as_nanos() as u64;
            rs_total_ns += ns as u128;
            rs_summary.record(ns as f64);
            rs_hist.record(ns);
        }
    }
    record_json(
        &fig_name(),
        &w.name,
        "RSJoin",
        rs_summary.len(),
        rs_total_ns,
        Some(rs_summary.len() as f64 * 1e9 / rs_total_ns.max(1) as f64),
        None,
        None,
        false,
    );

    // Whole-stream rebuild without the per-tuple timer: `RSJoin_row` is the
    // median of 3 rounds, so the record tracks ingest throughput free of
    // `Instant::now` overhead.
    const ROUNDS: usize = 3;
    let mut row_runs: Vec<u128> = (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            let mut idx = DynamicIndex::new(w.query.clone(), IndexOptions::default()).unwrap();
            for t in w.stream.iter() {
                idx.insert(t.relation, &t.values);
            }
            t0.elapsed().as_nanos()
        })
        .collect();
    row_runs.sort_unstable();
    let row_med = row_runs[ROUNDS / 2];
    let n = w.stream.len();
    record_json(
        &fig_name(),
        &w.name,
        "RSJoin_row",
        n,
        row_med,
        Some(n as f64 * 1e9 / row_med.max(1) as f64),
        None,
        None,
        false,
    );
    println!(
        "
whole-stream rebuild (median of {ROUNDS}): {:.0} ns/insert",
        row_med as f64 / n as f64
    );

    let mut sj_summary = Summary::new();
    let mut sj_hist = LogHistogram::new();
    let mut sj_total_ns = 0u128;
    let mut sj_capped = false;
    let cap = run_cap();
    let start = Instant::now();
    {
        let mut idx = SJoinIndex::new(w.query.clone()).unwrap();
        for (i, t) in w.stream.iter().enumerate() {
            let t0 = Instant::now();
            idx.insert(t.relation, &t.values);
            let ns = t0.elapsed().as_nanos() as u64;
            sj_total_ns += ns as u128;
            sj_summary.record(ns as f64);
            sj_hist.record(ns);
            if i % 1024 == 0 && start.elapsed() > cap {
                println!("(SJoin capped after {i} tuples)");
                sj_capped = true;
                break;
            }
        }
    }
    record_json(
        &fig_name(),
        &w.name,
        "SJoin",
        sj_summary.len(),
        sj_total_ns,
        Some(sj_summary.len() as f64 * 1e9 / sj_total_ns.max(1) as f64),
        None,
        None,
        sj_capped,
    );

    let row = |name: &str, s: &Summary| {
        println!(
            "{:<8} mean {:>10.1} ns   p50 {:>10.1}   p99 {:>12.1}   max {:>14.1}",
            name,
            s.mean(),
            s.percentile(50.0),
            s.percentile(99.0),
            s.max()
        );
    };
    println!("\nper-tuple update time over {} arrivals:", w.stream.len());
    row("RSJoin", &rs_summary);
    row("SJoin", &sj_summary);

    println!("\nlog2 histogram (ns lower bound -> count):");
    println!("{:<14} {:>12} {:>12}", "bucket >=", "RSJoin", "SJoin");
    let rsb = rs_hist.non_empty();
    let sjb = sj_hist.non_empty();
    let mut bounds: Vec<u64> = rsb.iter().chain(sjb.iter()).map(|&(b, _)| b).collect();
    bounds.sort_unstable();
    bounds.dedup();
    for b in bounds {
        let rc = rsb.iter().find(|&&(x, _)| x == b).map_or(0, |&(_, c)| c);
        let sc = sjb.iter().find(|&&(x, _)| x == b).map_or(0, |&(_, c)| c);
        println!("{:<14} {:>12} {:>12}", b, rc, sc);
    }
    println!(
        "\nshape check: SJoin mean / RSJoin mean = {:.1}x (paper: ~100x)",
        sj_summary.mean() / rs_summary.mean()
    );
}
