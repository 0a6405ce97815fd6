//! Where the index's bytes go: heap bytes per stored tuple, by structure.
//!
//! Run with: `cargo run --release --example heap_ledger`
//!
//! Feeds the benchmark's `line4_insert` input (a 100 k-edge Zipf graph as
//! line-4, seed 42) and its `qz_fk_insert` input (TPC-DS-lite QZ) through
//! a bare `DynamicIndex` and prints `DynamicIndex::heap_breakdown()`
//! summed by part and divided by the live tuple count — EXPERIMENTS.md's
//! "Bytes per tuple" table, reproducible. The lines sum to `heap_size()`
//! exactly; the allocator's view (the benchmark's `heap_bytes_per_tuple`)
//! adds the engine's reservoir on top. QZ runs here through the plain
//! grouped index, not the FK combiner the benchmark drives it with, so
//! its `grouped_payload` line is the §4.4 cost that engine avoids.

use rsjoin::datagen::{GraphConfig, TpcdsLite};
use rsjoin::prelude::*;
use rsjoin::queries::{line_k, qz, Workload};

fn ledger(w: &Workload) {
    let mut idx = DynamicIndex::new(w.query.clone(), IndexOptions::default()).expect("acyclic");
    for t in w.preload.iter().chain(w.stream.tuples()) {
        idx.insert(t.relation, &t.values);
    }
    let tuples = idx.database().total_tuples();
    let mut by_part: Vec<(&str, usize)> = Vec::new();
    for line in idx.heap_breakdown() {
        match by_part.iter_mut().find(|(part, _)| *part == line.part) {
            Some((_, bytes)) => *bytes += line.bytes,
            None => by_part.push((line.part, line.bytes)),
        }
    }
    let total: usize = by_part.iter().map(|&(_, bytes)| bytes).sum();
    assert_eq!(total, idx.heap_size(), "the ledger is exact");
    println!("\n{}: {tuples} live tuples", w.name);
    for (part, bytes) in by_part {
        println!("  {part:<28}{:>8.1} B/tuple", bytes as f64 / tuples as f64);
    }
    println!(
        "  {:<28}{:>8.1} B/tuple",
        "total",
        total as f64 / tuples as f64
    );
}

fn main() {
    let edges = GraphConfig {
        nodes: 20_000,
        edges: 100_000,
        zipf: 1.0,
        seed: 42,
    }
    .generate();
    ledger(&line_k(4, &edges, 42 ^ 1));
    ledger(&qz(&TpcdsLite::generate(100, 42), 42 ^ 1));
}
