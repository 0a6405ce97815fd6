//! Sampling graph motifs from an edge stream.
//!
//! Run with: `cargo run --example graph_motifs`
//!
//! The workload the paper's introduction motivates: the full set of
//! length-3 paths (or triangles) in a social graph is far too large to
//! materialize, but a uniform sample of them is enough for estimation or
//! for training. This example streams a skewed synthetic graph and
//! maintains samples of
//!
//! * length-3 paths (`line-3`, acyclic — the core `ReservoirJoin`), and
//! * triangles (cyclic — the GHD driver with worst-case-optimal deltas).

use rsjoin::datagen::GraphConfig;
use rsjoin::prelude::*;
use rsjoin::queries::line_k;

fn main() {
    let cfg = GraphConfig {
        nodes: 2_000,
        edges: 10_000,
        zipf: 1.0,
        seed: 42,
    };
    let edges = cfg.generate();
    println!(
        "graph: {} nodes, {} edges, max out-degree {}",
        cfg.nodes,
        edges.len(),
        rsjoin::datagen::graph::max_out_degree(&edges)
    );

    // --- Length-3 paths -------------------------------------------------
    let w = line_k(3, &edges, 1);
    let mut rj = ReservoirJoin::new(w.query.clone(), 20, 7).expect("line-3 acyclic");
    for t in w.stream.iter() {
        rj.process(t.relation, &t.values);
    }
    let bound = FullSampler::default().implicit_size(rj.index());
    println!(
        "\nline-3: ~{bound} length-3 paths; N = {} streamed tuples; \
         reservoir stopped only {} times",
        w.stream.len(),
        rj.reservoir_stops()
    );
    println!("  5 of the 20 uniform path samples (A -> B -> C -> D):");
    for s in rj.samples().iter().take(5) {
        println!("    {} -> {} -> {} -> {}", s[0], s[1], s[2], s[3]);
    }

    // --- Triangles (cyclic) ----------------------------------------------
    let mut qb = QueryBuilder::new();
    qb.relation("E1", &["X", "Y"]);
    qb.relation("E2", &["Y", "Z"]);
    qb.relation("E3", &["Z", "X"]);
    let tri = qb.build().unwrap();
    let mut crj = CyclicReservoirJoin::new(tri, 20, 9).expect("GHD found");
    println!(
        "\ntriangles: GHD width {} ({} bag(s))",
        crj.rewrite().ghd().width(),
        crj.rewrite().ghd().bags().len()
    );
    // Stream the same edge set into all three aliases, shuffled.
    let stream = rsjoin::datagen::graph::stream_from_edges(&edges, 3, 3);
    for t in stream.iter() {
        crj.process(t.relation, &t.values);
    }
    println!(
        "  {} triangle closures observed (simulated bag stream); \
         {} samples held:",
        crj.rewrite().bag_tuples(),
        crj.samples().len()
    );
    for s in crj.samples_named().iter().take(5) {
        let vals: Vec<String> = s.iter().map(|(n, v)| format!("{n}={v}")).collect();
        println!("    {}", vals.join(" "));
    }
}
