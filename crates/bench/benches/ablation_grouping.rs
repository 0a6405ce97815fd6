//! Ablation (beyond the paper): the grouping optimization across queries.
//!
//! Grouping (§4.4) is a design choice whose benefit depends on the
//! query shape: it only helps nodes whose schema has
//! attributes outside the join attributes `ē`. This ablation quantifies
//! that across the relational queries (wide tuples — groupable) and a
//! graph query (binary tuples — nothing to group).

use rsj_bench::*;
use rsj_core::{FkReservoirJoin, JoinSampler, ReservoirJoin};
use rsj_datagen::{GraphConfig, TpcdsLite};
use rsj_index::IndexOptions;
use rsj_queries::{line_k, qy, qz, Workload};

fn run_grouped(w: &Workload, k: usize, grouping: bool, fk: bool) -> (Outcome, u64) {
    if fk {
        let opts = IndexOptions { grouping };
        let mut fk = FkReservoirJoin::with_options(&w.query, &w.fks, k, 1, opts).unwrap();
        for t in &w.preload {
            fk.process(t.relation, &t.values);
        }
        let out = timed_stream(w, run_cap(), |rel, t| fk.process(rel, t));
        (out, fk.inner().index_stats().propagation_loops)
    } else {
        let mut rj =
            ReservoirJoin::with_options(w.query.clone(), k, 1, IndexOptions { grouping }).unwrap();
        for t in &w.preload {
            rj.process(t.relation, &t.values);
        }
        let out = timed_stream(w, run_cap(), |rel, t| {
            rj.process(rel, t);
        });
        (out, rj.index_stats().propagation_loops)
    }
}

fn main() {
    banner("Ablation", "grouping optimization on vs off");
    let tpcds = TpcdsLite::generate(scaled(2), 7);
    let edges = GraphConfig {
        nodes: scaled(3000),
        edges: scaled(15_000),
        zipf: 1.0,
        seed: 42,
    }
    .generate();
    let k = scaled(20_000);

    println!(
        "\n{:<16} {:>12} {:>12} {:>14} {:>14}",
        "workload", "off", "on", "loops(off)", "loops(on)"
    );
    let cases: Vec<(String, Workload, bool)> = vec![
        ("QY (+fk)".into(), qy(&tpcds, 2), true),
        ("QZ (+fk)".into(), qz(&tpcds, 2), true),
        ("QZ (plain)".into(), qz(&tpcds, 2), false),
        ("line-3".into(), line_k(3, &edges, 1), false),
    ];
    for (name, w, fk) in cases {
        let (t_off, l_off) = run_grouped(&w, k, false, fk);
        let (t_on, l_on) = run_grouped(&w, k, true, fk);
        println!(
            "{:<16} {:>12} {:>12} {:>14} {:>14}",
            name, t_off, t_on, l_off, l_on
        );
    }
    println!(
        "\nexpected shape: grouping cuts propagation loops on the wide \
         relational schemas and is a no-op (identical loop counts) on \
         binary graph relations."
    );
}
