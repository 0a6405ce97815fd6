//! End-to-end tests of the packaged benchmark workloads (QX, QY, QZ, Q10,
//! graph queries) at miniature scale: every engine runs the full pipeline
//! (preload + stream) through the `JoinSampler` executor interface and the
//! optimized variants agree with the plain ones.

use rsjoin::datagen::{GraphConfig, LdbcLite, TpcdsLite};
use rsjoin::prelude::*;
use rsjoin::queries::{dumbbell, line_k, q10, qx, qy, qz, star_k, Workload};

type ResultSet = std::collections::BTreeSet<Vec<(String, u64)>>;

/// Runs the workload through `engine` via the facade's uniform driver.
fn run_workload(w: &Workload, engine: &Engine, k: usize, seed: u64) -> Box<dyn JoinSampler + Send> {
    rsjoin::engine::run_workload(w, engine, k, seed)
        .unwrap_or_else(|e| panic!("{}: {engine}: {e}", w.name))
}

fn run_all_and_compare(w: &Workload) -> usize {
    let k = 1 << 22; // collect everything
    let mut truth: Option<ResultSet> = None;
    for (seed, engine) in [
        Engine::Reservoir,
        Engine::FkReservoir,
        Engine::SJoin,
        Engine::SJoinOpt,
    ]
    .into_iter()
    .enumerate()
    {
        let s = run_workload(w, &engine, k, seed as u64 + 1);
        let got: ResultSet = s.samples_named().into_iter().collect();
        // Every engine's own count against the collected result set.
        assert_eq!(s.exact_count(), got.len() as u128, "{}: {engine}", w.name);
        match &truth {
            None => truth = Some(got),
            Some(t) => assert_eq!(t, &got, "{}: RSJoin vs {engine}", w.name),
        }
    }
    truth.expect("at least one engine ran").len()
}

/// A tiny tpcds-lite instance so full enumeration stays cheap.
fn mini_tpcds() -> TpcdsLite {
    let mut d = TpcdsLite::generate(1, 77);
    d.store_sales.truncate(120);
    d.store_returns = d
        .store_sales
        .iter()
        .take(30)
        .map(|s| [s[0], s[1], s[2]])
        .collect();
    d.catalog_sales.truncate(60);
    d.customer.truncate(80);
    // Re-point sales FKs into the truncated customer table.
    for s in &mut d.store_sales {
        s[2] %= 80;
    }
    for r in &mut d.store_returns {
        r[2] %= 80;
    }
    for c in &mut d.catalog_sales {
        c[0] %= 80;
    }
    d.item.truncate(40);
    for s in &mut d.store_sales {
        s[0] %= 40;
    }
    for r in &mut d.store_returns {
        r[0] %= 40;
    }
    d
}

#[test]
fn qx_all_drivers_agree() {
    let d = mini_tpcds();
    let n = run_all_and_compare(&qx(&d, 5));
    assert!(n > 0, "QX produced no results at mini scale");
}

#[test]
fn qy_all_drivers_agree() {
    let d = mini_tpcds();
    let n = run_all_and_compare(&qy(&d, 5));
    assert!(n > 0, "QY produced no results");
}

#[test]
fn qz_all_drivers_agree() {
    let d = mini_tpcds();
    let n = run_all_and_compare(&qz(&d, 5));
    assert!(n > 0, "QZ produced no results");
}

#[test]
fn q10_all_drivers_agree() {
    let mut d = LdbcLite::generate(1, 77);
    d.message.truncate(100);
    d.has_tag.retain(|h| h[0] < 100);
    d.knows.truncate(150);
    let n = run_all_and_compare(&q10(&d, 5));
    assert!(n > 0, "Q10 produced no results");
}

#[test]
fn graph_queries_rsjoin_vs_sjoin() {
    let edges = GraphConfig {
        nodes: 40,
        edges: 150,
        zipf: 0.8,
        seed: 5,
    }
    .generate();
    for w in [
        line_k(3, &edges, 1),
        line_k(4, &edges, 1),
        star_k(4, &edges, 1),
    ] {
        let k = 1 << 22;
        let rj = run_workload(&w, &Engine::Reservoir, k, 1);
        let sj = run_workload(&w, &Engine::SJoin, k, 2);
        let a: ResultSet = rj.samples_named().into_iter().collect();
        let b: ResultSet = sj.samples_named().into_iter().collect();
        assert_eq!(a, b, "{}", w.name);
        assert_eq!(a.len() as u128, sj.exact_count(), "{}", w.name);
        assert_eq!(rj.exact_count(), sj.exact_count(), "{}", w.name);
    }
}

#[test]
fn dumbbell_cyclic_driver_runs_and_validates() {
    let edges = GraphConfig {
        nodes: 25,
        edges: 120,
        zipf: 0.6,
        seed: 9,
    }
    .generate();
    let w = dumbbell(&edges, 1);
    let crj = run_workload(&w, &Engine::Cyclic, 1 << 22, 1);
    // Validate every sample is a genuine dumbbell: two triangles + bridge.
    let q = crj.output_query().clone();
    let pos = |n: &str| q.attr_names().iter().position(|a| a == n).unwrap();
    let (x1, x2, x3, x4, x5, x6) = (
        pos("x1"),
        pos("x2"),
        pos("x3"),
        pos("x4"),
        pos("x5"),
        pos("x6"),
    );
    let edge_set: std::collections::BTreeSet<(u64, u64)> = edges.iter().copied().collect();
    for s in crj.samples() {
        assert!(edge_set.contains(&(s[x1], s[x2])), "G1 edge");
        assert!(edge_set.contains(&(s[x1], s[x3])), "G2 edge");
        assert!(edge_set.contains(&(s[x2], s[x3])), "G3 edge");
        assert!(edge_set.contains(&(s[x5], s[x6])), "G4 edge");
        assert!(edge_set.contains(&(s[x4], s[x5])), "G5 edge");
        assert!(edge_set.contains(&(s[x4], s[x6])), "G6 edge");
        assert!(edge_set.contains(&(s[x3], s[x4])), "G7 bridge");
    }
}
