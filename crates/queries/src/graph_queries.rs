//! Graph benchmark queries: line-k, star-k, dumbbell (paper Appendix A).
//!
//! Each logical relation is a full copy of the edge table `G(src, dst)`;
//! the natural-join attribute naming encodes the SQL `WHERE` clauses:
//! line-k chains `dst = src`, star-k shares the hub `src`, and the dumbbell
//! glues two triangles through a bridge edge.

use crate::Workload;
use rsj_common::Value;
use rsj_datagen::graph::stream_from_edges;
use rsj_query::{FkSchema, QueryBuilder};

/// Line-k: paths of length `k`
/// (`G1.dst = G2.src AND G2.dst = G3.src ...`).
pub fn line_k(k: usize, edges: &[(Value, Value)], seed: u64) -> Workload {
    assert!(k >= 2);
    let mut qb = QueryBuilder::new();
    let names: Vec<String> = (0..=k).map(|i| format!("A{i}")).collect();
    for i in 0..k {
        qb.relation(&format!("G{}", i + 1), &[&names[i], &names[i + 1]]);
    }
    let query = qb.build().expect("line-k is well-formed");
    Workload {
        name: format!("line-{k}"),
        fks: FkSchema::none(query.num_relations()),
        query,
        preload: Vec::new(),
        stream: stream_from_edges(edges, k, seed),
    }
}

/// Star-k: `k` edges sharing a source vertex
/// (`G1.src = G2.src = ... = Gk.src`).
pub fn star_k(k: usize, edges: &[(Value, Value)], seed: u64) -> Workload {
    assert!(k >= 2);
    let mut qb = QueryBuilder::new();
    for i in 0..k {
        qb.relation(&format!("G{}", i + 1), &["HUB", &format!("B{}", i + 1)]);
    }
    let query = qb.build().expect("star-k is well-formed");
    Workload {
        name: format!("star-{k}"),
        fks: FkSchema::none(query.num_relations()),
        query,
        preload: Vec::new(),
        stream: stream_from_edges(edges, k, seed),
    }
}

/// The dumbbell: two triangles connected by a bridge edge (paper Figure 4).
/// Cyclic — requires the GHD driver.
pub fn dumbbell(edges: &[(Value, Value)], seed: u64) -> Workload {
    let mut qb = QueryBuilder::new();
    qb.relation("G1", &["x1", "x2"]);
    qb.relation("G2", &["x1", "x3"]);
    qb.relation("G3", &["x2", "x3"]);
    qb.relation("G4", &["x5", "x6"]);
    qb.relation("G5", &["x4", "x5"]);
    qb.relation("G6", &["x4", "x6"]);
    qb.relation("G7", &["x3", "x4"]);
    let query = qb.build().expect("dumbbell is well-formed");
    Workload {
        name: "dumbbell".to_string(),
        fks: FkSchema::none(query.num_relations()),
        query,
        preload: Vec::new(),
        stream: stream_from_edges(edges, 7, seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_k_attr_chain() {
        let edges = vec![(1, 2), (2, 3)];
        let w = line_k(3, &edges, 1);
        assert_eq!(w.query.num_relations(), 3);
        assert_eq!(w.query.num_attrs(), 4);
        // Consecutive relations share exactly one attribute.
        assert_eq!(w.query.shared_attrs(0, 1).len(), 1);
        assert_eq!(w.query.shared_attrs(1, 2).len(), 1);
        assert!(w.query.shared_attrs(0, 2).is_empty());
    }

    #[test]
    fn star_k_hub_shared_by_all() {
        let edges = vec![(1, 2)];
        let w = star_k(5, &edges, 1);
        for i in 1..5 {
            assert_eq!(w.query.shared_attrs(0, i).len(), 1);
        }
        assert_eq!(w.query.num_attrs(), 6);
    }

    #[test]
    fn stream_deterministic() {
        let edges = vec![(1, 2), (3, 4), (5, 6)];
        let a = line_k(3, &edges, 9);
        let b = line_k(3, &edges, 9);
        assert_eq!(a.stream.tuples(), b.stream.tuples());
    }
}
