//! Plan-sensitive workloads: query/data shapes where the cost-based
//! planner's choices (join tree, sampling root) actually change the
//! measured cost.
//!
//! The paper's graph workloads are symmetric — every relation streams the
//! same edge set — so the canonical orientation is as good as any. These
//! three break the symmetry on purpose:
//!
//! * [`snowflake`] — a fact table with two dimension chains of very
//!   different depth and skew; the join tree is *unique*, so everything the
//!   planner can win here is in the **root** choice (rounding slack
//!   concentrates at the skewed fact keys).
//! * [`self_join_line`] — a line-k self-join over a graph with Zipf-skewed
//!   sources but uniform destinations; again a unique tree, with key skew
//!   rising monotonically along the chain.
//! * [`skewed_star`] — a star-k whose relations have wildly different
//!   cardinalities and hub skew; the star has `k^(k-2)` candidate join
//!   trees, so this is where **tree** choice matters.

use crate::Workload;
use rsj_common::rng::RsjRng;
use rsj_common::Value;
use rsj_datagen::graph::{stream_from_edges, Zipf};
use rsj_query::{FkSchema, QueryBuilder};
use rsj_storage::{InputTuple, TupleStream};

/// Snowflake: `fact(K1, K2, M) ⋈ dim1(K1, D1) ⋈ dim1b(D1, E1) ⋈
/// dim2(K2, D2)`, with Zipf-skewed `K1` on the fact side and a long `dim1`
/// chain. Dimensions are pre-loaded (static, per the §6.1 protocol); facts
/// stream. `scale` is the fact count.
pub fn snowflake(scale: usize, seed: u64) -> Workload {
    let mut qb = QueryBuilder::new();
    qb.relation("fact", &["K1", "K2", "M"]);
    qb.relation("dim1", &["K1", "D1"]);
    qb.relation("dim1b", &["D1", "E1"]);
    qb.relation("dim2", &["K2", "D2"]);
    let query = qb.build().expect("snowflake is well-formed");

    let n_facts = scale.max(8);
    let n_k1 = (n_facts / 8).max(4);
    let n_k2 = (n_facts / 32).max(2);
    let mut rng = RsjRng::seed_from_u64(seed);
    let zipf = Zipf::new(n_k1, 1.1);

    let mut preload = Vec::new();
    for k1 in 0..n_k1 as Value {
        // dim1 fans each K1 out to two D1 values; dim1b chains each D1 on.
        for j in 0..2 {
            let d1 = k1 * 2 + j;
            preload.push(InputTuple::new(1, vec![k1, d1]));
            preload.push(InputTuple::new(2, vec![d1, 1000 + d1]));
        }
    }
    for k2 in 0..n_k2 as Value {
        preload.push(InputTuple::new(3, vec![k2, 5000 + k2]));
    }

    let mut stream = TupleStream::new();
    let mut seen = rsj_common::FxHashSet::default();
    let mut m = 0 as Value;
    while stream.len() < n_facts {
        let k1 = zipf.sample(&mut rng) as Value;
        let k2 = rng.below_u64(n_k2 as u64);
        if seen.insert((k1, k2, m)) {
            stream.push(0, vec![k1, k2, m]);
        }
        m += 1;
    }
    Workload {
        name: "snowflake".to_string(),
        fks: FkSchema::none(query.num_relations()),
        query,
        preload,
        stream,
    }
}

/// Line-k self-join over a graph whose *sources* are Zipf hubs but whose
/// *destinations* are uniform — each logical relation streams the same
/// edge set, and the key skew the planner sees differs per chain position.
/// `scale` is the edge count.
pub fn self_join_line(k: usize, scale: usize, seed: u64) -> Workload {
    assert!(k >= 2);
    // Destinations share the vertex space so chains actually form.
    let edges = skewed_edges(
        scale.max(8),
        (scale / 8).max(4),
        1.2,
        seed,
        DstDomain::Vertices,
    );
    let mut qb = QueryBuilder::new();
    let names: Vec<String> = (0..=k).map(|i| format!("A{i}")).collect();
    for i in 0..k {
        qb.relation(&format!("G{}", i + 1), &[&names[i], &names[i + 1]]);
    }
    let query = qb.build().expect("self-join line is well-formed");
    Workload {
        name: format!("self-line-{k}"),
        fks: FkSchema::none(query.num_relations()),
        query,
        preload: Vec::new(),
        stream: stream_from_edges(&edges, k, seed ^ 0x11fe_5eed),
    }
}

/// Star-k with wildly asymmetric petals: relation `G1` streams the full
/// hub-skewed edge set, and each later relation streams a geometrically
/// smaller subset. Every spanning tree of the relation clique is a valid
/// join tree here, so this is the workload where the planner's *tree*
/// choice (who sits next to whom) is measurable. `scale` is `G1`'s edge
/// count.
pub fn skewed_star(k: usize, scale: usize, seed: u64) -> Workload {
    assert!(k >= 3);
    // Petals only join on the hub; fresh per-edge destinations keep the
    // B-columns near-distinct.
    let full = skewed_edges(
        scale.max(16),
        (scale / 16).max(4),
        1.1,
        seed,
        DstDomain::Fresh,
    );
    let mut qb = QueryBuilder::new();
    for i in 0..k {
        qb.relation(&format!("G{}", i + 1), &["HUB", &format!("B{}", i + 1)]);
    }
    let query = qb.build().expect("skewed star is well-formed");
    let mut stream = TupleStream::new();
    let mut len = full.len();
    for rel in 0..k {
        for &(s, t) in &full[..len] {
            stream.push(rel, vec![s, t]);
        }
        // Each petal a quarter the size of the previous one.
        len = (len / 4).max(2);
    }
    let mut rng = RsjRng::seed_from_u64(seed ^ 0x5742_7374);
    stream.shuffle(&mut rng);
    Workload {
        name: format!("skewed-star-{k}"),
        fks: FkSchema::none(query.num_relations()),
        query,
        preload: Vec::new(),
        stream,
    }
}

/// Where [`skewed_edges`] draws destination endpoints.
#[derive(Clone, Copy)]
enum DstDomain {
    /// Uniform over the same vertex space as the sources — edges chain.
    Vertices,
    /// A disjoint wide range — destinations are near-distinct payload.
    Fresh,
}

/// Distinct directed edges with Zipf-distributed sources — asymmetric
/// per-column skew, unlike [`rsj_datagen::GraphConfig`]'s symmetric
/// endpoints.
fn skewed_edges(
    edges: usize,
    nodes: usize,
    zipf: f64,
    seed: u64,
    dst: DstDomain,
) -> Vec<(Value, Value)> {
    let mut rng = RsjRng::seed_from_u64(seed);
    let z = Zipf::new(nodes, zipf);
    let mut seen = rsj_common::FxHashSet::default();
    let mut out = Vec::with_capacity(edges);
    let fresh_domain = (edges as u64 * 2).max(4);
    let mut attempts = 0usize;
    while out.len() < edges && attempts < edges * 200 + 1000 {
        attempts += 1;
        let s = z.sample(&mut rng) as Value;
        let t = match dst {
            DstDomain::Vertices => rng.below_u64(nodes as u64),
            DstDomain::Fresh => nodes as Value + rng.below_u64(fresh_domain),
        };
        if seen.insert((s, t)) {
            out.push((s, t));
        }
    }
    assert_eq!(out.len(), edges, "could not place {edges} distinct edges");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_query::{all_join_trees, JoinTree};

    #[test]
    fn snowflake_shape() {
        let w = snowflake(256, 7);
        assert!(JoinTree::build(&w.query).is_some());
        assert_eq!(all_join_trees(&w.query, 64).len(), 1, "unique tree");
        assert!(!w.preload.is_empty());
        assert!(w.stream.len() >= 256);
        // Streamed tuples never hit the static dimensions.
        let static_rels: rsj_common::FxHashSet<usize> =
            w.preload.iter().map(|t| t.relation).collect();
        assert_eq!(static_rels, [1usize, 2, 3].into_iter().collect());
        for t in w.stream.iter() {
            assert_eq!(t.relation, 0);
        }
    }

    #[test]
    fn self_join_line_shape() {
        let w = self_join_line(4, 128, 3);
        assert_eq!(w.query.num_relations(), 4);
        assert_eq!(all_join_trees(&w.query, 64).len(), 1, "unique tree");
        assert_eq!(w.stream.len(), 128 * 4);
    }

    #[test]
    fn skewed_star_shape() {
        let w = skewed_star(4, 256, 5);
        assert_eq!(all_join_trees(&w.query, 64).len(), 16, "16 trees on K4");
        // Petal sizes shrink geometrically.
        let mut per_rel = [0usize; 4];
        for t in w.stream.iter() {
            per_rel[t.relation] += 1;
        }
        assert_eq!(per_rel[0], 256);
        assert!(per_rel[1] < per_rel[0] && per_rel[2] < per_rel[1]);
    }

    #[test]
    fn workloads_are_deterministic() {
        for (a, b) in [
            (snowflake(64, 9), snowflake(64, 9)),
            (self_join_line(3, 64, 9), self_join_line(3, 64, 9)),
            (skewed_star(3, 64, 9), skewed_star(3, 64, 9)),
        ] {
            assert_eq!(a.stream.tuples(), b.stream.tuples(), "{}", a.name);
            assert_eq!(a.preload, b.preload, "{}", a.name);
        }
    }
}
