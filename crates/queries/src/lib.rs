#![warn(missing_docs)]

//! The paper's benchmark queries (§6.1 and Appendix A), packaged as
//! runnable workloads.
//!
//! A [`Workload`] bundles a query, its foreign-key metadata, the pre-loaded
//! tuples (static dimension tables, per §6.1), and the shuffled input
//! stream. Graph queries (line-k, star-k, dumbbell) stream one shuffled
//! copy of the edge set per logical relation; relational queries (QX, QY,
//! QZ over `tpcds-lite`, Q10 over `ldbc-lite`) pre-load the small static
//! tables and stream the rest.

mod graph_queries;
pub mod relational;

pub use graph_queries::{dumbbell, line_k, star_k};
pub use relational::{q10, qx, qy, qz};

use rsj_query::{FkSchema, Query};
use rsj_storage::{InputTuple, TupleStream};

/// A fully wired benchmark workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Display name (`"line-3"`, `"QZ"`, ...).
    pub name: String,
    /// The join query.
    pub query: Query,
    /// Primary-key metadata (empty for graph queries).
    pub fks: FkSchema,
    /// Tuples loaded before the clock starts (static dimension tables).
    pub preload: Vec<InputTuple>,
    /// The timed input stream.
    pub stream: TupleStream,
}

impl Workload {
    /// Total input size `N` (preload + stream).
    pub fn total_tuples(&self) -> usize {
        self.preload.len() + self.stream.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_datagen::{GraphConfig, LdbcLite, TpcdsLite};

    fn small_graph() -> Vec<(u64, u64)> {
        GraphConfig {
            nodes: 60,
            edges: 200,
            zipf: 0.8,
            seed: 1,
        }
        .generate()
    }

    #[test]
    fn all_graph_workloads_build_and_are_acyclic_or_cyclic_as_expected() {
        let edges = small_graph();
        for k in 3..=5 {
            let w = line_k(k, &edges, 1);
            assert!(rsj_query::JoinTree::build(&w.query).is_some(), "line-{k}");
            assert_eq!(w.stream.len(), edges.len() * k);
        }
        for k in 4..=6 {
            let w = star_k(k, &edges, 1);
            assert!(rsj_query::JoinTree::build(&w.query).is_some(), "star-{k}");
        }
        let d = dumbbell(&edges, 1);
        assert!(
            rsj_query::JoinTree::build(&d.query).is_none(),
            "dumbbell cyclic"
        );
        assert_eq!(d.stream.len(), edges.len() * 7);
    }

    #[test]
    fn relational_workloads_build() {
        let t = TpcdsLite::generate(1, 2);
        for (w, expected_rewritten) in [(qx(&t, 3), 2), (qy(&t, 3), 2), (qz(&t, 3), 3)] {
            assert!(
                rsj_query::JoinTree::build(&w.query).is_some(),
                "{} must be acyclic",
                w.name
            );
            let plan = rsj_query::CombinePlan::build(&w.query, &w.fks)
                .expect("workload fks are well-formed");
            assert_eq!(
                plan.rewritten.num_relations(),
                expected_rewritten,
                "{} rewrite",
                w.name
            );
            assert!(!w.preload.is_empty());
            assert!(!w.stream.is_empty());
        }
        let l = LdbcLite::generate(1, 2);
        let w = q10(&l, 3);
        assert!(
            rsj_query::JoinTree::build(&w.query).is_some(),
            "Q10 acyclic"
        );
        let plan =
            rsj_query::CombinePlan::build(&w.query, &w.fks).expect("workload fks are well-formed");
        assert!(
            plan.rewritten.num_relations() <= 4,
            "Q10 rewrite got {} relations",
            plan.rewritten.num_relations()
        );
    }

    #[test]
    fn preloaded_relations_are_static_in_stream() {
        // No streamed tuple may target a relation that appears in preload
        // for relational workloads built per §6.1 (static tables fully
        // pre-loaded).
        let t = TpcdsLite::generate(1, 4);
        let w = qz(&t, 5);
        let static_rels: rsj_common::FxHashSet<usize> =
            w.preload.iter().map(|t| t.relation).collect();
        for s in w.stream.iter() {
            assert!(
                !static_rels.contains(&s.relation),
                "streamed tuple into static relation {}",
                s.relation
            );
        }
    }
}
