#![warn(missing_docs)]

//! Join-query structure: hypergraphs, join trees, decompositions, rewrites.
//!
//! A natural join query is a hypergraph `Q = (V, E)` (paper §2.1): `V` the
//! attributes, `E` the relation schemas. This crate provides everything the
//! index and drivers need to *reason about* a query before any tuple flows:
//!
//! * `hypergraph` — the [`Query`] type and its builder;
//! * `join_tree` — GYO reduction: α-acyclicity testing and join-tree
//!   construction (Definition 4.1);
//! * [`rooted`] — the rooted views of a join tree, one per relation, with
//!   all the key/child attribute bookkeeping the dynamic index needs
//!   (§4.3), including the grouping metadata of §4.4;
//! * [`fractional`] — fractional edge cover numbers `ρ*` via an in-tree
//!   vertex-enumeration LP solver (Definition 5.1);
//! * [`ghd`] — generalized hypertree decompositions for cyclic queries
//!   (Definitions 5.2–5.3), with automatic search for small queries;
//! * [`foreign_key`] — the foreign-key combination rewrite of §4.4;
//! * [`plan`] — the execution plan of an acyclic query: the join tree the
//!   index is built over and the root sampling draws through, fixed when
//!   the sampler is built.

pub mod foreign_key;
pub mod fractional;
pub mod ghd;
mod hypergraph;
mod join_tree;
pub mod plan;
pub mod rooted;

pub use foreign_key::{CombineError, CombinePlan, FkSchema};
pub use ghd::Ghd;
pub use hypergraph::{Query, QueryBuilder, RelSchema};
pub use join_tree::JoinTree;
pub use plan::Plan;
pub use rooted::{NodeInfo, RootedTree};
