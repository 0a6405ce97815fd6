#![warn(missing_docs)]

//! # rsjoin — Reservoir Sampling over Joins
//!
//! A Rust implementation of *"Reservoir Sampling over Joins"* (Dai, Hu, Yi
//! — SIGMOD 2024): maintain `k` uniform samples **without replacement** of
//! the result of a join query while the input tuples stream in, in
//! near-linear total time `O(N log N + k log N log(N/k))` — even when the
//! join result itself is polynomially larger than the input.
//!
//! ## Quick start
//!
//! ```
//! use rsjoin::prelude::*;
//!
//! // SELECT * FROM R, S WHERE R.y = S.y  — natural join on attribute "y".
//! let mut qb = QueryBuilder::new();
//! qb.relation("R", &["x", "y"]);
//! qb.relation("S", &["y", "z"]);
//! let query = qb.build().unwrap();
//!
//! // Maintain 100 uniform samples of the join while tuples stream in.
//! let mut rj = ReservoirJoin::new(query, 100, /*seed*/ 7).unwrap();
//! rj.process(0, &[1, 2]); // R(x=1, y=2)
//! rj.process(1, &[2, 3]); // S(y=2, z=3)
//! assert_eq!(rj.samples().to_vec(), [[1, 2, 3]]); // (x, y, z)
//! ```
//!
//! ## What's inside
//!
//! | Component | Crate | Paper section |
//! |---|---|---|
//! | Reservoir sampling with a predicate | [`stream`] | §3 (Algs. 1, 4, 5) |
//! | Dynamic index for acyclic joins | [`index`] | §4 (Algs. 7–9) |
//! | Grouping & foreign-key optimizations | [`index`], [`core`] | §4.4 (Algs. 10–11) |
//! | `ReservoirJoin` driver | [`core`] | §3.4 (Alg. 6) |
//! | Cyclic joins via GHDs + generic join | [`core`], [`query`] | §5 |
//! | SJoin / symmetric / naive baselines | [`baselines`] | §6 |
//! | `JoinSampler` executor trait + [`engine::Engine`] factory | [`core`], [`engine`] | §6.1 (the engines compared) |
//! | Durability: op-stream WAL + checkpoint/restore ([`persist`]) | [`storage`], facade | beyond the paper |
//! | Resident `SamplerService`: many queries, shared indexes, epoch readers | [`common`], [`storage`], [`core`], facade | beyond the paper |
//! | Workload generators & benchmark queries | [`datagen`], [`queries`] | §6.1, §6.3 |
//!
//! Every figure and table of the paper's evaluation has a regenerating
//! harness in `crates/bench` (see EXPERIMENTS.md); ARCHITECTURE.md maps
//! the crates and the executor layers.

pub use rsj_baselines as baselines;
pub use rsj_common as common;
pub use rsj_core as core;
pub use rsj_datagen as datagen;
pub use rsj_index as index;
pub use rsj_queries as queries;
pub use rsj_query as query;
pub use rsj_storage as storage;
pub use rsj_stream as stream;

pub mod engine;
pub mod persist;

/// Compiles every `rust` code block in the README as a doctest, so the
/// quickstart can never drift from the actual API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// The most common imports in one place.
pub mod prelude {
    pub use crate::engine::{Engine, EngineError, EngineOpts};
    pub use crate::persist::{
        CheckpointPolicy, DurabilityHealth, PersistError, Persistent, PersistentService,
    };
    pub use rsj_baselines::{NaiveRebuild, SJoin, SJoinOpt, SymmetricHashJoin, SymmetricSampler};
    pub use rsj_common::rng::RsjRng;
    pub use rsj_common::EpochCell;
    pub use rsj_common::{Key, TupleId, Value};
    pub use rsj_core::{
        CyclicReservoirJoin, DynamicSampleIndex, FkReservoirJoin, JoinSampler, QueryHandle,
        QueryOpts, ReservoirJoin, SampleReader, SampleSnapshot, SamplerExt, SamplerService,
        SamplerStats, ServiceError, ServiceOpts,
    };
    pub use rsj_index::{DynamicIndex, FullSampler, IndexOptions};
    pub use rsj_query::{FkSchema, Ghd, JoinTree, Plan, Query, QueryBuilder};
    pub use rsj_storage::wal::{Checkpoint, RetryPolicy, Wal, WalError, WalFs, WalOptions};
    pub use rsj_storage::{
        Database, InputTuple, OpStream, SharedStoreError, StreamOp, TupleStream,
    };
    pub use rsj_stream::{Batch, ClassicReservoir, FnBatch, Reservoir, Rows, SliceBatch, Slot};
}
