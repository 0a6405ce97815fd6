#![warn(missing_docs)]

//! Reservoir sampling over joins: the paper's headline algorithms, wired
//! together.
//!
//! This crate combines the predicate-aware reservoir (`rsj-stream`) with the
//! dynamic index (`rsj-index`) into the end-to-end drivers of the paper:
//!
//! * [`reservoir_join::ReservoirJoin`] — Algorithm 6 (`RSJoin`): maintain
//!   `k` uniform samples without replacement of `Q(R_i)` for every prefix
//!   `R_i` of an insert-only stream, over any acyclic join, in
//!   `O(N log N + k log N log(N/k))` total expected time (Corollary 4.3);
//! * [`fk_runtime`] — the foreign-key combination runtime (§4.4), yielding
//!   `RSJoin_opt`;
//! * [`wcoj`] — hash tries and generic worst-case-optimal delta enumeration,
//!   the substrate for cyclic queries;
//! * [`cyclic::CyclicReservoirJoin`] — the GHD driver of §5: bag sub-joins
//!   are materialized incrementally by delta enumeration and fed as inserts
//!   to an acyclic `ReservoirJoin` over the bag-level query (Theorem 5.4);
//! * [`sampler_facade::DynamicSampleIndex`] — the "sampling over joins"
//!   operation (draw a fresh uniform sample of `Q(R)` on demand,
//!   `O(log N)` update and sample);
//! * [`shard::ShardedSampler`] — the partition-parallel execution layer:
//!   hash-partition the stream across `S` worker shards, run any
//!   [`exec::JoinSampler`] per shard on its own thread, merge the
//!   per-shard reservoirs by weighted reservoir union;
//! * [`service::SamplerService`] — the resident sampler: one op stream in,
//!   many registered queries sharing dynamic indexes, many concurrent
//!   readers on never-blocking epoch snapshots.

pub mod count;
pub mod cyclic;
pub mod exec;
pub mod fk_runtime;
mod group;
pub mod reservoir_join;
pub mod sampler_facade;
pub mod service;
pub mod shard;
pub mod wcoj;

pub use count::exact_result_count;
pub use cyclic::CyclicReservoirJoin;
pub use exec::{Durable, JoinSampler, SamplerStats};
pub use fk_runtime::{FkBuildError, FkCombiner, FkReservoirJoin};
pub use reservoir_join::{ReplanPolicy, ReservoirJoin};
pub use sampler_facade::DynamicSampleIndex;
pub use service::{
    QueryHandle, QueryOpts, RebuildFn, SampleReader, SampleSnapshot, SamplerService, ServiceError,
    ServiceOpts, SERVICE_ENGINE,
};
pub use shard::{
    ShardError, ShardFault, ShardHealth, ShardPlan, ShardedSampler, SupervisorPolicy,
    INJECTED_FAULT,
};
