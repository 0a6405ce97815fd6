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
//! * [`rewrite::Rewritten`] — a stream rewrite in front of any sampler,
//!   the one wrapper of the engines below;
//! * [`fk_runtime`] — the foreign-key combination runtime (§4.4), yielding
//!   `RSJoin_opt`;
//! * [`wcoj`] — hash tries and generic worst-case-optimal delta enumeration,
//!   the substrate for cyclic queries;
//! * [`cyclic::CyclicReservoirJoin`] — the GHD driver of §5: bag sub-joins
//!   are materialized incrementally by delta enumeration and fed as signed
//!   tuples to an acyclic `ReservoirJoin` over the bag-level query
//!   (Theorem 5.4);
//! * [`sampler_facade::DynamicSampleIndex`] — the "sampling over joins"
//!   operation (draw a fresh uniform sample of `Q(R)` on demand,
//!   `O(log N)` update and sample);
//! * [`service::SamplerService`] — the resident sampler: one op stream in,
//!   many registered queries sharing dynamic indexes, many concurrent
//!   readers on never-blocking epoch snapshots.

pub mod count;
pub mod cyclic;
pub mod exec;
pub mod fk_runtime;
mod group;
pub mod reservoir_join;
pub mod rewrite;
pub mod sampler_facade;
pub mod service;
pub mod wcoj;

pub use count::exact_result_count;
pub use cyclic::{BagSet, CyclicReservoirJoin};
pub use exec::{Durable, JoinSampler, SamplerStats};
pub use fk_runtime::{FkCombiner, FkReservoirJoin};
pub use reservoir_join::{ReplanPolicy, ReservoirJoin};
pub use rewrite::{Rewrite, Rewritten};
pub use sampler_facade::DynamicSampleIndex;
pub use service::{
    QueryHandle, QueryOpts, SampleReader, SampleSnapshot, SamplerService, ServiceError,
    ServiceOpts, SERVICE_ENGINE,
};
