#![warn(missing_docs)]

//! The dynamic sampling index for acyclic joins (paper §4).
//!
//! This crate implements the paper's second technical ingredient: an index
//! that, for an acyclic join `Q` over a streaming database `R`,
//!
//! 1. updates in `O(log N)` amortized time per inserted tuple
//!    (Theorem 4.2(1), Algorithm 7);
//! 2. implicitly defines, for each inserted tuple `t`, an array
//!    `ΔJ ⊇ ΔQ(R, t)` of the new join results plus a bounded fraction of
//!    dummies, supporting `|ΔJ|` in `O(1)` and positional access in
//!    `O(log N)` (Theorem 4.2(2–3), Algorithms 8–9);
//! 3. supports drawing a uniform sample of the *full* current result
//!    `Q(R)` in `O(log N)` expected time ([`sampler`]).
//!
//! The core trick: for every join-tree node `e` and key value `t`, the exact
//! count `cnt[T,e,t]` of (approximate) sub-join results below `e` is bucketed
//! by rounded weight. Parents see only the power-of-two rounding
//! `cnt~ = 2^⌈log2 cnt⌉`, so an update propagates upward only when a count
//! *doubles* — `O(log N)` times per key over the whole stream. The rounding
//! slack materializes as dummy positions, which is exactly what the
//! predicate-aware reservoir in `rsj-stream` tolerates.
//!
//! The grouping optimization of §4.4 (Algorithms 10–11) is integrated: when
//! enabled, an internal non-root node whose schema has attributes outside
//! its join attributes `ē` buckets *group tuples* (distinct `ē`-projections,
//! with multiplicity `feq`) instead of base tuples, shrinking propagation
//! fan-out.

mod count;
pub mod dynamic;
pub mod retrieve;
pub mod sampler;
pub mod state;

pub use dynamic::{DynamicIndex, HeapLine, IndexOptions, IndexStats};
pub use retrieve::{materialize, DeltaBatch, JoinResult, ProbeBatch};
pub use sampler::FullSampler;
