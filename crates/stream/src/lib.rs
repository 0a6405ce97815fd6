#![warn(missing_docs)]

//! Reservoir sampling algorithms over positional streams (paper §3).
//!
//! This crate implements the first technical ingredient of *Reservoir
//! Sampling over Joins* (SIGMOD 2024): reservoir sampling **with a
//! predicate**. The streams it samples from are *positional*: in addition to
//! `next()`, they support `skip(i)` — jump over `i` items in `O(1)` stream
//! operations — and `remain()`. The join machinery in `rsj-core` exposes each
//! delta-result batch `ΔJ` as such a stream, where "items" are join results
//! retrieved by position from the dynamic index and *dummy* items are the
//! positions the index's power-of-two rounding left empty.
//!
//! Algorithms provided:
//!
//! * [`reservoir::ClassicReservoir`] — Waterman's `O(N)` algorithm
//!   (paper §3.1, used by the `RS` baseline of §6.3);
//! * [`reservoir::Reservoir`] — the predicate-aware skip-based algorithm
//!   (Algorithm 1) in its batched form (Algorithms 4–5), running in
//!   `O(Σ min(1, k/(r_i+1)))` stops, which is instance-optimal
//!   (Theorem 3.3);
//! * [`density`] — the φ-density machinery of Definition 3.4 and
//!   Lemmas 3.6–3.8, used both by tests and by the index's density
//!   guarantees.

pub mod batch;
pub mod density;
pub mod reservoir;

pub use batch::{Batch, FnBatch, SliceBatch};
pub use reservoir::{ClassicReservoir, Reservoir, Rows, Slot};
