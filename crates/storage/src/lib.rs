#![warn(missing_docs)]

//! Relation storage for streaming joins.
//!
//! The paper's streaming model (§2.1) inserts tuples one at a time into the
//! relations of a database instance, under set semantics. Tuple arenas only
//! ever grow — deletion tombstones a slot instead of compacting — so a
//! `TupleId` is a stable address and positional access into any list is a
//! plain vector index, for insert-only and turnstile streams alike.
//!
//! * [`relation::Relation`] — a flat, arena-backed tuple store with
//!   set-semantics deduplication and tombstone-based removal;
//! * [`relation::Database`] — the collection of relations a query runs over;
//! * [`input::InputTuple`] / [`input::TupleStream`] — the insert-only input
//!   stream fed to the drivers;
//! * [`input::StreamOp`] / [`input::OpStream`] — the fully-dynamic
//!   (turnstile) stream of interleaved inserts and deletes;
//! * [`shared::SharedStore`] — the sampler service's retained op history
//!   with per-relation registration reference counts (one copy of the
//!   stream shared by every registered query);
//! * [`wal::Wal`] / [`wal::Checkpoint`] — the durability layer: a
//!   segmented, checksummed write-ahead log of [`input::StreamOp`]s and the
//!   checkpoint file format that truncates it.

pub mod input;
pub mod relation;
pub mod shared;
pub mod wal;

pub use input::{InputTuple, OpStream, StreamOp, TupleStream};
pub use relation::{Database, Relation};
pub use shared::{SharedStore, SharedStoreError};
pub use wal::{Checkpoint, Wal, WalError, FORMAT_VERSION};
