#![warn(missing_docs)]

//! Shared substrate for the reservoir-sampling-over-joins workspace.
//!
//! This crate holds the small, dependency-free building blocks that every
//! other crate uses:
//!
//! * [`value`] — attribute values, tuple identifiers and inline composite
//!   join [`value::Key`]s;
//! * [`codec`] — the little-endian [`codec::Encoder`]/[`codec::Decoder`]
//!   pair and [`codec::crc32`] checksum that every durable byte format
//!   (WAL records, checkpoints) is built on;
//! * [`epoch`] — the single-writer seqlock [`epoch::EpochCell`] behind the
//!   sampler service's never-blocking snapshot reads;
//! * [`hash`] — an fx-style fast hasher and the [`hash::FxHashMap`]
//!   / [`hash::FxHashSet`] aliases used on every hot path;
//! * [`rng`] — seeded random-number helpers, in particular the geometric
//!   skip-length draw at the heart of skip-based reservoir sampling;
//! * [`keymap`] — an open-addressing [`keymap::KeyMap`] over [`value::Key`]s
//!   that takes precomputed hashes, so one fx digest per projection serves
//!   every table an insert touches, with slots as wide as its keys' arity;
//! * [`idtable`] — the 8-byte-per-entry [`idtable::IdTable`] behind relation
//!   dedup: ids only, compared against the owner's own arena;
//! * [`postings`] — the segmented [`postings::PostingArena`]: many
//!   append-mostly `u32` posting lists packed into one flat allocation;
//! * [`pow2`] — power-of-two rounding used by the approximate degree counters
//!   (`cnt~` in the paper);
//! * [`stats`] — chi-square uniformity testing, histograms and percentile
//!   summaries for the experiment harnesses;
//! * [`heap`] — structural heap-size accounting used by the memory
//!   experiments (Figure 11).

pub mod codec;
pub mod epoch;
pub mod hash;
pub mod heap;
pub mod idtable;
pub mod keymap;
pub mod postings;
pub mod pow2;
pub mod rng;
pub mod stats;
pub mod value;

pub use codec::{crc32, CodecError, Decoder, Encoder};
pub use epoch::EpochCell;
pub use hash::{fx_hash_one, FxHashMap, FxHashSet};
pub use heap::HeapSize;
pub use idtable::IdTable;
pub use keymap::KeyMap;
pub use postings::{ListId, PostingArena, NO_LIST};
pub use value::{Key, TupleId, Value};
