#![warn(missing_docs)]

//! Workload generators for the paper's experiments (§6.1, §6.3).
//!
//! The paper evaluates on the Epinions social graph (SNAP), TPC-DS, and
//! LDBC-SNB. None of those artifacts can be redistributed here, so this
//! crate generates seeded synthetic equivalents that preserve the
//! properties the algorithms are sensitive to — degree skew, foreign-key
//! structure, and cardinality ratios:
//!
//! * [`graph`] — Zipf-degree directed graphs standing in for Epinions, plus
//!   the per-relation shuffle streaming protocol;
//! * [`tpcds`] — `tpcds-lite`: the seven TPC-DS tables QX/QY/QZ touch, with
//!   real PK/FK structure and a scale-factor knob;
//! * [`ldbc`] — `ldbc-lite`: the LDBC-SNB BI-Q10 tables;
//! * [`strings`] — edit-distance string streams for the §6.3 predicate
//!   experiments, with banded Levenshtein distance;
//! * [`turnstile`] — fully-dynamic workloads: weave deletions (configurable
//!   ratio and victim policy) into any insert stream.

pub mod graph;
pub mod ldbc;
pub mod strings;
pub mod tpcds;
pub mod turnstile;

pub use graph::GraphConfig;
pub use ldbc::LdbcLite;
pub use strings::{levenshtein_within, StringStream, StringStreamConfig};
pub use tpcds::TpcdsLite;
pub use turnstile::{TurnstileConfig, VictimPolicy};
