//! Observed stream statistics — the evidence the cost-based planner runs on.
//!
//! The planner in `rsj-query::plan` scores candidate join trees with a cost
//! model whose inputs are *observed* quantities of the live data: how many
//! tuples each relation holds, how many distinct values each column has
//! seen, and how heavy the heaviest key is. [`TableStatistics`] collects
//! exactly those, two ways:
//!
//! * **streaming** — [`TableStatistics::observe_insert`] /
//!   [`observe_delete`](TableStatistics::observe_delete) per tuple, for
//!   pipelines that want statistics without retaining the data (the
//!   `fig_planner` pre-pass);
//! * **snapshot** — [`TableStatistics::from_database`] scans the live
//!   tuples of a [`Database`], for consumers that already store the
//!   relations (the `RSJoin` driver's `replan()` hook).
//!
//! Both produce identical numbers for the same live multiset: the
//! per-column sketch is an exact value→frequency map, not an approximation
//! — relations in this system live in memory anyway, so the planner may as
//! well run on exact frequencies. (A sub-linear sketch can replace the map
//! behind the same accessors if stream cardinalities ever outgrow memory.)

use crate::relation::Database;
use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::{FxHashMap, Value};

/// Exact per-column frequency sketch: distinct count, maximum per-key
/// frequency, and the live row count behind them.
#[derive(Clone, Debug, Default)]
pub(crate) struct ColumnStats {
    freq: FxHashMap<Value, u64>,
    rows: u64,
}

impl ColumnStats {
    /// Records one occurrence of `v`.
    pub fn observe(&mut self, v: Value) {
        *self.freq.entry(v).or_insert(0) += 1;
        self.rows += 1;
    }

    /// Removes one occurrence of `v` (no-op if `v` was never observed —
    /// the caller is expected to mirror the relation's set semantics).
    fn unobserve(&mut self, v: Value) {
        if let Some(c) = self.freq.get_mut(&v) {
            *c -= 1;
            self.rows -= 1;
            if *c == 0 {
                self.freq.remove(&v);
            }
        }
    }

    /// Number of distinct live values.
    pub fn distinct(&self) -> u64 {
        self.freq.len() as u64
    }

    /// Frequency of the heaviest live value (0 when empty).
    fn max_frequency(&self) -> u64 {
        self.freq.values().copied().max().unwrap_or(0)
    }

    /// Serializes the sketch. The frequency map is written in sorted value
    /// order so equal sketches always produce equal bytes regardless of
    /// hash-map history.
    fn snapshot_to(&self, enc: &mut Encoder) {
        enc.put_u64(self.rows);
        let mut entries: Vec<(Value, u64)> = self.freq.iter().map(|(&v, &c)| (v, c)).collect();
        entries.sort_unstable();
        enc.put_usize(entries.len());
        for (v, c) in entries {
            enc.put_u64(v);
            enc.put_u64(c);
        }
    }

    fn restore_from(dec: &mut Decoder) -> Result<ColumnStats, CodecError> {
        let rows = dec.u64()?;
        let n = dec.seq_len(16)?;
        let mut freq = FxHashMap::default();
        freq.reserve(n);
        let mut total = 0u64;
        for _ in 0..n {
            let v = dec.u64()?;
            let c = dec.u64()?;
            if c == 0 || freq.insert(v, c).is_some() {
                return Err(CodecError::Corrupt("column sketch frequency entry"));
            }
            total = total.saturating_add(c);
        }
        if total != rows {
            return Err(CodecError::Corrupt("column sketch rows disagree with sum"));
        }
        Ok(ColumnStats { freq, rows })
    }
}

/// Per-relation statistics: live cardinality plus one `ColumnStats` per
/// schema position.
#[derive(Clone, Debug, Default)]
pub struct RelationStats {
    /// Live tuple count (set semantics — duplicates and deleted tuples
    /// excluded, exactly like [`crate::Relation::len`]).
    pub cardinality: u64,
    /// One sketch per schema position.
    pub(crate) columns: Vec<ColumnStats>,
}

impl RelationStats {
    fn with_arity(arity: usize) -> RelationStats {
        RelationStats {
            cardinality: 0,
            columns: vec![ColumnStats::default(); arity],
        }
    }

    /// Distinct count of the projection onto `positions`, estimated as the
    /// largest single-column distinct count among them — a lower bound on
    /// the true set-distinct count, so the derived fan-out
    /// ([`fanout`](RelationStats::fanout)) is an upper estimate. An empty
    /// projection (a root's empty key) has one distinct value.
    fn distinct_at(&self, positions: &[usize]) -> u64 {
        positions
            .iter()
            .map(|&p| self.columns[p].distinct())
            .max()
            .unwrap_or(1)
            .max(1)
    }

    /// Expected live tuples per distinct value of the projection onto
    /// `positions` (≥ the true average; 1.0 for an empty relation).
    pub fn fanout(&self, positions: &[usize]) -> f64 {
        if self.cardinality == 0 {
            1.0
        } else {
            self.cardinality as f64 / self.distinct_at(positions) as f64
        }
    }

    /// Heaviest-key frequency of the projection onto `positions`: the
    /// smallest single-column max frequency among them (an upper bound on
    /// the projection's true max frequency; the cardinality for an empty
    /// projection).
    fn max_fanout(&self, positions: &[usize]) -> u64 {
        positions
            .iter()
            .map(|&p| self.columns[p].max_frequency())
            .min()
            .unwrap_or(self.cardinality)
            .max(1)
    }

    /// Skew of the projection: heaviest key frequency over mean key
    /// frequency (≥ 1.0; exactly 1.0 for uniform keys or no data).
    pub fn skew(&self, positions: &[usize]) -> f64 {
        let avg = self.fanout(positions);
        if avg <= 0.0 {
            1.0
        } else {
            (self.max_fanout(positions) as f64 / avg).max(1.0)
        }
    }
}

/// Observed statistics for every relation of one query.
#[derive(Clone, Debug, Default)]
pub struct TableStatistics {
    rels: Vec<RelationStats>,
    inserts_seen: u64,
    deletes_seen: u64,
}

impl TableStatistics {
    /// An empty collector for `arities.len()` relations.
    pub fn new(arities: &[usize]) -> TableStatistics {
        TableStatistics {
            rels: arities
                .iter()
                .map(|&a| RelationStats::with_arity(a))
                .collect(),
            inserts_seen: 0,
            deletes_seen: 0,
        }
    }

    /// Snapshot of the live tuples of `db` (tombstones excluded).
    pub fn from_database(db: &Database) -> TableStatistics {
        let mut stats = TableStatistics::new(&db.iter().map(|r| r.arity()).collect::<Vec<_>>());
        for (rel, r) in db.iter().enumerate() {
            for (_, t) in r.iter() {
                stats.observe_insert(rel, t);
            }
        }
        stats
    }

    /// Records one accepted insert into relation `rel`. Callers enforce set
    /// semantics (observe only tuples the relation actually accepted).
    pub fn observe_insert(&mut self, rel: usize, tuple: &[Value]) {
        let rs = &mut self.rels[rel];
        rs.cardinality += 1;
        for (col, &v) in rs.columns.iter_mut().zip(tuple) {
            col.observe(v);
        }
        self.inserts_seen += 1;
    }

    /// Records one applied delete from relation `rel` (present at deletion
    /// time).
    pub fn observe_delete(&mut self, rel: usize, tuple: &[Value]) {
        let rs = &mut self.rels[rel];
        rs.cardinality = rs.cardinality.saturating_sub(1);
        for (col, &v) in rs.columns.iter_mut().zip(tuple) {
            col.unobserve(v);
        }
        self.deletes_seen += 1;
    }

    /// Per-relation statistics, indexed by relation id.
    pub fn relations(&self) -> &[RelationStats] {
        &self.rels
    }

    /// Statistics of relation `rel`.
    pub fn relation(&self, rel: usize) -> &RelationStats {
        &self.rels[rel]
    }

    /// Number of relations covered.
    pub fn len(&self) -> usize {
        self.rels.len()
    }

    /// True when built for zero relations.
    pub fn is_empty(&self) -> bool {
        self.rels.is_empty()
    }

    /// Total live tuples across all relations.
    fn total_live(&self) -> u64 {
        self.rels.iter().map(|r| r.cardinality).sum()
    }

    /// Inserts observed over the collector's lifetime (not live count).
    pub fn inserts_seen(&self) -> u64 {
        self.inserts_seen
    }

    /// Deletes observed over the collector's lifetime.
    pub fn deletes_seen(&self) -> u64 {
        self.deletes_seen
    }

    /// Observed share of stream traffic hitting relation `rel` (lifetime
    /// inserts+deletes would be ideal; live cardinality is the proxy that
    /// both entry points can produce identically). Uniform when no data has
    /// been observed.
    pub fn traffic_share(&self, rel: usize) -> f64 {
        let total = self.total_live();
        if total == 0 {
            1.0 / self.rels.len().max(1) as f64
        } else {
            self.rels[rel].cardinality as f64 / total as f64
        }
    }

    /// True when nothing has been observed yet — the planner treats this as
    /// "no evidence" and keeps the canonical orientation.
    pub fn no_evidence(&self) -> bool {
        self.inserts_seen == 0
    }

    /// Serializes the full collector (lifetime counters included, so a
    /// restored planner sees the same evidence history).
    pub fn snapshot_to(&self, enc: &mut Encoder) {
        enc.put_u64(self.inserts_seen);
        enc.put_u64(self.deletes_seen);
        enc.put_usize(self.rels.len());
        for rs in &self.rels {
            enc.put_u64(rs.cardinality);
            enc.put_usize(rs.columns.len());
            for col in &rs.columns {
                col.snapshot_to(enc);
            }
        }
    }

    /// Reconstructs a collector from
    /// [`snapshot_to`](TableStatistics::snapshot_to) bytes.
    pub fn restore_from(dec: &mut Decoder) -> Result<TableStatistics, CodecError> {
        let inserts_seen = dec.u64()?;
        let deletes_seen = dec.u64()?;
        let nrels = dec.seq_len(16)?;
        let mut rels = Vec::with_capacity(nrels);
        for _ in 0..nrels {
            let cardinality = dec.u64()?;
            let ncols = dec.seq_len(8)?;
            let columns = (0..ncols)
                .map(|_| ColumnStats::restore_from(dec))
                .collect::<Result<_, _>>()?;
            rels.push(RelationStats {
                cardinality,
                columns,
            });
        }
        Ok(TableStatistics {
            rels,
            inserts_seen,
            deletes_seen,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_sketch_tracks_distinct_and_max() {
        let mut c = ColumnStats::default();
        for v in [1u64, 1, 1, 2, 3] {
            c.observe(v);
        }
        assert_eq!(c.rows, 5);
        assert_eq!(c.distinct(), 3);
        assert_eq!(c.max_frequency(), 3);
        c.unobserve(1);
        c.unobserve(3);
        assert_eq!(c.distinct(), 2);
        assert_eq!(c.max_frequency(), 2);
    }

    #[test]
    fn streaming_matches_snapshot() {
        let mut db = Database::new();
        db.add_relation("R", 2);
        db.add_relation("S", 2);
        let mut streaming = TableStatistics::new(&[2, 2]);
        let tuples: Vec<(usize, [Value; 2])> = vec![
            (0, [1, 10]),
            (0, [2, 10]),
            (0, [2, 11]),
            (1, [10, 5]),
            (1, [10, 6]),
        ];
        for (rel, t) in &tuples {
            if db.relation_mut(*rel).insert(t).is_some() {
                streaming.observe_insert(*rel, t);
            }
        }
        // Delete one from both views.
        db.relation_mut(0).remove(&[2, 10]).unwrap();
        streaming.observe_delete(0, &[2, 10]);
        let snap = TableStatistics::from_database(&db);
        assert_eq!(snap.relation(0).cardinality, 2);
        for rel in 0..2 {
            let (a, b) = (streaming.relation(rel), snap.relation(rel));
            assert_eq!(a.cardinality, b.cardinality, "rel {rel}");
            for (ca, cb) in a.columns.iter().zip(&b.columns) {
                assert_eq!(ca.distinct(), cb.distinct());
                assert_eq!(ca.max_frequency(), cb.max_frequency());
            }
        }
    }

    #[test]
    fn projection_estimates() {
        let mut s = TableStatistics::new(&[2]);
        // 6 tuples, column 0 has 2 distinct (heaviest 4), column 1 has 6.
        for (a, b) in [(1, 10), (1, 11), (1, 12), (1, 13), (2, 14), (2, 15)] {
            s.observe_insert(0, &[a, b]);
        }
        let r = s.relation(0);
        assert_eq!(r.distinct_at(&[0]), 2);
        assert_eq!(r.distinct_at(&[1]), 6);
        // Set-distinct of (0,1) is 6; the estimate takes the max column.
        assert_eq!(r.distinct_at(&[0, 1]), 6);
        assert_eq!(r.distinct_at(&[]), 1);
        assert!((r.fanout(&[0]) - 3.0).abs() < 1e-12);
        assert_eq!(r.max_fanout(&[0]), 4);
        assert!((r.skew(&[0]) - 4.0 / 3.0).abs() < 1e-12);
        assert!((r.skew(&[1]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_round_trip_is_byte_stable() {
        let mut s = TableStatistics::new(&[2, 1]);
        for (a, b) in [(1u64, 10u64), (1, 11), (2, 10), (3, 12)] {
            s.observe_insert(0, &[a, b]);
        }
        s.observe_insert(1, &[5]);
        s.observe_delete(0, &[1, 11]);
        let snap = |st: &TableStatistics| {
            let mut e = Encoder::new();
            st.snapshot_to(&mut e);
            e.into_bytes()
        };
        let bytes = snap(&s);
        let mut dec = Decoder::new(&bytes);
        let s2 = TableStatistics::restore_from(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(s2.inserts_seen(), s.inserts_seen());
        assert_eq!(s2.deletes_seen(), s.deletes_seen());
        assert_eq!(s2.relation(0).cardinality, s.relation(0).cardinality);
        for rel in 0..2 {
            for (a, b) in s
                .relation(rel)
                .columns
                .iter()
                .zip(&s2.relation(rel).columns)
            {
                assert_eq!(a.distinct(), b.distinct());
                assert_eq!(a.max_frequency(), b.max_frequency());
                assert_eq!(a.rows, b.rows);
            }
        }
        assert_eq!(snap(&s2), bytes, "re-serialization drifted");
        // A restored collector keeps observing correctly.
        let mut s3 = s2.clone();
        s3.observe_insert(0, &[1, 10]);
        assert_eq!(s3.relation(0).columns[0].max_frequency(), 2);
    }

    #[test]
    fn snapshot_rejects_row_count_mismatch() {
        let mut s = TableStatistics::new(&[1]);
        s.observe_insert(0, &[9]);
        let mut e = Encoder::new();
        s.snapshot_to(&mut e);
        let mut bytes = e.into_bytes();
        // Column rows field sits right after the two lifetime counters,
        // the relation count, cardinality and column count.
        let off = 8 * 5;
        bytes[off..off + 8].copy_from_slice(&7u64.to_le_bytes());
        assert!(TableStatistics::restore_from(&mut Decoder::new(&bytes)).is_err());
    }

    #[test]
    fn traffic_share_and_evidence() {
        let mut s = TableStatistics::new(&[1, 1]);
        assert!(s.no_evidence());
        assert!((s.traffic_share(0) - 0.5).abs() < 1e-12);
        s.observe_insert(0, &[1]);
        s.observe_insert(0, &[2]);
        s.observe_insert(1, &[3]);
        assert!(!s.no_evidence());
        assert!((s.traffic_share(0) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.inserts_seen(), 3);
        assert_eq!(s.total_live(), 3);
    }
}
