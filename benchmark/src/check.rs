//! Output checks: a harness-side oracle of live tuples, maintained from
//! the op stream outside the timed region, and the sample checks every
//! read goes through.

use rsjoin::common::{fx_hash_one, FxHashSet};
use rsjoin::core::exact_result_count;
use rsjoin::prelude::*;

/// A mid-stream read larger than this is kept for checking as an evenly
/// strided subset of about this many rows; the end-of-stream read is
/// always checked in full. Keeps the copy made between two timed chunks
/// small (`star4_bigk_reads` reads up to 120 k rows at a time).
const MID_STREAM_ROWS: usize = 8192;

/// The rows of a mid-stream read that are kept for checking.
pub fn mid_stream_subset(rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let stride = rows.len().div_ceil(MID_STREAM_ROWS).max(1);
    rows.iter().step_by(stride).cloned().collect()
}

/// The set of live tuples per relation, replayed from the op stream.
pub struct Oracle {
    query: Query,
    live: Vec<FxHashSet<Vec<Value>>>,
    applied: usize,
}

impl Oracle {
    /// The oracle after `preload`, before the first op of the stream.
    pub fn new(query: &Query, preload: &[StreamOp]) -> Oracle {
        let mut o = Oracle {
            query: query.clone(),
            live: vec![FxHashSet::default(); query.num_relations()],
            applied: 0,
        };
        preload.iter().for_each(|op| o.apply(op));
        o
    }

    fn apply(&mut self, op: &StreamOp) {
        match op {
            StreamOp::Insert(t) => {
                self.live[t.relation].insert(t.values.clone());
            }
            StreamOp::Delete(t) => {
                self.live[t.relation].remove(&t.values);
            }
        }
    }

    /// Brings the oracle to the state after the first `n` ops of `ops`.
    pub fn advance(&mut self, ops: &[StreamOp], n: usize) {
        for op in &ops[self.applied..n] {
            self.apply(op);
        }
        self.applied = n;
    }

    /// Live input tuples across all relations.
    pub fn live_tuples(&self) -> usize {
        self.live.iter().map(FxHashSet::len).sum()
    }

    /// Exact `|Q(R)|` over the oracle's live tuples.
    pub fn exact_count(&self) -> u128 {
        let mut db = Database::new();
        for (r, tuples) in self.query.relations().iter().zip(&self.live) {
            let rel = db.add_relation(r.name.clone(), r.attrs.len());
            for t in tuples {
                db.relation_mut(rel).insert(t);
            }
        }
        exact_result_count(&self.query, &db)
    }

    /// Checks one sample read against the live tuples: at most `k` rows,
    /// no duplicates, every row projecting onto a live tuple of each
    /// relation. `output` is the query whose attribute ids index `rows`
    /// (attribute *names* always match the oracle's query). `expect_rows`
    /// is `min(k, |Q(R)|)` where the caller knows it (end of stream, or a
    /// service snapshot that carries its own exact count).
    pub fn check(
        &self,
        output: &Query,
        rows: &[Vec<Value>],
        k: usize,
        expect_rows: Option<usize>,
    ) -> Result<(), String> {
        if rows.len() > k {
            return Err(format!("{} rows exceed k = {k}", rows.len()));
        }
        if let Some(n) = expect_rows {
            if rows.len() != n {
                return Err(format!(
                    "{} rows, expected min(k, |Q(R)|) = {n}",
                    rows.len()
                ));
            }
        }
        // Where each relation's columns sit in an output row.
        let positions: Vec<Vec<usize>> = self
            .query
            .relations()
            .iter()
            .map(|r| {
                r.attrs
                    .iter()
                    .map(|&a| {
                        let name = self.query.attr_name(a);
                        output
                            .attr_names()
                            .iter()
                            .position(|n| n == name)
                            .expect("output query keeps every attribute name")
                    })
                    .collect()
            })
            .collect();
        let mut seen: FxHashSet<&[Value]> = FxHashSet::default();
        let mut tuple = Vec::new();
        for row in rows {
            if row.len() != output.num_attrs() {
                return Err(format!("row of width {}", row.len()));
            }
            if !seen.insert(row) {
                return Err(format!("duplicate row {row:?}"));
            }
            for (rel, pos) in positions.iter().enumerate() {
                tuple.clear();
                tuple.extend(pos.iter().map(|&p| row[p]));
                if !self.live[rel].contains(&tuple) {
                    return Err(format!(
                        "row {row:?} projects onto {tuple:?}, not live in relation {rel}"
                    ));
                }
            }
        }
        Ok(())
    }
}

/// `min(k, count)` as a row count.
pub fn expected_rows(k: usize, count: u128) -> usize {
    count.min(k as u128) as usize
}

/// Fx hash of the final samples (one row set per query) — identical
/// across runs of one seed.
pub fn digest<R: AsRef<[Vec<Value>]>>(samples: &[R]) -> u64 {
    let sets: Vec<&[Vec<Value>]> = samples.iter().map(AsRef::as_ref).collect();
    fx_hash_one(&sets)
}
