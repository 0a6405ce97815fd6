//! [`JoinSampler`] implementations for the baseline engines, plus the
//! [`SymmetricSampler`] adapter that gives the two-table symmetric hash
//! join the same full-width-tuple interface as every other engine.

use crate::naive::NaiveRebuild;
use crate::sjoin::{SJoin, SJoinOpt};
use crate::symmetric::SymmetricHashJoin;
use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::{FxHashSet, Value};
use rsj_core::exec::{JoinSampler, SamplerStats};
use rsj_query::Query;
use rsj_storage::{SharedStoreError, StreamOp};

impl JoinSampler for NaiveRebuild {
    fn name(&self) -> &'static str {
        "NaiveRebuild"
    }

    fn output_query(&self) -> &Query {
        self.query()
    }

    fn process(&mut self, rel: usize, tuple: &[Value]) {
        NaiveRebuild::process(self, rel, tuple);
    }

    /// Trivially dynamic: every op rebuilds and redraws.
    fn delete(&mut self, rel: usize, tuple: &[Value]) {
        NaiveRebuild::delete(self, rel, tuple);
    }

    fn samples(&self) -> Vec<Vec<Value>> {
        NaiveRebuild::samples(self).to_vec()
    }

    fn k(&self) -> usize {
        NaiveRebuild::k(self)
    }

    fn exact_count(&self) -> u128 {
        NaiveRebuild::exact_count(self)
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        let mut enc = Encoder::new();
        NaiveRebuild::snapshot_to(self, &mut enc);
        Some(enc.into_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut dec = Decoder::new(bytes);
        NaiveRebuild::restore_from_snapshot(self, &mut dec)?;
        dec.finish()
    }
}

impl JoinSampler for SJoin {
    fn name(&self) -> &'static str {
        "SJoin"
    }

    fn output_query(&self) -> &Query {
        self.index().query()
    }

    fn process(&mut self, rel: usize, tuple: &[Value]) {
        SJoin::process(self, rel, tuple);
    }

    /// Exact per-delete recalibration (the exact index maintains
    /// `|Q(R)|` in `O(1)`).
    fn delete(&mut self, rel: usize, tuple: &[Value]) {
        SJoin::delete(self, rel, tuple);
    }

    fn samples(&self) -> Vec<Vec<Value>> {
        SJoin::samples(self).to_vec()
    }

    fn k(&self) -> usize {
        SJoin::k(self)
    }

    fn exact_count(&self) -> u128 {
        self.index().total_results()
    }

    fn stats(&self) -> SamplerStats {
        SamplerStats {
            inserts: Some(self.index().stats().inserts),
            deletes: Some(self.index().stats().deletes),
            reservoir_stops: Some(self.reservoir_stops()),
            heap_bytes: Some(self.heap_size()),
            ..SamplerStats::default()
        }
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        let mut enc = Encoder::new();
        SJoin::snapshot_to(self, &mut enc);
        Some(enc.into_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut dec = Decoder::new(bytes);
        SJoin::restore_from_snapshot(self, &mut dec)?;
        dec.finish()
    }
}

impl JoinSampler for SJoinOpt {
    fn name(&self) -> &'static str {
        "SJoin_opt"
    }

    fn output_query(&self) -> &Query {
        self.rewritten_query()
    }

    fn input_query(&self) -> &Query {
        &self.query
    }

    fn process(&mut self, rel: usize, tuple: &[Value]) {
        SJoinOpt::process(self, rel, tuple);
    }

    /// The foreign-key combiner retracts combined tuples as signed deltas
    /// and the inner SJoin repairs its reservoir against the exact live
    /// count.
    fn delete(&mut self, rel: usize, tuple: &[Value]) {
        SJoinOpt::delete(self, rel, tuple);
    }

    fn check_ops(&self, ops: &[StreamOp]) -> Result<(), SharedStoreError> {
        self.combiner().check_ops(&self.query, ops)
    }

    fn samples(&self) -> Vec<Vec<Value>> {
        SJoinOpt::samples(self).to_vec()
    }

    fn k(&self) -> usize {
        SJoinOpt::k(self)
    }

    fn exact_count(&self) -> u128 {
        self.inner().index().total_results()
    }

    fn stats(&self) -> SamplerStats {
        SamplerStats {
            inserts: Some(self.combiner().inserts()),
            deletes: Some(self.combiner().deletes()),
            reservoir_stops: Some(self.inner().reservoir_stops()),
            heap_bytes: Some(self.inner().heap_size() + self.combiner().heap_size()),
            ..SamplerStats::default()
        }
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        let mut enc = Encoder::new();
        SJoinOpt::snapshot_to(self, &mut enc);
        Some(enc.into_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut dec = Decoder::new(bytes);
        SJoinOpt::restore_from_snapshot(self, &mut dec)?;
        dec.finish()
    }
}

/// [`SymmetricHashJoin`] behind the executor interface.
///
/// The raw operator exposes `insert_left` / `insert_right` and pair-shaped
/// samples; this adapter derives the join-key positions from the query's
/// shared attributes, routes `process(rel, ..)` to the correct side,
/// enforces the workspace-wide set semantics (duplicate tuples are
/// no-ops — the raw operator would double-count them), and materializes
/// samples into full-width value tuples of the query.
pub struct SymmetricSampler {
    query: Query,
    inner: SymmetricHashJoin,
    k: usize,
    seen: [FxHashSet<Vec<Value>>; 2],
    inserts: u64,
    deletes: u64,
}

impl SymmetricSampler {
    /// Builds the adapter for a two-relation natural-join query.
    pub fn new(query: Query, k: usize, seed: u64) -> Result<SymmetricSampler, String> {
        if query.num_relations() != 2 {
            return Err(format!(
                "SymmetricHashJoin supports exactly 2 relations, query has {}",
                query.num_relations()
            ));
        }
        let left_attrs = &query.relation(0).attrs;
        let right_attrs = &query.relation(1).attrs;
        let mut left_key = Vec::new();
        let mut right_key = Vec::new();
        for (i, a) in left_attrs.iter().enumerate() {
            if let Some(j) = right_attrs.iter().position(|b| b == a) {
                left_key.push(i);
                right_key.push(j);
            }
        }
        Ok(SymmetricSampler {
            inner: SymmetricHashJoin::new(left_key, right_key, k, seed),
            query,
            k,
            seen: [FxHashSet::default(), FxHashSet::default()],
            inserts: 0,
            deletes: 0,
        })
    }

    /// The underlying operator.
    pub fn inner(&self) -> &SymmetricHashJoin {
        &self.inner
    }
}

impl JoinSampler for SymmetricSampler {
    fn name(&self) -> &'static str {
        "SymmetricHashJoin"
    }

    fn output_query(&self) -> &Query {
        &self.query
    }

    fn process(&mut self, rel: usize, tuple: &[Value]) {
        assert!(
            rel < 2,
            "relation index {rel} out of range for 2-table join"
        );
        if !self.seen[rel].insert(tuple.to_vec()) {
            return;
        }
        self.inserts += 1;
        if rel == 0 {
            self.inner.insert_left(tuple);
        } else {
            self.inner.insert_right(tuple);
        }
    }

    /// Exact: the operator maintains the exact live result count, so the
    /// classic reservoir recalibrates on every delete.
    fn delete(&mut self, rel: usize, tuple: &[Value]) {
        assert!(
            rel < 2,
            "relation index {rel} out of range for 2-table join"
        );
        if !self.seen[rel].remove(tuple) {
            return;
        }
        self.deletes += 1;
        if rel == 0 {
            self.inner.delete_left(tuple);
        } else {
            self.inner.delete_right(tuple);
        }
    }

    fn samples(&self) -> Vec<Vec<Value>> {
        self.inner
            .samples()
            .iter()
            .map(|(l, r)| {
                let mut out = vec![0; self.query.num_attrs()];
                for (pos, &attr) in self.query.relation(0).attrs.iter().enumerate() {
                    out[attr] = l[pos];
                }
                for (pos, &attr) in self.query.relation(1).attrs.iter().enumerate() {
                    out[attr] = r[pos];
                }
                out
            })
            .collect()
    }

    fn k(&self) -> usize {
        self.k
    }

    fn exact_count(&self) -> u128 {
        self.inner.live_results()
    }

    fn stats(&self) -> SamplerStats {
        SamplerStats {
            inserts: Some(self.inserts),
            deletes: Some(self.deletes),
            ..SamplerStats::default()
        }
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        let mut enc = Encoder::new();
        self.inner.snapshot_to(&mut enc);
        // The dedup sets are unordered; emit them sorted for a canonical
        // image.
        for side in &self.seen {
            let mut tuples: Vec<&Vec<Value>> = side.iter().collect();
            tuples.sort_unstable();
            enc.put_usize(tuples.len());
            for t in tuples {
                enc.put_u64s(t);
            }
        }
        enc.put_u64(self.inserts);
        enc.put_u64(self.deletes);
        Some(enc.into_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut dec = Decoder::new(bytes);
        self.inner.restore_from_snapshot(&mut dec)?;
        let mut seen = [FxHashSet::default(), FxHashSet::default()];
        for side in &mut seen {
            let n = dec.seq_len(1)?;
            for _ in 0..n {
                if !side.insert(dec.u64s()?) {
                    return Err(CodecError::Corrupt("duplicate tuple in dedup-set snapshot"));
                }
            }
        }
        self.seen = seen;
        self.inserts = dec.u64()?;
        self.deletes = dec.u64()?;
        dec.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_query::QueryBuilder;

    fn two_table() -> Query {
        let mut qb = QueryBuilder::new();
        qb.relation("R", &["X", "Y"]);
        qb.relation("S", &["Y", "Z"]);
        qb.build().unwrap()
    }

    #[test]
    fn symmetric_adapter_materializes_full_width() {
        let mut s = SymmetricSampler::new(two_table(), 10, 1).unwrap();
        JoinSampler::process(&mut s, 0, &[1, 2]);
        JoinSampler::process(&mut s, 1, &[2, 3]);
        assert_eq!(JoinSampler::samples(&s), vec![vec![1, 2, 3]]);
        assert_eq!(s.exact_count(), 1);
    }

    #[test]
    fn symmetric_adapter_deduplicates() {
        let mut s = SymmetricSampler::new(two_table(), 10, 1).unwrap();
        JoinSampler::process(&mut s, 0, &[1, 2]);
        JoinSampler::process(&mut s, 0, &[1, 2]);
        JoinSampler::process(&mut s, 1, &[2, 3]);
        assert_eq!(s.stats().inserts, Some(2));
        assert_eq!(s.exact_count(), 1);
    }

    #[test]
    fn symmetric_adapter_rejects_non_binary_queries() {
        let mut qb = QueryBuilder::new();
        qb.relation("A", &["X", "Y"]);
        qb.relation("B", &["Y", "Z"]);
        qb.relation("C", &["Z", "W"]);
        assert!(SymmetricSampler::new(qb.build().unwrap(), 10, 1).is_err());
    }

    #[test]
    fn trait_level_snapshots_round_trip_for_all_baselines() {
        use rsj_common::rng::RsjRng;
        use rsj_storage::{InputTuple, StreamOp};
        let q = two_table();
        let build = |which: usize| -> Box<dyn JoinSampler> {
            match which {
                0 => Box::new(NaiveRebuild::new(q.clone(), 5, 3)),
                1 => Box::new(SJoin::new(q.clone(), 5, 3).unwrap()),
                2 => Box::new(SymmetricSampler::new(q.clone(), 5, 3).unwrap()),
                _ => Box::new(SJoinOpt::new(&q, &rsj_query::FkSchema::none(2), 5, 3).unwrap()),
            }
        };
        for which in 0..4 {
            let mut engine = build(which);
            let mut rng = RsjRng::seed_from_u64(61);
            let mut ops = Vec::new();
            for i in 0..120u64 {
                let t = InputTuple {
                    relation: (i % 2) as usize,
                    values: vec![rng.below_u64(5), rng.below_u64(5)],
                };
                ops.push(if i % 5 == 4 {
                    StreamOp::Delete(t)
                } else {
                    StreamOp::Insert(t)
                });
            }
            for op in &ops[..80] {
                engine.process_op(op).unwrap();
            }
            let bytes = engine.snapshot_state().unwrap();
            let mut restored = build(which);
            restored.restore_state(&bytes).unwrap();
            for op in &ops[80..] {
                engine.process_op(op).unwrap();
                restored.process_op(op).unwrap();
            }
            assert_eq!(
                restored.samples_named(),
                engine.samples_named(),
                "{}",
                engine.name()
            );
            // Garbage is rejected, not mis-restored.
            let mut fresh = build(which);
            assert!(fresh.restore_state(&bytes[..bytes.len() / 2]).is_err());
        }
    }

    #[test]
    fn baselines_work_as_trait_objects() {
        let q = two_table();
        let mut engines: Vec<Box<dyn JoinSampler>> = vec![
            Box::new(NaiveRebuild::new(q.clone(), 100, 1)),
            Box::new(SJoin::new(q.clone(), 100, 1).unwrap()),
            Box::new(SymmetricSampler::new(q.clone(), 100, 1).unwrap()),
            Box::new(SJoinOpt::new(&q, &rsj_query::FkSchema::none(2), 100, 1).unwrap()),
        ];
        for e in &mut engines {
            e.process(0, &[1, 2]);
            e.process(1, &[2, 3]);
            assert_eq!(e.samples_named().len(), 1, "{}", e.name());
        }
    }
}
