//! [`JoinSampler`] implementations for the baseline engines, plus the
//! [`SymmetricSampler`] adapter that gives the two-table symmetric hash
//! join the same full-width-tuple interface as every other engine.

use crate::naive::NaiveRebuild;
use crate::sjoin::{SJoin, SJoinIndex};
use crate::symmetric::SymmetricHashJoin;
use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::rng::RsjRng;
use rsj_common::{FxHashSet, Value};
use rsj_core::exec::{JoinSampler, SamplerStats};
use rsj_query::Query;
use rsj_storage::Database;
use rsj_stream::Reservoir;

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

    fn for_each_sample(&self, f: &mut dyn FnMut(&[Value])) {
        self.samples.iter().for_each(|row| f(row))
    }

    fn k(&self) -> usize {
        NaiveRebuild::k(self)
    }

    fn exact_count(&self) -> u128 {
        NaiveRebuild::exact_count(self)
    }

    /// The database, the RNG position and the current sample set. The
    /// query and `k` are construction parameters, only checked on restore.
    fn snapshot_to(&self, enc: &mut Encoder) {
        self.db.snapshot_to(enc);
        for w in self.rng.state() {
            enc.put_u64(w);
        }
        enc.put_usize(self.samples.len());
        for s in &self.samples {
            enc.put_u64s(s);
        }
    }

    /// Relations of the wrong count or arity, more samples than `k`, a
    /// sample row not as wide as the query's attribute set, or samples
    /// that are not distinct results of the restored database reject the
    /// image.
    fn restore_from(&mut self, dec: &mut Decoder) -> Result<(), CodecError> {
        let db = Database::restore_from(dec)?;
        if db.len() != self.query.num_relations() {
            return Err(CodecError::Corrupt("snapshot relation count mismatch"));
        }
        for rel in 0..db.len() {
            if db.relation(rel).arity() != self.query.relation(rel).attrs.len() {
                return Err(CodecError::Corrupt("snapshot relation arity mismatch"));
            }
        }
        let rng = restore_rng(dec)?;
        let n = dec.seq_len(1)?;
        if n > self.k {
            return Err(CodecError::Corrupt("snapshot holds more samples than k"));
        }
        let samples: Vec<Vec<Value>> = (0..n).map(|_| dec.u64s()).collect::<Result<_, _>>()?;
        if samples.iter().any(|s| s.len() != self.query.num_attrs()) {
            return Err(CodecError::Corrupt("snapshot sample row width mismatch"));
        }
        // A full-width row is a result of the natural join iff each
        // relation holds its projection.
        let is_result = |row: &Vec<Value>| {
            self.query.relations().iter().enumerate().all(|(rel, r)| {
                let t: Vec<Value> = r.attrs.iter().map(|&a| row[a]).collect();
                db.relation(rel).contains(&t)
            })
        };
        let mut distinct = FxHashSet::default();
        if !samples.iter().all(|s| is_result(s) && distinct.insert(s)) {
            return Err(CodecError::Corrupt(
                "snapshot sample is not a distinct join result",
            ));
        }
        dec.finish()?;
        self.db = db;
        self.rng = rng;
        self.samples = samples;
        Ok(())
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

    fn for_each_sample(&self, f: &mut dyn FnMut(&[Value])) {
        SJoin::samples(self).iter().for_each(f)
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

    /// The exact index, the reservoir (samples, skip state, RNG), and the
    /// turnstile repair RNG.
    fn snapshot_to(&self, enc: &mut Encoder) {
        self.index.snapshot_to(enc);
        self.reservoir.snapshot_to(enc);
        for w in self.repair_rng.state() {
            enc.put_u64(w);
        }
    }

    /// A wrong `k`, or a sample row not as wide as the query's attribute
    /// set, rejects the image.
    fn restore_from(&mut self, dec: &mut Decoder) -> Result<(), CodecError> {
        let query = self.index.query();
        let mut index = SJoinIndex::new(query.clone()).expect("acyclic: it built this driver");
        index.restore_from_snapshot(dec)?;
        let reservoir = Reservoir::restore_from(dec, query.num_attrs())?;
        if reservoir.capacity() != self.reservoir.capacity() {
            return Err(CodecError::Corrupt("snapshot reservoir capacity mismatch"));
        }
        let repair_rng = restore_rng(dec)?;
        dec.finish()?;
        self.index = index;
        self.reservoir = reservoir;
        self.repair_rng = repair_rng;
        Ok(())
    }
}

/// Reads an RNG state, rejecting the zero fixed point.
fn restore_rng(dec: &mut Decoder) -> Result<RsjRng, CodecError> {
    let s = [dec.u64()?, dec.u64()?, dec.u64()?, dec.u64()?];
    RsjRng::restore_state(s).ok_or(CodecError::Corrupt("rng state is the zero fixed point"))
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

    /// Each `(left, right)` pair is spread into one scratch row, reused
    /// across the visit.
    fn for_each_sample(&self, f: &mut dyn FnMut(&[Value])) {
        let mut row = vec![0; self.query.num_attrs()];
        for (l, r) in self.inner.samples() {
            for (side, t) in [l, r].into_iter().enumerate() {
                for (&attr, &v) in self.query.relation(side).attrs.iter().zip(t) {
                    row[attr] = v;
                }
            }
            f(&row);
        }
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

    fn snapshot_to(&self, enc: &mut Encoder) {
        self.inner.snapshot_to(enc);
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
    }

    /// Tuples of the wrong width, tuples stored under a key they do not
    /// project to, and dedup sets that are not exactly the stored tuples
    /// reject the image.
    fn restore_from(&mut self, dec: &mut Decoder) -> Result<(), CodecError> {
        let arity = [0, 1].map(|rel| self.query.relation(rel).attrs.len());
        let inner = self.inner.restore_from(dec, arity)?;
        let mut seen = [FxHashSet::default(), FxHashSet::default()];
        for side in &mut seen {
            let n = dec.seq_len(1)?;
            for _ in 0..n {
                if !side.insert(dec.u64s()?) {
                    return Err(CodecError::Corrupt("duplicate tuple in dedup-set snapshot"));
                }
            }
        }
        let (inserts, deletes) = (dec.u64()?, dec.u64()?);
        dec.finish()?;
        for (rel, side) in seen.iter().enumerate() {
            let mut unmatched: FxHashSet<&Vec<Value>> = side.iter().collect();
            if !inner.side(rel).all(|t| unmatched.remove(t)) || !unmatched.is_empty() {
                return Err(CodecError::Corrupt(
                    "dedup set differs from the stored tuples",
                ));
            }
        }
        self.inner = inner;
        self.seen = seen;
        self.inserts = inserts;
        self.deletes = deletes;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SJoinOpt;
    use rsj_core::exec::SamplerExt;
    use rsj_query::QueryBuilder;

    /// `SJoin_opt` with no keys declared: the identity rewrite.
    fn sjoin_opt(q: &Query, k: usize, seed: u64) -> SJoinOpt {
        let fks = rsj_query::FkSchema::none(q.num_relations());
        SJoinOpt::combined("SJoin_opt", q, &fks, |q| SJoin::new(q, k, seed)).unwrap()
    }

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
        assert_eq!(SamplerExt::samples(&s), vec![vec![1, 2, 3]]);
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
                _ => Box::new(sjoin_opt(&q, 5, 3)),
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

    /// One hash side of a hand-written image: `(key, bucket)` entries.
    type Side<'a> = &'a [(u64, &'a [&'a [u64]])];

    /// Hand-writes a `SymmetricSampler` image over `two_table()` with
    /// `k = 10`; the join key is `Y`, at left position 1 and right position
    /// 0. Each side lists `(key, bucket)` entries, `pairs` are the
    /// reservoir's samples and `seen` the two dedup sets.
    fn symmetric_image(
        sides: [Side; 2],
        pairs: &[(&[u64], &[u64])],
        seen: [&[&[u64]]; 2],
    ) -> Vec<u8> {
        let mut enc = Encoder::new();
        for pos in [1, 1, 0] {
            enc.put_usize(pos);
        }
        for side in sides {
            enc.put_usize(side.len());
            for &(key, bucket) in side {
                rsj_common::Key::project(&[key], &[0]).encode_to(&mut enc);
                enc.put_usize(bucket.len());
                bucket.iter().for_each(|t| enc.put_u64s(t));
            }
        }
        let rng = RsjRng::seed_from_u64(1).state();
        enc.put_usize(10);
        enc.put_u128(pairs.len() as u128);
        enc.put_usize(pairs.len());
        for (l, r) in pairs {
            enc.put_u64s(l);
            enc.put_u64s(r);
        }
        rng.iter().for_each(|&w| enc.put_u64(w));
        let mut live = 0;
        for (lk, l) in sides[0] {
            for (rk, r) in sides[1] {
                if lk == rk {
                    live += l.len() * r.len();
                }
            }
        }
        enc.put_u128(live as u128);
        rng.iter().for_each(|&w| enc.put_u64(w));
        for side in seen {
            enc.put_usize(side.len());
            side.iter().for_each(|t| enc.put_u64s(t));
        }
        enc.put_u64(2);
        enc.put_u64(0);
        enc.into_bytes()
    }

    /// Restores `image` into a `SymmetricSampler` holding one result and
    /// returns the outcome, asserting a rejection changed nothing.
    fn restore_symmetric(image: &[u8]) -> Result<SymmetricSampler, CodecError> {
        let mut s = SymmetricSampler::new(two_table(), 10, 1).unwrap();
        JoinSampler::process(&mut s, 0, &[7, 8]);
        JoinSampler::process(&mut s, 1, &[8, 9]);
        let before = s.snapshot_state();
        match s.restore_state(image) {
            Ok(()) => Ok(s),
            Err(e) => {
                assert_eq!(
                    s.snapshot_state(),
                    before,
                    "a rejected image changed the receiver"
                );
                Err(e)
            }
        }
    }

    #[test]
    fn symmetric_restores_a_hand_written_image() {
        let image = symmetric_image(
            [&[(2, &[&[1, 2]])], &[(2, &[&[2, 3]])]],
            &[(&[1, 2], &[2, 3])],
            [&[&[1, 2]], &[&[2, 3]]],
        );
        let s = restore_symmetric(&image).unwrap();
        assert_eq!(s.samples(), vec![vec![1, 2, 3]]);
        assert_eq!(s.exact_count(), 1);
    }

    #[test]
    fn symmetric_rejects_a_stored_tuple_of_the_wrong_width() {
        let image = symmetric_image(
            [&[(2, &[&[1, 2, 5]])], &[(2, &[&[2, 3]])]],
            &[(&[1, 2], &[2, 3])],
            [&[&[1, 2, 5]], &[&[2, 3]]],
        );
        assert!(matches!(
            restore_symmetric(&image),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn symmetric_rejects_a_sample_of_the_wrong_width() {
        let image = symmetric_image(
            [&[(2, &[&[1, 2]])], &[(2, &[&[2, 3]])]],
            &[(&[1], &[2, 3])],
            [&[&[1, 2]], &[&[2, 3]]],
        );
        assert!(matches!(
            restore_symmetric(&image),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn symmetric_rejects_a_tuple_stored_under_another_key() {
        let image = symmetric_image(
            [&[(2, &[&[1, 2], &[4, 5]])], &[(2, &[&[2, 3]])]],
            &[(&[1, 2], &[2, 3])],
            [&[&[1, 2], &[4, 5]], &[&[2, 3]]],
        );
        assert!(matches!(
            restore_symmetric(&image),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn symmetric_rejects_a_sample_pair_that_is_not_stored() {
        let image = symmetric_image(
            [&[(2, &[&[1, 2]])], &[(2, &[&[2, 3]])]],
            &[(&[1, 2], &[5, 3])],
            [&[&[1, 2]], &[&[2, 3]]],
        );
        assert!(matches!(
            restore_symmetric(&image),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn symmetric_rejects_dedup_sets_that_are_not_the_stored_tuples() {
        let sides: [Side; 2] = [&[(2, &[&[1, 2]])], &[(2, &[&[2, 3]])]];
        let pairs: &[(&[u64], &[u64])] = &[(&[1, 2], &[2, 3])];
        for seen in [
            [&[][..], &[&[2, 3][..]][..]],
            [&[&[1, 2]], &[&[2, 3], &[2, 4]]],
            [&[&[1, 5]], &[&[2, 3]]],
        ] {
            let image = symmetric_image(sides, pairs, seen);
            assert!(
                matches!(restore_symmetric(&image), Err(CodecError::Corrupt(_))),
                "{seen:?}"
            );
        }
    }

    #[test]
    fn naive_rejects_a_sample_row_of_the_wrong_width() {
        let mut s = NaiveRebuild::new(two_table(), 10, 1);
        JoinSampler::process(&mut s, 0, &[1, 2]);
        JoinSampler::process(&mut s, 1, &[2, 3]);
        let image = |row: &[u64]| {
            let mut enc = Encoder::new();
            s.db.snapshot_to(&mut enc);
            s.rng.state().iter().for_each(|&w| enc.put_u64(w));
            enc.put_usize(1);
            enc.put_u64s(row);
            enc.into_bytes()
        };
        let (good, short) = (image(&[1, 2, 3]), image(&[1, 2]));
        let mut fresh = NaiveRebuild::new(two_table(), 10, 1);
        let before = fresh.snapshot_state();
        assert!(matches!(
            fresh.restore_state(&short),
            Err(CodecError::Corrupt(_))
        ));
        assert_eq!(fresh.snapshot_state(), before);
        fresh.restore_state(&good).unwrap();
        assert_eq!(fresh.samples(), vec![vec![1, 2, 3]]);
    }

    #[test]
    fn naive_rejects_a_sample_row_that_is_not_a_distinct_result() {
        let mut s = NaiveRebuild::new(two_table(), 10, 1);
        JoinSampler::process(&mut s, 0, &[1, 2]);
        JoinSampler::process(&mut s, 1, &[2, 3]);
        let image = |rows: &[&[u64]]| {
            let mut enc = Encoder::new();
            s.db.snapshot_to(&mut enc);
            s.rng.state().iter().for_each(|&w| enc.put_u64(w));
            enc.put_usize(rows.len());
            rows.iter().for_each(|row| enc.put_u64s(row));
            enc.into_bytes()
        };
        let mut fresh = NaiveRebuild::new(two_table(), 10, 1);
        let before = fresh.snapshot_state();
        for rows in [&[&[9, 9, 9][..]][..], &[&[1, 2, 3], &[1, 2, 3]]] {
            assert!(
                matches!(
                    fresh.restore_state(&image(rows)),
                    Err(CodecError::Corrupt(_))
                ),
                "{rows:?}"
            );
            assert_eq!(fresh.snapshot_state(), before);
        }
    }

    #[test]
    fn baselines_work_as_trait_objects() {
        let q = two_table();
        let mut engines: Vec<Box<dyn JoinSampler>> = vec![
            Box::new(NaiveRebuild::new(q.clone(), 100, 1)),
            Box::new(SJoin::new(q.clone(), 100, 1).unwrap()),
            Box::new(SymmetricSampler::new(q.clone(), 100, 1).unwrap()),
            Box::new(sjoin_opt(&q, 100, 1)),
        ];
        for e in &mut engines {
            e.process(0, &[1, 2]);
            e.process(1, &[2, 3]);
            assert_eq!(e.samples_named().len(), 1, "{}", e.name());
        }
    }
}
