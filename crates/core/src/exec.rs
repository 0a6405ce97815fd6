//! The executor layer: one uniform interface over every join-sampling
//! engine.
//!
//! The paper's evaluation (§6) compares seven engines — `RSJoin`,
//! `RSJoin_opt`, the cyclic GHD driver, and the `NaiveRebuild` / `SJoin` /
//! `SJoin_opt` / `SymmetricHashJoin` baselines. Each historically exposed
//! its own ad-hoc `process` method, so every test, bench and example
//! re-implemented the same driver loop per engine. [`JoinSampler`] is the
//! shared operator interface: insert and delete original-stream tuples in
//! arrival order, read back the current uniform sample, snapshot and
//! restore the full state, inspect instrumentation. Every engine honours
//! all of it — there is no capability to probe.
//!
//! Implementations for the three paper engines live here; the baselines
//! implement the trait in `rsj-baselines`, and the `Engine` factory that
//! constructs any of the seven behind `Box<dyn JoinSampler>` lives in the
//! `rsjoin` facade crate.

use crate::cyclic::CyclicReservoirJoin;
use crate::fk_runtime::FkReservoirJoin;
use crate::reservoir_join::ReservoirJoin;
use crate::service::RebuildFn;
use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::Value;
use rsj_query::Query;
use rsj_storage::{ColumnarBatch, InputTuple, SharedStoreError, StreamOp};

/// Uniform instrumentation snapshot across engines.
///
/// Every field is optional: engines report what they actually measure
/// (`None` never means zero, it means "not tracked by this engine").
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SamplerStats {
    /// Distinct tuples accepted (set semantics). On an insert-only stream
    /// this is the paper's `N`; under turnstile streams subtract
    /// [`deletes`](SamplerStats::deletes) for the live count.
    pub inserts: Option<u64>,
    /// Tuples deleted (present at deletion time; absent-tuple deletes are
    /// no-ops and not counted).
    pub deletes: Option<u64>,
    /// Predicate-evaluating reservoir stops, each costing one retrieve.
    pub reservoir_stops: Option<u64>,
    /// Estimated heap footprint in bytes (index + reservoir).
    pub heap_bytes: Option<usize>,
    /// Transient I/O errors absorbed by retry/backoff in the durability
    /// layer.
    pub retries: Option<u64>,
    /// `1` while a durability wrapper is serving with logging marked lost.
    pub degraded: Option<u64>,
}

/// Checks one op against `query`'s schema: the relation must exist and
/// the tuple must be exactly as wide as the relation.
pub(crate) fn check_schema(query: &Query, op: &StreamOp) -> Result<(), SharedStoreError> {
    let t = op.tuple();
    let arity = query.relations().get(t.relation).map(|r| r.attrs.len());
    SharedStoreError::check(t.relation, arity, t.values.len())
}

/// Applies an already-checked op through the engine's ingest primitives.
pub(crate) fn apply_op<S: JoinSampler + ?Sized>(sampler: &mut S, op: &StreamOp) {
    let t = op.tuple();
    match op {
        StreamOp::Insert(_) => sampler.process(t.relation, &t.values),
        StreamOp::Delete(_) => sampler.delete(t.relation, &t.values),
    }
}

/// A streaming join-sampling engine: maintains `k` uniform samples without
/// replacement of `Q(R)` while tuples of `R` are inserted and deleted.
///
/// Every engine is fully dynamic and snapshot-capable — that is the
/// contract, not a capability to probe. The ingest primitives are
/// [`process`](JoinSampler::process) and [`delete`](JoinSampler::delete):
/// one tuple of the *original* query's stream in, or out. Engines that
/// internally rewrite the query (foreign-key combination, GHD bag-level
/// queries) still accept original relation indices — those of
/// [`input_query`](JoinSampler::input_query) — and translate internally;
/// their samples are tuples of
/// [`output_query`](JoinSampler::output_query), which may order attributes
/// differently from the original. [`samples_named`](JoinSampler::samples_named)
/// is the engine-independent view used for cross-engine comparison.
///
/// The primitives trust their caller: a relation index or tuple width
/// that does not fit `input_query`, or a primary key bound twice, is a
/// caller bug and panics. Input from outside the program (a log, a
/// socket) goes through [`process_op`](JoinSampler::process_op) /
/// [`process_op_batch`](JoinSampler::process_op_batch), which check it
/// first and return the rejection as a value.
pub trait JoinSampler {
    /// Short display name (`"RSJoin"`, `"SJoin_opt"`, ...).
    fn name(&self) -> &'static str;

    /// The query whose attribute ids index the rows of
    /// [`samples`](JoinSampler::samples). For rewriting engines this is
    /// the rewritten/bag-level query; attribute *names* always match the
    /// original query's.
    fn output_query(&self) -> &Query;

    /// The query whose relation indices and arities
    /// [`process`](JoinSampler::process) and
    /// [`delete`](JoinSampler::delete) accept — the original query the
    /// engine was built for. Differs from
    /// [`output_query`](JoinSampler::output_query) only for the rewriting
    /// engines.
    fn input_query(&self) -> &Query {
        self.output_query()
    }

    /// Inserts one tuple of the original stream. Duplicate tuples are
    /// no-ops (set semantics).
    fn process(&mut self, rel: usize, tuple: &[Value]);

    /// Deletes one tuple of the original stream and repairs the
    /// maintained sample so it stays uniform over the post-delete `Q(R)`.
    /// Deleting an absent tuple is a no-op (set semantics).
    fn delete(&mut self, rel: usize, tuple: &[Value]);

    /// Inserts a delta batch of original-stream tuples in arrival order —
    /// identical to calling [`process`](JoinSampler::process) per tuple.
    fn process_batch(&mut self, batch: &[InputTuple]) {
        for t in batch {
            self.process(t.relation, &t.values);
        }
    }

    /// Inserts a columnar (struct-of-arrays) batch.
    ///
    /// The default adapter shreds the batch back to rows in arrival order
    /// through [`process`](JoinSampler::process) — byte-identical to having
    /// fed the source rows directly, so every engine accepts columnar
    /// ingest. Engines with a columnar fast path (the `RSJoin` family)
    /// override it; see ARCHITECTURE.md, "Columnar ingest".
    fn process_columnar(&mut self, batch: &ColumnarBatch) {
        batch.shred(|rel, t| self.process(rel, t));
    }

    /// Checks one op as [`process_op`](JoinSampler::process_op) does, so
    /// callers can reject it before it reaches a log.
    fn check_op(&self, op: &StreamOp) -> Result<(), SharedStoreError> {
        self.check_ops(std::slice::from_ref(op))
    }

    /// Checks ops as if applied in order. The default checks each against
    /// [`input_query`](JoinSampler::input_query)'s schema; the foreign-key
    /// engines also reject an insert whose primary key is bound to a
    /// different tuple, by the live state or an earlier op of `ops`.
    fn check_ops(&self, ops: &[StreamOp]) -> Result<(), SharedStoreError> {
        ops.iter()
            .try_for_each(|op| check_schema(self.input_query(), op))
    }

    /// Feeds one turnstile stream op: checks it, then applies it through
    /// [`process`](JoinSampler::process) or
    /// [`delete`](JoinSampler::delete). A rejected op applies nothing.
    fn process_op(&mut self, op: &StreamOp) -> Result<(), SharedStoreError> {
        self.check_op(op)?;
        apply_op(self, op);
        Ok(())
    }

    /// Feeds a batch of turnstile ops in arrival order. The whole slice
    /// is checked before anything is applied, so a rejected batch leaves
    /// the sampler byte-identical to its pre-batch state.
    ///
    /// Delete-free windows are routed through the columnar ingest path
    /// ([`process_columnar`](JoinSampler::process_columnar)) — identical
    /// samples and stats, batch-amortized hashing for engines with the
    /// fast path. Windows containing any delete stay on the per-op path
    /// (the columnar layout is insert-only).
    fn process_op_batch(&mut self, ops: &[StreamOp]) -> Result<(), SharedStoreError> {
        self.check_ops(ops)?;
        if let Some(batch) = ColumnarBatch::from_insert_ops(ops) {
            self.process_columnar(&batch);
            return Ok(());
        }
        for op in ops {
            apply_op(self, op);
        }
        Ok(())
    }

    /// Re-evaluates the engine's execution plan against statistics
    /// observed so far and adapts it — for the `RSJoin` family, the
    /// adaptive re-rooting hook (see `rsj_core::reservoir_join`): a
    /// cost-model pass over the live stored relations that may switch the
    /// sampling root in place or rebuild the dynamic index into a better
    /// join-tree orientation, repopulating the reservoir exactly.
    ///
    /// Returns `true` when anything about the plan changed. The default is
    /// a no-op for engines without plan choice (the exact-count baselines,
    /// the two-table symmetric join).
    fn replan(&mut self) -> bool {
        false
    }

    /// The current samples as materialized full-width value tuples of
    /// [`output_query`](JoinSampler::output_query): uniform without
    /// replacement over `Q(R)`, fewer than `k` while `|Q(R)| < k`.
    ///
    /// Returns owned rows, one `Vec` each, whatever the engine stores: the
    /// `RSJoin` family and `SJoin` keep one flat buffer and copy out of
    /// it here. Readers that want the rows in place use the engine's
    /// inherent `samples()`, which borrows them as `&[Value]` slices.
    fn samples(&self) -> Vec<Vec<Value>>;

    /// Reservoir capacity `k`.
    fn k(&self) -> usize;

    /// Exact live `|Q(R)|` — the population the samples are uniform over,
    /// saturating at `u128::MAX`. Every engine answers from the state it
    /// already maintains (its index, its stored relations); nothing keeps
    /// a second copy of the input to count it.
    fn exact_count(&self) -> u128;

    /// Instrumentation snapshot; engines fill the fields they track.
    fn stats(&self) -> SamplerStats {
        SamplerStats::default()
    }

    /// Serializes the engine's complete dynamic state. The encoding
    /// captures everything future behavior depends on — index physical
    /// layout, sample slots, RNG positions, counters — so restoring it
    /// into a freshly built engine with identical construction parameters
    /// reproduces the original byte-for-byte on any further stream.
    ///
    /// `None` means exactly one thing: the sampler is a wrapper with no
    /// canonical image *right now*. No engine in this workspace returns it;
    /// callers (checkpointing, the service) still report it as a failed
    /// snapshot and keep their previous one. The `Option` stays because
    /// the repo benchmark (`benchmark/`, which changes only in its own
    /// commits) unwraps it; narrowing the return type belongs to the next
    /// benchmark change.
    fn snapshot_state(&self) -> Option<Vec<u8>>;

    /// Restores state produced by
    /// [`snapshot_state`](JoinSampler::snapshot_state) into `self`, which
    /// must have been built with the same construction parameters (query,
    /// `k`, seed, options). Any prior dynamic state of `self` is
    /// discarded.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CodecError>;

    /// Samples as sorted `(attribute name, value)` pairs — identical
    /// across engines regardless of internal attribute order, so
    /// cross-engine tests compare these.
    fn samples_named(&self) -> Vec<Vec<(String, Value)>> {
        let q = self.output_query();
        self.samples()
            .iter()
            .map(|s| {
                let mut kv: Vec<(String, Value)> = q
                    .attr_names()
                    .iter()
                    .cloned()
                    .zip(s.iter().copied())
                    .collect();
                kv.sort();
                kv
            })
            .collect()
    }
}

/// Boxed engines forward the required methods and the ones some engine
/// overrides, so `Box<dyn JoinSampler + Send>` (what the `Engine` factory
/// hands out) satisfies generic bounds like [`Durable`]'s blanket impl
/// without unwrapping. The remaining provided methods are the same
/// adapters over these on either side of the box.
impl<S: JoinSampler + ?Sized> JoinSampler for Box<S> {
    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn output_query(&self) -> &Query {
        (**self).output_query()
    }

    fn input_query(&self) -> &Query {
        (**self).input_query()
    }

    fn process(&mut self, rel: usize, tuple: &[Value]) {
        (**self).process(rel, tuple)
    }

    fn delete(&mut self, rel: usize, tuple: &[Value]) {
        (**self).delete(rel, tuple)
    }

    fn check_ops(&self, ops: &[StreamOp]) -> Result<(), SharedStoreError> {
        (**self).check_ops(ops)
    }

    fn process_columnar(&mut self, batch: &ColumnarBatch) {
        (**self).process_columnar(batch)
    }

    fn replan(&mut self) -> bool {
        (**self).replan()
    }

    fn samples(&self) -> Vec<Vec<Value>> {
        (**self).samples()
    }

    fn k(&self) -> usize {
        (**self).k()
    }

    fn exact_count(&self) -> u128 {
        (**self).exact_count()
    }

    fn stats(&self) -> SamplerStats {
        (**self).stats()
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        (**self).snapshot_state()
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        (**self).restore_state(bytes)
    }
}

/// What the facade's durability wrapper (`rsjoin::persist::Persistent`)
/// logs, checkpoints and recovers: an engine ([`JoinSampler`], through
/// the blanket impl below) or the resident
/// [`SamplerService`](crate::SamplerService). The wrapper checks an op,
/// logs it, then applies it; a checkpoint stores the image under the
/// tag, and recovery restores an image only into a target with the same
/// tag before replaying the log suffix.
pub trait Durable {
    /// Why an op was rejected.
    type Error: std::fmt::Display;

    /// Tag written into checkpoints: the engine's name, or the service's.
    fn checkpoint_tag(&self) -> &'static str;

    /// Rejects, without changing anything, an op
    /// [`apply`](Durable::apply) would reject.
    fn check(&self, op: &StreamOp) -> Result<(), Self::Error>;

    /// Applies one op.
    fn apply(&mut self, op: &StreamOp) -> Result<(), Self::Error>;

    /// The canonical state image, or the name of the engine that has no
    /// image right now (see [`JoinSampler::snapshot_state`]).
    fn image(&self) -> Result<Vec<u8>, &'static str>;

    /// Restores an [`image`](Durable::image) into `self`, freshly built
    /// with the original construction parameters. The service rebuilds
    /// its boxed members through `rebuild`; engines ignore it.
    fn restore(&mut self, image: &[u8], rebuild: &mut RebuildFn) -> Result<(), CodecError>;
}

impl<S: JoinSampler> Durable for S {
    type Error = SharedStoreError;

    fn checkpoint_tag(&self) -> &'static str {
        self.name()
    }

    fn check(&self, op: &StreamOp) -> Result<(), SharedStoreError> {
        self.check_op(op)
    }

    fn apply(&mut self, op: &StreamOp) -> Result<(), SharedStoreError> {
        self.process_op(op)
    }

    fn image(&self) -> Result<Vec<u8>, &'static str> {
        self.snapshot_state().ok_or(self.name())
    }

    fn restore(&mut self, image: &[u8], _rebuild: &mut RebuildFn) -> Result<(), CodecError> {
        self.restore_state(image)
    }
}

impl JoinSampler for ReservoirJoin {
    fn name(&self) -> &'static str {
        "RSJoin"
    }

    fn output_query(&self) -> &Query {
        self.index().query()
    }

    fn process(&mut self, rel: usize, tuple: &[Value]) {
        ReservoirJoin::process(self, rel, tuple);
    }

    /// Deletions mirror insertions in the index and repair the reservoir
    /// by eviction-and-backfill (see `rsj_core::reservoir_join`).
    fn delete(&mut self, rel: usize, tuple: &[Value]) {
        ReservoirJoin::delete(self, rel, tuple);
    }

    /// Columnar fast path: column-hashed dedup, per-tuple application —
    /// byte-identical samples to the row path.
    fn process_columnar(&mut self, batch: &ColumnarBatch) {
        ReservoirJoin::process_columnar(self, batch);
    }

    fn replan(&mut self) -> bool {
        ReservoirJoin::replan(self)
    }

    fn samples(&self) -> Vec<Vec<Value>> {
        ReservoirJoin::samples(self).to_vec()
    }

    fn k(&self) -> usize {
        ReservoirJoin::k(self)
    }

    fn exact_count(&self) -> u128 {
        ReservoirJoin::exact_count(self)
    }

    fn stats(&self) -> SamplerStats {
        SamplerStats {
            inserts: Some(self.inserts()),
            deletes: Some(self.deletes()),
            reservoir_stops: Some(self.reservoir_stops()),
            heap_bytes: Some(self.heap_size()),
            ..SamplerStats::default()
        }
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        let mut enc = Encoder::new();
        ReservoirJoin::snapshot_to(self, &mut enc);
        Some(enc.into_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut dec = Decoder::new(bytes);
        ReservoirJoin::restore_from_snapshot(self, &mut dec)?;
        dec.finish()
    }
}

impl JoinSampler for FkReservoirJoin {
    fn name(&self) -> &'static str {
        "RSJoin_opt"
    }

    fn output_query(&self) -> &Query {
        self.rewritten_query()
    }

    fn input_query(&self) -> &Query {
        &self.query
    }

    fn process(&mut self, rel: usize, tuple: &[Value]) {
        FkReservoirJoin::process(self, rel, tuple);
    }

    /// The foreign-key combiner is a signed delta pipeline: retractions
    /// withdraw combined tuples (and re-park rewound facts), and the inner
    /// acyclic driver repairs its reservoir by eviction-and-backfill.
    fn delete(&mut self, rel: usize, tuple: &[Value]) {
        FkReservoirJoin::delete(self, rel, tuple);
    }

    fn check_ops(&self, ops: &[StreamOp]) -> Result<(), SharedStoreError> {
        self.combiner().check_ops(&self.query, ops)
    }

    /// Re-plans the *rewritten* query's orientation (the foreign-key
    /// combiner in front is plan-independent).
    fn replan(&mut self) -> bool {
        self.inner_mut().replan()
    }

    fn samples(&self) -> Vec<Vec<Value>> {
        FkReservoirJoin::samples(self).to_vec()
    }

    fn k(&self) -> usize {
        self.inner().k()
    }

    /// Recomputed on demand from the stored relations (`O(N)` walk — the
    /// same pass the delete repair uses), not maintained per op.
    fn exact_count(&self) -> u128 {
        self.exact_result_count()
    }

    fn stats(&self) -> SamplerStats {
        SamplerStats {
            inserts: Some(self.combiner().inserts()),
            deletes: Some(self.combiner().deletes()),
            reservoir_stops: Some(self.inner().reservoir_stops()),
            heap_bytes: Some(self.heap_size()),
            ..SamplerStats::default()
        }
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        let mut enc = Encoder::new();
        FkReservoirJoin::snapshot_to(self, &mut enc);
        Some(enc.into_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut dec = Decoder::new(bytes);
        FkReservoirJoin::restore_from_snapshot(self, &mut dec)?;
        dec.finish()
    }
}

impl JoinSampler for CyclicReservoirJoin {
    fn name(&self) -> &'static str {
        "RSJoin_cyclic"
    }

    fn output_query(&self) -> &Query {
        self.inner().index().query()
    }

    fn input_query(&self) -> &Query {
        self.query()
    }

    fn process(&mut self, rel: usize, tuple: &[Value]) {
        CyclicReservoirJoin::process(self, rel, tuple);
    }

    /// Deletions enumerate the bag's dead delta and forward it, signed,
    /// into the inner acyclic driver's delete path.
    fn delete(&mut self, rel: usize, tuple: &[Value]) {
        CyclicReservoirJoin::delete(self, rel, tuple);
    }

    /// Re-plans the inner acyclic driver over the *bag-level* query (the
    /// GHD itself stays fixed).
    fn replan(&mut self) -> bool {
        self.inner_mut().replan()
    }

    fn samples(&self) -> Vec<Vec<Value>> {
        CyclicReservoirJoin::samples(self).to_vec()
    }

    fn k(&self) -> usize {
        self.inner().k()
    }

    /// Recomputed on demand from the bag-level relations (worst case
    /// `O(N^w)`, the delete-repair walk), not maintained per op.
    fn exact_count(&self) -> u128 {
        self.exact_result_count()
    }

    fn stats(&self) -> SamplerStats {
        SamplerStats {
            inserts: Some(self.inserts()),
            deletes: Some(self.deletes()),
            reservoir_stops: Some(self.inner().reservoir_stops()),
            heap_bytes: Some(self.heap_size()),
            ..SamplerStats::default()
        }
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        let mut enc = Encoder::new();
        CyclicReservoirJoin::snapshot_to(self, &mut enc);
        Some(enc.into_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut dec = Decoder::new(bytes);
        CyclicReservoirJoin::restore_from_snapshot(self, &mut dec)?;
        dec.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_query::QueryBuilder;
    use rsj_storage::{OpStream, TupleStream};

    fn two_table() -> Query {
        let mut qb = QueryBuilder::new();
        qb.relation("R", &["X", "Y"]);
        qb.relation("S", &["Y", "Z"]);
        qb.build().unwrap()
    }

    #[test]
    fn trait_object_drives_rsjoin() {
        let mut s: Box<dyn JoinSampler> = Box::new(ReservoirJoin::new(two_table(), 10, 1).unwrap());
        let mut stream = TupleStream::new();
        stream.push(0, vec![1, 2]);
        stream.push(1, vec![2, 3]);
        s.process_batch(stream.tuples());
        assert_eq!(s.samples(), vec![vec![1, 2, 3]]);
        assert_eq!(s.k(), 10);
        assert_eq!(s.name(), "RSJoin");
        assert_eq!(s.stats().inserts, Some(2));
        assert_eq!(s.stats().deletes, Some(0));
    }

    #[test]
    fn op_stream_round_trip_through_trait() {
        let mut s: Box<dyn JoinSampler> = Box::new(ReservoirJoin::new(two_table(), 10, 1).unwrap());
        let mut ops = OpStream::new();
        ops.push_insert(0, vec![1, 2]);
        ops.push_insert(1, vec![2, 3]);
        ops.push_delete(0, vec![1, 2]);
        s.process_op_batch(ops.ops()).unwrap();
        assert!(s.samples().is_empty());
        assert_eq!(s.stats().inserts, Some(2));
        assert_eq!(s.stats().deletes, Some(1));
    }

    #[test]
    fn samples_named_is_order_independent() {
        let mut rj = ReservoirJoin::new(two_table(), 10, 1).unwrap();
        JoinSampler::process(&mut rj, 0, &[1, 2]);
        JoinSampler::process(&mut rj, 1, &[2, 3]);
        let named = rj.samples_named();
        assert_eq!(named.len(), 1);
        assert_eq!(
            named[0],
            vec![
                ("X".to_string(), 1),
                ("Y".to_string(), 2),
                ("Z".to_string(), 3)
            ]
        );
    }

    #[test]
    fn insert_only_op_batches_match_columnar_ingest() {
        // A delete-free op batch takes the columnar fast path; the stats
        // and the reservoir bytes must match both an explicit columnar
        // call and tuple-at-a-time processing of the same arrivals.
        let mut rng = rsj_common::rng::RsjRng::seed_from_u64(77);
        let mut ops = Vec::new();
        for _ in 0..300 {
            ops.push(StreamOp::insert(
                rng.index(2),
                vec![rng.below_u64(7), rng.below_u64(7)],
            ));
        }
        let mut via_ops = ReservoirJoin::new(two_table(), 8, 5).unwrap();
        let mut via_cols = ReservoirJoin::new(two_table(), 8, 5).unwrap();
        let mut via_rows = ReservoirJoin::new(two_table(), 8, 5).unwrap();
        JoinSampler::process_op_batch(&mut via_ops, &ops).unwrap();
        let batch = ColumnarBatch::from_insert_ops(&ops).expect("insert-only");
        JoinSampler::process_columnar(&mut via_cols, &batch);
        for op in &ops {
            let t = op.tuple();
            via_rows.process(t.relation, &t.values);
        }
        assert_eq!(JoinSampler::stats(&via_ops), JoinSampler::stats(&via_cols));
        assert_eq!(JoinSampler::stats(&via_ops), JoinSampler::stats(&via_rows));
        assert_eq!(via_ops.samples(), via_cols.samples());
        assert_eq!(via_ops.samples(), via_rows.samples());
    }

    #[test]
    fn columnar_reservoir_bytes_match_row_path() {
        // The byte-exactness contract of `ReservoirJoin::process_columnar`:
        // identical reservoir contents (not just distribution) regardless
        // of how the stream is chunked into columnar batches.
        for seed in [1u64, 9, 42] {
            let mut rng = rsj_common::rng::RsjRng::seed_from_u64(seed);
            let mut row_engine = ReservoirJoin::new(two_table(), 6, seed).unwrap();
            let mut col_engine = ReservoirJoin::new(two_table(), 6, seed).unwrap();
            let mut rows = Vec::new();
            for _ in 0..600 {
                let rel = rng.index(2);
                let t = vec![rng.below_u64(9), rng.below_u64(9)];
                row_engine.process(rel, &t);
                rows.push(InputTuple::new(rel, t));
            }
            for chunk in rows.chunks(128) {
                JoinSampler::process_columnar(&mut col_engine, &ColumnarBatch::from_rows(chunk));
            }
            assert_eq!(row_engine.samples(), col_engine.samples(), "seed={seed}");
            assert_eq!(
                JoinSampler::stats(&row_engine),
                JoinSampler::stats(&col_engine),
                "seed={seed}"
            );
        }
    }

    #[test]
    fn cyclic_engine_through_trait() {
        let mut qb = QueryBuilder::new();
        qb.relation("R1", &["X", "Y"]);
        qb.relation("R2", &["Y", "Z"]);
        qb.relation("R3", &["Z", "X"]);
        let q = qb.build().unwrap();
        let mut s: Box<dyn JoinSampler> = Box::new(CyclicReservoirJoin::new(q, 10, 1).unwrap());
        s.process(0, &[1, 2]);
        s.process(1, &[2, 3]);
        s.process(2, &[3, 1]);
        assert_eq!(s.samples_named().len(), 1);
    }
}
