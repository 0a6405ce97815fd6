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
//! `RSJoin`'s implementation lives here and the two rewriting paper
//! engines share [`Rewritten`](crate::rewrite::Rewritten)'s; the baselines
//! implement the trait in `rsj-baselines`, and the `Engine` factory that
//! constructs any of the seven behind `Box<dyn JoinSampler>` lives in the
//! `rsjoin` facade crate.

use crate::group::Group;
use crate::reservoir_join::ReservoirJoin;
use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::Value;
use rsj_query::Query;
use rsj_storage::{InputTuple, SharedStoreError, StreamOp};

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
    /// the sampler byte-identical to its pre-batch state; an accepted
    /// batch is then applied op by op, exactly as
    /// [`process_op`](JoinSampler::process_op) would.
    fn process_op_batch(&mut self, ops: &[StreamOp]) -> Result<(), SharedStoreError> {
        self.check_ops(ops)?;
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

    /// Serializes the engine's complete dynamic state into `enc`. The
    /// encoding captures everything future behavior depends on — index
    /// physical layout, sample slots, RNG positions, counters — so
    /// restoring it into a freshly built engine with identical
    /// construction parameters reproduces the original byte-for-byte on
    /// any further stream.
    fn snapshot_to(&self, enc: &mut Encoder);

    /// Restores the image [`snapshot_to`](JoinSampler::snapshot_to) wrote
    /// into `self`, which must have been built with the same construction
    /// parameters (query, `k`, seed, options); any prior dynamic state of
    /// `self` is discarded. `dec` holds that image and nothing after it:
    /// the reader decodes the whole image and checks `dec` is at its end
    /// before it assigns anything, so an `Err` leaves `self` unchanged.
    fn restore_from(&mut self, dec: &mut Decoder) -> Result<(), CodecError>;

    /// The [`snapshot_to`](JoinSampler::snapshot_to) image as bytes;
    /// always `Some`.
    ///
    /// The `Option` is kept only because the repo benchmark (`benchmark/`,
    /// which changes only in its own commits) calls `.expect` on it; nothing
    /// in the library reads a `None`. This method and
    /// [`restore_state`](JoinSampler::restore_state) stay on the trait
    /// because that benchmark calls them.
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        let mut enc = Encoder::new();
        self.snapshot_to(&mut enc);
        Some(enc.into_bytes())
    }

    /// [`restore_from`](JoinSampler::restore_from) over `bytes`, which
    /// hold one whole image; an `Err` leaves `self` unchanged.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        self.restore_from(&mut Decoder::new(bytes))
    }

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

    fn snapshot_to(&self, enc: &mut Encoder) {
        (**self).snapshot_to(enc)
    }

    fn restore_from(&mut self, dec: &mut Decoder) -> Result<(), CodecError> {
        (**self).restore_from(dec)
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

    /// The canonical state image.
    fn image(&self) -> Vec<u8>;

    /// Restores an [`image`](Durable::image) into `self`, freshly built
    /// with the original construction parameters; an `Err` leaves `self`
    /// unchanged.
    fn restore(&mut self, image: &[u8]) -> Result<(), CodecError>;
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

    fn image(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.snapshot_to(&mut enc);
        enc.into_bytes()
    }

    fn restore(&mut self, image: &[u8]) -> Result<(), CodecError> {
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

    /// The one-member group image — the tree the index is built over (it
    /// may have been rebuilt since construction), the index's dynamic
    /// state (physical layout included), and the member's plan, reservoir
    /// (sample slots, skip parameters `(w, q)`, RNG position), repair RNG
    /// and counters — followed by the replan counters. Construction
    /// parameters (query, `k`, seed, planner, replan policy) are not
    /// written.
    fn snapshot_to(&self, enc: &mut Encoder) {
        self.group.snapshot_to(enc, |_, _| {});
        enc.put_u64(self.replanner.rebuilds);
        enc.put_u64(self.replanner.checked_at);
    }

    /// The index is rebuilt over the image's join tree and its dynamic
    /// state overlaid. Shape mismatches (wrong query, wrong `k` or index
    /// options, a sample row of the wrong width) reject the image. The
    /// planner and replan policy are configuration, not state: they keep
    /// `self`'s current values.
    fn restore_from(&mut self, dec: &mut Decoder) -> Result<(), CodecError> {
        let (group, _) = Group::restore_from(dec, self.index().query(), |_| Ok(()))?;
        if group.members.len() != 1 || group.index().options() != self.index().options() {
            return Err(CodecError::Corrupt(
                "snapshot is not a group of this driver",
            ));
        }
        if group.members[0].reservoir.capacity() != self.k() {
            return Err(CodecError::Corrupt("snapshot reservoir capacity mismatch"));
        }
        let rebuilds = dec.u64()?;
        let checked_at = dec.u64()?;
        dec.finish()?;
        self.group = group;
        self.replanner.rebuilds = rebuilds;
        self.replanner.checked_at = checked_at;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CyclicReservoirJoin;
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
