//! The engines that rewrite their input stream, written once.
//!
//! The paper's foreign-key combination (§4.4) and its GHD bags for cyclic
//! queries (§5) are both reductions: rewrite each original-stream tuple
//! into signed tuples of another query, then sample that query with an
//! acyclic sampler. [`Rewritten`] is that reduction: a [`Rewrite`] in front
//! of any [`JoinSampler`], with the one `JoinSampler` impl that
//! `RSJoin_opt` and `SJoin_opt` ([`FkCombiner`](crate::FkCombiner) in front
//! of `RSJoin` and `SJoin`) and `RSJoin_cyclic`
//! ([`BagSet`](crate::cyclic::BagSet) in front of `RSJoin`) share.

use crate::exec::{check_schema, JoinSampler, SamplerStats};
use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::Value;
use rsj_query::Query;
use rsj_storage::{SharedStoreError, StreamOp};

/// A stream rewrite: turns each original-stream insert or delete into
/// signed tuples of the rewritten query's relations.
pub trait Rewrite: Sized {
    /// Inserts one original-stream tuple, handing every rewritten tuple it
    /// completes (none, one or many) to `emit(rewritten_relation, tuple)`.
    /// A duplicate insert is a no-op (set semantics).
    fn insert(&mut self, rel: usize, tuple: &[Value], emit: impl FnMut(usize, &[Value]));

    /// Deletes one original-stream tuple, handing every rewritten tuple it
    /// withdraws to `emit` — the `-1` side of the pipeline. Deleting an
    /// absent tuple is a no-op.
    fn retract(&mut self, rel: usize, tuple: &[Value], emit: impl FnMut(usize, &[Value]));

    /// Checks `ops` in order, as [`JoinSampler::check_ops`] does, against
    /// `query`, the original query. The default checks each op against
    /// its schema.
    fn check_ops(&self, query: &Query, ops: &[StreamOp]) -> Result<(), SharedStoreError> {
        ops.iter().try_for_each(|op| check_schema(query, op))
    }

    /// Serializes the rewrite's dynamic state.
    fn snapshot_to(&self, enc: &mut Encoder);

    /// A rewrite built like `self` holding the state
    /// [`snapshot_to`](Rewrite::snapshot_to) wrote; `self` is not changed.
    fn restore_from(&self, dec: &mut Decoder) -> Result<Self, CodecError>;

    /// Heap bytes of the rewrite's state.
    fn heap_size(&self) -> usize;

    /// Original-stream tuples accepted so far (set semantics).
    fn inserts(&self) -> u64;

    /// Original-stream tuples deleted so far (present at deletion time).
    fn deletes(&self) -> u64;
}

/// A [`JoinSampler`] over a rewritten query: `rewrite` turns each
/// original-stream op into signed tuples of the rewritten query, and
/// `inner` samples that query.
///
/// The engine accepts the original query's relations
/// ([`input_query`](JoinSampler::input_query)); its samples are tuples of
/// the inner engine's [`output_query`](JoinSampler::output_query). Its
/// image is the rewrite's followed by the inner engine's.
pub struct Rewritten<R, S> {
    name: &'static str,
    /// The original query, whose relations the input stream addresses.
    query: Query,
    rewrite: R,
    inner: S,
}

impl<R: Rewrite, S: JoinSampler> Rewritten<R, S> {
    /// The engine `name`: `rewrite` of `query` in front of `inner`, which
    /// was built over the rewritten query.
    pub(crate) fn wrap(name: &'static str, query: Query, rewrite: R, inner: S) -> Self {
        Rewritten {
            name,
            query,
            rewrite,
            inner,
        }
    }

    /// The stream rewrite.
    pub fn rewrite(&self) -> &R {
        &self.rewrite
    }

    /// The inner engine, over the rewritten query.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<R: Rewrite, S: JoinSampler> JoinSampler for Rewritten<R, S> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn output_query(&self) -> &Query {
        self.inner.output_query()
    }

    fn input_query(&self) -> &Query {
        &self.query
    }

    fn process(&mut self, rel: usize, tuple: &[Value]) {
        let inner = &mut self.inner;
        self.rewrite.insert(rel, tuple, |r, t| inner.process(r, t));
    }

    /// The rewrite's `-1` tuples go to the inner engine's delete path,
    /// which repairs its sample against the exact live count.
    fn delete(&mut self, rel: usize, tuple: &[Value]) {
        let inner = &mut self.inner;
        self.rewrite.retract(rel, tuple, |r, t| inner.delete(r, t));
    }

    fn check_ops(&self, ops: &[StreamOp]) -> Result<(), SharedStoreError> {
        self.rewrite.check_ops(&self.query, ops)
    }

    fn for_each_sample(&self, f: &mut dyn FnMut(&[Value])) {
        self.inner.for_each_sample(f)
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    /// The inner engine's count: the rewritten query's results are
    /// exactly the original query's.
    fn exact_count(&self) -> u128 {
        self.inner.exact_count()
    }

    fn stats(&self) -> SamplerStats {
        let inner = self.inner.stats();
        SamplerStats {
            inserts: Some(self.rewrite.inserts()),
            deletes: Some(self.rewrite.deletes()),
            reservoir_stops: inner.reservoir_stops,
            heap_bytes: Some(self.rewrite.heap_size() + inner.heap_bytes.unwrap_or(0)),
            ..SamplerStats::default()
        }
    }

    fn snapshot_to(&self, enc: &mut Encoder) {
        self.rewrite.snapshot_to(enc);
        self.inner.snapshot_to(enc);
    }

    /// The inner image comes last, so the inner engine's end check guards
    /// the rewrite too: it is assigned only once the inner engine has
    /// accepted the rest.
    fn restore_from(&mut self, dec: &mut Decoder) -> Result<(), CodecError> {
        let rewrite = self.rewrite.restore_from(dec)?;
        self.inner.restore_from(dec)?;
        self.rewrite = rewrite;
        Ok(())
    }
}
