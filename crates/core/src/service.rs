//! `SamplerService` — a resident sampler: one op stream in, many
//! registered queries, many concurrent snapshot readers.
//!
//! The paper's driver ([`ReservoirJoin`](crate::ReservoirJoin)) is
//! one-query-one-stream. A resident service inverts the ownership: the
//! service ingests the stream **once** and maintains a uniform reservoir
//! per *registered query*, where queries come and go at runtime.
//!
//! # Registration dataflow
//!
//! [`register`](SamplerService::register) validates the query against the
//! service's relation universe, pins its [`Plan`] (the service never
//! re-plans — a registered query behaves like a standalone driver with
//! `ReplanPolicy { auto: false, .. }`), and **backfills**: the retained op
//! history ([`SharedStore`]) is replayed through a fresh index driving the
//! new query's `SamplerCore`, so a query registered mid-stream ends up
//! byte-identical to one registered before the first op. Registration cost
//! is `O(history)`; ingest cost is unchanged.
//!
//! # The sharing rule
//!
//! The dynamic index maintains *every* rooted orientation of its join tree
//! at once (the shared `(node, parent)` configurations — `3n − 2` tables
//! for `n` relations), and delta batches are rooted at the inserted
//! relation itself. A query's plan root therefore only matters for repair
//! draws, never for index maintenance. So the service keeps **one
//! [`DynamicIndex`] per (canonical tree edges, [`IndexOptions`]) group**;
//! members of a group freely differ in root, `k`, and seed, and each
//! member is a plain `SamplerCore` consuming the shared index's delta
//! batches. Registering 16 same-tree queries costs one index insert per
//! op plus 16 cheap reservoir consumptions — not 16 index inserts.
//!
//! Engines other than the shared `RSJoin` core enter through
//! [`register_sampler`](SamplerService::register_sampler): resident, with
//! backfill and epoch reads, but no storage sharing (they own their state
//! behind [`JoinSampler`]). Every op is schema-checked against the
//! universe **before** it is applied to anyone, so the service never
//! half-applies an op.
//!
//! # The epoch-read invariant
//!
//! Readers never take a lock the ingest thread can block on. Each member
//! owns a single-writer seqlock [`EpochCell`]; at *publish points* (every
//! [`publish_every`](ServiceOpts::publish_every) ops, at registration, and
//! on explicit [`publish`](SamplerService::publish) calls) the service
//! writes `[lsn, |Q(R)|, samples…]` into the cell in one atomic epoch.
//! [`SampleReader::snapshot`] retries on epoch mismatch and therefore
//! always observes the state at some single published LSN — a reader can
//! never pair one epoch's reservoir with another epoch's count
//! (ARCHITECTURE.md, invariant 10).
//!
//! # One count per op per group
//!
//! Exact `|Q(R)|` is a property of an index state, and every member of a
//! group looks at the same index. Each group therefore memoizes it: the
//! first consumer after an accepted op — a member's delete repair, a
//! publish point, an [`exact_count`](SamplerService::exact_count) call —
//! pays one [`DynamicIndex::exact_count`] pass, every later one reads the
//! number, and the next accepted op on that index forgets it. The memo is
//! transient: never serialized, rebuilt on demand after a restore.

use crate::count::JoinCounter;
use crate::exec::{check_op, JoinSampler};
use crate::reservoir_join::{DeltaCache, SamplerCore};
use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::hash::fx_hash_columns;
use rsj_common::rng::RsjRng;
use rsj_common::{EpochCell, HeapSize, TupleId, Value};
use rsj_index::dynamic::IndexError;
use rsj_index::{DynamicIndex, IndexOptions};
use rsj_query::{JoinTree, Plan, Query};
use rsj_storage::{ColumnarBatch, OpStream, SharedStore, SharedStoreError, StreamOp};
use std::cell::Cell;
use std::sync::Arc;

/// Service-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct ServiceOpts {
    /// Ops between automatic publish points (`0` = publish only on
    /// explicit [`publish`](SamplerService::publish) calls). A publish
    /// point copies every member's reservoir into its cell and needs each
    /// index group's exact `|Q(R)|` — at most one pass over the group's
    /// index, none when a delete repair of the same op already counted —
    /// so the cadence trades reader freshness against ingest overhead.
    pub publish_every: u64,
}

impl Default for ServiceOpts {
    fn default() -> Self {
        ServiceOpts {
            publish_every: 1024,
        }
    }
}

/// Per-registration parameters for the shared-index path.
#[derive(Clone, Debug)]
pub struct QueryOpts {
    /// Reservoir capacity.
    pub k: usize,
    /// Sampling seed (drives both the skip stream and repair draws).
    pub seed: u64,
    /// Index options; part of the sharing key — registrations only share
    /// an index when their options compare equal.
    pub index: IndexOptions,
    /// Explicit plan override; `None` pins [`Plan::canonical`]. The plan
    /// is fixed for the registration's lifetime.
    pub plan: Option<Plan>,
}

impl QueryOpts {
    /// Canonical-plan options with default index settings.
    pub fn new(k: usize, seed: u64) -> QueryOpts {
        QueryOpts {
            k,
            seed,
            index: IndexOptions::default(),
            plan: None,
        }
    }
}

/// Identifies one live registration; returned by
/// [`register`](SamplerService::register) and spent by
/// [`deregister`](SamplerService::deregister).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct QueryHandle(u64);

impl QueryHandle {
    /// The registration's numeric id (unique for the service's lifetime).
    pub fn id(&self) -> u64 {
        self.0
    }
}

/// Rebuilds a boxed engine from its snapshot identity `(name, k)` during
/// [`restore_from_snapshot`](SamplerService::restore_from_snapshot);
/// returning `None` rejects the snapshot.
pub type RebuildFn = dyn FnMut(&str, usize) -> Option<Box<dyn JoinSampler + Send>>;

/// A registration or ingest failure. Failed calls leave the service
/// unchanged.
#[derive(Debug)]
pub enum ServiceError {
    /// The registered query's schema differs from the service universe.
    UniverseMismatch,
    /// Reservoir capacity `k = 0`.
    ZeroCapacity,
    /// The query is cyclic — the shared path needs a join tree (cyclic
    /// queries go through [`SamplerService::register_sampler`] with the
    /// GHD engine).
    Cyclic,
    /// An explicit plan's tree or root does not fit the universe.
    PlanMismatch,
    /// Index construction rejected the plan's tree.
    Index(IndexError),
    /// The op failed shared-store validation (unknown relation, arity).
    Store(SharedStoreError),
    /// The handle names no live registration.
    UnknownHandle(u64),
    /// A service snapshot was requested while the named boxed engine had
    /// no canonical image (a sharded executor serving degraded); nothing
    /// was written.
    SnapshotUnavailable(&'static str),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::UniverseMismatch => {
                write!(f, "query schema differs from the service universe")
            }
            ServiceError::ZeroCapacity => write!(f, "reservoir capacity k must be positive"),
            ServiceError::Cyclic => {
                write!(f, "cyclic query: the shared path requires a join tree")
            }
            ServiceError::PlanMismatch => {
                write!(f, "plan tree or root does not fit the service universe")
            }
            ServiceError::Index(e) => write!(f, "index construction failed: {e}"),
            ServiceError::Store(e) => write!(f, "op rejected: {e}"),
            ServiceError::UnknownHandle(id) => write!(f, "no live registration with id {id}"),
            ServiceError::SnapshotUnavailable(engine) => {
                write!(f, "{engine} has no state image to snapshot right now")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

/// One shared-index member: a reservoir core plus its publish cell.
struct Member {
    id: u64,
    core: SamplerCore,
    cell: Arc<EpochCell>,
}

/// One index group: every registration whose (canonical tree edges,
/// options) matched shares this index.
struct Group {
    edges: Vec<(usize, usize)>,
    /// The tree *instance* the index was built over. Adjacency order
    /// changes node-state discovery order downstream, so every member's
    /// plan adopts this instance (same canonical edges, by construction).
    tree: JoinTree,
    options: IndexOptions,
    index: DynamicIndex,
    members: Vec<Member>,
    /// Per-op retrieval memo shared by the members (transient — cleared
    /// every op, never serialized). Only exercised with two or more
    /// members; a lone member keeps the standalone zero-allocation path.
    cache: DeltaCache,
    /// Exact `|Q(R)|` of the index's current state, if anyone has asked
    /// since the last accepted op (transient — never serialized). See the
    /// [module docs](self), "One count per op per group".
    population: Cell<Option<u128>>,
}

impl Group {
    /// The memoized exact count of `index`, paying (and tallying in
    /// `passes`) one index pass when its current state has not been
    /// counted yet. Takes the group's fields apart because the ingest loop
    /// calls it while holding the members mutably.
    fn population(index: &DynamicIndex, memo: &Cell<Option<u128>>, passes: &Cell<u64>) -> u128 {
        memo.get().unwrap_or_else(|| {
            passes.set(passes.get() + 1);
            let population = index.exact_count();
            memo.set(Some(population));
            population
        })
    }
}

/// One boxed-engine member: resident and backfilled, but unshared.
struct BoxedMember {
    id: u64,
    sampler: Box<dyn JoinSampler + Send>,
    /// Exact `|Q(R)|` sidecar over the universe (the trait exposes no
    /// relation access — same trade as the sharded executor's counter).
    counter: JoinCounter,
    cell: Arc<EpochCell>,
}

/// The resident sampler service. See the [module docs](self) for the
/// registration dataflow, the sharing rule, and the epoch-read invariant.
///
/// ```
/// use rsj_core::service::{QueryOpts, SamplerService};
/// use rsj_query::QueryBuilder;
/// use rsj_storage::StreamOp;
///
/// let mut qb = QueryBuilder::new();
/// qb.relation("R", &["X", "Y"]);
/// qb.relation("S", &["Y", "Z"]);
/// let q = qb.build().unwrap();
/// let mut svc = SamplerService::new(q.clone());
/// let h = svc.register(&q, &QueryOpts::new(8, 42)).unwrap();
/// let reader = svc.reader(h).unwrap(); // clonable, usable from any thread
/// svc.process_op(&StreamOp::insert(0, vec![1, 2])).unwrap();
/// svc.process_op(&StreamOp::insert(1, vec![2, 3])).unwrap();
/// svc.publish();
/// let snap = reader.snapshot();
/// assert_eq!(snap.lsn, 2);
/// assert_eq!(snap.population, 1);
/// assert_eq!(snap.samples, vec![vec![1, 2, 3]]);
/// svc.deregister(h).unwrap();
/// ```
pub struct SamplerService {
    universe: Query,
    store: SharedStore,
    groups: Vec<Group>,
    boxed: Vec<BoxedMember>,
    next_id: u64,
    publish_every: u64,
    ops_since_publish: u64,
    /// Index count passes performed so far (transient; the sharing tests
    /// read it to pin "at most one pass per accepted op per group").
    count_passes: Cell<u64>,
    /// Reused payload buffer of [`publish`](SamplerService::publish).
    publish_words: Vec<u64>,
}

impl SamplerService {
    /// A service over `universe` with default options.
    pub fn new(universe: Query) -> SamplerService {
        Self::with_opts(universe, ServiceOpts::default())
    }

    /// A service over `universe` with explicit options.
    pub fn with_opts(universe: Query, opts: ServiceOpts) -> SamplerService {
        let schema = universe
            .relations()
            .iter()
            .map(|r| (r.name.clone(), r.attrs.len()))
            .collect();
        SamplerService {
            universe,
            store: SharedStore::new(schema),
            groups: Vec::new(),
            boxed: Vec::new(),
            next_id: 1,
            publish_every: opts.publish_every,
            ops_since_publish: 0,
            count_passes: Cell::new(0),
            publish_words: Vec::new(),
        }
    }

    /// The relation universe every registration must match.
    pub fn universe(&self) -> &Query {
        &self.universe
    }

    /// The retained history and registration reference counts.
    pub fn store(&self) -> &SharedStore {
        &self.store
    }

    /// Ops ingested so far.
    pub fn lsn(&self) -> u64 {
        self.store.lsn()
    }

    /// Live registrations (shared and boxed).
    pub fn num_queries(&self) -> usize {
        self.groups.iter().map(|g| g.members.len()).sum::<usize>() + self.boxed.len()
    }

    /// Live index groups — `num_queries()` registrations share exactly
    /// this many dynamic indexes.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Handles of every live registration, in registration order per path.
    pub fn handles(&self) -> Vec<QueryHandle> {
        let mut out: Vec<QueryHandle> = self
            .groups
            .iter()
            .flat_map(|g| g.members.iter().map(|m| QueryHandle(m.id)))
            .chain(self.boxed.iter().map(|b| QueryHandle(b.id)))
            .collect();
        out.sort_by_key(|h| h.0);
        out
    }

    fn check_universe(&self, query: &Query) -> Result<(), ServiceError> {
        let u = &self.universe;
        if query.attr_names() != u.attr_names() || query.relations() != u.relations() {
            return Err(ServiceError::UniverseMismatch);
        }
        Ok(())
    }

    /// Registers a query on the shared-index path and backfills it from
    /// the retained history. See the [module docs](self).
    pub fn register(
        &mut self,
        query: &Query,
        opts: &QueryOpts,
    ) -> Result<QueryHandle, ServiceError> {
        self.check_universe(query)?;
        if opts.k == 0 {
            return Err(ServiceError::ZeroCapacity);
        }
        let nrels = self.universe.num_relations();
        let mut plan = match &opts.plan {
            Some(p) => p.clone(),
            None => Plan::canonical(query).ok_or(ServiceError::Cyclic)?,
        };
        if plan.tree.len() != nrels || plan.root >= nrels {
            return Err(ServiceError::PlanMismatch);
        }
        let edges = plan.tree.canonical_edges();
        let gi = match self
            .groups
            .iter()
            .position(|g| g.edges == edges && g.options == opts.index)
        {
            Some(gi) => {
                // Adopt the group's tree instance (same canonical edges);
                // adjacency order fixes the config discovery order shared
                // state depends on.
                plan.tree = self.groups[gi].tree.clone();
                let mut core = SamplerCore::new(query, plan, opts.k, opts.seed);
                // Backfill through a throwaway index: delta batches need
                // the historical index state at each op, and replaying the
                // same ops in the same order rebuilds exactly the states
                // the group index went through.
                let mut index =
                    DynamicIndex::with_tree(query.clone(), &self.groups[gi].tree, opts.index)
                        .map_err(ServiceError::Index)?;
                Self::replay(&mut index, &mut core, self.store.history());
                self.groups[gi].members.push(Member {
                    id: 0, // assigned below
                    core,
                    cell: Arc::new(EpochCell::new(0)), // replaced below
                });
                gi
            }
            None => {
                let mut index = DynamicIndex::with_tree(query.clone(), &plan.tree, opts.index)
                    .map_err(ServiceError::Index)?;
                let tree = plan.tree.clone();
                let mut core = SamplerCore::new(query, plan, opts.k, opts.seed);
                Self::replay(&mut index, &mut core, self.store.history());
                self.groups.push(Group {
                    edges,
                    tree,
                    options: opts.index,
                    index,
                    members: vec![Member {
                        id: 0,
                        core,
                        cell: Arc::new(EpochCell::new(0)),
                    }],
                    cache: DeltaCache::default(),
                    population: Cell::new(None),
                });
                self.groups.len() - 1
            }
        };
        for rel in 0..nrels {
            self.store
                .acquire(rel)
                .expect("universe relations are in range");
        }
        let id = self.next_id;
        self.next_id += 1;
        let cell = Arc::new(EpochCell::new(4 + opts.k * self.universe.num_attrs()));
        let m = self.groups[gi].members.last_mut().expect("just pushed");
        m.id = id;
        m.cell = cell;
        self.publish();
        Ok(QueryHandle(id))
    }

    /// Registers an arbitrary engine (any [`JoinSampler`] built over the
    /// service universe) as a resident member: backfilled from the
    /// retained history and published to its own epoch cell, but with no
    /// storage sharing.
    pub fn register_sampler(
        &mut self,
        mut sampler: Box<dyn JoinSampler + Send>,
    ) -> Result<QueryHandle, ServiceError> {
        self.check_universe(sampler.input_query())?;
        if sampler.k() == 0 {
            return Err(ServiceError::ZeroCapacity);
        }
        let mut counter = JoinCounter::new(self.universe.clone());
        // The history was checked against the universe op by op, and the
        // engine takes exactly the universe's tuples.
        for op in self.store.history().iter() {
            match op {
                StreamOp::Insert(t) => {
                    sampler.process(t.relation, &t.values);
                    counter.insert(t.relation, t.values.clone());
                }
                StreamOp::Delete(t) => {
                    sampler.delete(t.relation, &t.values);
                    counter.remove(t.relation, &t.values);
                }
            }
        }
        for rel in 0..self.universe.num_relations() {
            self.store
                .acquire(rel)
                .expect("universe relations are in range");
        }
        let id = self.next_id;
        self.next_id += 1;
        let arity = sampler.output_query().num_attrs();
        let cell = Arc::new(EpochCell::new(4 + sampler.k() * arity));
        self.boxed.push(BoxedMember {
            id,
            sampler,
            counter,
            cell,
        });
        self.publish();
        Ok(QueryHandle(id))
    }

    /// Replays the retained history through a fresh `(index, core)` pair —
    /// the backfill loop. Identical op sequence ⇒ identical accept/reject
    /// decisions, tuple ids, and delta batches, so the resulting core is
    /// byte-identical to one that had been registered before the first op.
    fn replay(index: &mut DynamicIndex, core: &mut SamplerCore, history: &OpStream) {
        for op in history.iter() {
            let t = op.tuple();
            if op.is_delete() {
                if index.delete(t.relation, &t.values).is_some() {
                    let index = &*index;
                    core.apply_delete(index, t.relation, &t.values, || index.exact_count());
                }
            } else if let Some(tid) = index.insert(t.relation, &t.values) {
                core.consume_delta(index, t.relation, tid);
            }
        }
    }

    /// Feeds one accepted insert's delta batch to every member of a
    /// group. A lone member runs the standalone (buffer-reusing) path; two
    /// or more share retrievals through the group's [`DeltaCache`], which
    /// is byte-identical per member (see `consume_delta_cached`) but pays
    /// each batch position's `O(log N)` retrieval once instead of once per
    /// member.
    fn consume_group(
        index: &DynamicIndex,
        members: &mut [Member],
        cache: &mut DeltaCache,
        rel: usize,
        tid: TupleId,
    ) {
        if let [m] = members {
            m.core.consume_delta(index, rel, tid);
        } else {
            cache.begin_op();
            let batch = index.delta_batch(rel, tid);
            for m in members.iter_mut() {
                m.core.consume_delta_cached(index, &batch, cache);
            }
        }
    }

    /// Removes a registration, releasing its store references; the last
    /// member out of an index group drops the group's index with it.
    pub fn deregister(&mut self, handle: QueryHandle) -> Result<(), ServiceError> {
        let nrels = self.universe.num_relations();
        if let Some((gi, mi)) = self.find_shared(handle.0) {
            self.groups[gi].members.remove(mi);
            if self.groups[gi].members.is_empty() {
                self.groups.remove(gi);
            }
        } else if let Some(bi) = self.find_boxed(handle.0) {
            self.boxed.remove(bi);
        } else {
            return Err(ServiceError::UnknownHandle(handle.0));
        }
        for rel in 0..nrels {
            self.store
                .release(rel)
                .expect("registration held one reference per relation");
        }
        Ok(())
    }

    /// Whether `handle` names a live registration.
    pub fn registered(&self, handle: QueryHandle) -> bool {
        self.find_shared(handle.0).is_some() || self.find_boxed(handle.0).is_some()
    }

    fn find_shared(&self, id: u64) -> Option<(usize, usize)> {
        self.groups
            .iter()
            .enumerate()
            .find_map(|(gi, g)| g.members.iter().position(|m| m.id == id).map(|mi| (gi, mi)))
    }

    fn find_boxed(&self, id: u64) -> Option<usize> {
        self.boxed.iter().position(|b| b.id == id)
    }

    /// The checks [`process_op`](SamplerService::process_op) performs
    /// before any mutation, without applying anything — what the
    /// durability wrapper runs before logging an op, so nothing ever
    /// reaches the WAL that replay would reject.
    pub fn validate_op(&self, op: &StreamOp) -> Result<(), ServiceError> {
        check_op(&self.universe, op).map_err(ServiceError::Store)
    }

    /// Ingests one op: validate, retain, apply to every registration,
    /// publish if the cadence elapsed. Returns the op's LSN (0-based).
    pub fn process_op(&mut self, op: &StreamOp) -> Result<u64, ServiceError> {
        self.process_owned(op.clone())
    }

    /// [`process_op`](SamplerService::process_op) by move: the op is
    /// retained as the history entry itself and applied through a borrow
    /// of that entry, so per-op ingest performs exactly one values
    /// allocation (building the op).
    fn process_owned(&mut self, op: StreamOp) -> Result<u64, ServiceError> {
        self.validate_op(&op)?;
        let lsn = self.store.append_owned(op).map_err(ServiceError::Store)?;
        let op = &self.store.history().ops()[lsn as usize];
        let t = op.tuple();
        let passes = &self.count_passes;
        for g in &mut self.groups {
            let Group {
                index,
                members,
                cache,
                population,
                ..
            } = g;
            if op.is_delete() {
                if index.delete(t.relation, &t.values).is_some() {
                    population.set(None);
                    let index = &*index;
                    for m in members.iter_mut() {
                        m.core.apply_delete(index, t.relation, &t.values, || {
                            Group::population(index, population, passes)
                        });
                    }
                }
            } else if let Some(tid) = index.insert(t.relation, &t.values) {
                population.set(None);
                Self::consume_group(index, members, cache, t.relation, tid);
            }
        }
        for b in &mut self.boxed {
            match op {
                StreamOp::Insert(t) => {
                    b.sampler.process(t.relation, &t.values);
                    b.counter.insert(t.relation, t.values.clone());
                }
                StreamOp::Delete(t) => {
                    b.sampler.delete(t.relation, &t.values);
                    b.counter.remove(t.relation, &t.values);
                }
            }
        }
        self.ops_since_publish += 1;
        self.maybe_publish();
        Ok(lsn)
    }

    /// Convenience: ingests one insert.
    pub fn process(&mut self, rel: usize, tuple: &[Value]) -> Result<u64, ServiceError> {
        self.process_owned(StreamOp::insert(rel, tuple.to_vec()))
    }

    /// Convenience: ingests one delete.
    pub fn delete(&mut self, rel: usize, tuple: &[Value]) -> Result<u64, ServiceError> {
        self.process_owned(StreamOp::delete(rel, tuple.to_vec()))
    }

    /// Ingests a columnar batch: each row's relation dedup hash is
    /// computed once by the vectorized column kernel and shared by every
    /// index group, so the batch amortization compounds with the storage
    /// sharing. Byte-identical per member to feeding the batch's rows
    /// through [`process_op`](SamplerService::process_op) in arrival
    /// order. The batch is atomic with respect to publish points: the
    /// cadence check runs once, after the whole batch.
    pub fn process_columnar(&mut self, batch: &ColumnarBatch) -> Result<(), ServiceError> {
        let nrels = batch.num_relations();
        for rel in 0..nrels {
            let rc = batch.relation(rel);
            if rc.rows() > 0 {
                let arity = self.universe.relations().get(rel).map(|r| r.attrs.len());
                SharedStoreError::check(rel, arity, rc.arity()).map_err(ServiceError::Store)?;
            }
        }
        // Retain first (the store is the authority every backfill and
        // restore replays), then apply.
        let mut row = Vec::new();
        for &(rel, r) in batch.arrivals() {
            row.clear();
            batch.relation(rel as usize).write_row(r as usize, &mut row);
            self.store
                .append_owned(StreamOp::insert(rel as usize, row.clone()))
                .expect("batch validated against the universe");
        }
        // One hash pass per relation, shared across all index groups.
        let mut hashes: Vec<Vec<u64>> = Vec::with_capacity(nrels);
        let mut flat: Vec<Value> = Vec::new();
        for rel in 0..nrels {
            let rc = batch.relation(rel);
            let mut h = Vec::new();
            if rc.rows() > 0 {
                flat.clear();
                rc.gather_rows(&mut flat);
                fx_hash_columns(rc.arity() as u64, rc.arity(), &flat, &mut h);
            }
            hashes.push(h);
        }
        for g in &mut self.groups {
            let Group {
                index,
                members,
                cache,
                population,
                ..
            } = g;
            for &(rel, r) in batch.arrivals() {
                row.clear();
                batch.relation(rel as usize).write_row(r as usize, &mut row);
                if let Some(tid) =
                    index.insert_hashed(rel as usize, &row, hashes[rel as usize][r as usize])
                {
                    population.set(None);
                    Self::consume_group(index, members, cache, rel as usize, tid);
                }
            }
        }
        for b in &mut self.boxed {
            b.sampler.process_columnar(batch);
            for &(rel, r) in batch.arrivals() {
                row.clear();
                batch.relation(rel as usize).write_row(r as usize, &mut row);
                b.counter.insert(rel as usize, row.clone());
            }
        }
        self.ops_since_publish += batch.arrivals().len() as u64;
        self.maybe_publish();
        Ok(())
    }

    fn maybe_publish(&mut self) {
        if self.publish_every > 0 && self.ops_since_publish >= self.publish_every {
            self.publish();
        }
    }

    /// Publishes every member's `(lsn, |Q(R)|, samples)` to its epoch
    /// cell — the only write side of the reader path. A group's exact
    /// count comes from its memo (see the [module docs](self)), so a
    /// publish point right after a delete repair counts nothing again. A
    /// shared member's payload is the four header words plus one copy of
    /// its flat sample buffer.
    pub fn publish(&mut self) {
        self.ops_since_publish = 0;
        let lsn = self.store.lsn();
        let words = &mut self.publish_words;
        for g in &self.groups {
            let population = Group::population(&g.index, &g.population, &self.count_passes);
            for m in &g.members {
                let samples = m.core.samples();
                Self::begin_payload(words, &m.cell, lsn, population, samples.len());
                words.extend_from_slice(samples.flat());
                m.cell.publish(words);
            }
        }
        for b in &self.boxed {
            let samples = b.sampler.samples();
            Self::begin_payload(words, &b.cell, lsn, b.counter.count(), samples.len());
            for s in &samples {
                words.extend_from_slice(s);
            }
            b.cell.publish(words);
        }
    }

    /// Starts `cell`'s next payload in `words`: the four header words the
    /// sample rows follow.
    fn begin_payload(
        words: &mut Vec<u64>,
        cell: &EpochCell,
        lsn: u64,
        population: u128,
        samples: usize,
    ) {
        words.clear();
        words.reserve(cell.capacity());
        words.push(lsn);
        words.push(population as u64);
        words.push((population >> 64) as u64);
        words.push(samples as u64);
    }

    /// A clonable, thread-safe reader over the registration's epoch cell.
    /// Readers stay valid (serving the last published epoch) after the
    /// registration is deregistered.
    pub fn reader(&self, handle: QueryHandle) -> Result<SampleReader, ServiceError> {
        if let Some((gi, mi)) = self.find_shared(handle.0) {
            let m = &self.groups[gi].members[mi];
            Ok(SampleReader {
                cell: Arc::clone(&m.cell),
                arity: self.universe.num_attrs(),
                k: m.core.reservoir.capacity(),
            })
        } else if let Some(bi) = self.find_boxed(handle.0) {
            let b = &self.boxed[bi];
            Ok(SampleReader {
                cell: Arc::clone(&b.cell),
                arity: b.sampler.output_query().num_attrs(),
                k: b.sampler.k(),
            })
        } else {
            Err(ServiceError::UnknownHandle(handle.0))
        }
    }

    /// The registration's current samples (owner-side read; readers use
    /// [`reader`](SamplerService::reader)).
    pub fn samples(&self, handle: QueryHandle) -> Result<Vec<Vec<Value>>, ServiceError> {
        if let Some((gi, mi)) = self.find_shared(handle.0) {
            Ok(self.groups[gi].members[mi].core.samples().to_vec())
        } else if let Some(bi) = self.find_boxed(handle.0) {
            Ok(self.boxed[bi].sampler.samples())
        } else {
            Err(ServiceError::UnknownHandle(handle.0))
        }
    }

    /// Exact live `|Q(R)|` for the registration. Shared registrations read
    /// their group's memo — one index pass per accepted op however many
    /// handles ask; boxed ones run their sidecar's `O(N)` count.
    pub fn exact_count(&self, handle: QueryHandle) -> Result<u128, ServiceError> {
        if let Some((gi, _)) = self.find_shared(handle.0) {
            let g = &self.groups[gi];
            Ok(Group::population(
                &g.index,
                &g.population,
                &self.count_passes,
            ))
        } else if let Some(bi) = self.find_boxed(handle.0) {
            Ok(self.boxed[bi].counter.count())
        } else {
            Err(ServiceError::UnknownHandle(handle.0))
        }
    }

    /// Structural heap bytes: retained store + shared indexes + per-member
    /// reservoirs and cells + boxed engines. With zero registrations this
    /// is exactly `store().heap_size()` — the baseline the leak property
    /// test measures against.
    pub fn heap_size(&self) -> usize {
        let mut total = self.store.heap_size();
        for g in &self.groups {
            total += g.index.heap_size();
            for m in &g.members {
                total += m.core.reservoir.heap_size() + m.cell.heap_size();
            }
        }
        for b in &self.boxed {
            total += b.sampler.stats().heap_bytes.unwrap_or(0)
                + b.counter.heap_size()
                + b.cell.heap_size();
        }
        total
    }

    /// Serializes the whole service: store, groups (options, tree, index
    /// state, member cores), and boxed members (engine state bytes).
    /// Fails with [`ServiceError::SnapshotUnavailable`], before the first
    /// byte reaches `enc`, if any boxed engine has no image right now.
    pub fn snapshot_to(&self, enc: &mut Encoder) -> Result<(), ServiceError> {
        let boxed_states = self
            .boxed
            .iter()
            .map(|b| {
                b.sampler
                    .snapshot_state()
                    .ok_or(ServiceError::SnapshotUnavailable(b.sampler.name()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        self.store.snapshot_to(enc);
        enc.put_u64(self.next_id);
        enc.put_u64(self.publish_every);
        enc.put_u64(self.ops_since_publish);
        enc.put_usize(self.groups.len());
        for g in &self.groups {
            enc.put_bool(g.options.grouping);
            g.tree.snapshot_to(enc);
            g.index.snapshot_state_to(enc);
            enc.put_usize(g.members.len());
            for m in &g.members {
                enc.put_u64(m.id);
                m.core.snapshot_to(enc);
            }
        }
        enc.put_usize(self.boxed.len());
        for (b, state) in self.boxed.iter().zip(&boxed_states) {
            enc.put_u64(b.id);
            enc.put_str(b.sampler.name());
            enc.put_usize(b.sampler.k());
            enc.put_bytes(state);
        }
        Ok(())
    }

    /// Restores a service written by
    /// [`snapshot_to`](SamplerService::snapshot_to) into `self`, which
    /// must have been built over the same universe; any prior
    /// registrations of `self` are discarded. Boxed members are rebuilt
    /// through `rebuild(engine_name, k)`, which must construct each engine
    /// with the same parameters it was originally registered with
    /// (returning `None` rejects the snapshot). A fresh epoch is published
    /// for every member, so readers attached afterwards see the restored
    /// state immediately.
    pub fn restore_from_snapshot(
        &mut self,
        dec: &mut Decoder,
        rebuild: &mut RebuildFn,
    ) -> Result<(), CodecError> {
        let store = SharedStore::restore_from(dec)?;
        let expected: Vec<(String, usize)> = self
            .universe
            .relations()
            .iter()
            .map(|r| (r.name.clone(), r.attrs.len()))
            .collect();
        if store.schema() != expected.as_slice() {
            return Err(CodecError::Corrupt(
                "service snapshot is for another universe",
            ));
        }
        let next_id = dec.u64()?;
        let publish_every = dec.u64()?;
        let ops_since_publish = dec.u64()?;
        let nrels = self.universe.num_relations();
        let num_attrs = self.universe.num_attrs();
        let ngroups = dec.seq_len(1)?;
        let mut groups = Vec::with_capacity(ngroups);
        for _ in 0..ngroups {
            let options = IndexOptions {
                grouping: dec.bool()?,
            };
            let tree = JoinTree::restore_from(dec)?;
            if tree.len() != nrels {
                return Err(CodecError::Corrupt("group tree is for another universe"));
            }
            let mut index = DynamicIndex::with_tree(self.universe.clone(), &tree, options)
                .map_err(|_| CodecError::Corrupt("group tree is not a join tree"))?;
            index.restore_state_from(dec)?;
            let nmembers = dec.seq_len(1)?;
            if nmembers == 0 {
                return Err(CodecError::Corrupt("empty index group in snapshot"));
            }
            let mut members = Vec::with_capacity(nmembers);
            for _ in 0..nmembers {
                let id = dec.u64()?;
                let core = SamplerCore::restore_from(dec, &self.universe)?;
                let cell = Arc::new(EpochCell::new(4 + core.reservoir.capacity() * num_attrs));
                members.push(Member { id, core, cell });
            }
            groups.push(Group {
                edges: tree.canonical_edges(),
                tree,
                options,
                index,
                members,
                cache: DeltaCache::default(),
                population: Cell::new(None),
            });
        }
        let nboxed = dec.seq_len(1)?;
        let mut boxed = Vec::with_capacity(nboxed);
        for _ in 0..nboxed {
            let id = dec.u64()?;
            let name = dec.str()?.to_string();
            let k = dec.usize()?;
            let state = dec.bytes()?.to_vec();
            let mut sampler = rebuild(&name, k).ok_or(CodecError::Corrupt(
                "no builder for boxed engine in snapshot",
            ))?;
            let fits = self.check_universe(sampler.input_query()).is_ok();
            if sampler.name() != name || sampler.k() != k || !fits {
                return Err(CodecError::Corrupt(
                    "rebuilt engine does not match snapshot",
                ));
            }
            sampler.restore_state(&state)?;
            let mut counter = JoinCounter::new(self.universe.clone());
            for op in store.history().iter() {
                match op {
                    StreamOp::Insert(t) => counter.insert(t.relation, t.values.clone()),
                    StreamOp::Delete(t) => counter.remove(t.relation, &t.values),
                }
            }
            let arity = sampler.output_query().num_attrs();
            let cell = Arc::new(EpochCell::new(4 + k * arity));
            boxed.push(BoxedMember {
                id,
                sampler,
                counter,
                cell,
            });
        }
        self.store = store;
        self.groups = groups;
        self.boxed = boxed;
        self.next_id = next_id;
        self.publish_every = publish_every;
        self.ops_since_publish = ops_since_publish;
        self.publish();
        Ok(())
    }
}

/// A clonable, `Send + Sync` handle to one registration's epoch cell:
/// the never-blocking read side of the service. See the [module
/// docs](self), "The epoch-read invariant".
#[derive(Clone)]
pub struct SampleReader {
    cell: Arc<EpochCell>,
    arity: usize,
    k: usize,
}

impl SampleReader {
    /// Reservoir capacity of the registration this reader observes.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Width (in values) of each sample tuple.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The last published epoch's snapshot, spinning through in-flight
    /// publishes (bounded: the writer's publish is wait-free).
    pub fn snapshot(&self) -> SampleSnapshot {
        let mut words = Vec::new();
        let epoch = self.cell.read_into(&mut words);
        self.decode(epoch, &words)
    }

    /// One read attempt; `None` when a publish was in flight (the caller
    /// may retry — the interleaving tests count these).
    pub fn try_snapshot(&self) -> Option<SampleSnapshot> {
        let mut words = Vec::new();
        let epoch = self.cell.try_read_into(&mut words)?;
        Some(self.decode(epoch, &words))
    }

    fn decode(&self, epoch: u64, words: &[u64]) -> SampleSnapshot {
        if words.len() < 4 {
            return SampleSnapshot {
                epoch,
                lsn: 0,
                population: 0,
                samples: Vec::new(),
            };
        }
        let lsn = words[0];
        let population = (words[1] as u128) | ((words[2] as u128) << 64);
        let n = words[3] as usize;
        debug_assert_eq!(words.len(), 4 + n * self.arity, "torn payload shape");
        let samples = words[4..]
            .chunks_exact(self.arity.max(1))
            .take(n)
            .map(|c| c.to_vec())
            .collect();
        SampleSnapshot {
            epoch,
            lsn,
            population,
            samples,
        }
    }
}

/// One consistent published state: the reservoir and the exact count a
/// single publish point wrote together — never a mix of two epochs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampleSnapshot {
    /// The cell's epoch (even; monotonically increasing per publish).
    pub epoch: u64,
    /// The LSN the publish point observed (ops ingested before it).
    pub lsn: u64,
    /// Exact `|Q(R)|` at that LSN.
    pub population: u128,
    /// The registration's reservoir at that LSN: uniform without
    /// replacement over `Q(R)`, fewer than `k` while `|Q(R)| < k`.
    pub samples: Vec<Vec<Value>>,
}

impl SampleSnapshot {
    /// Draws `n` samples uniformly without replacement from the snapshot's
    /// reservoir (all of them when `n >= samples.len()`). A uniform
    /// subsample of a uniform sample is uniform over `Q(R)` — the property
    /// the service's chi-square test checks.
    pub fn sample(&self, n: usize, rng: &mut RsjRng) -> Vec<Vec<Value>> {
        let mut idx: Vec<usize> = (0..self.samples.len()).collect();
        let take = n.min(idx.len());
        let mut out = Vec::with_capacity(take);
        for i in 0..take {
            let j = i + rng.index(idx.len() - i);
            idx.swap(i, j);
            out.push(self.samples[idx[i]].clone());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservoir_join::{ReplanPolicy, ReservoirJoin};
    use rsj_query::QueryBuilder;

    fn line3() -> Query {
        let mut qb = QueryBuilder::new();
        qb.relation("G1", &["A", "B"]);
        qb.relation("G2", &["B", "C"]);
        qb.relation("G3", &["C", "D"]);
        qb.build().unwrap()
    }

    fn turnstile_ops(n: usize, seed: u64) -> OpStream {
        let mut rng = RsjRng::seed_from_u64(seed);
        let mut live: Vec<(usize, Vec<Value>)> = Vec::new();
        let mut ops = OpStream::new();
        for step in 0..n {
            if step % 5 == 4 && !live.is_empty() {
                let (rel, t) = live.swap_remove(rng.index(live.len()));
                ops.push_delete(rel, t);
            } else {
                let rel = rng.index(3);
                let t = vec![rng.below_u64(6), rng.below_u64(6)];
                live.push((rel, t.clone()));
                ops.push_insert(rel, t);
            }
        }
        ops
    }

    fn standalone(q: &Query, k: usize, seed: u64) -> ReservoirJoin {
        let mut rj = ReservoirJoin::new(q.clone(), k, seed).unwrap();
        rj.set_replan_policy(ReplanPolicy {
            auto: false,
            min_inserts: u64::MAX,
        });
        rj
    }

    #[test]
    fn members_share_one_index_and_match_standalone() {
        let q = line3();
        // The default cadence would publish (and count) on its own
        // schedule; this test places its publish points itself.
        let mut svc = SamplerService::with_opts(q.clone(), ServiceOpts { publish_every: 0 });
        let handles: Vec<QueryHandle> = (0..8)
            .map(|i| {
                svc.register(&q, &QueryOpts::new(4 + i, 100 + i as u64))
                    .unwrap()
            })
            .collect();
        assert_eq!(svc.num_queries(), 8);
        assert_eq!(svc.num_groups(), 1, "same tree, same options: one index");
        let ops = turnstile_ops(300, 7);
        let mut repairing_deletes = 0;
        for (i, op) in ops.iter().enumerate() {
            let before = svc.count_passes.get();
            svc.process_op(op).unwrap();
            if i % 64 == 63 {
                // A mid-stream publish point and eight owner-side reads
                // are all served by the op's one count.
                svc.publish();
                for h in &handles {
                    svc.exact_count(*h).unwrap();
                }
                svc.publish();
            }
            let passes = svc.count_passes.get() - before;
            assert!(passes <= 1, "op {i}: {passes} count passes for one op");
            repairing_deletes += u64::from(op.is_delete() && passes == 1);
        }
        assert!(repairing_deletes > 0, "no delete ever repaired");
        for (i, h) in handles.iter().enumerate() {
            let mut rj = standalone(&q, 4 + i, 100 + i as u64);
            rj.process_op_batch(ops.ops()).unwrap();
            assert_eq!(
                svc.samples(*h).unwrap(),
                crate::exec::JoinSampler::samples(&rj),
                "member {i} diverged from its standalone twin"
            );
            assert_eq!(svc.exact_count(*h).unwrap(), rj.index().exact_count());
        }
    }

    #[test]
    fn late_registration_backfills_to_byte_identity() {
        let q = line3();
        let mut svc = SamplerService::new(q.clone());
        let early = svc.register(&q, &QueryOpts::new(8, 1)).unwrap();
        let ops = turnstile_ops(200, 9);
        for op in ops.iter().take(120) {
            svc.process_op(op).unwrap();
        }
        let late = svc.register(&q, &QueryOpts::new(8, 1)).unwrap();
        assert_eq!(
            svc.samples(early).unwrap(),
            svc.samples(late).unwrap(),
            "backfill must reproduce the full history"
        );
        for op in ops.iter().skip(120) {
            svc.process_op(op).unwrap();
        }
        assert_eq!(svc.samples(early).unwrap(), svc.samples(late).unwrap());
    }

    #[test]
    fn distinct_options_get_distinct_groups() {
        let q = line3();
        let mut svc = SamplerService::new(q.clone());
        let a = QueryOpts::new(4, 1);
        let mut b = QueryOpts::new(4, 2);
        b.index = IndexOptions { grouping: false };
        svc.register(&q, &a).unwrap();
        svc.register(&q, &b).unwrap();
        assert_eq!(svc.num_groups(), 2);
    }

    #[test]
    fn deregister_releases_everything() {
        let q = line3();
        let mut svc = SamplerService::new(q.clone());
        svc.process(0, &[1, 2]).unwrap();
        let baseline = svc.heap_size();
        assert_eq!(baseline, svc.store().heap_size());
        let h1 = svc.register(&q, &QueryOpts::new(4, 1)).unwrap();
        let h2 = svc.register(&q, &QueryOpts::new(4, 2)).unwrap();
        assert_eq!(svc.store().live_refs(), 6);
        assert!(svc.heap_size() > baseline);
        svc.deregister(h1).unwrap();
        assert!(svc.registered(h2) && !svc.registered(h1));
        svc.deregister(h2).unwrap();
        assert_eq!(svc.store().live_refs(), 0);
        assert_eq!(svc.num_groups(), 0);
        assert_eq!(svc.heap_size(), svc.store().heap_size());
        assert!(matches!(
            svc.deregister(h2),
            Err(ServiceError::UnknownHandle(_))
        ));
    }

    #[test]
    fn boxed_member_is_resident_and_counted() {
        let q = line3();
        let mut svc = SamplerService::new(q.clone());
        svc.process(0, &[1, 10]).unwrap();
        let h = svc
            .register_sampler(Box::new(ReservoirJoin::new(q.clone(), 8, 3).unwrap()))
            .unwrap();
        svc.process(1, &[10, 20]).unwrap();
        svc.process(2, &[20, 30]).unwrap();
        assert_eq!(svc.exact_count(h).unwrap(), 1);
        assert_eq!(svc.samples(h).unwrap(), vec![vec![1, 10, 20, 30]]);
        svc.delete(1, &[10, 20]).unwrap();
        assert_eq!(svc.exact_count(h).unwrap(), 0);
        svc.deregister(h).unwrap();
        assert_eq!(svc.store().live_refs(), 0);
    }

    #[test]
    fn reader_snapshot_decodes_published_state() {
        let q = line3();
        let mut svc = SamplerService::new(q.clone());
        let h = svc.register(&q, &QueryOpts::new(8, 42)).unwrap();
        let reader = svc.reader(h).unwrap();
        let empty = reader.snapshot();
        assert_eq!((empty.lsn, empty.population), (0, 0));
        svc.process(0, &[1, 10]).unwrap();
        svc.process(1, &[10, 20]).unwrap();
        svc.process(2, &[20, 5]).unwrap();
        svc.process(2, &[20, 6]).unwrap();
        svc.publish();
        let snap = reader.snapshot();
        assert_eq!(snap.lsn, 4);
        assert_eq!(snap.population, 2);
        assert_eq!(snap.samples.len(), 2);
        assert!(snap.epoch > empty.epoch);
        let mut rng = RsjRng::seed_from_u64(1);
        assert_eq!(snap.sample(1, &mut rng).len(), 1);
        assert_eq!(snap.sample(10, &mut rng).len(), 2);
    }

    #[test]
    fn snapshot_restore_round_trips_and_continues_identically() {
        let q = line3();
        let mut svc = SamplerService::new(q.clone());
        svc.register(&q, &QueryOpts::new(6, 5)).unwrap();
        let ops = turnstile_ops(250, 11);
        for op in ops.iter().take(150) {
            svc.process_op(op).unwrap();
        }
        svc.register(&q, &QueryOpts::new(3, 9)).unwrap();
        svc.register_sampler(Box::new(ReservoirJoin::new(q.clone(), 4, 7).unwrap()))
            .unwrap();
        let mut enc = Encoder::new();
        svc.snapshot_to(&mut enc).unwrap();
        let bytes = enc.into_bytes();
        let mut back = SamplerService::new(q.clone());
        let mut dec = Decoder::new(&bytes);
        back.restore_from_snapshot(&mut dec, &mut |name, k| {
            (name == "RSJoin").then(|| {
                Box::new(ReservoirJoin::new(line3(), k, 7).unwrap()) as Box<dyn JoinSampler + Send>
            })
        })
        .unwrap();
        dec.finish().unwrap();
        assert_eq!(back.num_queries(), 3);
        assert_eq!(back.lsn(), svc.lsn());
        for op in ops.iter().skip(150) {
            svc.process_op(op).unwrap();
            back.process_op(op).unwrap();
        }
        for h in svc.handles() {
            assert_eq!(svc.samples(h).unwrap(), back.samples(h).unwrap());
            assert_eq!(svc.exact_count(h).unwrap(), back.exact_count(h).unwrap());
        }
    }

    #[test]
    fn registration_errors_are_loud_and_harmless() {
        let q = line3();
        let mut other = QueryBuilder::new();
        other.relation("R", &["X", "Y"]);
        let other = other.build().unwrap();
        let mut svc = SamplerService::new(q.clone());
        assert!(matches!(
            svc.register(&other, &QueryOpts::new(4, 1)),
            Err(ServiceError::UniverseMismatch)
        ));
        assert!(matches!(
            svc.register(&q, &QueryOpts::new(0, 1)),
            Err(ServiceError::ZeroCapacity)
        ));
        // A boxed engine built for another schema never becomes a member.
        assert!(matches!(
            svc.register_sampler(Box::new(ReservoirJoin::new(other, 4, 1).unwrap())),
            Err(ServiceError::UniverseMismatch)
        ));
        // A malformed op is rejected before any member (shared or boxed)
        // sees it, by the row path and the columnar path alike.
        let mut svc2 = SamplerService::new(q.clone());
        svc2.register_sampler(Box::new(ReservoirJoin::new(q.clone(), 4, 3).unwrap()))
            .unwrap();
        let h = svc2.register(&q, &QueryOpts::new(4, 2)).unwrap();
        svc2.process(0, &[1, 2]).unwrap();
        let before = svc2.samples(h).unwrap();
        assert!(matches!(
            svc2.delete(3, &[1, 2]),
            Err(ServiceError::Store(SharedStoreError::UnknownRelation(3)))
        ));
        assert!(matches!(
            svc2.process(1, &[1, 2, 3]),
            Err(ServiceError::Store(SharedStoreError::ArityMismatch {
                relation: 1,
                expected: 2,
                got: 3
            }))
        ));
        let mut wide = ColumnarBatch::new();
        wide.push(0, &[7, 8]);
        wide.push(3, &[1, 2]);
        assert!(matches!(
            svc2.process_columnar(&wide),
            Err(ServiceError::Store(SharedStoreError::UnknownRelation(3)))
        ));
        assert_eq!(svc2.samples(h).unwrap(), before, "no half-applied op");
        assert_eq!(svc2.lsn(), 1, "rejected ops are not retained");
    }

    #[test]
    fn columnar_ingest_matches_row_ingest_per_member() {
        let q = line3();
        let mut rng = RsjRng::seed_from_u64(21);
        let mut ops = Vec::new();
        for _ in 0..240 {
            ops.push(StreamOp::insert(
                rng.index(3),
                vec![rng.below_u64(6), rng.below_u64(6)],
            ));
        }
        let mut by_rows = SamplerService::new(q.clone());
        let mut by_cols = SamplerService::new(q.clone());
        for svc in [&mut by_rows, &mut by_cols] {
            svc.register(&q, &QueryOpts::new(5, 3)).unwrap();
            svc.register(&q, &QueryOpts::new(9, 4)).unwrap();
        }
        for op in &ops {
            by_rows.process_op(op).unwrap();
        }
        for chunk in ops.chunks(64) {
            let batch = ColumnarBatch::from_insert_ops(chunk).expect("insert-only");
            by_cols.process_columnar(&batch).unwrap();
        }
        assert_eq!(by_rows.lsn(), by_cols.lsn());
        for (a, b) in by_rows.handles().into_iter().zip(by_cols.handles()) {
            assert_eq!(by_rows.samples(a).unwrap(), by_cols.samples(b).unwrap());
        }
    }
}
