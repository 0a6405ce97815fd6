//! `SamplerService` — a resident sampler: one op stream in, many
//! registered queries, many concurrent snapshot readers.
//!
//! The paper's driver ([`ReservoirJoin`](crate::ReservoirJoin)) is
//! one-query-one-stream. A resident service inverts the ownership: the
//! service ingests the stream **once** and maintains a uniform reservoir
//! per *registered query*, where queries come and go at runtime.
//!
//! # The sharing rule
//!
//! The runtime unit is the index group: one
//! [`DynamicIndex`](rsj_index::DynamicIndex) and the reservoirs sampling
//! over it — the same unit a standalone `ReservoirJoin` is, with one
//! member. The dynamic index maintains *every* rooted orientation of its
//! join tree at once (the shared `(node, parent)` configurations — `3n − 2`
//! tables for `n` relations), and delta batches are rooted at the inserted
//! relation itself. A query's plan root therefore only matters for repair
//! draws, never for index maintenance. So the service keeps **one group
//! per (canonical tree edges, [`IndexOptions`])**; members of a group
//! freely differ in root, `k`, and seed. Registering 16 same-tree queries
//! costs one index insert per op plus 16 cheap reservoir consumptions —
//! not 16 index inserts. The service itself holds only the groups and each
//! member's registration id and epoch cell.
//!
//! # Registration dataflow
//!
//! [`register`](SamplerService::register) validates the query against the
//! service's relation universe, pins its [`Plan`] (the service never
//! re-plans — a registered query behaves like a standalone driver with
//! `ReplanPolicy { auto: false, .. }`), and **backfills**: the retained op
//! history ([`SharedStore`]) is replayed through a fresh one-member group
//! over the target group's tree, so a query registered mid-stream ends up
//! byte-identical to one registered before the first op; the member then
//! joins its group (or the fresh group becomes a new one). Registration
//! cost is `O(history)`; ingest cost is unchanged.
//!
//! Every member is an index group's reservoir, so the service serves
//! acyclic queries only. Cyclic queries (`RSJoin_cyclic`) and the
//! foreign-key rewrite (`RSJoin_opt`) run as engines
//! ([`JoinSampler`](crate::JoinSampler)), standalone or under the
//! durability wrapper. Every op is schema-checked against the
//! universe **before** it is applied to any group, so the service never
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
//! (ARCHITECTURE.md, invariant 8).
//!
//! # One count per op per group
//!
//! Exact `|Q(R)|` is a property of an index state, and every member of a
//! group looks at the same index. Each group therefore memoizes it: the
//! first consumer after an accepted op — a member's delete repair, a
//! publish point, an [`exact_count`](SamplerService::exact_count) call —
//! pays one index count pass, every later one reads the number, and the
//! next accepted op on that index forgets it. The memo is transient: never
//! serialized, rebuilt on demand after a restore.

use crate::exec::{check_schema, Durable};
use crate::group::Group;
use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::rng::RsjRng;
use rsj_common::{EpochCell, FxHashSet, HeapSize, Value};
use rsj_index::dynamic::IndexError;
use rsj_index::IndexOptions;
use rsj_query::{Plan, Query};
use rsj_storage::{SharedStore, SharedStoreError, StreamOp};
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

/// A registration or ingest failure. Failed calls leave the service
/// unchanged.
#[derive(Debug)]
pub enum ServiceError {
    /// The registered query's schema differs from the service universe.
    UniverseMismatch,
    /// Reservoir capacity `k = 0`.
    ZeroCapacity,
    /// The query is cyclic — an index group needs a join tree. Cyclic
    /// queries run as the GHD engine (`RSJoin_cyclic`), not in the service.
    Cyclic,
    /// An explicit plan's tree or root does not fit the universe.
    PlanMismatch,
    /// Index construction rejected the plan's tree.
    Index(IndexError),
    /// The op failed validation (unknown relation, arity, a primary key
    /// bound to another tuple).
    Store(SharedStoreError),
    /// The handle names no live registration.
    UnknownHandle(u64),
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
        }
    }
}

impl std::error::Error for ServiceError {}

/// One index group and, in the group's member order, each member's
/// registration id and publish cell.
struct Shared {
    group: Group,
    members: Vec<Member>,
}

struct Member {
    id: u64,
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
    groups: Vec<Shared>,
    next_id: u64,
    publish_every: u64,
    ops_since_publish: u64,
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
            next_id: 1,
            publish_every: opts.publish_every,
            ops_since_publish: 0,
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

    /// Live registrations.
    pub fn num_queries(&self) -> usize {
        self.groups.iter().map(|s| s.members.len()).sum()
    }

    /// Live index groups — `num_queries()` registrations share exactly
    /// this many dynamic indexes.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Handles of every live registration, in registration order.
    pub fn handles(&self) -> Vec<QueryHandle> {
        let mut out: Vec<QueryHandle> = self
            .groups
            .iter()
            .flat_map(|s| s.members.iter().map(|m| QueryHandle(m.id)))
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

    /// Takes the next registration id and one store reference per
    /// relation for a new member.
    fn admit(&mut self) -> u64 {
        for rel in 0..self.universe.num_relations() {
            self.store
                .acquire(rel)
                .expect("universe relations are in range");
        }
        self.next_id += 1;
        self.next_id - 1
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
        let gi = self.groups.iter().position(|s| {
            s.group.tree().canonical_edges() == edges && s.group.index().options() == opts.index
        });
        if let Some(gi) = gi {
            // Adopt the group's tree instance (same canonical edges);
            // adjacency order fixes the config discovery order shared
            // state depends on.
            plan.tree = self.groups[gi].group.tree().clone();
        }
        let mut fresh = Group::new(query.clone(), plan, opts.index, opts.k, opts.seed)
            .map_err(ServiceError::Index)?;
        fresh.replay(self.store.history());
        let member = Member {
            id: self.admit(),
            cell: Arc::new(EpochCell::new(4 + opts.k * self.universe.num_attrs())),
        };
        let id = member.id;
        match gi {
            Some(gi) => {
                self.groups[gi].group.members.extend(fresh.members);
                self.groups[gi].members.push(member);
            }
            None => self.groups.push(Shared {
                group: fresh,
                members: vec![member],
            }),
        }
        self.publish();
        Ok(QueryHandle(id))
    }

    /// Removes a registration, releasing its store references; the last
    /// member out of an index group drops the group's index with it.
    pub fn deregister(&mut self, handle: QueryHandle) -> Result<(), ServiceError> {
        let (gi, mi) = self.find(handle)?;
        let s = &mut self.groups[gi];
        s.group.members.remove(mi);
        s.members.remove(mi);
        if s.members.is_empty() {
            self.groups.remove(gi);
        }
        for rel in 0..self.universe.num_relations() {
            self.store
                .release(rel)
                .expect("registration held one reference per relation");
        }
        Ok(())
    }

    /// Whether `handle` names a live registration.
    pub fn registered(&self, handle: QueryHandle) -> bool {
        self.find(handle).is_ok()
    }

    /// The `(group, member)` position of a live registration.
    fn find(&self, handle: QueryHandle) -> Result<(usize, usize), ServiceError> {
        self.groups
            .iter()
            .enumerate()
            .find_map(|(gi, s)| {
                let mi = s.members.iter().position(|m| m.id == handle.0)?;
                Some((gi, mi))
            })
            .ok_or(ServiceError::UnknownHandle(handle.0))
    }

    /// The check [`process_op`](SamplerService::process_op) performs
    /// before any mutation, without applying anything — what the
    /// durability wrapper runs before logging an op, so nothing ever
    /// reaches the WAL that replay would reject: the op must fit the
    /// universe's schema.
    pub fn validate_op(&self, op: &StreamOp) -> Result<(), ServiceError> {
        check_schema(&self.universe, op).map_err(ServiceError::Store)
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
        for s in &mut self.groups {
            s.group.apply(op);
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

    fn maybe_publish(&mut self) {
        if self.publish_every > 0 && self.ops_since_publish >= self.publish_every {
            self.publish();
        }
    }

    /// Publishes every member's `(lsn, |Q(R)|, samples)` to its epoch
    /// cell — the only write side of the reader path. A group's exact
    /// count comes from its memo (see the [module docs](self)), so a
    /// publish point right after a delete repair counts nothing again. A
    /// member's payload is the four header words `[lsn, |Q(R)| low, high,
    /// sample count]` plus one copy of its flat sample buffer.
    pub fn publish(&mut self) {
        self.ops_since_publish = 0;
        let lsn = self.store.lsn();
        let words = &mut self.publish_words;
        for s in &self.groups {
            let population = s.group.population();
            for (m, core) in s.members.iter().zip(&s.group.members) {
                let samples = core.reservoir.samples();
                words.clear();
                words.reserve(m.cell.capacity());
                words.push(lsn);
                words.push(population as u64);
                words.push((population >> 64) as u64);
                words.push(samples.len() as u64);
                words.extend_from_slice(samples.flat());
                m.cell.publish(words);
            }
        }
    }

    /// A clonable, thread-safe reader over the registration's epoch cell.
    /// Readers stay valid (serving the last published epoch) after the
    /// registration is deregistered.
    pub fn reader(&self, handle: QueryHandle) -> Result<SampleReader, ServiceError> {
        let (gi, mi) = self.find(handle)?;
        let s = &self.groups[gi];
        Ok(SampleReader {
            cell: Arc::clone(&s.members[mi].cell),
            arity: self.universe.num_attrs(),
            k: s.group.members[mi].reservoir.capacity(),
        })
    }

    /// The registration's current samples (owner-side read; readers use
    /// [`reader`](SamplerService::reader)).
    pub fn samples(&self, handle: QueryHandle) -> Result<Vec<Vec<Value>>, ServiceError> {
        let (gi, mi) = self.find(handle)?;
        Ok(self.groups[gi].group.members[mi]
            .reservoir
            .samples()
            .to_vec())
    }

    /// Exact live `|Q(R)|` for the registration, read from its group's
    /// memo — one index pass per accepted op however many handles ask.
    pub fn exact_count(&self, handle: QueryHandle) -> Result<u128, ServiceError> {
        let (gi, _) = self.find(handle)?;
        Ok(self.groups[gi].group.population())
    }

    /// Structural heap bytes: retained store + shared indexes + per-member
    /// reservoirs and cells. With zero registrations this is exactly
    /// `store().heap_size()` — the baseline the leak property test
    /// measures against.
    pub fn heap_size(&self) -> usize {
        let mut total = self.store.heap_size();
        for s in &self.groups {
            total += s.group.heap_size();
            total += s.members.iter().map(|m| m.cell.heap_size()).sum::<usize>();
        }
        total
    }

    /// Serializes the whole service: the store, then the groups, each
    /// member's image tagged with its registration id.
    pub fn snapshot_to(&self, enc: &mut Encoder) {
        self.store.snapshot_to(enc);
        enc.put_u64(self.next_id);
        enc.put_u64(self.publish_every);
        enc.put_u64(self.ops_since_publish);
        enc.put_usize(self.groups.len());
        for s in &self.groups {
            s.group
                .snapshot_to(enc, |mi, enc| enc.put_u64(s.members[mi].id));
        }
    }

    /// Restores a service written by
    /// [`snapshot_to`](SamplerService::snapshot_to) into `self`, which
    /// must have been built over the same universe; any prior
    /// registrations of `self` are discarded. Registration ids must be
    /// distinct and below the image's next id, or a later registration
    /// could mint a live handle again. `dec` holds the image and nothing
    /// after it: its end is checked before anything is assigned, so an
    /// `Err` leaves the service unchanged. A fresh epoch is published for
    /// every member, so readers attached afterwards see the restored
    /// state immediately.
    pub fn restore_from_snapshot(&mut self, dec: &mut Decoder) -> Result<(), CodecError> {
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
        let num_attrs = self.universe.num_attrs();
        let mut ids = FxHashSet::default();
        let mut fresh_id = |id: u64| {
            if id < next_id && ids.insert(id) {
                Ok(id)
            } else {
                Err(CodecError::Corrupt(
                    "registration id repeats or is not below the next id",
                ))
            }
        };
        let ngroups = dec.seq_len(1)?;
        let mut groups = Vec::with_capacity(ngroups);
        for _ in 0..ngroups {
            let (group, member_ids) =
                Group::restore_from(dec, &self.universe, |dec| fresh_id(dec.u64()?))?;
            let members = member_ids
                .into_iter()
                .zip(&group.members)
                .map(|(id, core)| Member {
                    id,
                    cell: Arc::new(EpochCell::new(4 + core.reservoir.capacity() * num_attrs)),
                })
                .collect();
            groups.push(Shared { group, members });
        }
        dec.finish()?;
        self.store = store;
        self.groups = groups;
        self.next_id = next_id;
        self.publish_every = publish_every;
        self.ops_since_publish = ops_since_publish;
        self.publish();
        Ok(())
    }
}

/// Checkpoint tag of a durable service, so a service checkpoint can never
/// be restored into a single engine (or vice versa) silently.
pub const SERVICE_ENGINE: &str = "SamplerService";

/// One log covers every registered query, because they all consume the
/// one retained stream; registrations are part of the image, not the log.
impl Durable for SamplerService {
    type Error = ServiceError;

    fn checkpoint_tag(&self) -> &'static str {
        SERVICE_ENGINE
    }

    fn check(&self, op: &StreamOp) -> Result<(), ServiceError> {
        self.validate_op(op)
    }

    fn apply(&mut self, op: &StreamOp) -> Result<(), ServiceError> {
        self.process_op(op).map(drop)
    }

    fn image(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.snapshot_to(&mut enc);
        enc.into_bytes()
    }

    fn restore(&mut self, image: &[u8]) -> Result<(), CodecError> {
        self.restore_from_snapshot(&mut Decoder::new(image))
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
    use crate::exec::JoinSampler;
    use crate::reservoir_join::{ReplanPolicy, ReservoirJoin};
    use rsj_query::QueryBuilder;
    use rsj_storage::OpStream;

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

    /// Index count passes paid so far across the service's groups.
    fn count_passes(svc: &SamplerService) -> u64 {
        svc.groups.iter().map(|s| s.group.count_passes()).sum()
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
        let mut deleted = false;
        for (i, op) in ops.iter().enumerate() {
            let before = count_passes(&svc);
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
            let passes = count_passes(&svc) - before;
            assert!(passes <= 1, "op {i}: {passes} count passes for one op");
            // The first delete anchors the ledger with the one full pass;
            // every later count — repairs, publishes, reads — is settled.
            if deleted {
                assert_eq!(passes, 0, "op {i}: a full pass after the first delete");
            }
            deleted |= op.is_delete();
        }
        assert!(deleted, "the stream never deleted");
        assert_eq!(
            count_passes(&svc),
            2,
            "one pass at registration, one at the first delete"
        );
        for (i, h) in handles.iter().enumerate() {
            let mut rj = standalone(&q, 4 + i, 100 + i as u64);
            rj.process_op_batch(ops.ops()).unwrap();
            assert_eq!(
                svc.samples(*h).unwrap(),
                JoinSampler::samples(&rj),
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
        let mut ungrouped = QueryOpts::new(4, 7);
        ungrouped.index = IndexOptions { grouping: false };
        svc.register(&q, &ungrouped).unwrap();
        assert_eq!(svc.num_groups(), 2);
        let mut enc = Encoder::new();
        svc.snapshot_to(&mut enc);
        let bytes = enc.into_bytes();
        let mut back = SamplerService::new(q.clone());
        let mut dec = Decoder::new(&bytes);
        back.restore_from_snapshot(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!((back.num_queries(), back.num_groups()), (3, 2));
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
        assert_eq!(
            svc.num_queries(),
            0,
            "a rejected registration joins nothing"
        );
        // A malformed op is rejected before any group sees it.
        let mut svc2 = SamplerService::new(q.clone());
        let mut ungrouped = QueryOpts::new(4, 3);
        ungrouped.index = IndexOptions { grouping: false };
        let g = svc2.register(&q, &ungrouped).unwrap();
        let h = svc2.register(&q, &QueryOpts::new(4, 2)).unwrap();
        svc2.process(0, &[1, 2]).unwrap();
        let before = (svc2.samples(g).unwrap(), svc2.samples(h).unwrap());
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
        assert_eq!(
            (svc2.samples(g).unwrap(), svc2.samples(h).unwrap()),
            before,
            "no half-applied op"
        );
        assert_eq!(svc2.lsn(), 1, "rejected ops are not retained");
    }
}
