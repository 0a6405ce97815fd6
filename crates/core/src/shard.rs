//! The sharded parallel execution layer: partition the stream, run one
//! [`JoinSampler`] per shard on its own thread, merge the per-shard
//! reservoirs into one statistically correct sample.
//!
//! # Dataflow
//!
//! ```text
//!                      ┌──────────────┐  batched mpsc channel
//!   input tuple ──────▶│  ShardPlan   │───▶ shard 0: JoinSampler
//!   (rel, values)      │ hash(t[p])%S │───▶ shard 1: JoinSampler
//!                      │  /broadcast  │───▶   ...
//!                      └──────────────┘───▶ shard S-1
//!                                                 │ samples()
//!                                                 ▼
//!                           weighted reservoir union (w_i = |Q_i| exact)
//! ```
//!
//! [`ShardPlan`] picks one **partition attribute** `p` — the join attribute
//! shared by the most relations. Tuples of relations containing `p` are
//! routed to shard `hash(t[p]) mod S`; tuples of the remaining relations
//! are broadcast to every shard (fragment-and-replicate). Because a natural
//! join equates `p` across every relation that contains it, each join
//! result binds `p` to exactly one value and is therefore assembled by
//! exactly one shard: the per-shard result sets `Q_0, …, Q_{S-1}` are
//! disjoint and their union is `Q(R)`.
//!
//! # The merge
//!
//! Each shard `i` carries its population count `w_i = |Q_i|` — the inner
//! engine's own [`exact_count`](JoinSampler::exact_count) — next to its
//! `min(k, w_i)`-sample.
//! [`ShardedSampler::samples`] then simulates sequential sampling without
//! replacement from the union: each output slot picks shard `i` with
//! probability `w_i' / Σ w'` (where `w_i'` is shard `i`'s *remaining*
//! population) and takes a uniformly random not-yet-used element of shard
//! `i`'s reservoir. Slot `j` never needs more than `min(k, w_i)` elements
//! from shard `i`, so a full per-shard reservoir is always deep enough, and
//! the draw is exactly a uniform `min(k, |Q(R)|)`-sample without
//! replacement of `Q(R)` whenever the inner engines' reservoirs are
//! uniform without replacement (the `RSJoin` family, `NaiveRebuild`,
//! `SymmetricHashJoin`; `SJoin` samples per-slot with replacement, for
//! which the merged sample keeps per-slot uniformity instead).
//!
//! # Determinism
//!
//! Shard `i` is seeded with `child_seed(seed, i)` and consumes its own
//! partition in arrival order; the merge RNG is seeded from
//! `child_seed(seed, S)` mixed with the routed-tuple count. No decision
//! depends on thread scheduling, so a sharded run is reproducible from the
//! single user seed regardless of interleaving.
//!
//! # Supervision
//!
//! Workers run under `catch_unwind`: a panic in an inner engine (or one
//! injected by [`ShardFault::Panic`]) kills that worker's thread quietly,
//! and the routing side discovers the death through its closed channel. A
//! dead shard is restarted — budget permitting, see [`SupervisorPolicy`] —
//! from its last `ShardImage` snapshot plus a per-shard **replay buffer**
//! of everything routed since, then the replay is re-fed. Because engines
//! are seed-deterministic and batching-independent, the healed worker's
//! state is *byte-identical* to an unfaulted run's, independent of where in
//! the stream the death landed (ARCHITECTURE.md, invariant 9). A shard
//! that dies past its restart budget degrades instead: its ops are counted
//! as lost, reads serve from the surviving shards (still uniform over the
//! surviving population), and [`ShardedSampler::health`] reports
//! [`ShardHealth::Degraded`].

use crate::exec::{JoinSampler, SamplerStats};
use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::hash::fx_hash_words;
use rsj_common::rng::{child_seed, RsjRng};
use rsj_common::Value;
use rsj_query::Query;
use rsj_storage::{ColumnarBatch, StreamOp};
use std::cell::RefCell;
use std::hash::Hasher;
use std::sync::mpsc;
use std::thread::JoinHandle;

/// Tuples buffered per shard before a channel send.
const BATCH_TUPLES: usize = 1024;

/// Panic payload used by [`ShardFault::Panic`], so tests and panic hooks
/// can tell an injected crash from a real engine bug.
pub const INJECTED_FAULT: &str = "injected shard fault";

/// Construction-path errors of the sharded executor, surfaced through
/// `Engine::build` instead of panicking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardError {
    /// `shards == 0`: there is nothing to route to.
    NoShards,
    /// The query has no attributes, so no partition attribute exists.
    NoAttributes,
    /// An explicit partition attribute does not exist in the query.
    PartitionAttrOutOfRange {
        /// The requested attribute id.
        attr: usize,
        /// Number of attributes in the query.
        num_attrs: usize,
    },
    /// The inner engine builder failed.
    Build(String),
    /// The OS refused to spawn a worker thread.
    Spawn(String),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::NoShards => write!(f, "sharded execution needs at least one shard"),
            ShardError::NoAttributes => write!(f, "query has no attributes"),
            ShardError::PartitionAttrOutOfRange { attr, num_attrs } => write!(
                f,
                "partition attribute {attr} out of range for {num_attrs} attributes"
            ),
            ShardError::Build(e) | ShardError::Spawn(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ShardError {}

/// Restart and snapshot-cadence knobs of the shard supervisor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SupervisorPolicy {
    /// Take a fresh `ShardImage` once a shard's replay buffer holds this
    /// many ops (`0` = never snapshot mid-stream; restarts replay from the
    /// beginning of the stream).
    pub snapshot_every: u64,
    /// Restarts allowed per shard before it degrades. `0` disables healing
    /// entirely — no replay buffer is kept, and any death degrades.
    pub max_restarts: u64,
    /// Hard cap on a shard's replay buffer (ops). A shard takes an image
    /// when it hits it; if its engine has none to give at that moment the
    /// shard becomes unhealable (its next death degrades).
    pub replay_cap: u64,
}

impl Default for SupervisorPolicy {
    fn default() -> SupervisorPolicy {
        SupervisorPolicy {
            snapshot_every: 8192,
            max_restarts: 3,
            replay_cap: 65536,
        }
    }
}

/// Liveness of a [`ShardedSampler`]'s worker pool.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardHealth {
    /// Every shard is live (possibly after restarts — a healed shard is
    /// indistinguishable from an unfaulted one).
    Healthy,
    /// One or more shards died past their restart budget. Reads serve from
    /// the survivors: still a uniform sample, but over the surviving
    /// population only.
    Degraded {
        /// Indices of the dead shards.
        dead_shards: Vec<usize>,
        /// Ops routed to dead shards and dropped.
        lost_ops: u64,
    },
}

/// A deterministic fault deliverable to one worker via
/// [`ShardedSampler::inject_fault`] — the shard-side half of the chaos
/// harness (`rsj-testutil`'s `FaultPlan` schedules these from a seed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShardFault {
    /// The worker panics (payload [`INJECTED_FAULT`]) after processing
    /// everything routed before the injection point.
    Panic,
    /// The worker sleeps this many milliseconds, simulating a slow shard.
    Stall(u64),
}

/// The partitioning scheme: which attribute to hash on, and where it sits
/// in each relation's schema.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    shards: usize,
    partition_attr: usize,
    /// Per relation: position of the partition attribute in the schema, or
    /// `None` for a broadcast relation.
    positions: Vec<Option<usize>>,
}

impl ShardPlan {
    /// Builds the plan for `query` over `shards` workers: the partition
    /// attribute is the one contained in the most relations (ties resolved
    /// towards the smallest attribute id), so broadcast traffic is
    /// minimized.
    pub fn new(query: &Query, shards: usize) -> Result<ShardPlan, ShardError> {
        let partition_attr = (0..query.num_attrs())
            .max_by_key(|&a| (query.relations_with_attr(a).len(), usize::MAX - a))
            .ok_or(ShardError::NoAttributes)?;
        Self::with_partition_attr(query, shards, partition_attr)
    }

    /// Builds the plan with an explicit partition attribute — how the
    /// cost-based planner's statistics-informed choice
    /// (`rsj_query::plan::partition_attr`, which breaks most-shared ties
    /// towards the highest observed distinct count) reaches the router.
    pub fn with_partition_attr(
        query: &Query,
        shards: usize,
        attr: usize,
    ) -> Result<ShardPlan, ShardError> {
        if shards == 0 {
            return Err(ShardError::NoShards);
        }
        if attr >= query.num_attrs() {
            return Err(ShardError::PartitionAttrOutOfRange {
                attr,
                num_attrs: query.num_attrs(),
            });
        }
        let positions = (0..query.num_relations())
            .map(|r| query.relation(r).position_of(attr))
            .collect();
        Ok(ShardPlan {
            shards,
            partition_attr: attr,
            positions,
        })
    }

    /// Number of shards `S`.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The attribute id the stream is hash-partitioned on.
    pub fn partition_attr(&self) -> usize {
        self.partition_attr
    }

    /// True if tuples of relation `rel` go to every shard.
    pub fn is_broadcast(&self, rel: usize) -> bool {
        self.positions[rel].is_none()
    }

    /// The owning shard of `tuple` in relation `rel`, or `None` if the
    /// relation is broadcast.
    pub fn route(&self, rel: usize, tuple: &[Value]) -> Option<usize> {
        self.positions[rel].map(|pos| {
            let mut h = rsj_common::hash::FxHasher::default();
            h.write_u64(tuple[pos]);
            (h.finish() % self.shards as u64) as usize
        })
    }
}

/// A read-only question put to a worker's engine; the closure carries
/// its own reply channel.
type ReadFn = Box<dyn FnOnce(&dyn JoinSampler) + Send>;

/// One worker's durable state: the inner engine's snapshot bytes.
type ShardImage = Vec<u8>;

/// The builder the supervisor re-invokes to construct a replacement engine
/// for a restarted shard.
type BuildFn = Box<dyn Fn(u64) -> Result<Box<dyn JoinSampler + Send>, String> + Send>;

enum Msg {
    Batch(Vec<StreamOp>),
    /// A columnar sub-batch (inserts only): the routing side has already
    /// partitioned it, the worker ingests it through the engine's columnar
    /// path.
    Columnar(ColumnarBatch),
    Read(ReadFn),
    /// Ask the inner engine to re-evaluate its plan; replies with whether
    /// anything changed.
    Replan(mpsc::Sender<bool>),
    /// Serialize the inner engine's state (`None` when it has no
    /// canonical image right now).
    Snapshot(mpsc::Sender<Option<ShardImage>>),
    /// Overlay a previously captured image onto the worker's engine.
    Restore(ShardImage, mpsc::Sender<Result<(), CodecError>>),
    /// Deliver an injected fault (chaos harness only).
    Chaos(ShardFault),
}

fn worker_loop(mut sampler: Box<dyn JoinSampler + Send>, rx: mpsc::Receiver<Msg>) {
    for msg in rx {
        match msg {
            Msg::Batch(batch) => {
                // One batched call into the engine (the RSJoin family keeps
                // its scratch hot across the whole delta batch). A malformed
                // op fed through the unchecked primitives dies here, under
                // supervision, like any other inner-engine panic.
                sampler
                    .process_op_batch(&batch)
                    .expect("op does not fit the inner engine's schema");
            }
            Msg::Columnar(batch) => sampler.process_columnar(&batch),
            Msg::Read(read) => read(&*sampler),
            Msg::Replan(reply) => {
                let _ = reply.send(sampler.replan());
            }
            Msg::Snapshot(reply) => {
                let _ = reply.send(sampler.snapshot_state());
            }
            Msg::Restore(image, reply) => {
                let _ = reply.send(sampler.restore_state(&image));
            }
            Msg::Chaos(fault) => match fault {
                ShardFault::Panic => std::panic::panic_any(INJECTED_FAULT),
                ShardFault::Stall(ms) => std::thread::sleep(std::time::Duration::from_millis(ms)),
            },
        }
    }
}

/// Spawns one supervised worker thread. The `catch_unwind` is what turns a
/// worker panic into a silently closed channel for the routing side to
/// discover, instead of a process-level crash.
fn spawn_worker(
    shard: usize,
    sampler: Box<dyn JoinSampler + Send>,
    rx: mpsc::Receiver<Msg>,
) -> Result<JoinHandle<()>, ShardError> {
    std::thread::Builder::new()
        .name(format!("rsj-shard-{shard}"))
        .spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                worker_loop(sampler, rx)
            }));
        })
        .map_err(|e| ShardError::Spawn(format!("failed to spawn shard worker: {e}")))
}

/// Replay-buffer entries mirror the two channel ingest shapes, so a healed
/// worker sees the same call sequence (batching independence makes the
/// exact chunking irrelevant to the rebuilt state).
enum ReplayEntry {
    Ops(Vec<StreamOp>),
    Columnar(ColumnarBatch),
}

/// One shard's worker plus everything the supervisor needs to resurrect it.
struct Slot {
    tx: mpsc::Sender<Msg>,
    handle: Option<JoinHandle<()>>,
    /// Ops routed but not yet shipped over the channel.
    buf: Vec<StreamOp>,
    /// Last durable image of this worker's state.
    image: Option<ShardImage>,
    /// Everything routed since `image` (or since construction), replayed
    /// into a restarted worker. Always a superset of `buf`.
    replay: Vec<ReplayEntry>,
    /// Ops held in `replay`.
    replay_ops: u64,
    /// Times this shard has been restarted.
    restarts: u64,
    /// Dead past the restart budget: ops are dropped, reads skip it.
    dead: bool,
    /// The replay buffer overflowed and the engine had no image to cut it
    /// at: the next death cannot be healed.
    unhealable: bool,
}

impl Slot {
    fn record_op(&mut self, op: &StreamOp) {
        if let Some(ReplayEntry::Ops(v)) = self.replay.last_mut() {
            v.push(op.clone());
        } else {
            self.replay.push(ReplayEntry::Ops(vec![op.clone()]));
        }
        self.replay_ops += 1;
    }
}

/// Mutable innards behind a `RefCell` so that the read-only trait surface
/// (`samples(&self)`, `stats(&self)`) can flush buffers, synchronize with
/// the workers, and heal dead shards.
struct State {
    slots: Vec<Slot>,
    tuples_routed: u64,
    /// Ops routed to shards that were already degraded.
    lost_ops: u64,
    seed: u64,
    policy: SupervisorPolicy,
    build: BuildFn,
}

impl State {
    fn recording(&self, shard: usize) -> bool {
        self.policy.max_restarts > 0 && !self.slots[shard].unhealable
    }

    fn push(&mut self, shard: usize, op: StreamOp) {
        if self.slots[shard].dead {
            self.lost_ops += 1;
            return;
        }
        if self.recording(shard) {
            self.slots[shard].record_op(&op);
        }
        let slot = &mut self.slots[shard];
        slot.buf.push(op);
        if slot.buf.len() >= BATCH_TUPLES {
            self.flush(shard);
        }
        self.maybe_snapshot(shard);
    }

    /// Ships the shard's pending row buffer. Returns false if the shard is
    /// (or just became) degraded.
    fn flush(&mut self, shard: usize) -> bool {
        if self.slots[shard].dead {
            self.slots[shard].buf.clear();
            return false;
        }
        if self.slots[shard].buf.is_empty() {
            return true;
        }
        let batch = std::mem::take(&mut self.slots[shard].buf);
        let n = batch.len() as u64;
        if self.slots[shard].tx.send(Msg::Batch(batch)).is_ok() {
            return true;
        }
        // Worker died. The batch is already in the replay buffer, so a
        // successful heal resends it.
        if self.on_dead(shard) {
            true
        } else {
            self.lost_ops += n;
            false
        }
    }

    /// Ships a columnar sub-batch to `shard`, flushing the shard's pending
    /// row buffer first so the worker sees tuples in routing order.
    fn send_columnar(&mut self, shard: usize, sub: ColumnarBatch) {
        let n = sub.len() as u64;
        if self.slots[shard].dead {
            self.lost_ops += n;
            return;
        }
        if !self.flush(shard) {
            self.lost_ops += n;
            return;
        }
        if self.recording(shard) {
            self.slots[shard]
                .replay
                .push(ReplayEntry::Columnar(sub.clone()));
            self.slots[shard].replay_ops += n;
        }
        if self.slots[shard].tx.send(Msg::Columnar(sub)).is_err() && !self.on_dead(shard) {
            self.lost_ops += n;
            return;
        }
        self.maybe_snapshot(shard);
    }

    /// Takes a fresh image when the shard's replay buffer hits the snapshot
    /// cadence or the hard cap (see [`SupervisorPolicy`]).
    fn maybe_snapshot(&mut self, shard: usize) {
        if self.policy.max_restarts == 0 {
            return;
        }
        let slot = &self.slots[shard];
        if slot.dead || slot.unhealable {
            return;
        }
        let due = self.policy.snapshot_every > 0 && slot.replay_ops >= self.policy.snapshot_every;
        let overflow = slot.replay_ops >= self.policy.replay_cap;
        if !(due || overflow) {
            return;
        }
        if !self.take_image(shard) && overflow {
            // The replay buffer is at its cap and the worker had no image
            // to cut it at: from here on a death degrades.
            let slot = &mut self.slots[shard];
            slot.unhealable = true;
            slot.replay.clear();
            slot.replay_ops = 0;
        }
    }

    /// Synchronously snapshots one worker and resets its replay buffer.
    /// Returns false only when a live worker answered that it has no
    /// image; a worker that died instead was healed (or degraded) from
    /// image + replay and the next cadence check retries.
    fn take_image(&mut self, shard: usize) -> bool {
        if !self.flush(shard) {
            return true;
        }
        let (rtx, rrx) = mpsc::channel();
        if self.slots[shard].tx.send(Msg::Snapshot(rtx)).is_err() {
            let _ = self.on_dead(shard);
            return true;
        }
        match rrx.recv() {
            Ok(Some(img)) => {
                let slot = &mut self.slots[shard];
                slot.image = Some(img);
                slot.replay.clear();
                slot.replay_ops = 0;
                true
            }
            Ok(None) => false,
            Err(_) => {
                let _ = self.on_dead(shard);
                true
            }
        }
    }

    /// Marks shard `shard` dead and drops its supervision state.
    fn degrade(&mut self, shard: usize) -> bool {
        let slot = &mut self.slots[shard];
        slot.dead = true;
        let lost = slot.buf.len() as u64;
        slot.buf.clear();
        slot.replay.clear();
        slot.replay_ops = 0;
        slot.image = None;
        self.lost_ops += lost;
        false
    }

    /// Handles a dead worker: joins the corpse and, budget permitting,
    /// restarts it from its last image plus the replay buffer. Returns true
    /// when the shard is healthy again; false leaves it degraded.
    fn on_dead(&mut self, shard: usize) -> bool {
        loop {
            if let Some(h) = self.slots[shard].handle.take() {
                let _ = h.join();
            }
            if self.slots[shard].dead {
                return false;
            }
            if self.slots[shard].unhealable
                || self.slots[shard].restarts >= self.policy.max_restarts
            {
                return self.degrade(shard);
            }
            self.slots[shard].restarts += 1;
            let engine = match (self.build)(child_seed(self.seed, shard as u64)) {
                Ok(e) => e,
                Err(_) => return self.degrade(shard),
            };
            let (tx, rx) = mpsc::channel();
            let handle = match spawn_worker(shard, engine, rx) {
                Ok(h) => h,
                Err(_) => return self.degrade(shard),
            };
            {
                let slot = &mut self.slots[shard];
                slot.tx = tx;
                slot.handle = Some(handle);
                // The buffered tail is a suffix of the replay buffer and is
                // resent with it; drop the duplicate.
                slot.buf.clear();
            }
            if self.rehydrate(shard) {
                return true;
            }
            // The fresh worker died during rehydration (another injected
            // fault, or a corrupt image): loop — the budget bounds this.
        }
    }

    /// Replays image + buffered ops into a freshly restarted shard.
    fn rehydrate(&mut self, shard: usize) -> bool {
        if let Some(image) = self.slots[shard].image.clone() {
            let (rtx, rrx) = mpsc::channel();
            if self.slots[shard].tx.send(Msg::Restore(image, rtx)).is_err() {
                return false;
            }
            match rrx.recv() {
                Ok(Ok(())) => {}
                Ok(Err(_)) | Err(_) => return false,
            }
        }
        for i in 0..self.slots[shard].replay.len() {
            let msg = match &self.slots[shard].replay[i] {
                ReplayEntry::Ops(ops) => Msg::Batch(ops.clone()),
                ReplayEntry::Columnar(b) => Msg::Columnar(b.clone()),
            };
            if self.slots[shard].tx.send(msg).is_err() {
                return false;
            }
        }
        true
    }

    /// Flushes everything, sends one request per live shard in parallel,
    /// and collects the replies — healing (or degrading) shards whose
    /// worker died along the way. `None` entries are degraded shards.
    fn request_all<T>(&mut self, make: &dyn Fn(mpsc::Sender<T>) -> Msg) -> Vec<Option<T>> {
        let n = self.slots.len();
        for s in 0..n {
            self.flush(s);
        }
        let mut pending: Vec<Option<mpsc::Receiver<T>>> = Vec::with_capacity(n);
        for s in 0..n {
            if self.slots[s].dead {
                pending.push(None);
                continue;
            }
            let (rtx, rrx) = mpsc::channel();
            match self.slots[s].tx.send(make(rtx)) {
                Ok(()) => pending.push(Some(rrx)),
                Err(_) => pending.push(None),
            }
        }
        pending
            .into_iter()
            .enumerate()
            .map(|(s, p)| match p {
                Some(rrx) => match rrx.recv() {
                    Ok(v) => Some(v),
                    Err(_) => self.retry_request(s, make),
                },
                None => self.retry_request(s, make),
            })
            .collect()
    }

    /// Heal-and-retry loop for one shard's request; bounded by the restart
    /// budget.
    fn retry_request<T>(
        &mut self,
        shard: usize,
        make: &dyn Fn(mpsc::Sender<T>) -> Msg,
    ) -> Option<T> {
        loop {
            if !self.on_dead(shard) {
                return None;
            }
            let (rtx, rrx) = mpsc::channel();
            if self.slots[shard].tx.send(make(rtx)).is_err() {
                continue;
            }
            match rrx.recv() {
                Ok(v) => return Some(v),
                Err(_) => continue,
            }
        }
    }
}

/// A partition-parallel [`JoinSampler`]: `S` independent inner engines on
/// their own threads, one hash partition of the stream each, merged into a
/// single uniform reservoir on read (see the [module docs](self) for the
/// partitioning, merge, and supervision arguments).
///
/// Constructed directly from any engine builder, or through the factory as
/// `Engine::Sharded { inner, shards }` in the `rsjoin` facade.
pub struct ShardedSampler {
    /// The original query.
    query: Query,
    output_query: Query,
    k: usize,
    merge_seed: u64,
    plan: ShardPlan,
    state: RefCell<State>,
}

impl ShardedSampler {
    /// Spawns `shards` workers, each owning one inner sampler built by
    /// `build(child_seed(seed, shard))`, under the default
    /// [`SupervisorPolicy`].
    ///
    /// All inner samplers must be instances of the same engine (the merged
    /// sample is materialized in the first one's
    /// [`output_query`](JoinSampler::output_query) attribute order).
    pub fn new<F>(
        query: &Query,
        k: usize,
        seed: u64,
        shards: usize,
        build: F,
    ) -> Result<ShardedSampler, ShardError>
    where
        F: Fn(u64) -> Result<Box<dyn JoinSampler + Send>, String> + Send + 'static,
    {
        Self::with_policy(
            query,
            k,
            seed,
            shards,
            None,
            SupervisorPolicy::default(),
            build,
        )
    }

    /// Like [`ShardedSampler::new`], with an explicit partition attribute
    /// (`None` keeps the most-shared/smallest-id default). The cost-based
    /// planner's `partition_attr` flows in here through the `Engine`
    /// factory.
    pub fn with_partition<F>(
        query: &Query,
        k: usize,
        seed: u64,
        shards: usize,
        partition_attr: Option<usize>,
        build: F,
    ) -> Result<ShardedSampler, ShardError>
    where
        F: Fn(u64) -> Result<Box<dyn JoinSampler + Send>, String> + Send + 'static,
    {
        Self::with_policy(
            query,
            k,
            seed,
            shards,
            partition_attr,
            SupervisorPolicy::default(),
            build,
        )
    }

    /// The fully explicit constructor: partition attribute and supervisor
    /// policy.
    pub fn with_policy<F>(
        query: &Query,
        k: usize,
        seed: u64,
        shards: usize,
        partition_attr: Option<usize>,
        policy: SupervisorPolicy,
        build: F,
    ) -> Result<ShardedSampler, ShardError>
    where
        F: Fn(u64) -> Result<Box<dyn JoinSampler + Send>, String> + Send + 'static,
    {
        let plan = match partition_attr {
            Some(a) => ShardPlan::with_partition_attr(query, shards, a)?,
            None => ShardPlan::new(query, shards)?,
        };
        let build: BuildFn = Box::new(build);
        let mut slots = Vec::with_capacity(shards);
        let mut output_query = None;
        for s in 0..shards {
            let sampler = build(child_seed(seed, s as u64)).map_err(ShardError::Build)?;
            if output_query.is_none() {
                output_query = Some(sampler.output_query().clone());
            }
            let (tx, rx) = mpsc::channel();
            let handle = spawn_worker(s, sampler, rx)?;
            slots.push(Slot {
                tx,
                handle: Some(handle),
                buf: Vec::new(),
                image: None,
                replay: Vec::new(),
                replay_ops: 0,
                restarts: 0,
                dead: false,
                unhealable: false,
            });
        }
        Ok(ShardedSampler {
            query: query.clone(),
            output_query: output_query.expect("shards >= 1"),
            k,
            merge_seed: child_seed(seed, shards as u64),
            plan,
            state: RefCell::new(State {
                slots,
                tuples_routed: 0,
                lost_ops: 0,
                seed,
                policy,
                build,
            }),
        })
    }

    /// The partitioning scheme in use.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Liveness of the worker pool: [`ShardHealth::Healthy`] when every
    /// shard is live (restarted-and-healed shards count as healthy),
    /// [`ShardHealth::Degraded`] once any shard died past its budget.
    pub fn health(&self) -> ShardHealth {
        let st = self.state.borrow();
        let dead_shards: Vec<usize> = st
            .slots
            .iter()
            .enumerate()
            .filter_map(|(s, slot)| slot.dead.then_some(s))
            .collect();
        if dead_shards.is_empty() {
            ShardHealth::Healthy
        } else {
            ShardHealth::Degraded {
                dead_shards,
                lost_ops: st.lost_ops,
            }
        }
    }

    /// Delivers a deterministic fault to one worker (chaos harness).
    /// Pending ops routed to the shard are flushed first, so the fault
    /// lands after exactly the ops routed so far — reproducible regardless
    /// of thread scheduling.
    pub fn inject_fault(&mut self, shard: usize, fault: ShardFault) {
        let st = self.state.get_mut();
        if !st.flush(shard) {
            return;
        }
        let _ = st.slots[shard].tx.send(Msg::Chaos(fault));
    }

    /// Routes one op to its owning shard (or every shard for broadcast
    /// relations).
    fn route_op(&mut self, op: StreamOp) {
        let shards = self.plan.shards();
        let route = {
            let t = op.tuple();
            self.plan.route(t.relation, &t.values)
        };
        let st = self.state.get_mut();
        st.tuples_routed += 1;
        match route {
            Some(shard) => st.push(shard, op),
            None => {
                for shard in 0..shards {
                    st.push(shard, op.clone());
                }
            }
        }
    }

    /// Flushes every buffer and asks every shard's engine `f` — the
    /// synchronization point with the workers. Degraded shards yield
    /// `None`. Also returns the routed-tuple count at that point.
    fn read_all<T: Send + 'static>(&self, f: fn(&dyn JoinSampler) -> T) -> (Vec<Option<T>>, u64) {
        let mut st = self.state.borrow_mut();
        let replies = st.request_all(&|reply: mpsc::Sender<T>| {
            Msg::Read(Box::new(move |s| {
                // The requester may already have hung up (drop mid-read);
                // that is not the worker's problem.
                let _ = reply.send(f(s));
            }))
        });
        (replies, st.tuples_routed)
    }
}

impl Drop for ShardedSampler {
    fn drop(&mut self) {
        let st = self.state.get_mut();
        // Closing each channel ends its worker loop; join to avoid leaking
        // threads past the sampler's lifetime. Nothing here panics — a
        // worker that died of a panic shows up as `Err` from `join`, which
        // is discarded — so dropping mid-unwind cannot double-panic.
        for slot in st.slots.drain(..) {
            let Slot { tx, handle, .. } = slot;
            drop(tx);
            if let Some(h) = handle {
                let _ = h.join();
            }
        }
    }
}

impl JoinSampler for ShardedSampler {
    fn name(&self) -> &'static str {
        "Sharded"
    }

    fn output_query(&self) -> &Query {
        &self.output_query
    }

    /// The routing side sees original-stream tuples, whatever the inner
    /// engine rewrites them to.
    fn input_query(&self) -> &Query {
        &self.query
    }

    fn process(&mut self, rel: usize, tuple: &[Value]) {
        self.route_op(StreamOp::insert(rel, tuple.to_vec()));
    }

    /// A delete routes like the matching insert (same partition attribute,
    /// same broadcast set), so it reaches precisely the shards holding the
    /// tuple.
    fn delete(&mut self, rel: usize, tuple: &[Value]) {
        self.route_op(StreamOp::delete(rel, tuple.to_vec()));
    }

    /// Routes a whole columnar batch in one pass: every partitioned
    /// relation's partition column is hashed in bulk with
    /// [`fx_hash_words`] — bit-identical to the per-tuple digest
    /// [`ShardPlan::route`] computes — the arrivals are split into
    /// per-shard columnar sub-batches in arrival order, and each non-empty
    /// sub-batch ships over the channel behind the shard's pending row
    /// buffer, so per-shard arrival order matches tuple-at-a-time routing
    /// exactly. The routed-tuple count advances as on the row path, so the
    /// merge RNG (seeded per stream position) is unaffected by which
    /// ingest shape delivered the tuples.
    fn process_columnar(&mut self, batch: &ColumnarBatch) {
        let shards = self.plan.shards();
        // Bulk-hash each partitioned relation's partition column once; a
        // broadcast relation keeps an empty digest column, and so does a
        // relation with no rows in this batch (it has no columns at all).
        let mut owners: Vec<Vec<u64>> = Vec::with_capacity(batch.num_relations());
        for rel in 0..batch.num_relations() {
            let mut hs = Vec::new();
            let rc = batch.relation(rel);
            if rc.rows() > 0 {
                if let Some(&Some(pos)) = self.plan.positions.get(rel) {
                    fx_hash_words(rc.column(pos), &mut hs);
                }
            }
            owners.push(hs);
        }
        let mut subs: Vec<ColumnarBatch> = (0..shards).map(|_| ColumnarBatch::new()).collect();
        let mut row = Vec::new();
        for &(rel, r) in batch.arrivals() {
            let (rel, r) = (rel as usize, r as usize);
            row.clear();
            batch.relation(rel).write_row(r, &mut row);
            match owners[rel].get(r) {
                Some(&h) => subs[(h % shards as u64) as usize].push(rel, &row),
                None => {
                    for sub in &mut subs {
                        sub.push(rel, &row);
                    }
                }
            }
        }
        let st = self.state.get_mut();
        st.tuples_routed += batch.len() as u64;
        for (shard, sub) in subs.into_iter().enumerate() {
            if !sub.is_empty() {
                st.send_columnar(shard, sub);
            }
        }
    }

    /// Forwards the re-planning request to every shard's inner engine
    /// (after flushing pending batches, so each worker plans against
    /// everything routed so far). Each shard adapts to *its* partition's
    /// statistics independently; `true` if any shard changed its plan.
    fn replan(&mut self) -> bool {
        let st = self.state.get_mut();
        st.request_all(&Msg::Replan)
            .into_iter()
            .flatten()
            .fold(false, |acc, changed| acc | changed)
    }

    /// The merged sample: a weighted reservoir union of the per-shard
    /// reservoirs (each slot drawn from shard `i` with probability
    /// proportional to its remaining population — see the
    /// [module docs](self)). Degraded shards contribute an empty
    /// population: the draw stays uniform over the surviving shards'
    /// results.
    fn samples(&self) -> Vec<Vec<Value>> {
        let (snaps, routed) = self.read_all(|s| (s.exact_count(), s.samples()));
        let (mut remaining, mut avail): (Vec<u128>, Vec<Vec<Vec<Value>>>) =
            snaps.into_iter().map(Option::unwrap_or_default).unzip();
        let total = remaining
            .iter()
            .fold(0u128, |acc, &w| acc.saturating_add(w));
        let target = (self.k as u128).min(total) as usize;
        // Deterministic per (seed, stream position); stable across repeated
        // reads at the same position.
        let mut rng = RsjRng::seed_from_u64(child_seed(self.merge_seed, routed));
        let mut out = Vec::with_capacity(target);
        while out.len() < target {
            let live: u128 = remaining.iter().sum();
            if live == 0 {
                break;
            }
            let mut x = rng.below_u128(live);
            let mut i = 0;
            while x >= remaining[i] {
                x -= remaining[i];
                i += 1;
            }
            if avail[i].is_empty() {
                // Only reachable when an inner engine under-fills its
                // reservoir (with-replacement samplers): stop drawing from
                // this shard rather than hand out duplicates.
                remaining[i] = 0;
                continue;
            }
            let j = rng.index(avail[i].len());
            out.push(avail[i].swap_remove(j));
            remaining[i] -= 1;
        }
        out
    }

    fn k(&self) -> usize {
        self.k
    }

    /// `Σ |Q_i| = |Q(R)|` over the surviving shards: the populations the
    /// merge weights its draws by.
    fn exact_count(&self) -> u128 {
        let (counts, _) = self.read_all(|s| s.exact_count());
        counts
            .into_iter()
            .flatten()
            .fold(0u128, u128::saturating_add)
    }

    /// Serializes the sharded topology (shard count, partition attribute,
    /// routed-tuple count) plus each worker's engine snapshot — a
    /// canonical byte image, because every inner engine's own snapshot
    /// is. A degraded sampler has no canonical image and returns `None`.
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        let mut st = self.state.borrow_mut();
        if st.slots.iter().any(|s| s.dead) {
            return None;
        }
        let imgs = st.request_all(&Msg::Snapshot);
        let mut enc = Encoder::new();
        enc.put_usize(self.plan.shards());
        enc.put_usize(self.plan.partition_attr());
        enc.put_u64(st.tuples_routed);
        for img in imgs {
            enc.put_bytes(&img.flatten()?);
        }
        Some(enc.into_bytes())
    }

    /// Byte-exact restore into an identical topology (same shard count and
    /// partition attribute). On error the receiver may be partially
    /// overwritten and must be discarded. The restored engine images
    /// double as each shard's `ShardImage`, so the supervisor can heal
    /// from them without a fresh snapshot.
    fn restore_state(&mut self, bytes: &[u8]) -> Result<(), CodecError> {
        let mut dec = Decoder::new(bytes);
        let shards = dec.seq_len(1)?;
        let partition_attr = dec.usize()?;
        let routed = dec.u64()?;
        if shards != self.plan.shards() || partition_attr != self.plan.partition_attr() {
            return Err(CodecError::Corrupt("snapshot topology differs"));
        }
        let images = (0..shards)
            .map(|_| dec.bytes().map(<[u8]>::to_vec))
            .collect::<Result<Vec<_>, _>>()?;
        dec.finish()?;
        let st = self.state.get_mut();
        for (s, image) in images.into_iter().enumerate() {
            st.flush(s);
            loop {
                if st.slots[s].dead {
                    return Err(CodecError::Corrupt(
                        "cannot restore into a degraded sharded sampler",
                    ));
                }
                let (rtx, rrx) = mpsc::channel();
                if st.slots[s]
                    .tx
                    .send(Msg::Restore(image.clone(), rtx))
                    .is_err()
                {
                    st.on_dead(s);
                    continue;
                }
                match rrx.recv() {
                    Ok(res) => {
                        res?;
                        break;
                    }
                    Err(_) => {
                        st.on_dead(s);
                    }
                }
            }
            let slot = &mut st.slots[s];
            slot.image = Some(image);
            slot.replay.clear();
            slot.replay_ops = 0;
        }
        st.tuples_routed = routed;
        Ok(())
    }

    /// Aggregated instrumentation: sums across surviving shards (broadcast
    /// tuples are counted once per shard that processed them), plus the
    /// supervisor's restart / degradation counters.
    fn stats(&self) -> SamplerStats {
        let (alive, _) = self.read_all(|s| s.stats());
        let alive: Vec<SamplerStats> = alive.into_iter().flatten().collect();
        let (restarts, dead) = {
            let st = self.state.borrow();
            (
                st.slots.iter().map(|s| s.restarts).sum::<u64>(),
                st.slots.iter().filter(|s| s.dead).count() as u64,
            )
        };
        let sum_opt = |f: &dyn Fn(&SamplerStats) -> Option<u64>| {
            alive
                .iter()
                .filter_map(f)
                .fold(None, |acc: Option<u64>, v| {
                    Some(acc.unwrap_or(0).saturating_add(v))
                })
        };
        SamplerStats {
            inserts: sum_opt(&|s| s.inserts),
            deletes: sum_opt(&|s| s.deletes),
            reservoir_stops: sum_opt(&|s| s.reservoir_stops),
            heap_bytes: alive
                .iter()
                .filter_map(|s| s.heap_bytes)
                .fold(None, |acc: Option<usize>, v| {
                    Some(acc.unwrap_or(0).saturating_add(v))
                }),
            restarts: Some(restarts),
            retries: None,
            degraded: Some(dead),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservoir_join::ReservoirJoin;
    use rsj_common::FxHashSet;
    use rsj_query::QueryBuilder;
    use rsj_storage::TupleStream;

    fn two_table() -> Query {
        let mut qb = QueryBuilder::new();
        qb.relation("R", &["X", "Y"]);
        qb.relation("S", &["Y", "Z"]);
        qb.build().unwrap()
    }

    fn line3() -> Query {
        let mut qb = QueryBuilder::new();
        qb.relation("G1", &["A", "B"]);
        qb.relation("G2", &["B", "C"]);
        qb.relation("G3", &["C", "D"]);
        qb.build().unwrap()
    }

    fn triangle() -> Query {
        let mut qb = QueryBuilder::new();
        qb.relation("R1", &["X", "Y"]);
        qb.relation("R2", &["Y", "Z"]);
        qb.relation("R3", &["Z", "X"]);
        qb.build().unwrap()
    }

    fn sharded_with_policy(
        query: &Query,
        k: usize,
        seed: u64,
        shards: usize,
        policy: SupervisorPolicy,
    ) -> ShardedSampler {
        let q = query.clone();
        ShardedSampler::with_policy(query, k, seed, shards, None, policy, move |s| {
            ReservoirJoin::new(q.clone(), k, s)
                .map(|e| Box::new(e) as Box<dyn JoinSampler + Send>)
                .map_err(|e| e.to_string())
        })
        .unwrap()
    }

    fn sharded_rsjoin(query: &Query, k: usize, seed: u64, shards: usize) -> ShardedSampler {
        sharded_with_policy(query, k, seed, shards, SupervisorPolicy::default())
    }

    fn random_stream(rels: usize, n: usize, dom: u64, seed: u64) -> TupleStream {
        let mut rng = RsjRng::seed_from_u64(seed);
        let mut s = TupleStream::new();
        for _ in 0..n {
            s.push(
                rng.index(rels),
                vec![rng.below_u64(dom), rng.below_u64(dom)],
            );
        }
        s
    }

    /// Replaces the default panic hook with one that stays silent for
    /// injected chaos faults, so supervision tests don't spray backtraces.
    fn quiet_injected_panics() {
        use std::sync::Once;
        static HOOK: Once = Once::new();
        HOOK.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<&str>()
                    .is_some_and(|s| s.contains(INJECTED_FAULT));
                if !injected {
                    prev(info);
                }
            }));
        });
    }

    #[test]
    fn plan_prefers_the_most_shared_attribute() {
        // Two-table: Y is in both relations; nothing is broadcast.
        let plan = ShardPlan::new(&two_table(), 4).unwrap();
        assert!(!plan.is_broadcast(0));
        assert!(!plan.is_broadcast(1));
        // Line-3: B and C tie at two relations each; the smaller attr id
        // (B) wins, G3 is broadcast.
        let plan = ShardPlan::new(&line3(), 4).unwrap();
        assert_eq!(plan.partition_attr(), 1, "B");
        assert!(!plan.is_broadcast(0));
        assert!(!plan.is_broadcast(1));
        assert!(plan.is_broadcast(2));
    }

    #[test]
    fn routing_is_consistent_on_the_partition_attribute() {
        let plan = ShardPlan::new(&two_table(), 7).unwrap();
        for y in 0..50u64 {
            // R(X,Y) routes on position 1, S(Y,Z) on position 0: same Y
            // must land on the same shard.
            let a = plan.route(0, &[123, y]).unwrap();
            let b = plan.route(1, &[y, 456]).unwrap();
            assert_eq!(a, b, "y={y}");
            assert!(a < 7);
        }
    }

    #[test]
    fn construction_errors_are_typed() {
        let q = two_table();
        assert_eq!(ShardPlan::new(&q, 0).unwrap_err(), ShardError::NoShards);
        assert_eq!(
            ShardPlan::with_partition_attr(&q, 2, 99).unwrap_err(),
            ShardError::PartitionAttrOutOfRange {
                attr: 99,
                num_attrs: q.num_attrs()
            }
        );
        let e = ShardedSampler::new(&q, 2, 1, 0, |_| Err("unused".to_string()))
            .err()
            .unwrap();
        assert_eq!(e, ShardError::NoShards);
        assert_eq!(e.to_string(), "sharded execution needs at least one shard");
        let e = ShardedSampler::new(&q, 2, 1, 2, |_| Err("inner boom".to_string()))
            .err()
            .unwrap();
        assert_eq!(e, ShardError::Build("inner boom".to_string()));
    }

    /// Drives a turnstile stream (every fifth op deletes a live tuple)
    /// through a 3-shard sampler over `build`'s engines and checks its
    /// count against the brute-force recount.
    fn check_sharded_count<F>(query: Query, dom: u64, seed: u64, build: F)
    where
        F: Fn(u64) -> Result<Box<dyn JoinSampler + Send>, String> + Send + 'static,
    {
        let mut s = ShardedSampler::new(&query, 4, seed, 3, build).unwrap();
        let mut naive = NaiveCount::new(query.clone());
        let mut rng = RsjRng::seed_from_u64(seed);
        let mut live: Vec<(usize, Vec<Value>)> = Vec::new();
        for i in 0..200 {
            if i % 5 == 4 && !live.is_empty() {
                let (rel, t) = live.swap_remove(rng.index(live.len()));
                JoinSampler::delete(&mut s, rel, &t);
                naive.seen[rel].remove(&t);
            } else {
                let rel = rng.index(query.num_relations());
                let t = vec![rng.below_u64(dom), rng.below_u64(dom)];
                JoinSampler::process(&mut s, rel, &t);
                if naive.seen[rel].insert(t.clone()) {
                    live.push((rel, t));
                }
            }
        }
        assert!(naive.count() > 0, "degenerate instance");
        assert_eq!(s.exact_count(), naive.count());
    }

    #[test]
    fn sharded_count_matches_brute_force() {
        let q = line3();
        check_sharded_count(line3(), 5, 3, move |s| {
            ReservoirJoin::new(q.clone(), 4, s)
                .map(|e| Box::new(e) as Box<dyn JoinSampler + Send>)
                .map_err(|e| e.to_string())
        });
        let q = triangle();
        check_sharded_count(triangle(), 6, 5, move |s| {
            crate::cyclic::CyclicReservoirJoin::new(q.clone(), 4, s)
                .map(|e| Box::new(e) as Box<dyn JoinSampler + Send>)
                .map_err(|e| e.to_string())
        });
    }

    #[test]
    fn sharded_count_deduplicates() {
        let mut s = sharded_rsjoin(&two_table(), 4, 1, 3);
        JoinSampler::process(&mut s, 0, &[1, 2]);
        JoinSampler::process(&mut s, 0, &[1, 2]);
        JoinSampler::process(&mut s, 1, &[2, 3]);
        assert_eq!(s.exact_count(), 1);
    }

    #[test]
    fn sharded_collects_the_full_result_set_when_k_is_large() {
        for shards in [1, 2, 3, 5] {
            let stream = random_stream(2, 200, 8, 11);
            let mut sharded = sharded_rsjoin(&two_table(), 1 << 20, 4, shards);
            let mut reference = ReservoirJoin::new(two_table(), 1 << 20, 4).unwrap();
            for t in stream.iter() {
                JoinSampler::process(&mut sharded, t.relation, &t.values);
                reference.process(t.relation, &t.values);
            }
            let mut got = JoinSampler::samples(&sharded);
            let mut expect = reference.samples().to_vec();
            got.sort();
            expect.sort();
            assert_eq!(got, expect, "shards={shards}");
            assert_eq!(
                sharded.exact_count(),
                expect.len() as u128,
                "shards={shards}"
            );
        }
    }

    #[test]
    fn sharded_runs_are_seed_deterministic() {
        let stream = random_stream(2, 300, 6, 21);
        let run = |seed: u64| {
            let mut s = sharded_rsjoin(&two_table(), 5, seed, 4);
            for t in stream.iter() {
                JoinSampler::process(&mut s, t.relation, &t.values);
            }
            // Two reads at the same position must agree with each other.
            let first = JoinSampler::samples(&s);
            assert_eq!(first, JoinSampler::samples(&s));
            first
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10), "different seeds should differ");
    }

    #[test]
    fn sharded_sample_size_tracks_population() {
        let mut s = sharded_rsjoin(&two_table(), 4, 1, 3);
        assert!(JoinSampler::samples(&s).is_empty());
        JoinSampler::process(&mut s, 0, &[1, 2]);
        JoinSampler::process(&mut s, 1, &[2, 3]);
        assert_eq!(JoinSampler::samples(&s).len(), 1, "|Q|=1 < k");
        for z in 10..20u64 {
            JoinSampler::process(&mut s, 1, &[2, z]);
        }
        assert_eq!(JoinSampler::samples(&s).len(), 4, "|Q|=11 >= k");
    }

    #[test]
    fn columnar_routing_is_byte_identical_to_row_routing() {
        // Line-3 exercises both routing modes: G1/G2 partition on B, G3 is
        // broadcast. Interleaving row-shaped ops with columnar chunks on
        // the columnar side checks that pending row buffers flush ahead of
        // every sub-batch (per-shard arrival order is preserved).
        let stream = random_stream(3, 400, 6, 33);
        for shards in [1, 3] {
            let mut rows = sharded_rsjoin(&line3(), 8, 7, shards);
            let mut cols = sharded_rsjoin(&line3(), 8, 7, shards);
            for t in stream.iter() {
                JoinSampler::process(&mut rows, t.relation, &t.values);
            }
            for (i, chunk) in stream.tuples().chunks(90).enumerate() {
                if i % 2 == 0 {
                    for t in chunk {
                        JoinSampler::process(&mut cols, t.relation, &t.values);
                    }
                } else {
                    cols.process_columnar(&rsj_storage::ColumnarBatch::from_rows(chunk));
                }
            }
            assert_eq!(
                JoinSampler::samples(&rows),
                JoinSampler::samples(&cols),
                "shards={shards}"
            );
            assert_eq!(rows.stats(), cols.stats(), "shards={shards}");
        }
    }

    #[test]
    fn sharded_snapshot_restores_byte_identical_behavior() {
        let stream = random_stream(3, 400, 6, 55);
        let mut s = sharded_rsjoin(&line3(), 6, 13, 3);
        for t in stream.iter().take(250) {
            JoinSampler::process(&mut s, t.relation, &t.values);
        }
        let bytes = s.snapshot_state().unwrap();

        // Restore into a fresh sampler built with the same configuration
        // (the merge seed and shard topology are construction parameters).
        // Heap estimates legitimately differ after a restore (Vec
        // capacities are not part of the logical state); everything else
        // must match exactly.
        let logical = |st: SamplerStats| SamplerStats {
            heap_bytes: None,
            ..st
        };
        let mut restored = sharded_rsjoin(&line3(), 6, 13, 3);
        restored.restore_state(&bytes).unwrap();
        assert_eq!(JoinSampler::samples(&restored), JoinSampler::samples(&s));
        assert_eq!(logical(restored.stats()), logical(s.stats()));

        // Lockstep continuation.
        for t in stream.iter().skip(250) {
            JoinSampler::process(&mut s, t.relation, &t.values);
            JoinSampler::process(&mut restored, t.relation, &t.values);
        }
        assert_eq!(JoinSampler::samples(&restored), JoinSampler::samples(&s));
        assert_eq!(logical(restored.stats()), logical(s.stats()));

        // A different topology is rejected on the byte-exact path.
        let mut wrong = sharded_rsjoin(&line3(), 6, 13, 4);
        assert!(wrong.restore_state(&bytes).is_err());
    }

    #[test]
    fn broadcast_relations_reach_every_shard() {
        // Line-3 with all data on one B value but many C values: G3 is
        // broadcast, so every shard must see its tuples and the single
        // owning shard must assemble every result.
        let mut s = sharded_rsjoin(&line3(), 1 << 16, 2, 4);
        JoinSampler::process(&mut s, 0, &[7, 1]);
        for c in 0..10u64 {
            JoinSampler::process(&mut s, 1, &[1, c]);
            JoinSampler::process(&mut s, 2, &[c, 100 + c]);
        }
        assert_eq!(JoinSampler::samples(&s).len(), 10);
    }

    #[test]
    fn worker_panic_heals_to_a_byte_identical_run() {
        quiet_injected_panics();
        let stream = random_stream(3, 400, 6, 91);
        let logical = |st: SamplerStats| SamplerStats {
            heap_bytes: None,
            restarts: None,
            ..st
        };
        let mut clean = sharded_rsjoin(&line3(), 6, 13, 3);
        let mut faulted = sharded_rsjoin(&line3(), 6, 13, 3);
        for (i, t) in stream.iter().enumerate() {
            JoinSampler::process(&mut clean, t.relation, &t.values);
            JoinSampler::process(&mut faulted, t.relation, &t.values);
            if i == 120 {
                faulted.inject_fault(0, ShardFault::Panic);
                faulted.inject_fault(1, ShardFault::Stall(5));
            }
            if i == 250 {
                // Mid-stream read while the kill is outstanding: detection,
                // restart, replay and the read itself all happen here.
                assert_eq!(
                    JoinSampler::samples(&faulted),
                    JoinSampler::samples(&clean),
                    "mid-stream"
                );
            }
        }
        assert_eq!(JoinSampler::samples(&faulted), JoinSampler::samples(&clean));
        assert_eq!(logical(faulted.stats()), logical(clean.stats()));
        assert_eq!(faulted.health(), ShardHealth::Healthy);
        assert!(faulted.stats().restarts.unwrap() >= 1, "a restart happened");
        assert_eq!(clean.stats().restarts, Some(0));
    }

    #[test]
    fn restart_from_snapshot_image_matches_full_replay() {
        quiet_injected_panics();
        // Tight snapshot cadence: the shard has a recent image when it is
        // killed, so healing goes through Restore + short replay instead of
        // replay-from-scratch — and must land on the same bytes.
        let policy = SupervisorPolicy {
            snapshot_every: 64,
            ..SupervisorPolicy::default()
        };
        let stream = random_stream(3, 500, 6, 17);
        let mut clean = sharded_rsjoin(&line3(), 6, 29, 2);
        let mut snap = sharded_with_policy(&line3(), 6, 29, 2, policy);
        for (i, t) in stream.iter().enumerate() {
            JoinSampler::process(&mut clean, t.relation, &t.values);
            JoinSampler::process(&mut snap, t.relation, &t.values);
            if i % 180 == 150 {
                snap.inject_fault(i % 2, ShardFault::Panic);
            }
        }
        assert_eq!(JoinSampler::samples(&snap), JoinSampler::samples(&clean));
        assert_eq!(snap.health(), ShardHealth::Healthy);
        assert!(snap.stats().restarts.unwrap() >= 1);
    }

    #[test]
    fn budget_exhaustion_degrades_to_surviving_shards() {
        quiet_injected_panics();
        let policy = SupervisorPolicy {
            max_restarts: 0,
            ..SupervisorPolicy::default()
        };
        let mut s = sharded_with_policy(&line3(), 1 << 16, 2, 2, policy);
        let stream = random_stream(3, 300, 6, 43);
        for t in stream.iter().take(150) {
            JoinSampler::process(&mut s, t.relation, &t.values);
        }
        let before = JoinSampler::samples(&s).len();
        assert!(before > 0, "degenerate instance");
        s.inject_fault(0, ShardFault::Panic);
        // The next read detects the death; with a zero budget the shard
        // degrades instead of healing.
        let survivors = JoinSampler::samples(&s).len();
        assert!(survivors <= before);
        match s.health() {
            ShardHealth::Degraded { dead_shards, .. } => assert_eq!(dead_shards, vec![0]),
            h => panic!("expected degraded health, got {h:?}"),
        }
        // Routing keeps working; broadcast ops to the dead shard count as
        // lost, reads keep serving from the survivor.
        for t in stream.iter().skip(150) {
            JoinSampler::process(&mut s, t.relation, &t.values);
        }
        let _ = JoinSampler::samples(&s);
        match s.health() {
            ShardHealth::Degraded {
                dead_shards,
                lost_ops,
            } => {
                assert_eq!(dead_shards, vec![0]);
                assert!(lost_ops > 0, "broadcast ops to the dead shard are lost");
            }
            h => panic!("expected degraded health, got {h:?}"),
        }
        let st = s.stats();
        assert_eq!(st.degraded, Some(1));
        assert_eq!(st.restarts, Some(0));
        // A degraded sampler has no canonical image.
        assert!(s.snapshot_state().is_none());
    }

    #[test]
    fn drop_mid_unwind_joins_workers_without_double_panic() {
        quiet_injected_panics();
        // A panic while a ShardedSampler with a dead worker is in scope
        // must unwind cleanly: Drop joins the corpses without panicking
        // again (a double panic would abort the whole test process).
        let result = std::panic::catch_unwind(|| {
            let mut s = sharded_rsjoin(&two_table(), 4, 1, 3);
            JoinSampler::process(&mut s, 0, &[1, 2]);
            s.inject_fault(1, ShardFault::Panic);
            JoinSampler::process(&mut s, 1, &[2, 3]);
            std::panic::panic_any(INJECTED_FAULT);
        });
        assert!(result.is_err(), "the outer panic must surface as Err");
    }

    /// Brute-force recount used to pin the sharded count.
    struct NaiveCount {
        query: Query,
        seen: Vec<FxHashSet<Vec<Value>>>,
    }

    impl NaiveCount {
        fn new(query: Query) -> NaiveCount {
            let seen = vec![FxHashSet::default(); query.num_relations()];
            NaiveCount { query, seen }
        }

        fn count(&self) -> u128 {
            let mut total = 0u128;
            let mut partial = vec![None; self.query.num_attrs()];
            self.recurse(0, &mut partial, &mut total);
            total
        }

        fn recurse(&self, rel: usize, partial: &mut Vec<Option<Value>>, total: &mut u128) {
            if rel == self.query.num_relations() {
                *total += 1;
                return;
            }
            let schema = &self.query.relation(rel).attrs;
            'tuples: for t in &self.seen[rel] {
                let mut bound = Vec::new();
                for (pos, &attr) in schema.iter().enumerate() {
                    match partial[attr] {
                        Some(v) if v != t[pos] => {
                            for &a in &bound {
                                partial[a] = None;
                            }
                            continue 'tuples;
                        }
                        Some(_) => {}
                        None => {
                            partial[attr] = Some(t[pos]);
                            bound.push(attr);
                        }
                    }
                }
                self.recurse(rel + 1, partial, total);
                for &a in &bound {
                    partial[a] = None;
                }
            }
        }
    }
}
