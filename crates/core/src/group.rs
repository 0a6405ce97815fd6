//! The acyclic runtime unit: one [`DynamicIndex`] and the reservoirs that
//! sample over it.
//!
//! A [`Group`] runs Algorithm 6 for any number of *members* over one
//! shared index: per accepted insert, one implicit delta batch fed to every
//! member's reservoir; per accepted delete, every member's
//! eviction-backfill-recalibration repair (the protocol is documented on
//! `crate::reservoir_join`). `ReservoirJoin` is a group with one member;
//! the sampler service keeps one group per (join tree, index options),
//! whose members differ in sampling root, `k` and seed. This module is the
//! only code that drives an index and its reservoirs: insert, delete with
//! repair, the columnar hash pass, history replay, tree rebuild, heap
//! accounting and the group image. Exact `|Q(R)|` is memoized per index
//! state, so all members of a group share one count pass per accepted op.

use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::hash::fx_hash_columns;
use rsj_common::rng::{child_seed, RsjRng};
use rsj_common::{FxHashMap, TupleId, Value};
use rsj_index::dynamic::IndexError;
use rsj_index::{DeltaBatch, DynamicIndex, FullSampler, IndexOptions};
use rsj_query::{JoinTree, Plan, Query};
use rsj_storage::{ColumnarBatch, OpStream, StreamOp};
use rsj_stream::{FnBatch, Reservoir};
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Memoizes one op's delta-batch retrievals across the members of a
/// group. Within one op every member walks the *same* implicit batch
/// (same index state, same generating tuple), so the first member to
/// touch position `z` pays the `O(log N)` retrieval and materialization;
/// the rest copy the cached row into their own slot. The win concentrates
/// in the fill phase, where every still-filling member scans the batch
/// prefix position by position.
///
/// Rows sit back to back in one buffer, found by position through the
/// map. Cleared per op ([`begin_op`](DeltaCache::begin_op)) with both
/// allocations retained, so steady-state ingest stays allocation-free on
/// the cache side.
#[derive(Default)]
struct DeltaCache {
    /// Batch position → offset of its row in `rows`, [`DUMMY`] for a
    /// dummy position.
    offsets: FxHashMap<u128, usize>,
    rows: Vec<Value>,
    ids: Vec<TupleId>,
}

/// [`DeltaCache`] offset of a position that retrieved as a dummy.
const DUMMY: usize = usize::MAX;

impl DeltaCache {
    /// Forgets the previous op's rows (the batch they came from is gone).
    fn begin_op(&mut self) {
        self.offsets.clear();
        self.rows.clear();
    }

    /// The materialized row at batch position `z`, or `None` for a dummy —
    /// retrieved on first touch, served from the buffer on every later one.
    fn row(&mut self, index: &DynamicIndex, batch: &DeltaBatch<'_>, z: u128) -> Option<&[Value]> {
        let width = index.query().num_attrs();
        let offset = match self.offsets.entry(z) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                self.ids.resize(index.query().num_relations(), 0);
                *e.insert(if batch.retrieve_into(z, &mut self.ids) {
                    let offset = self.rows.len();
                    self.rows.resize(offset + width, 0);
                    index.materialize_ids(&self.ids, &mut self.rows[offset..]);
                    offset
                } else {
                    DUMMY
                })
            }
        };
        (offset != DUMMY).then(|| &self.rows[offset..offset + width])
    }
}

/// One member of a group: everything that *reads* the group's index
/// without owning it — the reservoir and its skip state, the repair RNG
/// and counters, and the plan whose root repair sampling descends. A
/// member behaves byte-identically to the lone member of a standalone
/// group fed the same op sequence, because both run this code.
pub(crate) struct SamplerCore {
    /// The orientation the index is materialized over, plus the preferred
    /// sampling root repair draws go through.
    pub(crate) plan: Plan,
    /// The samples: full-width value rows of the query, `num_attrs` words
    /// each.
    pub(crate) reservoir: Reservoir,
    /// The retrieval in flight, one tuple id per relation: the index
    /// writes it, and it is materialized straight into the sample row.
    ids: Vec<TupleId>,
    /// RNG for repair backfill draws, independent of the reservoir's skip
    /// stream (insert-only runs never touch it).
    repair_rng: RsjRng,
    pub(crate) inserts: u64,
    pub(crate) deletes: u64,
}

impl SamplerCore {
    fn new(query: &Query, plan: Plan, k: usize, seed: u64) -> SamplerCore {
        SamplerCore {
            plan,
            reservoir: Reservoir::new(k, query.num_attrs(), seed),
            ids: vec![0; query.num_relations()],
            repair_rng: RsjRng::seed_from_u64(child_seed(seed, u64::from_le_bytes(*b"turnstil"))),
            inserts: 0,
            deletes: 0,
        }
    }

    /// Feeds an accepted insert's implicit delta batch to the reservoir
    /// (Algorithm 6 lines 5–7). A stop retrieves its position into this
    /// member's own buffer or, when other members walk the same batch,
    /// through their shared `cache` — byte-identically: the reservoir sees
    /// the same batch size and stops at the same positions (its RNG never
    /// touches the cache), and a cached row equals a fresh retrieval
    /// because retrieval is a pure function of the index state.
    fn consume_delta(
        &mut self,
        index: &DynamicIndex,
        batch: &DeltaBatch<'_>,
        mut cache: Option<&mut DeltaCache>,
    ) {
        self.inserts += 1;
        if batch.size() > 0 && !self.reservoir.try_skip(batch.size()) {
            let ids = &mut self.ids;
            let mut positions = FnBatch::new(batch.size(), std::convert::identity);
            self.reservoir
                .process_batch(&mut positions, |z, slot| match cache.as_deref_mut() {
                    Some(cache) => {
                        if let Some(row) = cache.row(index, batch, z) {
                            slot.accept().copy_from_slice(row);
                        }
                    }
                    None => {
                        if batch.retrieve_into(z, ids) {
                            index.materialize_ids(ids, slot.accept());
                        }
                    }
                });
        }
    }

    /// The reservoir side of a deletion `index` has already applied:
    /// evict samples using the tuple, then repair against `population`,
    /// the exact post-delete `|Q(R)|` — every delete is a repair point (see
    /// `crate::reservoir_join`).
    fn apply_delete(
        &mut self,
        index: &DynamicIndex,
        rel: usize,
        tuple: &[Value],
        population: u128,
    ) {
        self.deletes += 1;
        // A materialized sample used the deleted tuple iff its projection
        // onto the relation's schema equals the deleted values (set
        // semantics: values identify the tuple).
        let attrs = &index.query().relation(rel).attrs;
        self.reservoir
            .evict_where(|s| attrs.iter().enumerate().all(|(pos, &a)| s[a] == tuple[pos]));
        self.repair(index, population);
    }

    /// A repair point: sample backfill to `min(k, |Q(R)|)` distinct
    /// uniform results and skip-state recalibration against `population`,
    /// the exact live `|Q(R)|` of `index`.
    fn repair(&mut self, index: &DynamicIndex, population: u128) {
        let target = (self.reservoir.capacity() as u128).min(population) as usize;
        let full = FullSampler {
            root: self.plan.root,
            ..FullSampler::default()
        };
        let (rng, ids) = (&mut self.repair_rng, &mut self.ids);
        // Rejection sampling to distinctness: each accepted draw is
        // uniform over the live results not yet in the sample, which is
        // exactly sequential SRS. The per-slot budget covers the two
        // rejection sources — dummy positions, bounded by the density
        // invariant at (1/2)^(2|T|-2), and duplicate hits, worst around
        // O(k) when the population barely exceeds the sample.
        let nrels = index.query().num_relations();
        let per_slot = (4096 + 256 * self.reservoir.capacity())
            .saturating_mul(1usize << (2 * (nrels.max(1) - 1)).min(16))
            .min(1 << 24);
        let filled = self.reservoir.backfill_distinct(target, per_slot, |row| {
            let real = full.try_sample_into(index, rng, ids);
            if real {
                index.materialize_ids(ids, row);
            }
            real
        });
        debug_assert!(filled, "backfill exhausted its rejection cap");
        self.reservoir.recalibrate(population);
    }

    /// Serializes the member: plan, reservoir (slots, skip state, RNG),
    /// repair RNG, and counters.
    fn snapshot_to(&self, enc: &mut Encoder) {
        self.plan.snapshot_to(enc);
        self.reservoir.snapshot_to(enc);
        for w in self.repair_rng.state() {
            enc.put_u64(w);
        }
        enc.put_u64(self.inserts);
        enc.put_u64(self.deletes);
    }

    /// Restores a member of `query` written by
    /// [`snapshot_to`](SamplerCore::snapshot_to). The query's shape guards
    /// against cross-query images: the plan must span its relations and
    /// every sample row must be as wide as its attribute set.
    fn restore_from(dec: &mut Decoder, query: &Query) -> Result<SamplerCore, CodecError> {
        let plan = Plan::restore_from(dec)?;
        if plan.tree.len() != query.num_relations() {
            return Err(CodecError::Corrupt(
                "core snapshot plan is for another query",
            ));
        }
        let reservoir = Reservoir::restore_from(dec, query.num_attrs())?;
        let s = [dec.u64()?, dec.u64()?, dec.u64()?, dec.u64()?];
        let repair_rng = RsjRng::restore_state(s)
            .ok_or(CodecError::Corrupt("rng state is the zero fixed point"))?;
        Ok(SamplerCore {
            plan,
            reservoir,
            ids: vec![0; query.num_relations()],
            repair_rng,
            inserts: dec.u64()?,
            deletes: dec.u64()?,
        })
    }
}

/// The exact `|Q(R)|` of a group's index state: an anchored ledger folded
/// at deletes, and a memo so that every consumer after an accepted op —
/// member repairs, service publish points, owner-side reads — shares one
/// computation; the next accepted op forgets the memo.
///
/// The first delete anchors the ledger with one full index pass: `count`
/// is `|Q(R)|` at a moment when each relation's next tuple id was
/// `watermarks[rel]`. Tuple ids only grow and every delete settles the
/// ledger first, so the tuples inserted since are exactly those at or past
/// the watermarks — no pending list is kept, and the insert path does
/// nothing for the ledger. Between deletes a count is `count` plus the
/// rooted walks of those tuples ([`DynamicIndex::count_since`]), read as a
/// pure function; a delete folds that in, re-anchors, and subtracts its own
/// tuple's walk ([`DynamicIndex::count_joining`]). Walks are budgeted at
/// one full pass ([`DynamicIndex::count_pass_cost`]): a settle that would
/// cost more runs the pass instead, so no count need costs more than two
/// passes. An insert-only stream never anchors and counts by the pass.
///
/// Transient: never serialized; a rebuild or a restore starts unanchored.
/// Built from `Sync` parts (a `Cell` would do for the service alone) so
/// that `ReservoirJoin` stays `Sync`.
#[derive(Default)]
struct CountMemo {
    population: OnceLock<u128>,
    /// The ledger's `|Q(R)|` at the watermarks; `None` until the first
    /// delete (and after a rebuild, a restore, or a dropped settle).
    anchor: Option<u128>,
    /// Each relation's next tuple id when `anchor` was last folded.
    watermarks: Vec<TupleId>,
    /// Full index count passes paid so far (the sharing tests pin "at most
    /// one per accepted op", and none after the first delete).
    passes: AtomicU64,
}

impl CountMemo {
    fn get(&self, index: &DynamicIndex) -> u128 {
        *self.population.get_or_init(|| {
            let settled = self.anchor.and_then(|count| {
                let mut budget = index.count_pass_cost();
                let grown = index.count_since(&self.watermarks, &mut budget)?;
                Some(count.saturating_add(grown))
            });
            debug_assert!(
                settled.is_none_or(|c| c == index.exact_count()),
                "the ledger drifted from the index"
            );
            settled.unwrap_or_else(|| self.pass(index))
        })
    }

    /// Forgets the memo and the anchor: the index was replaced, and its
    /// tuple ids with it.
    fn unanchor(&mut self) {
        self.population.take();
        self.anchor = None;
    }

    /// One full index count pass.
    fn pass(&self, index: &DynamicIndex) -> u128 {
        self.passes.fetch_add(1, Ordering::Relaxed);
        index.exact_count()
    }

    /// Moves the watermarks to every relation's next tuple id.
    fn mark(&mut self, index: &DynamicIndex) {
        self.watermarks.clear();
        self.watermarks
            .extend(index.database().iter().map(|r| r.num_slots() as TupleId));
    }

    /// Before a delete: folds the inserts since the anchor into it and
    /// moves the watermarks up. Returns the budget left for the delete's
    /// own walk, or `None` — the ledger then unanchored — when there was
    /// no anchor or the settle would cost more than a full pass.
    fn settle(&mut self, index: &DynamicIndex) -> Option<u64> {
        let count = self.anchor.take()?;
        let mut budget = index.count_pass_cost();
        let grown = index.count_since(&self.watermarks, &mut budget)?;
        self.anchor = Some(count.saturating_add(grown));
        self.mark(index);
        Some(budget)
    }

    /// After `index` deleted `tuple` of `rel`, with what [`settle`]
    /// returned: the exact post-delete `|Q(R)|`, anchored and memoized.
    /// A settled ledger subtracts the tuple's walk — the view rooted at
    /// `rel` holds no tuple of `rel`, so the unlink did not change it;
    /// anything else anchors on a full pass.
    ///
    /// [`settle`]: CountMemo::settle
    fn after_delete(
        &mut self,
        index: &DynamicIndex,
        rel: usize,
        tuple: &[Value],
        budget: Option<u64>,
    ) -> u128 {
        let walked = budget.and_then(|mut budget| {
            let count = self.anchor?;
            Some(count.saturating_sub(index.count_joining(rel, tuple, &[], &mut budget)?))
        });
        let count = walked.unwrap_or_else(|| {
            self.mark(index);
            self.pass(index)
        });
        debug_assert_eq!(
            count,
            index.exact_count(),
            "the ledger drifted from the index"
        );
        self.anchor = Some(count);
        self.population = OnceLock::from(count);
        count
    }
}

/// Dedup hashes of every row of `batch`, one column-wise pass per
/// relation, indexed `[relation][row]` — computed once per batch however
/// many groups apply it.
pub(crate) fn column_hashes(batch: &ColumnarBatch) -> Vec<Vec<u64>> {
    let mut flat: Vec<Value> = Vec::new();
    (0..batch.num_relations())
        .map(|rel| {
            let rc = batch.relation(rel);
            let mut h = Vec::new();
            if rc.rows() > 0 {
                flat.clear();
                rc.gather_rows(&mut flat);
                fx_hash_columns(rc.arity() as u64, rc.arity(), &flat, &mut h);
            }
            h
        })
        .collect()
}

/// One dynamic index and the members sampling over it. Never empty: the
/// service drops a group with its last member, and an image of an empty
/// group is rejected.
pub(crate) struct Group {
    /// The tree *instance* the index was built over. Adjacency order
    /// changes node-state discovery order downstream, so every member's
    /// plan holds this instance (same canonical edges, by construction).
    tree: JoinTree,
    index: DynamicIndex,
    pub(crate) members: Vec<SamplerCore>,
    /// Per-op retrieval memo (transient — cleared every op, never
    /// serialized). Only exercised with two or more members; a lone member
    /// keeps the zero-allocation path.
    cache: DeltaCache,
    count: CountMemo,
}

impl Group {
    /// A group of one member with reservoir capacity `k` and `seed`, over
    /// a fresh index of `query` built on `plan`'s tree.
    pub(crate) fn new(
        query: Query,
        plan: Plan,
        options: IndexOptions,
        k: usize,
        seed: u64,
    ) -> Result<Group, IndexError> {
        let core = SamplerCore::new(&query, plan, k, seed);
        Ok(Group {
            index: DynamicIndex::with_tree(query, &core.plan.tree, options)?,
            tree: core.plan.tree.clone(),
            members: vec![core],
            cache: DeltaCache::default(),
            count: CountMemo::default(),
        })
    }

    pub(crate) fn index(&self) -> &DynamicIndex {
        &self.index
    }

    pub(crate) fn tree(&self) -> &JoinTree {
        &self.tree
    }

    /// Exact live `|Q(R)|`, memoized per index state.
    pub(crate) fn population(&self) -> u128 {
        self.count.get(&self.index)
    }

    /// Full index count passes paid so far.
    pub(crate) fn count_passes(&self) -> u64 {
        self.count.passes.load(Ordering::Relaxed)
    }

    /// Inserts one tuple and feeds its delta batch to every member.
    /// Returns the tuple's id, or `None` for a duplicate (no effect).
    pub(crate) fn insert(&mut self, rel: usize, tuple: &[Value]) -> Option<TupleId> {
        let tid = self.index.insert(rel, tuple)?;
        self.consume(rel, tid);
        Some(tid)
    }

    /// Feeds the delta batch of the just-accepted tuple `tid` to every
    /// member. A lone member retrieves into its own buffer; two or more
    /// share each batch position's `O(log N)` retrieval through the
    /// [`DeltaCache`].
    fn consume(&mut self, rel: usize, tid: TupleId) {
        self.count.population.take();
        let batch = self.index.delta_batch(rel, tid);
        let mut cache = (self.members.len() > 1).then(|| {
            self.cache.begin_op();
            &mut self.cache
        });
        for m in &mut self.members {
            m.consume_delta(&self.index, &batch, cache.as_deref_mut());
        }
    }

    /// Deletes one tuple and runs every member's repair protocol against
    /// the exact post-delete count, which the ledger settles once for all
    /// of them. Returns the id the tuple occupied, or `None` if it was
    /// absent (no effect on the samples).
    pub(crate) fn delete(&mut self, rel: usize, tuple: &[Value]) -> Option<TupleId> {
        let budget = self.count.settle(&self.index);
        let tid = self.index.delete(rel, tuple)?;
        let population = self.count.after_delete(&self.index, rel, tuple, budget);
        for m in &mut self.members {
            m.apply_delete(&self.index, rel, tuple, population);
        }
        Some(tid)
    }

    /// Applies one already-checked op.
    pub(crate) fn apply(&mut self, op: &StreamOp) {
        let t = op.tuple();
        if op.is_delete() {
            self.delete(t.relation, &t.values);
        } else {
            self.insert(t.relation, &t.values);
        }
    }

    /// Replays `history` — the backfill loop. Identical op sequence ⇒
    /// identical accept/reject decisions, tuple ids and delta batches, so a
    /// fresh group ends byte-identical to one that had run from the first
    /// op.
    pub(crate) fn replay(&mut self, history: &OpStream) {
        for op in history.iter() {
            self.apply(op);
        }
    }

    /// Inserts a columnar batch in arrival order with the dedup hashes
    /// [`column_hashes`] computed for it, byte-identically to inserting its
    /// rows one by one. `before_row` runs before each row (the standalone
    /// driver's replan checkpoint).
    pub(crate) fn insert_columnar(
        &mut self,
        batch: &ColumnarBatch,
        hashes: &[Vec<u64>],
        mut before_row: impl FnMut(&mut Group),
    ) {
        let mut row = Vec::new();
        for &(rel, r) in batch.arrivals() {
            before_row(self);
            let (rel, r) = (rel as usize, r as usize);
            row.clear();
            batch.relation(rel).write_row(r, &mut row);
            if let Some(tid) = self.index.insert_hashed(rel, &row, hashes[rel][r]) {
                self.consume(rel, tid);
            }
        }
    }

    /// Rebuilds the index over `tree` by re-inserting the stored live
    /// relations, lets `retarget` set each member's plan against the
    /// rebuilt index, then makes a repair point for every member: exact
    /// live count, sample backfill to `min(k, |Q(R)|)` distinct uniform
    /// results, skip-state recalibration. Materialized samples stay valid —
    /// `Q(R)` is unchanged and sample rows hold values, not the tuple ids
    /// the rebuild reassigns. Returns `false`, changing nothing, when
    /// `tree` is not a join tree of the query.
    pub(crate) fn rebuild(
        &mut self,
        tree: &JoinTree,
        mut retarget: impl FnMut(&DynamicIndex, &mut Plan),
    ) -> bool {
        let query = self.index.query();
        let Ok(mut fresh) = DynamicIndex::with_tree(query.clone(), tree, self.index.options())
        else {
            return false;
        };
        for rel in 0..query.num_relations() {
            for (_, t) in self.index.database().relation(rel).iter() {
                fresh.insert(rel, t);
            }
        }
        self.index = fresh;
        self.tree = tree.clone();
        self.count.unanchor();
        let population = self.count.get(&self.index);
        for m in &mut self.members {
            retarget(&self.index, &mut m.plan);
            m.repair(&self.index, population);
        }
        true
    }

    /// Heap bytes of the index and every member's sample buffer (its whole
    /// capacity).
    pub(crate) fn heap_size(&self) -> usize {
        self.index.heap_size()
            + self
                .members
                .iter()
                .map(|m| m.reservoir.heap_size())
                .sum::<usize>()
    }

    /// Serializes the group: index options, tree, index state, and every
    /// member, each preceded by whatever `tag` writes for it (the service
    /// writes the registration id; the standalone driver nothing).
    pub(crate) fn snapshot_to(&self, enc: &mut Encoder, mut tag: impl FnMut(usize, &mut Encoder)) {
        enc.put_bool(self.index.options().grouping);
        self.tree.snapshot_to(enc);
        self.index.snapshot_state_to(enc);
        enc.put_usize(self.members.len());
        for (i, m) in self.members.iter().enumerate() {
            tag(i, enc);
            m.snapshot_to(enc);
        }
    }

    /// Restores a group of `query` written by
    /// [`snapshot_to`](Group::snapshot_to), reading each member's tag with
    /// `tag`. Rejects an image whose tree does not fit `query`, that has no
    /// members, or whose members' plans are for another tree.
    pub(crate) fn restore_from<T>(
        dec: &mut Decoder,
        query: &Query,
        mut tag: impl FnMut(&mut Decoder) -> Result<T, CodecError>,
    ) -> Result<(Group, Vec<T>), CodecError> {
        let options = IndexOptions {
            grouping: dec.bool()?,
        };
        let tree = JoinTree::restore_from(dec)?;
        if tree.len() != query.num_relations() {
            return Err(CodecError::Corrupt("group tree is for another query"));
        }
        let mut index = DynamicIndex::with_tree(query.clone(), &tree, options)
            .map_err(|_| CodecError::Corrupt("group tree is not a join tree"))?;
        index.restore_state_from(dec)?;
        let n = dec.seq_len(1)?;
        if n == 0 {
            return Err(CodecError::Corrupt("empty index group in snapshot"));
        }
        let edges = tree.canonical_edges();
        let (mut tags, mut members) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for _ in 0..n {
            tags.push(tag(dec)?);
            let core = SamplerCore::restore_from(dec, query)?;
            if core.plan.tree.canonical_edges() != edges {
                return Err(CodecError::Corrupt("member plan is for another tree"));
            }
            members.push(core);
        }
        let group = Group {
            tree,
            index,
            members,
            cache: DeltaCache::default(),
            count: CountMemo::default(),
        };
        Ok((group, tags))
    }
}
