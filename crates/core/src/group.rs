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
//! repair, history replay, heap accounting and the group
//! image. Exact `|Q(R)|` is memoized per index state, so all members of a
//! group share one count pass per accepted op.

use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::rng::{child_seed, RsjRng};
use rsj_common::{TupleId, Value};
use rsj_index::dynamic::IndexError;
use rsj_index::{DeltaBatch, DescentMemo, DynamicIndex, FullSampler, HeapLine, IndexOptions};
use rsj_query::{JoinTree, Plan, Query};
use rsj_storage::{OpStream, StreamOp};
use rsj_stream::{remove_slots, FnBatch, Reservoir};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

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
    /// The tuple ids the sample rows hold, beside them; what delete
    /// repair reads instead of the rows.
    sample_ids: SampleIds,
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
            sample_ids: SampleIds::default(),
            repair_rng: RsjRng::seed_from_u64(child_seed(seed, u64::from_le_bytes(*b"turnstil"))),
            inserts: 0,
            deletes: 0,
        }
    }

    /// Feeds an accepted insert's implicit delta batch to the reservoir
    /// (Algorithm 6 lines 5–7). A stop retrieves its position into this
    /// member's own buffer and materializes a real result straight into
    /// the sample row, its ids into the slot's id columns once they are
    /// built; a dummy reports its run, which the reservoir passes. `memo`
    /// was reset for this batch.
    fn consume_delta(
        &mut self,
        index: &DynamicIndex,
        batch: &DeltaBatch<'_>,
        memo: &mut DescentMemo,
    ) {
        self.inserts += 1;
        if batch.size() > 0 && !self.reservoir.try_skip(batch.size()) {
            let (ids, columns) = (&mut self.ids, &mut self.sample_ids);
            let k = self.reservoir.capacity();
            let mut positions = FnBatch::new(batch.size(), std::convert::identity);
            self.reservoir.process_batch(&mut positions, |z, slot| {
                match batch.retrieve_into(z, ids, memo) {
                    0 => {
                        let (slot, row) = slot.accept_slot();
                        index.materialize_ids(ids, row);
                        columns.put(slot, ids, k);
                    }
                    run => slot.reject_run(run),
                }
            });
        }
    }

    /// Builds the id columns from the rows if they are not built yet.
    /// Every tuple a row holds must be live in `index`.
    fn ensure_ids(&mut self, index: &DynamicIndex) {
        if !self.sample_ids.is_built() {
            self.sample_ids = SampleIds::derive(index, &self.reservoir);
        }
    }

    /// The reservoir side of a deletion `index` has already applied to
    /// tuple `tid` of `rel`, with the id columns built before it: evict
    /// the samples holding the tuple, then repair against `population`,
    /// the exact post-delete `|Q(R)|` — every delete is a repair point (see
    /// `crate::reservoir_join`).
    fn apply_delete(
        &mut self,
        index: &DynamicIndex,
        rel: usize,
        tid: TupleId,
        population: u128,
        memo: &mut DescentMemo,
    ) {
        self.deletes += 1;
        self.sample_ids.evict(&mut self.reservoir, rel, tid);
        self.repair(index, population, memo);
    }

    /// A repair point: sample backfill to `min(k, |Q(R)|)` distinct
    /// uniform results and skip-state recalibration against `population`,
    /// the exact live `|Q(R)|` of `index`. The backfill draws through
    /// `memo`, reset here.
    fn repair(&mut self, index: &DynamicIndex, population: u128, memo: &mut DescentMemo) {
        memo.reset();
        let target = (self.reservoir.capacity() as u128).min(population) as usize;
        let full = FullSampler {
            root: self.plan.root,
            ..FullSampler::default()
        };
        if self.reservoir.len() < target {
            self.ensure_ids(index);
        }
        let (rng, ids, columns) = (&mut self.repair_rng, &mut self.ids, &mut self.sample_ids);
        // Rejection sampling to distinctness: each accepted draw is
        // uniform over the live results not yet in the sample, which is
        // exactly sequential SRS. Distinctness compares the draw's ids with
        // the id columns — set semantics make equal ids and equal rows the
        // same result — and only a taken draw is materialized. The
        // per-slot budget covers the two rejection sources — dummy
        // positions, bounded by the density invariant at (1/2)^(2|T|-2),
        // and duplicate hits, worst around O(k) when the population barely
        // exceeds the sample.
        let (k, nrels) = (self.reservoir.capacity(), index.query().num_relations());
        let per_slot = (4096 + 256 * k)
            .saturating_mul(1usize << (2 * (nrels.max(1) - 1)).min(16))
            .min(1 << 24);
        let filled = self.reservoir.backfill(target, per_slot, |held, row| {
            if !full.try_sample_into(index, rng, ids, memo) || columns.holds(ids) {
                return false;
            }
            index.materialize_ids(ids, row);
            columns.put(held.len(), ids, k);
            true
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
            sample_ids: SampleIds::default(),
            repair_rng,
            inserts: dec.u64()?,
            deletes: dec.u64()?,
        })
    }
}

/// The tuple ids a member's sample rows hold, one column per relation:
/// `columns[rel][slot]` names the tuple of relation `rel` in the row of
/// slot `slot`, so every column is as long as the reservoir. A row's
/// values and its id tuple name the same result (set semantics), so
/// delete repair reads these instead of the rows: eviction scans one
/// `u32` column for the deleted tuple and touches rows only on a hit, and
/// backfill distinctness compares ids, first relation first.
///
/// Transient, like the group's [`DescentMemo`]: never serialized, empty
/// until the member's first repair point — so an insert-only stream never
/// builds them. Once built, the stop path writes each accepted retrieval's
/// ids into its slot and backfill appends the drawn ids.
#[derive(Default)]
struct SampleIds {
    columns: Vec<Vec<TupleId>>,
}

impl SampleIds {
    /// Reads the ids off `reservoir`'s rows, looking each row's tuple of
    /// each relation up in `index`, where it must be live.
    fn derive(index: &DynamicIndex, reservoir: &Reservoir) -> SampleIds {
        let (query, rows) = (index.query(), reservoir.samples());
        let mut tuple = Vec::new();
        let columns = (0..query.num_relations())
            .map(|rel| {
                let (attrs, relation) =
                    (&query.relation(rel).attrs, index.database().relation(rel));
                let mut column = Vec::with_capacity(rows.len());
                for row in rows {
                    tuple.clear();
                    tuple.extend(attrs.iter().map(|&a| row[a]));
                    column.push(
                        relation
                            .id_of(&tuple)
                            .expect("a sample row holds live tuples"),
                    );
                }
                column
            })
            .collect();
        SampleIds { columns }
    }

    fn is_built(&self) -> bool {
        !self.columns.is_empty()
    }

    /// Records `ids` as slot `slot`'s: an overwrite, or — for the new
    /// last slot — an append that grows a column the way the reservoir
    /// grows its rows, doubling but never past `k`. Nothing before the
    /// columns are built.
    fn put(&mut self, slot: usize, ids: &[TupleId], k: usize) {
        for (column, &id) in self.columns.iter_mut().zip(ids) {
            if let Some(held) = column.get_mut(slot) {
                *held = id;
                continue;
            }
            debug_assert_eq!(slot, column.len(), "a new slot is the last one");
            if column.len() == column.capacity() {
                let grown = (2 * column.capacity()).max(4).min(k);
                column.reserve_exact(grown.saturating_sub(column.len()));
            }
            column.push(id);
        }
    }

    /// Whether some held sample is the result `ids` names.
    fn holds(&self, ids: &[TupleId]) -> bool {
        let Some((first, rest)) = self.columns.split_first() else {
            return false;
        };
        let mut from = 0;
        while let Some(at) = find(&first[from..], ids[0]) {
            let slot = from + at;
            if rest
                .iter()
                .zip(&ids[1..])
                .all(|(column, &id)| column[slot] == id)
            {
                return true;
            }
            from = slot + 1;
        }
        false
    }

    /// Evicts from `reservoir` every sample holding tuple `tid` of `rel`.
    /// The dead slots are where `rel`'s column holds `tid`: rows, the
    /// other columns and that column last are compacted by them through
    /// the one routine, [`remove_slots`], one move per run of kept slots.
    /// A miss — most members at most deletes — reads one column and
    /// nothing else.
    fn evict(&mut self, reservoir: &mut Reservoir, rel: usize, tid: TupleId) {
        let dead = |column: &[TupleId], from: usize| find(&column[from..], tid).map(|at| from + at);
        let (others, rest) = self.columns.split_at_mut(rel);
        let (key, later) = rest.split_first_mut().expect("a column per relation");
        if dead(key, 0).is_none() {
            return;
        }
        reservoir.evict_slots(|from| dead(key, from));
        for column in others.iter_mut().chain(later) {
            remove_slots(column, 1, |_, from| dead(key, from));
        }
        remove_slots(key, 1, dead);
        debug_assert!(self.columns.iter().all(|c| c.len() == reservoir.len()));
    }

    fn heap_size(&self) -> usize {
        self.columns.capacity() * std::mem::size_of::<Vec<TupleId>>()
            + self
                .columns
                .iter()
                .map(|c| c.capacity() * std::mem::size_of::<TupleId>())
                .sum::<usize>()
    }
}

/// The first position of `tid` in `column`. Compared 16 ids at a time
/// without an early exit inside a block, so the scan of a column that
/// does not hold the id vectorizes.
fn find(column: &[TupleId], tid: TupleId) -> Option<usize> {
    const BLOCK: usize = 16;
    let blocks = column.chunks_exact(BLOCK);
    let tail = blocks.remainder();
    for (b, block) in blocks.enumerate() {
        if block.iter().fold(false, |hit, &id| hit | (id == tid)) {
            return block
                .iter()
                .position(|&id| id == tid)
                .map(|at| b * BLOCK + at);
        }
    }
    let base = column.len() - tail.len();
    tail.iter().position(|&id| id == tid).map(|at| base + at)
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
/// Transient: never serialized; a restore starts unanchored.
/// Built from `Sync` parts (a `Cell` would do for the service alone) so
/// that `ReservoirJoin` stays `Sync`.
#[derive(Default)]
struct CountMemo {
    population: OnceLock<u128>,
    /// The ledger's `|Q(R)|` at the watermarks; `None` until the first
    /// delete (and after a restore, or a dropped settle).
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
    /// The retrieval kernel's memo (transient — reset at every batch and
    /// every repair, never serialized). Members
    /// share it: within one batch they all read one index state.
    memo: DescentMemo,
    count: CountMemo,
}

impl Group {
    /// A group of one member with reservoir capacity `k` and `seed`, over
    /// a fresh index of `query` built on `plan`'s tree. The plan must fit
    /// `query`: its tree a join tree of it (index construction checks
    /// that), its root one of its relations.
    pub(crate) fn new(
        query: Query,
        plan: Plan,
        options: IndexOptions,
        k: usize,
        seed: u64,
    ) -> Result<Group, IndexError> {
        if plan.root >= query.num_relations() {
            return Err(IndexError::InvalidTree(format!(
                "plan root {} is not one of the query's {} relations",
                plan.root,
                query.num_relations()
            )));
        }
        let core = SamplerCore::new(&query, plan, k, seed);
        let index = DynamicIndex::with_tree(query, &core.plan.tree, options)?;
        Ok(Group {
            memo: DescentMemo::new(&index),
            index,
            tree: core.plan.tree.clone(),
            members: vec![core],
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
    /// member. Every retrieval of the batch, by any member, shares one
    /// [`DescentMemo`], reset here.
    fn consume(&mut self, rel: usize, tid: TupleId) {
        self.count.population.take();
        self.memo.reset();
        let batch = self.index.delta_batch(rel, tid);
        for m in &mut self.members {
            m.consume_delta(&self.index, &batch, &mut self.memo);
        }
    }

    /// Deletes one tuple and runs every member's repair protocol against
    /// the exact post-delete count, which the ledger settles once for all
    /// of them. Returns the id the tuple occupied, or `None` if it was
    /// absent (no effect on the samples).
    pub(crate) fn delete(&mut self, rel: usize, tuple: &[Value]) -> Option<TupleId> {
        let budget = self.count.settle(&self.index);
        // The id columns are read off the rows while every tuple they hold
        // is still live, the deleted one included.
        for m in &mut self.members {
            m.ensure_ids(&self.index);
        }
        let tid = self.index.delete(rel, tuple)?;
        let population = self.count.after_delete(&self.index, rel, tuple, budget);
        for m in &mut self.members {
            m.apply_delete(&self.index, rel, tid, population, &mut self.memo);
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

    /// Heap bytes of the index and every member's sample buffer and id
    /// columns (their whole capacity).
    pub(crate) fn heap_size(&self) -> usize {
        self.index.heap_size()
            + self
                .members
                .iter()
                .map(|m| m.reservoir.heap_size() + m.sample_ids.heap_size())
                .sum::<usize>()
    }

    /// [`heap_size`](Group::heap_size) as a ledger: the index's lines,
    /// then two per member (owner `member i`) — its sample rows and its
    /// id columns.
    pub(crate) fn heap_breakdown(&self) -> Vec<HeapLine> {
        let mut lines = self.index.heap_breakdown();
        for (i, m) in self.members.iter().enumerate() {
            for (part, bytes) in [
                ("member.rows", m.reservoir.heap_size()),
                ("member.ids", m.sample_ids.heap_size()),
            ] {
                lines.push(HeapLine {
                    owner: format!("member {i}"),
                    part,
                    bytes,
                });
            }
        }
        lines
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
            memo: DescentMemo::new(&index),
            index,
            members,
            count: CountMemo::default(),
        };
        Ok((group, tags))
    }
}

#[cfg(test)]
impl Group {
    /// The differential check of the id columns: every member's columns,
    /// once built, name exactly the tuples its rows hold — one column per
    /// relation, as long as the reservoir, each id a live tuple whose
    /// values are the row's projection onto its relation. Panics on a
    /// mismatch; returns how many members have their columns built.
    pub(crate) fn check_sample_ids(&self) -> usize {
        let (query, db) = (self.index.query(), self.index.database());
        let mut built = 0;
        for (i, m) in self.members.iter().enumerate() {
            let columns = &m.sample_ids.columns;
            if columns.is_empty() {
                continue;
            }
            built += 1;
            assert_eq!(columns.len(), query.num_relations(), "member {i}");
            let rows = m.reservoir.samples();
            for (rel, column) in columns.iter().enumerate() {
                assert_eq!(column.len(), rows.len(), "member {i}, relation {rel}");
                let (attrs, relation) = (&query.relation(rel).attrs, db.relation(rel));
                for (slot, (row, &tid)) in rows.iter().zip(column).enumerate() {
                    let at = format!("member {i}, slot {slot}, relation {rel}, id {tid}");
                    assert!((tid as usize) < relation.num_slots(), "{at}: no such tuple");
                    assert!(relation.is_live(tid), "{at}: a deleted tuple");
                    let tuple = relation.tuple(tid);
                    assert!(
                        attrs.iter().zip(tuple).all(|(&a, &v)| row[a] == v),
                        "{at}: names {tuple:?}, the row holds {row:?}"
                    );
                }
            }
        }
        built
    }
}

#[cfg(test)]
mod tests {
    use crate::exec::SamplerExt;
    use crate::reservoir_join::ReservoirJoin;
    use rsj_datagen::{GraphConfig, TpcdsLite, TurnstileConfig, VictimPolicy};
    use rsj_queries::Workload;
    use rsj_storage::{OpStream, StreamOp};

    /// `w`'s preload, then its stream with 20 % uniform deletes woven in,
    /// cut to `n` ops in all.
    fn churn(w: &Workload, n: usize) -> Vec<StreamOp> {
        let mut preload = OpStream::new();
        for t in &w.preload {
            preload.push_insert(t.relation, t.values.clone());
        }
        let woven = TurnstileConfig {
            delete_ratio: 0.2,
            policy: VictimPolicy::Uniform,
            seed: 11,
        }
        .weave(&w.stream);
        preload
            .ops()
            .iter()
            .chain(woven.ops())
            .take(n)
            .cloned()
            .collect()
    }

    /// Runs `ops` through `rj`, checking the id columns after every op:
    /// exact whenever built, and built from the first delete on.
    fn drive_checked(rj: &mut ReservoirJoin, ops: &[StreamOp]) {
        let mut deleted = false;
        for (i, op) in ops.iter().enumerate() {
            rj.process_op(op).unwrap();
            deleted |= op.is_delete();
            let built = rj.group.check_sample_ids();
            assert_eq!(
                built == 1,
                deleted,
                "op {i}: columns built iff a delete came"
            );
        }
    }

    #[test]
    fn line3_columns_name_the_rows_tuples_at_every_op() {
        let edges = GraphConfig {
            nodes: 60,
            edges: 400,
            zipf: 0.9,
            seed: 3,
        }
        .generate();
        let w = rsj_queries::line_k(3, &edges, 5);
        let ops = churn(&w, 500);
        assert!(ops.iter().filter(|op| op.is_delete()).count() > 50);
        let mut rj = ReservoirJoin::new(w.query.clone(), 24, 7).unwrap();
        drive_checked(&mut rj, &ops);
        assert_eq!(rj.samples().len(), 24, "the reservoir stays full");
    }

    #[test]
    fn qy_grouped_columns_name_the_rows_tuples_at_every_op() {
        let w = rsj_queries::qy(&TpcdsLite::generate(1, 5), 5);
        let mut rj = ReservoirJoin::new(w.query.clone(), 32, 9).unwrap();
        assert!(rj.index().options().grouping, "QY runs grouped");
        let ops = churn(&w, w.preload.len() + 900);
        drive_checked(&mut rj, &ops);
        assert!(rj.deletes() > 100);
    }

    /// A restored driver starts without columns (they are not in the
    /// image), builds them at its next delete, and stays byte-identical to
    /// the driver it was copied from.
    #[test]
    fn restored_columns_are_built_again_at_the_next_delete() {
        let edges = GraphConfig {
            nodes: 50,
            edges: 300,
            zipf: 0.9,
            seed: 8,
        }
        .generate();
        let w = rsj_queries::line_k(3, &edges, 2);
        let ops = churn(&w, 420);
        let (head, tail) = ops.split_at(200);
        let mut rj = ReservoirJoin::new(w.query.clone(), 16, 4).unwrap();
        drive_checked(&mut rj, head);
        assert_eq!(rj.group.check_sample_ids(), 1);
        let mut restored = ReservoirJoin::new(w.query.clone(), 16, 4).unwrap();
        restored
            .restore_state(&rj.snapshot_state().unwrap())
            .unwrap();
        assert_eq!(
            restored.group.check_sample_ids(),
            0,
            "images hold no columns"
        );
        let mut deleted = false;
        for (i, op) in tail.iter().enumerate() {
            rj.process_op(op).unwrap();
            restored.process_op(op).unwrap();
            deleted |= op.is_delete();
            assert_eq!(restored.group.check_sample_ids() == 1, deleted, "op {i}");
            rj.group.check_sample_ids();
            assert_eq!(rj.samples(), restored.samples(), "op {i}");
        }
        assert!(deleted);
    }
}
