//! The dynamic index: insertion and upward propagation (Algorithms 7, 10).
//!
//! The paper maintains "all the rooted trees where r ranges over all
//! nodes"; the tree rooted at `r` serves the delta batches of tuples
//! inserted into `R_r`. The key structural observation this implementation
//! exploits: a node's per-tree state — its `key(e)` groups, weight
//! buckets, child indexes — depends only on **which neighbor is its
//! parent**, not on which relation the tree is rooted at. Two rooted trees
//! that orient node `e` the same way hold byte-identical copies of `e`'s
//! state. So instead of `n` trees × `n` nodes, the index keeps one
//! [`NodeState`] per distinct *(node, parent)* orientation — `deg(e) + 1`
//! configurations per node, `3n - 2` in total — and each rooted tree is
//! just a view (`rel → config`) over the shared pool. An insert updates
//! `deg(rel) + 1` configurations instead of `n` tree copies, and a
//! propagation cascade runs once instead of once per tree that shares the
//! orientation.
//!
//! A tuple insert registers the tuple (or its `ē` group tuple) in each of
//! its relation's configurations, computes its weight level from the
//! children's rounded counts, and — only when its group's rounded count
//! `cnt~` doubles — re-levels the matching items of every parent
//! configuration, recursing upward. The number of executions of that
//! re-leveling loop is the quantity reported in the paper's optimization
//! table (Figure 9); [`IndexStats::propagation_loops`] counts it (once
//! per shared configuration, not once per rooted tree).
//!
//! # Hash-once inserts
//!
//! The same tuple is projected onto only a handful of *distinct*
//! attribute sets across all configurations (a `key(e)` of one
//! orientation is a `key(c)` of another; grouped nodes' key/child
//! projections factor through `ē`). At construction, a projection plan
//! deduplicates those position sets per relation; per insert, a reusable
//! scratch computes each distinct projection's [`Key`] and fx hash
//! exactly once, and every table touched afterwards — child indexes,
//! group tables, intern tables, `cnt~` lookups — probes a
//! [`KeyMap`](rsj_common::KeyMap) with the precomputed digest.
//! Steady-state inserts are also allocation-free: all posting storage
//! lives in per-configuration
//! [`PostingArena`](rsj_common::PostingArena)s, and propagation reuses
//! pooled scratch buffers.

use crate::state::{GroupId, ItemId, NodeState};
use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::hash::fx_hash_columns;
use rsj_common::pow2::level_of;
use rsj_common::{fx_hash_one, FxHashMap, FxHashSet, HeapSize, Key, TupleId, Value};
use rsj_query::{NodeInfo, Query};
use rsj_storage::{ColumnarBatch, Database};
use std::collections::hash_map::Entry;

/// Construction options.
///
/// `PartialEq` is part of the contract: the sampler service groups
/// registrations by (join tree, options), so two option values compare
/// equal exactly when the indexes they build are interchangeable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexOptions {
    /// Enable the §4.4 grouping optimization on groupable nodes.
    pub grouping: bool,
}

impl Default for IndexOptions {
    fn default() -> Self {
        IndexOptions { grouping: true }
    }
}

/// Instrumentation counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct IndexStats {
    /// Tuples inserted (accepted; duplicates excluded).
    pub inserts: u64,
    /// Tuples deleted (present; absent-tuple deletes excluded).
    pub deletes: u64,
    /// Executions of the propagation loop body (Algorithm 7 lines 9–11 /
    /// Algorithm 10 lines 11–15) — the Figure 9 metric, counted once per
    /// shared (node, parent) configuration. Deletion cascades count here
    /// too.
    pub propagation_loops: u64,
    /// Number of `cnt~` level changes observed (doublings on insert,
    /// halvings on delete).
    pub tilde_changes: u64,
}

/// One rooted tree's view over the shared configuration pool.
#[derive(Clone, Debug)]
pub(crate) struct TreeView {
    /// Per relation: index of its (relation, parent-in-this-tree)
    /// configuration in [`DynamicIndex::configs`].
    pub cfg: Vec<u32>,
}

/// Slot sentinel for "this configuration is not grouped".
const NO_SLOT: u32 = u32::MAX;

/// Where one configuration's projections of a relation's tuple live inside
/// the per-relation scratch (indexes into [`Projections::keys`]).
#[derive(Clone, Debug)]
struct CfgSlots {
    /// `key(e)` projection.
    key: u32,
    /// Per child: `key(c)` projection.
    children: Vec<u32>,
    /// `ē` projection when this configuration is grouped, else [`NO_SLOT`].
    ebar: u32,
}

/// Per-relation deduplicated projection sets plus each configuration's
/// slot map.
#[derive(Clone, Debug)]
struct RelProjections {
    /// Distinct attribute-position sets this relation is projected onto.
    sets: Vec<Vec<usize>>,
    /// Parallel to the relation's configuration list.
    cfgs: Vec<CfgSlots>,
}

/// The deduplicated projection schedule of the whole index.
#[derive(Clone, Debug)]
struct ProjectionPlan {
    rels: Vec<RelProjections>,
}

/// Reusable per-insert scratch: one `(Key, fx hash)` per distinct
/// projection of the inserted tuple.
#[derive(Clone, Debug, Default)]
struct Projections {
    keys: Vec<(Key, u64)>,
}

impl Projections {
    fn fill(&mut self, tuple: &[Value], sets: &[Vec<usize>]) {
        self.keys.clear();
        for set in sets {
            let k = Key::project(tuple, set);
            self.keys.push((k, fx_hash_one(&k)));
        }
    }

    #[inline]
    fn get(&self, slot: u32) -> (Key, u64) {
        self.keys[slot as usize]
    }
}

/// A touched parent group awaiting its post-batch `cnt~` check:
/// `(group, group key, cnt~ level before the batch)`.
type TouchedGroup = (u32, Key, Option<u32>);

/// Recycled scratch buffers for [`propagate`] (one pair per recursion
/// depth), so re-leveling performs no per-call allocations once warm.
#[derive(Clone, Debug, Default)]
struct Pools {
    items: Vec<Vec<ItemId>>,
    touched: Vec<Vec<TouchedGroup>>,
}

impl Pools {
    fn pop_items(&mut self) -> Vec<ItemId> {
        self.items.pop().unwrap_or_default()
    }

    fn push_items(&mut self, mut v: Vec<ItemId>) {
        v.clear();
        self.items.push(v);
    }

    fn pop_touched(&mut self) -> Vec<TouchedGroup> {
        self.touched.pop().unwrap_or_default()
    }

    fn push_touched(&mut self, mut v: Vec<TouchedGroup>) {
        v.clear();
        self.touched.push(v);
    }
}

/// One configuration's *net* `cnt~` change at a group key over a whole
/// columnar batch: recorded once when the batch is finalized for that
/// configuration, consumed by every parent configuration's re-level pass.
/// The per-tuple path would have cascaded each intermediate doubling
/// separately; the net change subsumes them all (levels are pure functions
/// of the final counts).
#[derive(Clone, Copy, Debug)]
struct TildeChange {
    key: Key,
    hash: u64,
    old: Option<u32>,
    new: Option<u32>,
}

/// One relation's accepted arrivals of a columnar batch: tuple ids plus,
/// for each distinct projection set of the relation, the projected key
/// column and its bulk-hashed digests (both parallel to `tids`). Empty
/// `tids` marks a relation absent from (or fully deduplicated out of) the
/// current batch.
#[derive(Clone, Debug, Default)]
struct RelBatch {
    tids: Vec<TupleId>,
    proj_keys: Vec<Vec<Key>>,
    proj_hashes: Vec<Vec<u64>>,
}

/// Reusable scratch of the columnar ingest path, persisted in the index so
/// repeated batch calls reallocate nothing once warm — the sort buffers,
/// per-configuration net-change vectors and per-relation key/hash columns
/// all keep their high-water capacity between batches. The `topo` and
/// `cfg_slot_row` entries are static per index and computed on first use.
#[derive(Clone, Debug, Default)]
struct ColumnarScratch {
    rel_batches: Vec<RelBatch>,
    flat: Vec<Value>,
    hashes: Vec<u64>,
    rows: Vec<Value>,
    proj_flat: Vec<Value>,
    topo: Vec<u32>,
    cfg_slot_row: Vec<usize>,
    out_changes: Vec<Vec<TildeChange>>,
    probes: Vec<(u32, TildeChange)>,
    items_buf: Vec<ItemId>,
    order_buf: Vec<(u64, u32)>,
    recomputed: FxHashSet<ItemId>,
    touched: FxHashMap<GroupId, (Key, u64, Option<u32>)>,
    levels: Vec<Option<u32>>,
    gids: Vec<GroupId>,
}

/// Children-first topological order of the shared-configuration DAG: every
/// configuration appears after everything reachable through its
/// `child_cfgs` edges, so a columnar pass over the order reads only
/// finalized child `cnt~` values. The DAG is acyclic by construction (a
/// configuration's children are oriented *away* from it in every rooted
/// tree), so the iterative post-order DFS below visits each configuration
/// exactly once.
fn topo_children_first(child_cfgs: &[Vec<u32>]) -> Vec<u32> {
    let n = child_cfgs.len();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut stack: Vec<(u32, usize)> = Vec::new();
    for root in 0..n as u32 {
        if seen[root as usize] {
            continue;
        }
        seen[root as usize] = true;
        stack.push((root, 0));
        while let Some(&(c, next)) = stack.last() {
            let kids = &child_cfgs[c as usize];
            if next < kids.len() {
                stack.last_mut().expect("stack nonempty").1 += 1;
                let d = kids[next];
                if !seen[d as usize] {
                    seen[d as usize] = true;
                    stack.push((d, 0));
                }
            } else {
                order.push(c);
                stack.pop();
            }
        }
    }
    order
}

/// The dynamic sampling index over an acyclic join (Theorem 4.2).
#[derive(Clone, Debug)]
pub struct DynamicIndex {
    query: Query,
    db: Database,
    /// One [`NodeState`] per distinct (relation, parent) orientation.
    pub(crate) configs: Vec<NodeState>,
    /// Rooted-tree metadata of each configuration (key/child positions,
    /// grouping layout), parallel to `configs`.
    pub(crate) infos: Vec<NodeInfo>,
    /// Per configuration: the configurations of its children (child `c`
    /// parented by this relation), parallel to `infos[cfg].children`.
    pub(crate) child_cfgs: Vec<Vec<u32>>,
    /// Per configuration `(e, p)`: the parent configurations its `cnt~`
    /// changes propagate into — every configuration of `p` not parented
    /// by `e`, with the child index of `e` inside it.
    prop_targets: Vec<Vec<(u32, u32)>>,
    /// Per relation: its configurations, in deterministic discovery order.
    rel_cfgs: Vec<Vec<u32>>,
    /// Per root relation: the view used for delta batches and sampling.
    pub(crate) trees: Vec<TreeView>,
    plan: ProjectionPlan,
    scratch: Projections,
    pools: Pools,
    columnar: ColumnarScratch,
    options: IndexOptions,
    stats: IndexStats,
}

/// Errors from index construction.
#[derive(Clone, Debug)]
pub enum IndexError {
    /// The query is cyclic; use the GHD driver in `rsj-core`.
    Cyclic,
    /// Key or `ē` arity exceeded [`rsj_common::value::MAX_KEY_ARITY`].
    KeyTooWide(String),
    /// An explicitly supplied tree is not a join tree for the query
    /// (wrong node count, or per-attribute connectedness violated).
    InvalidTree(String),
}

impl std::fmt::Display for IndexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IndexError::Cyclic => write!(f, "query is cyclic; decompose it with a GHD first"),
            IndexError::KeyTooWide(m) => write!(f, "{m}"),
            IndexError::InvalidTree(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for IndexError {}

impl DynamicIndex {
    /// Builds an (empty) index for an acyclic query over the canonical GYO
    /// join tree.
    pub fn new(query: Query, options: IndexOptions) -> Result<DynamicIndex, IndexError> {
        let jt = rsj_query::JoinTree::build(&query).ok_or(IndexError::Cyclic)?;
        Self::with_tree(query, &jt, options)
    }

    /// Builds an (empty) index over an explicit join tree — the entry point
    /// the cost-based planner (`rsj_query::plan`) uses to materialize a
    /// non-canonical orientation. The tree is validated to actually be a
    /// join tree for `query` (everything the planner emits is; a
    /// hand-rolled `EngineOpts::plan` might not be — a silently accepted
    /// invalid tree would produce wrong join results, so the check is a
    /// real error, not a debug assertion). All rooted views are derived
    /// from it exactly as [`DynamicIndex::new`] derives them from the GYO
    /// tree.
    pub fn with_tree(
        query: Query,
        jt: &rsj_query::JoinTree,
        options: IndexOptions,
    ) -> Result<DynamicIndex, IndexError> {
        if jt.len() != query.num_relations() {
            return Err(IndexError::InvalidTree(format!(
                "tree spans {} relations but the query has {}",
                jt.len(),
                query.num_relations()
            )));
        }
        if !jt.satisfies_connectedness(&query) {
            return Err(IndexError::InvalidTree(format!(
                "edges {:?} violate the join-tree property (some attribute's \
                 relations are not connected)",
                jt.canonical_edges()
            )));
        }
        let rooted = rsj_query::rooted::all_rooted_trees(&query, jt)
            .map_err(|e| IndexError::KeyTooWide(e.to_string()))?;
        let mut db = Database::new();
        for r in query.relations() {
            db.add_relation(r.name.clone(), r.attrs.len());
        }
        let n = query.num_relations();

        // Intern one configuration per distinct (relation, parent)
        // orientation; trees become views over the pool. Discovery order
        // (tree 0 first) is deterministic.
        let mut cfg_of: FxHashMap<(usize, Option<usize>), u32> = FxHashMap::default();
        let mut configs: Vec<NodeState> = Vec::new();
        let mut infos: Vec<NodeInfo> = Vec::new();
        let mut trees = Vec::with_capacity(n);
        for tree in &rooted {
            let cfg = (0..n)
                .map(|rel| {
                    let info = tree.node(rel);
                    *cfg_of.entry((rel, info.parent)).or_insert_with(|| {
                        let grouped = options.grouping
                            && info.groupable
                            // Fall back to ungrouped rather than failing:
                            // grouping is an optimization.
                            && info.ebar_positions.len() <= rsj_common::value::MAX_KEY_ARITY;
                        configs.push(NodeState::new(info.children.len(), grouped));
                        infos.push(info.clone());
                        (configs.len() - 1) as u32
                    })
                })
                .collect();
            trees.push(TreeView { cfg });
        }
        let mut rel_cfgs: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (c, info) in infos.iter().enumerate() {
            rel_cfgs[info.relation].push(c as u32);
        }
        let child_cfgs: Vec<Vec<u32>> = infos
            .iter()
            .map(|info| {
                info.children
                    .iter()
                    .map(|&c| cfg_of[&(c, Some(info.relation))])
                    .collect()
            })
            .collect();
        let prop_targets: Vec<Vec<(u32, u32)>> = infos
            .iter()
            .map(|info| match info.parent {
                None => Vec::new(),
                Some(p) => rel_cfgs[p]
                    .iter()
                    .filter_map(|&y| {
                        let yi = &infos[y as usize];
                        if yi.parent == Some(info.relation) {
                            return None;
                        }
                        let ci = yi
                            .children
                            .iter()
                            .position(|&c| c == info.relation)
                            .expect("child of every other orientation");
                        Some((y, ci as u32))
                    })
                    .collect(),
            })
            .collect();

        let plan = ProjectionPlan {
            rels: (0..n)
                .map(|rel| {
                    let mut sets: Vec<Vec<usize>> = Vec::new();
                    let slot = |positions: &[usize], sets: &mut Vec<Vec<usize>>| -> u32 {
                        match sets.iter().position(|s| s == positions) {
                            Some(i) => i as u32,
                            None => {
                                sets.push(positions.to_vec());
                                (sets.len() - 1) as u32
                            }
                        }
                    };
                    let cfgs = rel_cfgs[rel]
                        .iter()
                        .map(|&c| {
                            let info = &infos[c as usize];
                            CfgSlots {
                                key: slot(&info.key_positions, &mut sets),
                                children: info
                                    .child_key_positions
                                    .iter()
                                    .map(|ps| slot(ps, &mut sets))
                                    .collect(),
                                ebar: if configs[c as usize].grouped {
                                    slot(&info.ebar_positions, &mut sets)
                                } else {
                                    NO_SLOT
                                },
                            }
                        })
                        .collect();
                    RelProjections { sets, cfgs }
                })
                .collect(),
        };

        Ok(DynamicIndex {
            query,
            db,
            configs,
            infos,
            child_cfgs,
            prop_targets,
            rel_cfgs,
            trees,
            plan,
            scratch: Projections::default(),
            pools: Pools::default(),
            columnar: ColumnarScratch::default(),
            options,
            stats: IndexStats::default(),
        })
    }

    /// The query this index serves.
    pub fn query(&self) -> &Query {
        &self.query
    }

    /// The underlying tuple storage.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// Construction options.
    pub fn options(&self) -> IndexOptions {
        self.options
    }

    /// Serializes the dynamic portion of the index — tuple storage, every
    /// configuration's [`NodeState`], and the instrumentation counters —
    /// into `enc`. The static topology (configuration graph, projection
    /// plan, tree views) is a pure function of `(query, tree, options)`
    /// and is *not* written: a restore target must be freshly built over
    /// the same triple (see
    /// [`restore_state_from`](DynamicIndex::restore_state_from)).
    ///
    /// The encoding captures *physical* layout — posting-list order, hash
    /// slot arrays, weight-bucket chains — so a restored index reproduces
    /// the original byte-for-byte under any further operation sequence.
    /// That exactness is what makes deterministic sampling replay (and the
    /// durability layer's byte-identical recovery guarantee) possible.
    pub fn snapshot_state_to(&self, enc: &mut Encoder) {
        self.db.snapshot_to(enc);
        enc.put_usize(self.configs.len());
        for ns in &self.configs {
            ns.snapshot_to(enc);
        }
        enc.put_u64(self.stats.inserts);
        enc.put_u64(self.stats.deletes);
        enc.put_u64(self.stats.propagation_loops);
        enc.put_u64(self.stats.tilde_changes);
    }

    /// Restores dynamic state written by
    /// [`snapshot_state_to`](DynamicIndex::snapshot_state_to) into `self`,
    /// which must be a freshly built (empty) index over the same `(query,
    /// tree, options)` triple. The configuration count, each
    /// configuration's grouping flag and child count, and every relation's
    /// arity are cross-checked against the rebuilt topology; any mismatch
    /// rejects the snapshot without modifying `self`.
    pub fn restore_state_from(&mut self, dec: &mut Decoder) -> Result<(), CodecError> {
        let db = Database::restore_from(dec)?;
        if db.len() != self.query.num_relations() {
            return Err(CodecError::Corrupt(
                "index snapshot relation count mismatch",
            ));
        }
        for rel in 0..db.len() {
            if db.relation(rel).arity() != self.db.relation(rel).arity() {
                return Err(CodecError::Corrupt(
                    "index snapshot relation arity mismatch",
                ));
            }
        }
        let ncfg = dec.seq_len(1)?;
        if ncfg != self.configs.len() {
            return Err(CodecError::Corrupt(
                "index snapshot configuration count mismatch",
            ));
        }
        let mut configs = Vec::with_capacity(ncfg);
        for cu in 0..ncfg {
            let ns = NodeState::restore_from(dec)?;
            if ns.grouped != self.configs[cu].grouped
                || ns.child_indexes.len() != self.configs[cu].child_indexes.len()
            {
                return Err(CodecError::Corrupt(
                    "index snapshot configuration shape mismatch",
                ));
            }
            configs.push(ns);
        }
        let stats = IndexStats {
            inserts: dec.u64()?,
            deletes: dec.u64()?,
            propagation_loops: dec.u64()?,
            tilde_changes: dec.u64()?,
        };
        self.db = db;
        self.configs = configs;
        self.stats = stats;
        Ok(())
    }

    /// State of node `rel` in the tree rooted at `root`.
    #[inline]
    pub(crate) fn state_at(&self, root: usize, rel: usize) -> &NodeState {
        &self.configs[self.trees[root].cfg[rel] as usize]
    }

    /// Rooted-tree metadata of node `rel` in the tree rooted at `root`.
    #[inline]
    pub(crate) fn info_at(&self, root: usize, rel: usize) -> &NodeInfo {
        &self.infos[self.trees[root].cfg[rel] as usize]
    }

    /// Inserts a tuple into relation `rel`; returns its id, or `None` for a
    /// duplicate (set semantics — no index work happens).
    ///
    /// This is the paper's `IndexUpdate` entry point: `O(log N)` amortized.
    /// Each distinct projection of the tuple is computed and hashed once,
    /// then shared across every configuration (see the [module
    /// docs](self)).
    pub fn insert(&mut self, rel: usize, tuple: &[Value]) -> Option<TupleId> {
        self.insert_hashed(rel, tuple, fx_hash_one(&tuple))
    }

    /// [`insert`](DynamicIndex::insert) with the relation's dedup hash
    /// precomputed. Byte-identical to `insert` — same cascades, same
    /// stats — it merely lets a batch driver hash whole columns up front
    /// with [`fx_hash_columns`] and then apply tuples one at a time in
    /// arrival order (the byte-exact tier of the columnar ingest path,
    /// where reservoir reproducibility forbids reordering).
    pub fn insert_hashed(&mut self, rel: usize, tuple: &[Value], hash: u64) -> Option<TupleId> {
        let tid = self.db.relation_mut(rel).insert_hashed(tuple, hash)?;
        self.stats.inserts += 1;
        self.scratch.fill(tuple, &self.plan.rels[rel].sets);
        let mut pl = 0u64;
        let mut tc = 0u64;
        for (i, &cfg) in self.rel_cfgs[rel].iter().enumerate() {
            cfg_insert(
                &mut self.configs,
                &self.infos,
                &self.child_cfgs,
                &self.prop_targets,
                &self.db,
                &self.scratch,
                &self.plan.rels[rel].cfgs[i],
                cfg,
                tid,
                &mut pl,
                &mut tc,
                &mut self.pools,
            );
        }
        self.stats.propagation_loops += pl;
        self.stats.tilde_changes += tc;
        Some(tid)
    }

    /// Inserts a delta batch of tuples in order, returning the number
    /// accepted (duplicates are skipped, exactly as [`insert`] would).
    ///
    /// Equivalent to calling [`insert`] per tuple — same ids, same index
    /// state, same propagation — packaged as the batch entry point for
    /// index-only ingest (sampling-disabled pipelines, the
    /// `DynamicSampleIndex` facade). Per-tuple work is already amortized
    /// internally: the projection scratch, propagation pools, and arena
    /// free lists live in the index and stay warm across calls.
    ///
    /// [`insert`]: DynamicIndex::insert
    pub fn insert_batch(&mut self, batch: &[rsj_storage::InputTuple]) -> u64 {
        let mut accepted = 0;
        for t in batch {
            if self.insert(t.relation, &t.values).is_some() {
                accepted += 1;
            }
        }
        accepted
    }

    /// Columnar batch ingest: the struct-of-arrays fast path for
    /// insert-only windows.
    ///
    /// Produces exactly the state [`insert`](DynamicIndex::insert) would:
    /// the same tuples accepted with the same ids, and in every
    /// configuration the same groups with the same `cnt`, `cnt~`, item
    /// levels, and (for grouped nodes) `feq` — an item's level is a pure
    /// function of the *final* tuple set, so arrival order inside the
    /// batch cannot matter. What legitimately differs from the per-tuple
    /// path is physical layout (posting-list order inside buckets,
    /// internal group/intern ids) and the
    /// [`propagation_loops`](IndexStats::propagation_loops) /
    /// [`tilde_changes`](IndexStats::tilde_changes) counters, which here
    /// count the *amortized* pass (one cascade per configuration per
    /// batch) rather than one cascade per tuple; [`IndexStats::inserts`]
    /// stays exact. Sampling pipelines that must reproduce the row path's
    /// reservoir bytes therefore drive [`insert`](DynamicIndex::insert)
    /// per tuple (see
    /// `ReservoirJoin::process_columnar` in `rsj-core`); index-only
    /// ingest — the Figure 6 update-time benchmark, `FullSampler`
    /// pre-builds — takes this entry point.
    ///
    /// Per relation, the whole dedup-hash column and every distinct
    /// projection's key/hash columns are computed by the vectorized
    /// [`fx_hash_columns`] kernel in one tight loop each. Configurations
    /// are then finalized children-first; within one configuration, probe
    /// requests are sorted by `(child, hash)` so `KeyMap` bucket lines are
    /// touched monotonically and duplicate keys coalesce into one probe
    /// per run, and the upward cascade runs once over the children's *net*
    /// `cnt~` changes (the signed per-batch generalization of the
    /// per-tuple delta shift) instead of once per inserted tuple.
    pub fn insert_columnar(&mut self, batch: &ColumnarBatch) -> u64 {
        let nrels = self.query.num_relations();
        assert!(
            batch.num_relations() <= nrels,
            "batch addresses relation {} but the query has {nrels}",
            batch.num_relations(),
        );

        // Phase A: per relation, hash the dedup column in bulk, insert
        // into storage (set semantics), and bulk-hash every distinct
        // projection of the accepted rows. Every buffer lives in the
        // persistent scratch, so steady-state batches reallocate nothing.
        let cs = &mut self.columnar;
        if cs.rel_batches.len() < nrels {
            cs.rel_batches.resize_with(nrels, RelBatch::default);
        }
        for rb in &mut cs.rel_batches {
            rb.tids.clear();
        }
        let mut accepted = 0u64;
        for rel in 0..batch.num_relations() {
            let rc = batch.relation(rel);
            if rc.rows() == 0 {
                continue;
            }
            let arity = rc.arity();
            cs.flat.clear();
            rc.gather_rows(&mut cs.flat);
            cs.hashes.clear();
            fx_hash_columns(arity as u64, arity, &cs.flat, &mut cs.hashes);
            cs.rows.clear();
            {
                let r = self.db.relation_mut(rel);
                let rb = &mut cs.rel_batches[rel];
                for (row, &h) in cs.flat.chunks_exact(arity).zip(&cs.hashes) {
                    if let Some(tid) = r.insert_hashed(row, h) {
                        rb.tids.push(tid);
                        cs.rows.extend_from_slice(row);
                    }
                }
            }
            let n = cs.rel_batches[rel].tids.len();
            if n == 0 {
                continue;
            }
            accepted += n as u64;
            let sets = &self.plan.rels[rel].sets;
            let rb = &mut cs.rel_batches[rel];
            rb.proj_keys.resize_with(sets.len(), Vec::new);
            rb.proj_hashes.resize_with(sets.len(), Vec::new);
            for (si, set) in sets.iter().enumerate() {
                rb.proj_keys[si].clear();
                rb.proj_hashes[si].clear();
                if set.is_empty() {
                    // Root group keys project onto no attributes; the
                    // kernel wants arity >= 1, so the constant digest is
                    // computed once instead.
                    rb.proj_keys[si].resize(n, Key::EMPTY);
                    rb.proj_hashes[si].resize(n, fx_hash_one(&Key::EMPTY));
                    continue;
                }
                cs.proj_flat.clear();
                cs.proj_flat.reserve(n * set.len());
                for row in cs.rows.chunks_exact(arity) {
                    for &p in set {
                        cs.proj_flat.push(row[p]);
                    }
                }
                fx_hash_columns(
                    set.len() as u64,
                    set.len(),
                    &cs.proj_flat,
                    &mut rb.proj_hashes[si],
                );
                rb.proj_keys[si].extend(cs.proj_flat.chunks_exact(set.len()).map(Key::from_slice));
            }
        }
        self.stats.inserts += accepted;
        if accepted == 0 {
            return 0;
        }

        // Phase B: finalize configurations children-first. Each pass (1)
        // re-levels pre-batch items against the children's net cnt~
        // changes, (2) registers the batch's new items with hash-grouped,
        // duplicate-coalesced probes, then (3) records its own net cnt~
        // changes for the parents.
        let ncfg = self.configs.len();
        if cs.topo.len() != ncfg {
            // The traversal order and slot-row table are pure functions of
            // the (fixed) tree topology: compute once, reuse forever.
            cs.topo = topo_children_first(&self.child_cfgs);
            cs.cfg_slot_row = vec![0usize; ncfg];
            for cfgs in &self.rel_cfgs {
                for (i, &c) in cfgs.iter().enumerate() {
                    cs.cfg_slot_row[c as usize] = i;
                }
            }
        }
        if cs.out_changes.len() != ncfg {
            cs.out_changes.resize_with(ncfg, Vec::new);
        }
        for v in &mut cs.out_changes {
            v.clear();
        }
        let mut pl = 0u64;
        let mut tc = 0u64;
        for oi in 0..ncfg {
            let c = cs.topo[oi];
            let cu = c as usize;
            let rel = self.infos[cu].relation;
            cs.recomputed.clear();
            cs.touched.clear();

            // (1) Amortized re-level of pre-batch items: one probe per
            // distinct (child, changed key), visited in (child, hash)
            // order so bucket lines are touched monotonically. Live
            // live-to-live changes shift matching items by the *net*
            // level delta; a child group coming alive recomputes from
            // scratch (once per item — the recompute reads final child
            // state, so later probes skip it).
            cs.probes.clear();
            for (ci, &d) in self.child_cfgs[cu].iter().enumerate() {
                for &ch in &cs.out_changes[d as usize] {
                    cs.probes.push((ci as u32, ch));
                }
            }
            cs.probes.sort_unstable_by(|a, b| {
                (a.0, a.1.hash)
                    .cmp(&(b.0, b.1.hash))
                    .then_with(|| a.1.key.as_slice().cmp(b.1.key.as_slice()))
            });
            for &(ci, ch) in &cs.probes {
                let shift = match (ch.old, ch.new) {
                    (Some(o), Some(n)) => {
                        debug_assert!(n >= o, "insert-only cnt~ must not shrink");
                        Some(n as i64 - o as i64)
                    }
                    _ => None,
                };
                cs.items_buf.clear();
                {
                    let ns = &self.configs[cu];
                    match ns.child_indexes[ci as usize].get(ch.hash, &ch.key) {
                        Some(&list) => ns.postings.extend_into(list, &mut cs.items_buf),
                        None => continue,
                    }
                }
                for &item in &cs.items_buf {
                    if cs.recomputed.contains(&item) {
                        continue;
                    }
                    pl += 1;
                    let pos = self.configs[cu].item_pos[item as usize];
                    let new_level = match (shift, pos.level()) {
                        (Some(d), Some(l)) => Some((l as i64 + d) as u32),
                        (Some(_), None) => None,
                        (None, _) => {
                            cs.recomputed.insert(item);
                            compute_item_level(
                                &self.configs,
                                &self.infos,
                                &self.child_cfgs,
                                &self.db,
                                c,
                                item,
                            )
                        }
                    };
                    if pos.level() != new_level {
                        if let Entry::Vacant(e) = cs.touched.entry(pos.group) {
                            let gkey = group_key_of(&self.configs, &self.infos, &self.db, c, item);
                            let old = self.configs[cu].group(pos.group).tilde_level();
                            e.insert((gkey, fx_hash_one(&gkey), old));
                        }
                        self.configs[cu].move_item(item, new_level);
                    }
                }
            }

            // (2) Register the batch's own arrivals for this relation.
            // Probe requests are sorted by (hash, key); each run of equal
            // keys costs one KeyMap probe however many rows share it.
            // Children are already final, so new levels are absolute.
            if rel < cs.rel_batches.len() && !cs.rel_batches[rel].tids.is_empty() {
                let rb = &cs.rel_batches[rel];
                let slots = &self.plan.rels[rel].cfgs[cs.cfg_slot_row[cu]];
                let n = rb.tids.len();
                if self.configs[cu].grouped {
                    let es = slots.ebar as usize;
                    let ekeys = &rb.proj_keys[es];
                    let ehs = &rb.proj_hashes[es];
                    cs.order_buf.clear();
                    cs.order_buf
                        .extend((0..n as u32).map(|j| (ehs[j as usize], j)));
                    cs.order_buf.sort_unstable_by(|a, b| {
                        a.0.cmp(&b.0)
                            .then_with(|| {
                                ekeys[a.1 as usize]
                                    .as_slice()
                                    .cmp(ekeys[b.1 as usize].as_slice())
                            })
                            .then(a.1.cmp(&b.1))
                    });
                    let mut i = 0usize;
                    while i < n {
                        let (eh, j0) = cs.order_buf[i];
                        let ebar = ekeys[j0 as usize];
                        let mut end = i + 1;
                        while end < n {
                            let (h2, j2) = cs.order_buf[end];
                            if h2 != eh || ekeys[j2 as usize] != ebar {
                                break;
                            }
                            end += 1;
                        }
                        // One intern + one feq bump per distinct ebar run.
                        let (gt, created) = {
                            let ns = &mut self.configs[cu];
                            let (gt, created) = ns.grouped_data.intern(&mut ns.postings, eh, ebar);
                            ns.grouped_data.feq[gt as usize] += (end - i) as u64;
                            let base = ns.grouped_data.base[gt as usize];
                            for &(_, j) in &cs.order_buf[i..end] {
                                ns.postings.push(base, rb.tids[j as usize]);
                            }
                            (gt, created)
                        };
                        let feq = self.configs[cu].grouped_data.feq[gt as usize];
                        let feq_level = level_of(feq as u128).expect("feq >= 1");
                        let mut level = Some(feq_level);
                        for (ci, &slot) in slots.children.iter().enumerate() {
                            let k = rb.proj_keys[slot as usize][j0 as usize];
                            let h = rb.proj_hashes[slot as usize][j0 as usize];
                            let child = self.child_cfgs[cu][ci] as usize;
                            level = match (level, self.configs[child].tilde_level_of(h, &k)) {
                                (Some(s), Some(l)) => Some(s + l),
                                _ => None,
                            };
                        }
                        let gkey = rb.proj_keys[slots.key as usize][j0 as usize];
                        let gh = rb.proj_hashes[slots.key as usize][j0 as usize];
                        if created {
                            for (ci, &slot) in slots.children.iter().enumerate() {
                                let k = rb.proj_keys[slot as usize][j0 as usize];
                                let h = rb.proj_hashes[slot as usize][j0 as usize];
                                self.configs[cu].child_index_push(ci, h, k, gt);
                            }
                            let g = self.configs[cu].group_for(gh, gkey);
                            if let Entry::Vacant(e) = cs.touched.entry(g) {
                                let old = self.configs[cu].group(g).tilde_level();
                                e.insert((gkey, gh, old));
                            }
                            self.configs[cu].place_new_item(gt, g, level);
                        } else {
                            // Existing group tuple: the absolute final
                            // level overrides any step-(1) shift.
                            let pos = self.configs[cu].item_pos[gt as usize];
                            if pos.level() != level {
                                if let Entry::Vacant(e) = cs.touched.entry(pos.group) {
                                    let old = self.configs[cu].group(pos.group).tilde_level();
                                    e.insert((gkey, gh, old));
                                }
                                self.configs[cu].move_item(gt, level);
                            }
                        }
                        i = end;
                    }
                } else {
                    // Plain configuration: per child, coalesced child-index
                    // pushes plus one cnt~ lookup per distinct key run,
                    // accumulated into per-row levels.
                    cs.levels.clear();
                    cs.levels.resize(n, Some(0));
                    for (ci, &slot) in slots.children.iter().enumerate() {
                        let keys = &rb.proj_keys[slot as usize];
                        let hs = &rb.proj_hashes[slot as usize];
                        cs.order_buf.clear();
                        cs.order_buf
                            .extend((0..n as u32).map(|j| (hs[j as usize], j)));
                        cs.order_buf.sort_unstable_by(|a, b| {
                            a.0.cmp(&b.0)
                                .then_with(|| {
                                    keys[a.1 as usize]
                                        .as_slice()
                                        .cmp(keys[b.1 as usize].as_slice())
                                })
                                .then(a.1.cmp(&b.1))
                        });
                        let child = self.child_cfgs[cu][ci] as usize;
                        let mut i = 0usize;
                        while i < n {
                            let (h, j0) = cs.order_buf[i];
                            let k = keys[j0 as usize];
                            let mut end = i + 1;
                            while end < n {
                                let (h2, j2) = cs.order_buf[end];
                                if h2 != h || keys[j2 as usize] != k {
                                    break;
                                }
                                end += 1;
                            }
                            {
                                let ns = &mut self.configs[cu];
                                let list = {
                                    let NodeState {
                                        child_indexes,
                                        postings,
                                        ..
                                    } = ns;
                                    *child_indexes[ci]
                                        .get_or_insert_with(h, k, || postings.new_list())
                                        .0
                                };
                                // Within a run, j ascends (sort tiebreak),
                                // so posting order stays tuple-id order.
                                for &(_, j) in &cs.order_buf[i..end] {
                                    ns.postings.push(list, rb.tids[j as usize]);
                                }
                            }
                            let t = self.configs[child].tilde_level_of(h, &k);
                            for &(_, j) in &cs.order_buf[i..end] {
                                cs.levels[j as usize] = match (cs.levels[j as usize], t) {
                                    (Some(s), Some(l)) => Some(s + l),
                                    _ => None,
                                };
                            }
                            i = end;
                        }
                    }
                    // Group assignment, again one probe per distinct key.
                    let gkeys = &rb.proj_keys[slots.key as usize];
                    let ghs = &rb.proj_hashes[slots.key as usize];
                    cs.order_buf.clear();
                    cs.order_buf
                        .extend((0..n as u32).map(|j| (ghs[j as usize], j)));
                    cs.order_buf.sort_unstable_by(|a, b| {
                        a.0.cmp(&b.0)
                            .then_with(|| {
                                gkeys[a.1 as usize]
                                    .as_slice()
                                    .cmp(gkeys[b.1 as usize].as_slice())
                            })
                            .then(a.1.cmp(&b.1))
                    });
                    cs.gids.clear();
                    cs.gids.resize(n, 0);
                    let mut i = 0usize;
                    while i < n {
                        let (h, j0) = cs.order_buf[i];
                        let k = gkeys[j0 as usize];
                        let mut end = i + 1;
                        while end < n {
                            let (h2, j2) = cs.order_buf[end];
                            if h2 != h || gkeys[j2 as usize] != k {
                                break;
                            }
                            end += 1;
                        }
                        let g = self.configs[cu].group_for(h, k);
                        if let Entry::Vacant(e) = cs.touched.entry(g) {
                            let old = self.configs[cu].group(g).tilde_level();
                            e.insert((k, h, old));
                        }
                        for &(_, j) in &cs.order_buf[i..end] {
                            cs.gids[j as usize] = g;
                        }
                        i = end;
                    }
                    // Plain item ids are tuple ids: place in id order.
                    for j in 0..n {
                        self.configs[cu].place_new_item(rb.tids[j], cs.gids[j], cs.levels[j]);
                    }
                }
            }

            // (3) Record this configuration's net cnt~ changes for the
            // parents' pass.
            for (&g, &(key, hash, old)) in &cs.touched {
                let new = self.configs[cu].group(g).tilde_level();
                if new != old {
                    tc += 1;
                    cs.out_changes[cu].push(TildeChange {
                        key,
                        hash,
                        old,
                        new,
                    });
                }
            }
        }
        self.stats.propagation_loops += pl;
        self.stats.tilde_changes += tc;
        accepted
    }

    /// Deletes a tuple from relation `rel`; returns the id it occupied, or
    /// `None` if it was not present (set semantics — no index work
    /// happens).
    ///
    /// The exact mirror of [`insert`](DynamicIndex::insert): the tuple is
    /// unlinked from every configuration's child indexes and weight
    /// buckets, and `cnt~` *decreases* cascade upward through the same
    /// shared-configuration propagation (delta shifts run with a negative
    /// shift). Grouped configurations decrement `feq`; a group tuple whose
    /// `feq` reaches zero parks in the zero list with weight 0 — still
    /// interned, so a later re-insert of the same `ē` projection revives
    /// it in place.
    ///
    /// Cost: `O(log N)` amortized for the cascade, plus the child-index
    /// unlink scans (`O(matching-list length)` — the term insert-only
    /// streams never pay).
    pub fn delete(&mut self, rel: usize, tuple: &[Value]) -> Option<TupleId> {
        let tid = self.db.relation_mut(rel).remove(tuple)?;
        self.stats.deletes += 1;
        self.scratch.fill(tuple, &self.plan.rels[rel].sets);
        let mut pl = 0u64;
        let mut tc = 0u64;
        for (i, &cfg) in self.rel_cfgs[rel].iter().enumerate() {
            cfg_delete(
                &mut self.configs,
                &self.infos,
                &self.child_cfgs,
                &self.prop_targets,
                &self.db,
                &self.scratch,
                &self.plan.rels[rel].cfgs[i],
                cfg,
                tid,
                &mut pl,
                &mut tc,
                &mut self.pools,
            );
        }
        self.stats.propagation_loops += pl;
        self.stats.tilde_changes += tc;
        Some(tid)
    }

    /// Estimated heap bytes of the whole index (structures + storage).
    ///
    /// Configurations are shared across rooted trees, so this is the real
    /// footprint, not `n` trees' worth of copies.
    pub fn heap_size(&self) -> usize {
        self.db.heap_size()
            + self.configs.iter().map(HeapSize::heap_size).sum::<usize>()
            + self.configs.capacity() * std::mem::size_of::<NodeState>()
    }

    /// [`heap_size`](DynamicIndex::heap_size) as a ledger: one line per
    /// part of each relation and of each configuration (owner
    /// `relation<-parent`), and one for the `Vec` headers that hold them.
    /// The lines sum to `heap_size()` exactly.
    pub fn heap_breakdown(&self) -> Vec<HeapLine> {
        let line = |owner: &str, (part, bytes)| HeapLine {
            owner: owner.to_string(),
            part,
            bytes,
        };
        let mut lines = Vec::new();
        let mut in_relations = 0;
        for r in self.db.iter() {
            in_relations += r.heap_size();
            lines.extend(r.heap_parts().map(|p| line(r.name(), p)));
        }
        for (ns, info) in self.configs.iter().zip(&self.infos) {
            let parent = info.parent.map_or("root", |p| self.db.relation(p).name());
            let owner = format!("{}<-{parent}", self.db.relation(info.relation).name());
            lines.extend(ns.heap_parts().map(|p| line(&owner, p)));
        }
        let headers = self.db.heap_size() - in_relations
            + self.configs.capacity() * std::mem::size_of::<NodeState>();
        lines.push(line("index", ("index.headers", headers)));
        lines
    }
}

/// One line of [`DynamicIndex::heap_breakdown`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HeapLine {
    /// The relation or configuration that owns the bytes.
    pub owner: String,
    /// Which structure of the owner, e.g. `relation.dedup` or
    /// `config.child_index_tables`.
    pub part: &'static str,
    /// Capacity-based heap bytes, as [`HeapSize`] counts them.
    pub bytes: usize,
}

/// Inserts tuple `tid` into one (relation, parent) configuration.
#[allow(clippy::too_many_arguments)]
fn cfg_insert(
    configs: &mut [NodeState],
    infos: &[NodeInfo],
    child_cfgs: &[Vec<u32>],
    prop_targets: &[Vec<(u32, u32)>],
    db: &Database,
    proj: &Projections,
    slots: &CfgSlots,
    cfg: u32,
    tid: TupleId,
    pl: &mut u64,
    tc: &mut u64,
    pools: &mut Pools,
) {
    if configs[cfg as usize].grouped {
        grouped_insert(
            configs,
            infos,
            child_cfgs,
            prop_targets,
            db,
            proj,
            slots,
            cfg,
            tid,
            pl,
            tc,
            pools,
        );
    } else {
        plain_insert(
            configs,
            infos,
            child_cfgs,
            prop_targets,
            db,
            proj,
            slots,
            cfg,
            tid,
            pl,
            tc,
            pools,
        );
    }
}

/// Deletes tuple `tid` from one (relation, parent) configuration.
#[allow(clippy::too_many_arguments)]
fn cfg_delete(
    configs: &mut [NodeState],
    infos: &[NodeInfo],
    child_cfgs: &[Vec<u32>],
    prop_targets: &[Vec<(u32, u32)>],
    db: &Database,
    proj: &Projections,
    slots: &CfgSlots,
    cfg: u32,
    tid: TupleId,
    pl: &mut u64,
    tc: &mut u64,
    pools: &mut Pools,
) {
    if configs[cfg as usize].grouped {
        grouped_delete(
            configs,
            infos,
            child_cfgs,
            prop_targets,
            db,
            proj,
            slots,
            cfg,
            tid,
            pl,
            tc,
            pools,
        );
    } else {
        plain_delete(
            configs,
            infos,
            child_cfgs,
            prop_targets,
            db,
            proj,
            slots,
            cfg,
            tid,
            pl,
            tc,
            pools,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn plain_delete(
    configs: &mut [NodeState],
    infos: &[NodeInfo],
    child_cfgs: &[Vec<u32>],
    prop_targets: &[Vec<(u32, u32)>],
    db: &Database,
    proj: &Projections,
    slots: &CfgSlots,
    cfg: u32,
    tid: TupleId,
    pl: &mut u64,
    tc: &mut u64,
    pools: &mut Pools,
) {
    let (group_key, gk_hash) = proj.get(slots.key);
    let ns = &mut configs[cfg as usize];
    for (ci, &slot) in slots.children.iter().enumerate() {
        let (k, h) = proj.get(slot);
        ns.child_index_remove(ci, h, &k, tid);
    }
    let g = ns.item_pos[tid as usize].group;
    let old_tilde = ns.group(g).tilde_level();
    ns.remove_existing_item(tid);
    let new_tilde = ns.group(g).tilde_level();
    if old_tilde != new_tilde {
        *tc += 1;
        propagate(
            configs,
            infos,
            child_cfgs,
            prop_targets,
            db,
            cfg,
            group_key,
            gk_hash,
            old_tilde,
            new_tilde,
            pl,
            tc,
            pools,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn grouped_delete(
    configs: &mut [NodeState],
    infos: &[NodeInfo],
    child_cfgs: &[Vec<u32>],
    prop_targets: &[Vec<(u32, u32)>],
    db: &Database,
    proj: &Projections,
    slots: &CfgSlots,
    cfg: u32,
    tid: TupleId,
    pl: &mut u64,
    tc: &mut u64,
    pools: &mut Pools,
) {
    let (ebar, ebar_hash) = proj.get(slots.ebar);
    let (gt, feq) = {
        let ns = &mut configs[cfg as usize];
        let gt = *ns
            .grouped_data
            .map
            .get(ebar_hash, &ebar)
            .expect("deleted tuple's group tuple must be interned");
        let base = ns.grouped_data.base[gt as usize];
        let pos = (0..ns.postings.len(base) as u32)
            .find(|&i| ns.postings.get(base, i) == tid)
            .expect("deleted tuple must appear in its group's base list");
        ns.postings.swap_remove(base, pos);
        ns.grouped_data.feq[gt as usize] -= 1;
        (gt, ns.grouped_data.feq[gt as usize])
    };

    // New level: feq~ shrank (possibly to zero — the group tuple then
    // parks in the zero list but stays interned for revival).
    let (group_key, gk_hash) = proj.get(slots.key);
    let level = match level_of(feq as u128) {
        None => None,
        Some(feq_level) => {
            sum_child_levels_from(configs, child_cfgs, cfg, proj, slots).map(|cl| cl + feq_level)
        }
    };
    let ns = &mut configs[cfg as usize];
    if ns.item_pos[gt as usize].level() != level {
        let g = ns.item_pos[gt as usize].group;
        let old_tilde = ns.group(g).tilde_level();
        ns.move_item(gt, level);
        let new_tilde = ns.group(g).tilde_level();
        if old_tilde != new_tilde {
            *tc += 1;
            propagate(
                configs,
                infos,
                child_cfgs,
                prop_targets,
                db,
                cfg,
                group_key,
                gk_hash,
                old_tilde,
                new_tilde,
                pl,
                tc,
                pools,
            );
        }
    }
}

/// Sum of the children's `cnt~` levels over the scratch's child keys;
/// `None` when any child group is missing or empty (weight 0).
fn sum_child_levels_from(
    configs: &[NodeState],
    child_cfgs: &[Vec<u32>],
    cfg: u32,
    proj: &Projections,
    slots: &CfgSlots,
) -> Option<u32> {
    let mut sum = 0u32;
    for (ci, &slot) in slots.children.iter().enumerate() {
        let (k, h) = proj.get(slot);
        let child_cfg = child_cfgs[cfg as usize][ci];
        sum += configs[child_cfg as usize].tilde_level_of(h, &k)?;
    }
    Some(sum)
}

#[allow(clippy::too_many_arguments)]
fn plain_insert(
    configs: &mut [NodeState],
    infos: &[NodeInfo],
    child_cfgs: &[Vec<u32>],
    prop_targets: &[Vec<(u32, u32)>],
    db: &Database,
    proj: &Projections,
    slots: &CfgSlots,
    cfg: u32,
    tid: TupleId,
    pl: &mut u64,
    tc: &mut u64,
    pools: &mut Pools,
) {
    // Weight level = Σ child tilde levels (None if any child group empty).
    let level = sum_child_levels_from(configs, child_cfgs, cfg, proj, slots);
    let (group_key, gk_hash) = proj.get(slots.key);
    let ns = &mut configs[cfg as usize];
    for (ci, &slot) in slots.children.iter().enumerate() {
        let (k, h) = proj.get(slot);
        ns.child_index_push(ci, h, k, tid);
    }
    let g = ns.group_for(gk_hash, group_key);
    let old_tilde = ns.group(g).tilde_level();
    ns.place_new_item(tid, g, level);
    let new_tilde = ns.group(g).tilde_level();
    if old_tilde != new_tilde {
        *tc += 1;
        propagate(
            configs,
            infos,
            child_cfgs,
            prop_targets,
            db,
            cfg,
            group_key,
            gk_hash,
            old_tilde,
            new_tilde,
            pl,
            tc,
            pools,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn grouped_insert(
    configs: &mut [NodeState],
    infos: &[NodeInfo],
    child_cfgs: &[Vec<u32>],
    prop_targets: &[Vec<(u32, u32)>],
    db: &Database,
    proj: &Projections,
    slots: &CfgSlots,
    cfg: u32,
    tid: TupleId,
    pl: &mut u64,
    tc: &mut u64,
    pools: &mut Pools,
) {
    let (ebar, ebar_hash) = proj.get(slots.ebar);
    let (gt, created) = {
        let ns = &mut configs[cfg as usize];
        let (gt, created) = ns.grouped_data.intern(&mut ns.postings, ebar_hash, ebar);
        ns.grouped_data.feq[gt as usize] += 1;
        let base = ns.grouped_data.base[gt as usize];
        ns.postings.push(base, tid);
        (gt, created)
    };

    // The grouped node's key/child projections factor through `ē`, so the
    // tuple-level scratch entries are exactly the right keys (and hashes).
    let (group_key, gk_hash) = proj.get(slots.key);
    let feq = configs[cfg as usize].grouped_data.feq[gt as usize];
    let feq_level = level_of(feq as u128).expect("feq >= 1");
    let level =
        sum_child_levels_from(configs, child_cfgs, cfg, proj, slots).map(|cl| cl + feq_level);

    let ns = &mut configs[cfg as usize];
    if created {
        for (ci, &slot) in slots.children.iter().enumerate() {
            let (k, h) = proj.get(slot);
            ns.child_index_push(ci, h, k, gt);
        }
        let g = ns.group_for(gk_hash, group_key);
        let old_tilde = ns.group(g).tilde_level();
        ns.place_new_item(gt, g, level);
        let new_tilde = ns.group(g).tilde_level();
        if old_tilde != new_tilde {
            *tc += 1;
            propagate(
                configs,
                infos,
                child_cfgs,
                prop_targets,
                db,
                cfg,
                group_key,
                gk_hash,
                old_tilde,
                new_tilde,
                pl,
                tc,
                pools,
            );
        }
    } else {
        // feq grew; re-level only if feq~ changed the total.
        let g = ns.item_pos[gt as usize].group;
        if ns.item_pos[gt as usize].level() != level {
            let old_tilde = ns.group(g).tilde_level();
            ns.move_item(gt, level);
            let new_tilde = ns.group(g).tilde_level();
            if old_tilde != new_tilde {
                *tc += 1;
                propagate(
                    configs,
                    infos,
                    child_cfgs,
                    prop_targets,
                    db,
                    cfg,
                    group_key,
                    gk_hash,
                    old_tilde,
                    new_tilde,
                    pl,
                    tc,
                    pools,
                );
            }
        }
    }
}

/// Recomputes the weight level of an existing item of configuration `cfg`,
/// projecting and hashing the item's own values (the shared scratch only
/// covers the freshly inserted tuple).
pub(crate) fn compute_item_level(
    configs: &[NodeState],
    infos: &[NodeInfo],
    child_cfgs: &[Vec<u32>],
    db: &Database,
    cfg: u32,
    item: ItemId,
) -> Option<u32> {
    let info = &infos[cfg as usize];
    let ns = &configs[cfg as usize];
    if ns.grouped {
        let ebar = ns.grouped_data.ebar_vals[item as usize];
        let feq = ns.grouped_data.feq[item as usize];
        let feq_level = level_of(feq as u128)?;
        let mut sum = feq_level;
        for (ci, positions) in info.child_key_positions_in_ebar.iter().enumerate() {
            let k = Key::project(ebar.as_slice(), positions);
            let child_cfg = child_cfgs[cfg as usize][ci];
            sum += configs[child_cfg as usize].tilde_level_of(fx_hash_one(&k), &k)?;
        }
        Some(sum)
    } else {
        let tuple = db.relation(info.relation).tuple(item);
        let mut sum = 0u32;
        for (ci, positions) in info.child_key_positions.iter().enumerate() {
            let k = Key::project(tuple, positions);
            let child_cfg = child_cfgs[cfg as usize][ci];
            sum += configs[child_cfg as usize].tilde_level_of(fx_hash_one(&k), &k)?;
        }
        Some(sum)
    }
}

/// The group of configuration `src` at `key` changed its `cnt~` from
/// `old_ct` to `new_ct`: re-level the matching items of every parent
/// configuration, and recurse on parent groups whose own `cnt~` changed
/// (Algorithm 7 lines 8–11). Each shared configuration is updated exactly
/// once — the per-tree formulation would have repeated the identical walk
/// for every rooted tree sharing the orientation.
///
/// An item's level is the sum of its children's tilde levels (plus `feq~`
/// when grouped), and only *this* child's tilde changed, so in the common
/// `Some(o) → Some(n)` case every bucketed item simply shifts by `n - o` —
/// no re-projection, hashing, or child-map probing per item. Zero-weight
/// items are blocked by a *different* child (this one was already live)
/// and stay put. Only the `None → Some` transition (the child group just
/// came alive) needs the full per-item recompute.
#[allow(clippy::too_many_arguments)]
fn propagate(
    configs: &mut [NodeState],
    infos: &[NodeInfo],
    child_cfgs: &[Vec<u32>],
    prop_targets: &[Vec<(u32, u32)>],
    db: &Database,
    src: u32,
    key: Key,
    key_hash: u64,
    old_ct: Option<u32>,
    new_ct: Option<u32>,
    pl: &mut u64,
    tc: &mut u64,
    pools: &mut Pools,
) {
    // Signed: insertion cascades shift levels up (`n > o`), deletion
    // cascades shift them down (`n < o`).
    let shift = match (old_ct, new_ct) {
        (Some(o), Some(n)) => Some(n as i64 - o as i64),
        _ => None,
    };
    for ti in 0..prop_targets[src as usize].len() {
        let (y, ci) = prop_targets[src as usize][ti];
        // Copy the matching item list out of the arena (into a pooled
        // buffer): we mutate the target's buckets while walking it. Cost
        // is proportional to the work done anyway.
        let mut items = pools.pop_items();
        {
            let ns = &configs[y as usize];
            match ns.child_indexes[ci as usize].get(key_hash, &key) {
                Some(&list) => ns.postings.extend_into(list, &mut items),
                None => {
                    pools.push_items(items);
                    continue;
                }
            }
        }
        // Lazily capture each touched group's cnt~ before this batch.
        let mut touched = pools.pop_touched();
        for &item in &items {
            *pl += 1;
            let pos = configs[y as usize].item_pos[item as usize];
            let new_level = match (shift, pos.level()) {
                // Live item, live-to-live child change: pure arithmetic.
                // The item's level sums this child's old tilde, so it can
                // never drop below zero on a downward shift.
                (Some(d), Some(l)) => Some((l as i64 + d) as u32),
                // Zero-weight item but this child was already live:
                // another child is the blocker, nothing changes.
                (Some(_), None) => None,
                // Child group came alive (insert) or died (delete):
                // recompute from scratch.
                (None, _) => compute_item_level(configs, infos, child_cfgs, db, y, item),
            };
            debug_assert_eq!(
                new_level,
                compute_item_level(configs, infos, child_cfgs, db, y, item),
                "delta-shift disagrees with recomputed level"
            );
            if pos.level() != new_level {
                if !touched.iter().any(|(g, _, _)| *g == pos.group) {
                    let old_tilde = configs[y as usize].group(pos.group).tilde_level();
                    let gkey = group_key_of(configs, infos, db, y, item);
                    touched.push((pos.group, gkey, old_tilde));
                }
                configs[y as usize].move_item(item, new_level);
            }
        }
        pools.push_items(items);
        for i in 0..touched.len() {
            let (g, gkey, old_tilde) = touched[i];
            let new_tilde = configs[y as usize].group(g).tilde_level();
            if new_tilde != old_tilde {
                *tc += 1;
                propagate(
                    configs,
                    infos,
                    child_cfgs,
                    prop_targets,
                    db,
                    y,
                    gkey,
                    fx_hash_one(&gkey),
                    old_tilde,
                    new_tilde,
                    pl,
                    tc,
                    pools,
                );
            }
        }
        pools.push_touched(touched);
    }
}

/// The `key(e)` value of an item's group.
fn group_key_of(
    configs: &[NodeState],
    infos: &[NodeInfo],
    db: &Database,
    cfg: u32,
    item: ItemId,
) -> Key {
    let info = &infos[cfg as usize];
    let ns = &configs[cfg as usize];
    if ns.grouped {
        let ebar = ns.grouped_data.ebar_vals[item as usize];
        Key::project(ebar.as_slice(), &info.key_positions_in_ebar)
    } else {
        Key::project(db.relation(info.relation).tuple(item), &info.key_positions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_query::QueryBuilder;

    fn line3_index(grouping: bool) -> DynamicIndex {
        let mut qb = QueryBuilder::new();
        qb.relation("G1", &["A", "B"]);
        qb.relation("G2", &["B", "C"]);
        qb.relation("G3", &["C", "D"]);
        DynamicIndex::new(qb.build().unwrap(), IndexOptions { grouping }).unwrap()
    }

    /// Exhaustively verify one tree view's counts against brute-force
    /// recomputed sub-join counts.
    fn check_tree_counts(idx: &DynamicIndex, root: usize) {
        let db = idx.database();
        // For each node and each group key, cnt must equal the sum over
        // items of Π child cnt~ (· feq~ for grouped nodes).
        for rel in 0..idx.query().num_relations() {
            let cfg = idx.trees[root].cfg[rel];
            let ns = &idx.configs[cfg as usize];
            let level_of_item = |item: ItemId| {
                compute_item_level(&idx.configs, &idx.infos, &idx.child_cfgs, db, cfg, item)
            };
            for (key, &g) in ns.groups.iter() {
                let group = ns.group(g);
                let mut expect = 0u128;
                let mut count_item = |item: ItemId| {
                    if let Some(l) = level_of_item(item) {
                        expect += 1u128 << l;
                    }
                };
                for b in &group.buckets {
                    for it in ns.postings.iter(b.list) {
                        count_item(it);
                        // Stored level must match recomputed level.
                        assert_eq!(
                            ns.item_pos[it as usize].level(),
                            level_of_item(it),
                            "stale level rel={rel} item={it} key={key}"
                        );
                    }
                }
                if group.zero != rsj_common::postings::NO_LIST {
                    for it in ns.postings.iter(group.zero) {
                        count_item(it);
                        assert_eq!(
                            level_of_item(it),
                            None,
                            "zero-list item has weight rel={rel} item={it}"
                        );
                    }
                }
                assert_eq!(group.cnt, expect, "cnt mismatch rel={rel} key={key}");
            }
        }
    }

    #[test]
    fn single_inserts_build_consistent_counts() {
        let mut idx = line3_index(false);
        idx.insert(0, &[1, 10]);
        idx.insert(1, &[10, 20]);
        idx.insert(2, &[20, 30]);
        for root in 0..3 {
            check_tree_counts(&idx, root);
        }
        // Tree rooted at G1: its single tuple's level = cnt~ of G2 subtree.
        // G2's group for B=10 has one tuple whose level = cnt~ of G3's C=20
        // group = 1 (level 0). So G1's item level = 0 (weight 1): one join
        // result, no dummies.
        let root_group = idx.state_at(0, 0).group(0);
        assert_eq!(root_group.cnt, 1);
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut idx = line3_index(false);
        assert!(idx.insert(0, &[1, 2]).is_some());
        assert!(idx.insert(0, &[1, 2]).is_none());
        assert_eq!(idx.stats().inserts, 1);
    }

    #[test]
    fn configurations_are_shared_across_trees() {
        // Line-3 has 3 trees × 3 nodes = 9 node views but only
        // Σ (deg + 1) = 2 + 3 + 2 = 7 distinct (node, parent) orientations.
        let idx = line3_index(false);
        assert_eq!(idx.configs.len(), 7);
        assert_eq!(idx.trees.len(), 3);
        // The two trees rooted at G1 and G2 orient G3 the same way
        // (parent G2), so they must share the exact configuration.
        assert_eq!(idx.trees[0].cfg[2], idx.trees[1].cfg[2]);
        // G3's own tree roots it (no parent): a different configuration.
        assert_ne!(idx.trees[2].cfg[2], idx.trees[0].cfg[2]);
    }

    #[test]
    fn insert_batch_matches_single_inserts() {
        use rsj_common::rng::RsjRng;
        use rsj_storage::InputTuple;
        let mut rng = RsjRng::seed_from_u64(31);
        let mut batch: Vec<InputTuple> = Vec::new();
        for _ in 0..400 {
            batch.push(InputTuple::new(
                rng.index(3),
                vec![rng.below_u64(9), rng.below_u64(9)],
            ));
        }
        let mut one_by_one = line3_index(true);
        let mut accepted = 0u64;
        for t in &batch {
            if one_by_one.insert(t.relation, &t.values).is_some() {
                accepted += 1;
            }
        }
        let mut batched = line3_index(true);
        assert_eq!(batched.insert_batch(&batch), accepted);
        assert_eq!(batched.stats().inserts, one_by_one.stats().inserts);
        assert_eq!(
            batched.stats().propagation_loops,
            one_by_one.stats().propagation_loops
        );
        for root in 0..3 {
            check_tree_counts(&batched, root);
        }
        // Same ids, same counts: the root group counts agree everywhere.
        for root in 0..3 {
            let a = batched.state_at(root, root);
            let b = one_by_one.state_at(root, root);
            let h = fx_hash_one(&Key::EMPTY);
            assert_eq!(
                a.group_id(h, &Key::EMPTY).map(|g| a.group(g).cnt),
                b.group_id(h, &Key::EMPTY).map(|g| b.group(g).cnt),
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(12))]

        /// Property form of `insert_batch_matches_single_inserts`, extended
        /// across the columnar path: for random batches, (a) a
        /// `ColumnarBatch` shreds back to the exact source rows, (b)
        /// tuple-at-a-time `insert_batch` and `insert_columnar` accept the
        /// same tuples and produce semantically identical index state, and
        /// (c) the brute-force count invariants hold on the columnar
        /// result.
        #[test]
        fn prop_columnar_batches_match_row_path(
            seed in 0u64..1u64 << 40,
            n in 1usize..260,
            split in 0usize..260,
            domain in 2u64..10,
            grouping in proptest::prelude::any::<bool>(),
        ) {
            use proptest::prelude::prop_assert_eq;
            use rsj_common::rng::RsjRng;
            use rsj_storage::InputTuple;
            let mut rng = RsjRng::seed_from_u64(seed);
            let rows: Vec<InputTuple> = (0..n)
                .map(|_| {
                    InputTuple::new(
                        rng.index(3),
                        vec![rng.below_u64(domain), rng.below_u64(domain)],
                    )
                })
                .collect();
            let (pre, batch) = rows.split_at(split.min(n));
            let cb = ColumnarBatch::from_rows(batch);
            prop_assert_eq!(cb.to_rows(), batch.to_vec());

            let mut row_idx = line3_index(grouping);
            let mut col_idx = line3_index(grouping);
            prop_assert_eq!(row_idx.insert_batch(pre), col_idx.insert_batch(pre));
            let accepted = row_idx.insert_batch(batch);
            prop_assert_eq!(col_idx.insert_columnar(&cb), accepted);
            prop_assert_eq!(col_idx.stats().inserts, row_idx.stats().inserts);
            for root in 0..3 {
                check_tree_counts(&col_idx, root);
            }
            assert_same_group_state(&row_idx, &col_idx);
        }
    }

    /// The columnar path's equivalence contract: every configuration holds
    /// the same groups (by key) with the same `cnt` and `cnt~`, and grouped
    /// configurations intern the same `ē` tuples with the same `feq` —
    /// internal ids and posting order may differ.
    fn assert_same_group_state(a: &DynamicIndex, b: &DynamicIndex) {
        assert_eq!(a.configs.len(), b.configs.len());
        for (cfg, (ca, cb)) in a.configs.iter().zip(&b.configs).enumerate() {
            assert_eq!(ca.groups.len(), cb.groups.len(), "group count cfg={cfg}");
            for (key, &g) in ca.groups.iter() {
                let h = fx_hash_one(&key);
                let bg = cb.group_id(h, &key).expect("group present in both");
                assert_eq!(
                    ca.group(g).cnt,
                    cb.group(bg).cnt,
                    "cnt mismatch cfg={cfg} key={key}"
                );
                assert_eq!(
                    ca.group(g).tilde_level(),
                    cb.group(bg).tilde_level(),
                    "cnt~ mismatch cfg={cfg} key={key}"
                );
            }
            assert_eq!(ca.grouped, cb.grouped);
            if ca.grouped {
                assert_eq!(ca.grouped_data.map.len(), cb.grouped_data.map.len());
                for (ebar, &gt) in ca.grouped_data.map.iter() {
                    let h = fx_hash_one(&ebar);
                    let bgt = *cb
                        .grouped_data
                        .map
                        .get(h, &ebar)
                        .expect("ebar interned in both");
                    assert_eq!(
                        ca.grouped_data.feq[gt as usize], cb.grouped_data.feq[bgt as usize],
                        "feq mismatch cfg={cfg} ebar={ebar}"
                    );
                }
            }
        }
    }

    #[test]
    fn columnar_matches_row_path_semantics() {
        use rsj_common::rng::RsjRng;
        use rsj_storage::InputTuple;
        for grouping in [false, true] {
            let mut rng = RsjRng::seed_from_u64(97);
            let mut rows: Vec<InputTuple> = Vec::new();
            for _ in 0..500 {
                rows.push(InputTuple::new(
                    rng.index(3),
                    vec![rng.below_u64(8), rng.below_u64(8)],
                ));
            }
            let mut row_idx = line3_index(grouping);
            let accepted = row_idx.insert_batch(&rows);
            let mut col_idx = line3_index(grouping);
            assert_eq!(
                col_idx.insert_columnar(&ColumnarBatch::from_rows(&rows)),
                accepted
            );
            assert_eq!(col_idx.stats().inserts, row_idx.stats().inserts);
            for root in 0..3 {
                check_tree_counts(&col_idx, root);
            }
            assert_same_group_state(&row_idx, &col_idx);
        }
        // And the trivial case: an empty batch is a no-op.
        let mut idx = line3_index(true);
        assert_eq!(idx.insert_columnar(&ColumnarBatch::new()), 0);
        assert_eq!(idx.stats().inserts, 0);
    }

    #[test]
    fn columnar_on_top_of_existing_state_matches() {
        // Batch boundaries: seed state via the row path, then layer several
        // columnar batches on top — exercising the amortized re-level pass
        // over pre-batch items (net delta shifts and came-alive recomputes).
        use rsj_common::rng::RsjRng;
        use rsj_storage::InputTuple;
        fn gen(rng: &mut RsjRng, n: usize) -> Vec<InputTuple> {
            (0..n)
                .map(|_| InputTuple::new(rng.index(3), vec![rng.below_u64(7), rng.below_u64(7)]))
                .collect()
        }
        for grouping in [false, true] {
            let mut rng = RsjRng::seed_from_u64(4242);
            let seed_rows = gen(&mut rng, 150);
            let batches: Vec<Vec<InputTuple>> = (0..4).map(|_| gen(&mut rng, 120)).collect();
            let mut row_idx = line3_index(grouping);
            row_idx.insert_batch(&seed_rows);
            let mut col_idx = line3_index(grouping);
            col_idx.insert_batch(&seed_rows);
            for b in &batches {
                row_idx.insert_batch(b);
                col_idx.insert_columnar(&ColumnarBatch::from_rows(b));
                for root in 0..3 {
                    check_tree_counts(&col_idx, root);
                }
            }
            assert_same_group_state(&row_idx, &col_idx);
        }
    }

    #[test]
    fn columnar_grouped_query_matches_row_path() {
        // Example 4.5 shape — Rb is genuinely grouped, so the columnar
        // grouped path (ebar-run interning, feq bulk bumps, absolute
        // re-levels) gets real coverage, including skewed feq doublings.
        use rsj_common::rng::RsjRng;
        use rsj_storage::InputTuple;
        let build = || {
            let mut qb = QueryBuilder::new();
            qb.relation("Ra", &["X", "Y"]);
            qb.relation("Rb", &["Y", "Z", "W"]);
            qb.relation("Rc", &["W", "U"]);
            DynamicIndex::new(qb.build().unwrap(), IndexOptions { grouping: true }).unwrap()
        };
        let mut rng = RsjRng::seed_from_u64(777);
        let mut rows: Vec<InputTuple> = Vec::new();
        for _ in 0..600 {
            let rel = rng.index(3);
            let t = if rel == 1 {
                // Skew Y and W so many Rb tuples share one ē projection.
                vec![rng.below_u64(3), rng.below_u64(40), rng.below_u64(3)]
            } else {
                vec![rng.below_u64(3), rng.below_u64(12)]
            };
            rows.push(InputTuple::new(rel, t));
        }
        let (seed_rows, batch_rows) = rows.split_at(200);
        let mut row_idx = build();
        let mut col_idx = build();
        row_idx.insert_batch(seed_rows);
        col_idx.insert_batch(seed_rows);
        row_idx.insert_batch(batch_rows);
        col_idx.insert_columnar(&ColumnarBatch::from_rows(batch_rows));
        for root in 0..3 {
            check_tree_counts(&col_idx, root);
        }
        assert_same_group_state(&row_idx, &col_idx);
    }

    #[test]
    fn random_inserts_keep_invariants() {
        use rsj_common::rng::RsjRng;
        let mut rng = RsjRng::seed_from_u64(42);
        for grouping in [false, true] {
            let mut idx = line3_index(grouping);
            for _ in 0..600 {
                let rel = rng.index(3);
                let a = rng.below_u64(12);
                let b = rng.below_u64(12);
                idx.insert(rel, &[a, b]);
            }
            for root in 0..3 {
                check_tree_counts(&idx, root);
            }
        }
    }

    #[test]
    fn root_group_counts_bound_join_size() {
        // Root group cnt must be >= true join size (it's cnt with children
        // rounded up) for every rooted tree.
        use rsj_common::rng::RsjRng;
        let mut rng = RsjRng::seed_from_u64(7);
        let mut idx = line3_index(false);
        let mut tuples: Vec<(usize, Vec<u64>)> = Vec::new();
        for _ in 0..300 {
            let rel = rng.index(3);
            let t = vec![rng.below_u64(8), rng.below_u64(8)];
            if idx.insert(rel, &t).is_some() {
                tuples.push((rel, t));
            }
        }
        // Brute-force join size.
        let mut true_size = 0u128;
        for (r1, t1) in tuples.iter().filter(|(r, _)| *r == 0) {
            for (r2, t2) in tuples.iter().filter(|(r, _)| *r == 1) {
                for (r3, t3) in tuples.iter().filter(|(r, _)| *r == 2) {
                    let _ = (r1, r2, r3);
                    if t1[1] == t2[0] && t2[1] == t3[0] {
                        true_size += 1;
                    }
                }
            }
        }
        let empty_hash = fx_hash_one(&Key::EMPTY);
        for root in 0..3 {
            let ns = idx.state_at(root, root);
            if let Some(g) = ns.group_id(empty_hash, &Key::EMPTY) {
                let cnt = ns.group(g).cnt;
                assert!(
                    cnt >= true_size,
                    "root {root}: cnt {cnt} < true {true_size}"
                );
                // Lemma 4.4-style bound: cnt <= 2^{2|T|} * true (loose).
                if true_size > 0 {
                    assert!(
                        cnt <= true_size * 64,
                        "root {root}: cnt {cnt} too loose vs {true_size}"
                    );
                }
            } else {
                assert_eq!(true_size, 0);
            }
        }
    }

    #[test]
    fn grouping_reduces_propagation() {
        // Example 4.5 shape: Ra(X,Y) ⋈ Rb(Y,Z,W) ⋈ Rc(W,U). Rb is
        // groupable; inserting many Ra tuples with one Y value must
        // propagate through groups, not base tuples.
        let build = |grouping: bool| {
            let mut qb = QueryBuilder::new();
            qb.relation("Ra", &["X", "Y"]);
            qb.relation("Rb", &["Y", "Z", "W"]);
            qb.relation("Rc", &["W", "U"]);
            DynamicIndex::new(qb.build().unwrap(), IndexOptions { grouping }).unwrap()
        };
        let feed = |idx: &mut DynamicIndex| {
            // Many Rb tuples sharing (Y=1, W=2) with distinct Z.
            for z in 0..50u64 {
                idx.insert(1, &[1, z, 2]);
            }
            idx.insert(2, &[2, 7]);
            // Ra degree doubling on Y=1 forces repeated propagation.
            for x in 0..64u64 {
                idx.insert(0, &[x, 1]);
            }
            idx.stats().propagation_loops
        };
        let mut plain = build(false);
        let mut grouped = build(true);
        let loops_plain = feed(&mut plain);
        let loops_grouped = feed(&mut grouped);
        assert!(
            loops_grouped < loops_plain,
            "grouped {loops_grouped} !< plain {loops_plain}"
        );
    }

    #[test]
    fn delete_reverses_insert_counts() {
        let mut idx = line3_index(false);
        idx.insert(0, &[1, 10]);
        idx.insert(1, &[10, 20]);
        idx.insert(2, &[20, 30]);
        assert_eq!(idx.state_at(0, 0).group(0).cnt, 1);
        // Deleting the leaf empties the root count again.
        assert!(idx.delete(2, &[20, 30]).is_some());
        assert_eq!(idx.state_at(0, 0).group(0).cnt, 0);
        assert_eq!(idx.stats().deletes, 1);
        for root in 0..3 {
            check_tree_counts(&idx, root);
        }
        // Deleting an absent tuple is a no-op.
        assert!(idx.delete(2, &[20, 30]).is_none());
        assert_eq!(idx.stats().deletes, 1);
    }

    #[test]
    fn random_interleaved_deletes_keep_invariants() {
        use rsj_common::rng::RsjRng;
        for grouping in [false, true] {
            let mut rng = RsjRng::seed_from_u64(321);
            let mut idx = line3_index(grouping);
            let mut live: Vec<(usize, Vec<Value>)> = Vec::new();
            for step in 0..800 {
                if !live.is_empty() && rng.unit() < 0.35 {
                    let v = rng.index(live.len());
                    let (rel, t) = live.swap_remove(v);
                    assert!(idx.delete(rel, &t).is_some(), "live tuple must delete");
                } else {
                    let rel = rng.index(3);
                    let t = vec![rng.below_u64(9), rng.below_u64(9)];
                    if idx.insert(rel, &t).is_some() {
                        live.push((rel, t));
                    }
                }
                if step % 100 == 99 {
                    for root in 0..3 {
                        check_tree_counts(&idx, root);
                    }
                }
            }
            for root in 0..3 {
                check_tree_counts(&idx, root);
            }
        }
    }

    #[test]
    fn delete_then_reinsert_matches_fresh_build() {
        // Round-trip: insert a set, delete half, re-insert it. Counts (the
        // sampling-relevant state) must match an index built fresh from the
        // final live set — ids differ, weights must not.
        use rsj_common::rng::RsjRng;
        for grouping in [false, true] {
            let mut rng = RsjRng::seed_from_u64(77);
            let mut tuples: Vec<(usize, Vec<Value>)> = Vec::new();
            for _ in 0..200 {
                tuples.push((rng.index(3), vec![rng.below_u64(6), rng.below_u64(6)]));
            }
            let mut idx = line3_index(grouping);
            for (rel, t) in &tuples {
                idx.insert(*rel, t);
            }
            for (rel, t) in tuples.iter().step_by(2) {
                idx.delete(*rel, t);
            }
            for (rel, t) in tuples.iter().step_by(2) {
                idx.insert(*rel, t);
            }
            let mut fresh = line3_index(grouping);
            for (rel, t) in &tuples {
                fresh.insert(*rel, t);
            }
            for root in 0..3 {
                check_tree_counts(&idx, root);
                // Per-group counts agree between round-tripped and fresh.
                for rel in 0..3 {
                    let a = idx.state_at(root, rel);
                    let b = fresh.state_at(root, rel);
                    assert_eq!(a.groups.len(), b.groups.len());
                    for (key, &g) in a.groups.iter() {
                        let h = fx_hash_one(&key);
                        let bg = b.group_id(h, &key).expect("group in fresh index");
                        assert_eq!(
                            a.group(g).cnt,
                            b.group(bg).cnt,
                            "cnt mismatch root={root} rel={rel} key={key}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn delete_everything_returns_to_empty_counts() {
        use rsj_common::rng::RsjRng;
        for grouping in [false, true] {
            let mut rng = RsjRng::seed_from_u64(13);
            let mut idx = line3_index(grouping);
            let mut live = Vec::new();
            for _ in 0..300 {
                let rel = rng.index(3);
                let t = vec![rng.below_u64(5), rng.below_u64(5)];
                if idx.insert(rel, &t).is_some() {
                    live.push((rel, t));
                }
            }
            for (rel, t) in &live {
                assert!(idx.delete(*rel, t).is_some());
            }
            assert_eq!(idx.database().total_tuples(), 0);
            for root in 0..3 {
                check_tree_counts(&idx, root);
                for rel in 0..3 {
                    let ns = idx.state_at(root, rel);
                    for (_, &g) in ns.groups.iter() {
                        assert_eq!(ns.group(g).cnt, 0);
                    }
                }
            }
        }
    }

    #[test]
    fn cyclic_query_rejected() {
        let mut qb = QueryBuilder::new();
        qb.relation("R1", &["X", "Y"]);
        qb.relation("R2", &["Y", "Z"]);
        qb.relation("R3", &["Z", "X"]);
        assert!(matches!(
            DynamicIndex::new(qb.build().unwrap(), IndexOptions::default()),
            Err(IndexError::Cyclic)
        ));
    }

    #[test]
    fn heap_size_monotone() {
        let mut idx = line3_index(true);
        let before = idx.heap_size();
        for i in 0..200u64 {
            idx.insert(0, &[i, i % 5]);
            idx.insert(1, &[i % 5, i % 7]);
            idx.insert(2, &[i % 7, i]);
        }
        assert!(idx.heap_size() > before);
    }

    #[test]
    fn projection_plan_dedupes_shared_sets() {
        // In line-3, G2's key(e) in the orientation parented by G3 equals
        // its child-key projection of G1's orientation (both {B}), so the
        // plan must hold strictly fewer sets than (roles × configs).
        let idx = line3_index(false);
        for rel in 0..3 {
            let rp = &idx.plan.rels[rel];
            let roles: usize = rp
                .cfgs
                .iter()
                .map(|t| 1 + t.children.len() + usize::from(t.ebar != NO_SLOT))
                .sum();
            assert!(
                rp.sets.len() < roles,
                "rel {rel}: {} sets for {roles} roles",
                rp.sets.len()
            );
            // Every set is genuinely distinct.
            for (i, a) in rp.sets.iter().enumerate() {
                for b in rp.sets.iter().skip(i + 1) {
                    assert_ne!(a, b);
                }
            }
        }
    }

    #[test]
    fn star_query_counts() {
        // Star-3: G1(A,B1), G2(A,B2), G3(A,B3); root-group cnt of the tree
        // rooted at G1 must be Π cnt~ per hub value summed over G1 tuples.
        let mut qb = QueryBuilder::new();
        qb.relation("G1", &["A", "B1"]);
        qb.relation("G2", &["A", "B2"]);
        qb.relation("G3", &["A", "B3"]);
        let mut idx = DynamicIndex::new(qb.build().unwrap(), IndexOptions::default()).unwrap();
        // Hub 5: 3 G2 tuples (cnt~ 4), 2 G3 tuples (cnt~ 2), 1 G1 tuple.
        for b in 0..3u64 {
            idx.insert(1, &[5, b]);
        }
        for b in 0..2u64 {
            idx.insert(2, &[5, b]);
        }
        idx.insert(0, &[5, 0]);
        for root in 0..3 {
            check_tree_counts(&idx, root);
        }
        // Depending on the join-tree shape GYO picked, the root group count
        // is a product of rounded counts along the tree — at least the true
        // join size 6, at most 8*2 = 16 for any shape.
        let ns = idx.state_at(0, 0);
        let cnt = ns
            .group(ns.group_id(fx_hash_one(&Key::EMPTY), &Key::EMPTY).unwrap())
            .cnt;
        assert!((6..=16).contains(&cnt), "cnt={cnt}");
    }

    #[test]
    fn index_snapshot_round_trips_byte_identically() {
        // The durability contract: restoring a snapshot into a freshly
        // built index reproduces the original *physically* — the snapshot
        // re-serializes byte-for-byte, and stays byte-locked under any
        // identical further operation sequence (so positional sampling
        // draws see the very same posting order).
        use rsj_common::rng::RsjRng;
        use rsj_storage::InputTuple;
        for grouping in [false, true] {
            let mut rng = RsjRng::seed_from_u64(0xD1CE);
            let mut idx = line3_index(grouping);
            let mut live: Vec<(usize, Vec<Value>)> = Vec::new();
            // Mixed history: row inserts, deletes, then a columnar batch.
            for _ in 0..250 {
                if !live.is_empty() && rng.unit() < 0.3 {
                    let v = rng.index(live.len());
                    let (rel, t) = live.swap_remove(v);
                    idx.delete(rel, &t);
                } else {
                    let rel = rng.index(3);
                    let t = vec![rng.below_u64(7), rng.below_u64(7)];
                    if idx.insert(rel, &t).is_some() {
                        live.push((rel, t));
                    }
                }
            }
            let batch: Vec<InputTuple> = (0..120)
                .map(|_| InputTuple::new(rng.index(3), vec![rng.below_u64(7), rng.below_u64(7)]))
                .collect();
            idx.insert_columnar(&ColumnarBatch::from_rows(&batch));

            let mut e = Encoder::new();
            idx.snapshot_state_to(&mut e);
            let bytes = e.into_bytes();

            let mut restored = line3_index(grouping);
            let mut d = Decoder::new(&bytes);
            restored.restore_state_from(&mut d).unwrap();
            d.finish().unwrap();

            // Re-serialization is byte-identical...
            let mut e2 = Encoder::new();
            restored.snapshot_state_to(&mut e2);
            assert_eq!(bytes, e2.into_bytes());

            // ...and stays that way after identical further mutations,
            // with return values (tuple ids!) in lockstep.
            let more: Vec<InputTuple> = (0..150)
                .map(|_| InputTuple::new(rng.index(3), vec![rng.below_u64(7), rng.below_u64(7)]))
                .collect();
            assert_eq!(
                idx.insert_columnar(&ColumnarBatch::from_rows(&more)),
                restored.insert_columnar(&ColumnarBatch::from_rows(&more))
            );
            for (rel, t) in live.iter().take(20) {
                assert_eq!(idx.delete(*rel, t), restored.delete(*rel, t));
            }
            let (mut ea, mut eb) = (Encoder::new(), Encoder::new());
            idx.snapshot_state_to(&mut ea);
            restored.snapshot_state_to(&mut eb);
            assert_eq!(ea.into_bytes(), eb.into_bytes());
            for root in 0..3 {
                check_tree_counts(&restored, root);
            }
        }
    }

    #[test]
    fn index_snapshot_rejects_mismatched_topology() {
        let mut idx = line3_index(true);
        idx.insert(0, &[1, 2]);
        idx.insert(1, &[2, 3]);
        let mut e = Encoder::new();
        idx.snapshot_state_to(&mut e);
        let bytes = e.into_bytes();
        // Different query shape (same relation count, wider arities).
        let mut qb = QueryBuilder::new();
        qb.relation("Ra", &["X", "Y", "Z"]);
        qb.relation("Rb", &["Z", "W", "U"]);
        qb.relation("Rc", &["U", "V", "T"]);
        let mut other = DynamicIndex::new(qb.build().unwrap(), IndexOptions::default()).unwrap();
        let mut d = Decoder::new(&bytes);
        assert!(other.restore_state_from(&mut d).is_err());
        // Truncated payload.
        let mut fresh = line3_index(true);
        let mut d = Decoder::new(&bytes[..bytes.len() - 1]);
        assert!(fresh.restore_state_from(&mut d).is_err());
        // And the happy path on the same topology still works.
        let mut ok = line3_index(true);
        let mut d = Decoder::new(&bytes);
        ok.restore_state_from(&mut d).unwrap();
        d.finish().unwrap();
    }
}
