//! Cost-based plan selection: score every candidate join tree × root
//! against observed stream statistics.
//!
//! The dynamic index's update and sampling cost depends on which join tree
//! the acyclic query is materialized over (key attributes, node degrees,
//! propagation fan-out are all tree-dependent) and, for sampling, on which
//! rooted view draws are made through (rounding slack compounds differently
//! per root). Historically every workload hard-coded the canonical GYO
//! orientation; the [`Planner`] instead enumerates candidates
//! ([`all_join_trees`]) and scores them with a documented cost model fed by
//! [`TableStatistics`] observed from the live stream.
//!
//! # The cost model
//!
//! All quantities are *expected work per stream tuple*, weighted by each
//! relation's observed traffic share. For a tree `T`, writing `deg(r)` for
//! `r`'s degree in `T`, `f(e, K)` for the observed mean fan-out of relation
//! `e` on attribute set `K` ([`RelationStats::fanout`]) and `key(e↔p)` for
//! the attributes `e` shares with its tree neighbour `p`:
//!
//! * **touch** — an insert into `r` updates `deg(r) + 1` shared
//!   configurations and writes `deg(r)²` child-index postings:
//!   `touch(r) = (deg(r) + 1) + deg(r)²`.
//! * **propagation** — a group of `r` with expected size `g = f(r,
//!   key(r↔p))` doubles its rounded count `log₂(1+g)` times over `g`
//!   inserts, i.e. at amortized rate `rate(g) = log₂(1+g)/g` per insert.
//!   Each doubling re-levels the matching items of every neighbouring
//!   orientation — `f(p, key(r↔p))` items — and may cascade:
//!   `prop(r) = Σ_{p∈nb(r)} rate(g_rp) · load(p ← r)` with
//!   `load(p ← c) = f_p + rate(f_p) · Σ_{p'∈nb(p)\{c}} load(p' ← p)`,
//!   `f_p = f(p, key(p↔c))`.
//! * **unlink** (deletes only) — removing a tuple scans the matching
//!   posting lists: `unlink(r) = Σ_{p∈nb(r)} f(p, key(r↔p))`.
//! * **sample** — one positional retrieve descends every node:
//!   `base(T) = Σ_e (1 + log₂(1 + f(e, key_e)))`; the root-dependent part
//!   is rejection slack from count rounding, which *compounds
//!   multiplicatively along every root-to-leaf chain* — a node at depth
//!   `d` sits under `d` levels of rounded products — and is amplified by
//!   the key skew ([`RelationStats::skew`]) of each rounded (non-root)
//!   node: `sample(T, root) = base(T) + Σ_{e≠root} depth_root(e) · (1/2 +
//!   log₂(skew(e, key_e(root))))`. Shallow rootings of uniform data tie
//!   on depth and the smallest id wins; under skew the best root pushes
//!   the heaviest relations towards the top of the descent.
//!
//! `total = insert_w·(touch+prop) + delete_w·δ·(touch+prop+unlink) +
//! sample_w·sample`, with `δ` the observed delete share of the stream.
//!
//! # Stability
//!
//! The canonical GYO orientation is candidate zero. A challenger tree must
//! beat it by [`Planner::hold_margin`] to displace it — without observed
//! evidence every fan-out estimate is 1.0, all candidates tie, and the
//! planner returns the canonical tree with root 0, byte-identical to the
//! historical hard-coded behaviour. Scoring is pure arithmetic over the
//! statistics (no RNG, no map iteration), so the same query + statistics
//! always yield the same [`Plan`] — the golden tests pin digests of those
//! choices.

use crate::hypergraph::Query;
use crate::join_tree::{all_join_trees, JoinTree};
use crate::rooted::{all_rooted_trees, RootedTree};
use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_storage::{RelationStats, TableStatistics};

/// Scored cost components of one `(tree, root)` candidate, in abstract
/// work units per stream tuple (comparable across candidates of the same
/// query + statistics, not across queries).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PlanCost {
    /// Expected insert work (configuration touches + propagation).
    pub insert: f64,
    /// Expected delete work, scaled by the observed delete share.
    pub delete: f64,
    /// Expected per-draw sampling work (descent + rejection slack).
    pub sample: f64,
    /// Weighted total the planner minimizes.
    pub total: f64,
}

/// The planner's output: a join tree and a preferred sampling root, plus
/// the scores that justified them.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The chosen join tree. When the winner is the canonical GYO tree
    /// this is the [`JoinTree::build`] instance verbatim (same adjacency
    /// order), so consumers reproduce the historical index layout exactly.
    pub tree: JoinTree,
    /// The rooted view sampling should draw through (repair backfill, full
    /// result sampling). Any root is statistically correct; this one
    /// minimizes the modeled slack.
    pub root: usize,
    /// The winning candidate's scores.
    pub cost: PlanCost,
    /// How many feasible `(tree, root)` pairs were scored.
    pub candidates: usize,
    /// True when the choice equals the canonical default (GYO tree,
    /// root 0) — the hard-coded orientation every workload used before the
    /// planner existed.
    pub is_canonical: bool,
}

impl Plan {
    /// The historical hard-coded choice — canonical GYO tree, root 0 —
    /// scored with no evidence. This is what [`Planner::plan`] returns on
    /// an empty [`TableStatistics`]; constructors on hot paths call this
    /// directly to skip candidate enumeration. `None` for cyclic queries *only*: an acyclic query
    /// the index cannot materialize (a key wider than the arity cap)
    /// still gets its canonical plan with a zero cost, so index
    /// construction reports the real `KeyTooWide` error instead of this
    /// function masking it as "cyclic".
    pub fn canonical(q: &Query) -> Option<Plan> {
        let tree = JoinTree::build(q)?;
        let stats = empty_statistics(q);
        let cost = Planner::default()
            .score(q, &tree, 0, &stats)
            .unwrap_or_default();
        Some(Plan {
            tree,
            root: 0,
            cost,
            candidates: 1,
            is_canonical: true,
        })
    }

    /// Serializes the plan, tree adjacency order included (see
    /// [`JoinTree::snapshot_to`] for why the order matters).
    pub fn snapshot_to(&self, enc: &mut Encoder) {
        self.tree.snapshot_to(enc);
        enc.put_usize(self.root);
        enc.put_f64(self.cost.insert);
        enc.put_f64(self.cost.delete);
        enc.put_f64(self.cost.sample);
        enc.put_f64(self.cost.total);
        enc.put_usize(self.candidates);
        enc.put_bool(self.is_canonical);
    }

    /// Reconstructs a plan from [`snapshot_to`](Plan::snapshot_to) bytes.
    pub fn restore_from(dec: &mut Decoder) -> Result<Plan, CodecError> {
        let tree = JoinTree::restore_from(dec)?;
        let root = dec.usize()?;
        if root >= tree.len() {
            return Err(CodecError::Corrupt("plan root out of range"));
        }
        Ok(Plan {
            root,
            cost: PlanCost {
                insert: dec.f64()?,
                delete: dec.f64()?,
                sample: dec.f64()?,
                total: dec.f64()?,
            },
            candidates: dec.usize()?,
            is_canonical: dec.bool()?,
            tree,
        })
    }
}

/// An empty statistics collector shaped for `q`'s relations — the
/// "no evidence" input under which the planner returns the canonical plan.
pub fn empty_statistics(q: &Query) -> TableStatistics {
    TableStatistics::new(
        &q.relations()
            .iter()
            .map(|r| r.attrs.len())
            .collect::<Vec<_>>(),
    )
}

/// Weights combining the cost components into the minimized total.
#[derive(Clone, Copy, Debug)]
pub struct CostWeights {
    /// Weight of insert work (the dominant stream cost).
    pub insert: f64,
    /// Weight of delete work (multiplied by the observed delete share, so
    /// insert-only streams ignore it automatically).
    pub delete: f64,
    /// Weight of per-draw sampling work.
    pub sample: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        // Streams are insert-dominated; a reservoir draw happens once per
        // accepted result batch stop, far less often than once per tuple.
        CostWeights {
            insert: 1.0,
            delete: 1.0,
            sample: 0.25,
        }
    }
}

/// The cost-based planner. Construct with [`Planner::default`] and call
/// [`Planner::plan`].
#[derive(Clone, Copy, Debug)]
pub struct Planner {
    /// Component weights.
    pub weights: CostWeights,
    /// Candidate-tree enumeration cap (star queries have `n^(n-2)` trees).
    pub max_trees: usize,
    /// Fractional improvement a challenger tree must show over the
    /// canonical GYO tree to displace it (root choice within a tree is not
    /// margined — switching roots is free).
    pub hold_margin: f64,
}

impl Default for Planner {
    fn default() -> Self {
        Planner {
            weights: CostWeights::default(),
            max_trees: 128,
            hold_margin: 0.10,
        }
    }
}

/// Positions (in `e`'s schema) of the attributes `e` shares with `p`,
/// sorted by attribute id — the same canonical order `rooted.rs` uses for
/// keys.
fn shared_positions(q: &Query, e: usize, p: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = q
        .relation(e)
        .attrs
        .iter()
        .copied()
        .filter(|&a| q.relation(p).contains(a))
        .collect();
    ids.sort_unstable();
    ids.iter()
        .map(|&a| q.relation(e).position_of(a).expect("shared attr"))
        .collect()
}

/// Amortized doubling rate of a group with expected size `g`.
fn rate(g: f64) -> f64 {
    let g = g.max(1.0);
    (1.0 + g).log2() / g
}

struct TreeModel<'a> {
    q: &'a Query,
    stats: &'a TableStatistics,
    /// Adjacency of the candidate tree.
    nb: Vec<Vec<usize>>,
    /// `fan[r][i]`: mean fan-out of `r` on `key(r ↔ nb[r][i])`.
    fan: Vec<Vec<f64>>,
}

impl<'a> TreeModel<'a> {
    fn new(q: &'a Query, tree: &JoinTree, stats: &'a TableStatistics) -> TreeModel<'a> {
        let n = q.num_relations();
        let nb: Vec<Vec<usize>> = (0..n).map(|r| tree.neighbors(r).to_vec()).collect();
        let fan = (0..n)
            .map(|r| {
                nb[r]
                    .iter()
                    .map(|&p| self_fan(stats.relation(r), &shared_positions(q, r, p)))
                    .collect()
            })
            .collect();
        TreeModel { q, stats, nb, fan }
    }

    fn fanout(&self, r: usize, toward: usize) -> f64 {
        let i = self.nb[r]
            .iter()
            .position(|&p| p == toward)
            .expect("toward is a neighbor");
        self.fan[r][i]
    }

    /// Expected re-level work triggered *in* `p` by a doubling arriving
    /// from neighbour `from`, including downstream cascades.
    fn load(&self, p: usize, from: usize) -> f64 {
        let f_p = self.fanout(p, from);
        let mut cascades = 0.0;
        for &next in &self.nb[p] {
            if next != from {
                cascades += self.load(next, p);
            }
        }
        f_p + rate(f_p) * cascades
    }

    /// Per-tuple update work (touch + propagation), traffic-weighted.
    fn update_cost(&self, with_unlink: bool) -> f64 {
        let n = self.q.num_relations();
        let mut total = 0.0;
        for r in 0..n {
            let deg = self.nb[r].len() as f64;
            let touch = (deg + 1.0) + deg * deg;
            let mut prop = 0.0;
            let mut unlink = 0.0;
            for &p in &self.nb[r] {
                prop += rate(self.fanout(r, p)) * self.load(p, r);
                if with_unlink {
                    unlink += self.fanout(p, r);
                }
            }
            total += self.stats.traffic_share(r) * (touch + prop + unlink);
        }
        total
    }

    /// Per-draw sampling work through `rooted`.
    fn sample_cost(&self, rooted: &RootedTree) -> f64 {
        let mut depth = vec![0usize; rooted.len()];
        for &r in rooted.bfs_order() {
            if let Some(p) = rooted.node(r).parent {
                depth[r] = depth[p] + 1;
            }
        }
        let mut cost = 0.0;
        for node in rooted.nodes() {
            let rs = self.stats.relation(node.relation);
            cost += 1.0 + (1.0 + rs.fanout(&node.key_positions)).log2();
            // The depth term only bites with evidence: without
            // observations every root must tie so the canonical root 0
            // stands (digest stability of the no-evidence plan).
            if node.parent.is_some() && !self.stats.no_evidence() {
                cost += depth[node.relation] as f64 * (0.5 + rs.skew(&node.key_positions).log2());
            }
        }
        cost
    }
}

/// Fan-out of `r` itself on a key projection (`1.0` for the empty key —
/// the whole relation is one group then, but the root case handles that
/// via [`TreeModel::sample_cost`] directly).
fn self_fan(rs: &RelationStats, positions: &[usize]) -> f64 {
    if positions.is_empty() {
        rs.cardinality.max(1) as f64
    } else {
        rs.fanout(positions)
    }
}

impl Planner {
    /// The root-independent update components of a tree: `(insert work,
    /// delete work)` — computed once per tree, shared by every root.
    fn update_components(model: &TreeModel<'_>, stats: &TableStatistics) -> (f64, f64) {
        let insert = model.update_cost(false);
        let delete_share = if stats.inserts_seen() == 0 {
            0.0
        } else {
            stats.deletes_seen() as f64 / stats.inserts_seen() as f64
        };
        (insert, delete_share * model.update_cost(true))
    }

    fn combine(&self, insert: f64, delete: f64, sample: f64) -> PlanCost {
        PlanCost {
            insert,
            delete,
            sample,
            total: self.weights.insert * insert
                + self.weights.delete * delete
                + self.weights.sample * sample,
        }
    }

    /// Scores one explicit `(tree, root)` candidate. Returns `None` when
    /// the tree cannot back the shared-configuration index (a key wider
    /// than the arity cap in some orientation).
    pub fn score(
        &self,
        q: &Query,
        tree: &JoinTree,
        root: usize,
        stats: &TableStatistics,
    ) -> Option<PlanCost> {
        let rooted = RootedTree::build(q, tree, root).ok()?;
        let model = TreeModel::new(q, tree, stats);
        let (insert, delete) = Self::update_components(&model, stats);
        Some(self.combine(insert, delete, model.sample_cost(&rooted)))
    }

    /// Plans `q` against `stats`. Returns `None` for cyclic queries (use
    /// the GHD driver) and for queries no candidate tree can index.
    pub fn plan(&self, q: &Query, stats: &TableStatistics) -> Option<Plan> {
        let trees = all_join_trees(q, self.max_trees);
        let mut candidates = 0usize;
        // Best (cost, tree index, root) per tree; ties towards the earlier
        // candidate and the smaller root, so the choice is deterministic.
        let mut per_tree: Vec<(usize, usize, PlanCost)> = Vec::new();
        for (ti, tree) in trees.iter().enumerate() {
            // The shared-configuration index needs every orientation of the
            // tree; one KeyTooWide root disqualifies the whole tree.
            let Ok(rootings) = all_rooted_trees(q, tree) else {
                continue;
            };
            // Update costs are root-independent: model them once per tree,
            // then only the sampling component varies across the roots.
            let model = TreeModel::new(q, tree, stats);
            let (insert, delete) = Self::update_components(&model, stats);
            let mut best: Option<(usize, PlanCost)> = None;
            for (root, rooted) in rootings.iter().enumerate() {
                let cost = self.combine(insert, delete, model.sample_cost(rooted));
                candidates += 1;
                if best.is_none() || cost.total < best.as_ref().unwrap().1.total {
                    best = Some((root, cost));
                }
            }
            if let Some((root, cost)) = best {
                per_tree.push((ti, root, cost));
            }
        }
        // The first feasible candidate is the stability anchor (the GYO
        // tree whenever it is feasible, which is always in practice).
        let anchor_cost = per_tree.first()?.2;
        let mut winner = 0usize;
        for (i, (_, _, cost)) in per_tree.iter().enumerate().skip(1) {
            if cost.total < per_tree[winner].2.total {
                winner = i;
            }
        }
        // A challenger tree must clear the hold margin over the anchor.
        if winner != 0 && per_tree[winner].2.total >= anchor_cost.total * (1.0 - self.hold_margin) {
            winner = 0;
        }
        let (ti, root, cost) = per_tree[winner];
        let tree = trees[ti].clone();
        let is_canonical = ti == 0 && root == 0;
        Some(Plan {
            tree,
            root,
            cost,
            candidates,
            is_canonical,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::QueryBuilder;

    fn line3() -> Query {
        let mut qb = QueryBuilder::new();
        qb.relation("G1", &["A", "B"]);
        qb.relation("G2", &["B", "C"]);
        qb.relation("G3", &["C", "D"]);
        qb.build().unwrap()
    }

    fn star4() -> Query {
        let mut qb = QueryBuilder::new();
        for i in 1..=4 {
            qb.relation(&format!("G{i}"), &["HUB", &format!("B{i}")]);
        }
        qb.build().unwrap()
    }

    fn empty_stats(q: &Query) -> TableStatistics {
        empty_statistics(q)
    }

    #[test]
    fn no_evidence_returns_the_canonical_plan() {
        for q in [line3(), star4()] {
            let plan = Planner::default().plan(&q, &empty_stats(&q)).unwrap();
            assert!(plan.is_canonical, "{:?}", plan.tree.canonical_edges());
            assert_eq!(plan.root, 0);
            assert_eq!(
                plan.tree.canonical_edges(),
                JoinTree::build(&q).unwrap().canonical_edges()
            );
            assert!(plan.candidates >= q.num_relations());
            // The shortcut agrees with the full enumeration.
            let canon = Plan::canonical(&q).unwrap();
            assert_eq!(canon.tree.canonical_edges(), plan.tree.canonical_edges());
            assert_eq!(canon.root, plan.root);
            assert_eq!(canon.cost.total, plan.cost.total);
        }
    }

    #[test]
    fn cyclic_queries_have_no_plan() {
        let mut qb = QueryBuilder::new();
        qb.relation("R1", &["X", "Y"]);
        qb.relation("R2", &["Y", "Z"]);
        qb.relation("R3", &["Z", "X"]);
        let q = qb.build().unwrap();
        assert!(Planner::default().plan(&q, &empty_stats(&q)).is_none());
    }

    #[test]
    fn skewed_root_attracts_sampling() {
        // Line-3 with a heavily skewed G3 key: the planner should root at
        // G3 (or at least not at the uniform end) because rooting there
        // removes the largest rounding-slack contributor.
        let q = line3();
        let mut stats = empty_stats(&q);
        for i in 0..64u64 {
            stats.observe_insert(0, &[i, i % 8]);
            stats.observe_insert(1, &[i % 8, i % 16]);
            // G3: C values concentrated on one hub.
            stats.observe_insert(2, &[if i < 56 { 3 } else { i }, i]);
        }
        let plan = Planner::default().plan(&q, &stats).unwrap();
        assert_eq!(plan.tree.canonical_edges(), vec![(0, 1), (1, 2)]);
        assert_eq!(plan.root, 2, "{:?}", plan.cost);
        assert!(!plan.is_canonical);
    }

    #[test]
    fn scores_are_finite_and_ordered() {
        let q = star4();
        let mut stats = empty_stats(&q);
        for i in 0..128u64 {
            for rel in 0..4 {
                stats.observe_insert(rel, &[i % 4, i * 4 + rel as u64]);
            }
        }
        let planner = Planner::default();
        let trees = all_join_trees(&q, 64);
        for tree in &trees {
            for root in 0..4 {
                let c = planner.score(&q, tree, root, &stats).unwrap();
                assert!(c.total.is_finite() && c.total > 0.0);
                assert!(c.insert > 0.0);
                assert_eq!(c.delete, 0.0, "insert-only stream");
            }
        }
        let plan = planner.plan(&q, &stats).unwrap();
        // Whatever wins must not be worse than the canonical candidate.
        let canon = planner.score(&q, &trees[0], 0, &stats).unwrap();
        assert!(plan.cost.total <= canon.total + 1e-9);
    }

    #[test]
    fn plan_snapshot_round_trips() {
        let q = line3();
        let mut stats = empty_stats(&q);
        for i in 0..64u64 {
            stats.observe_insert(0, &[i, i % 8]);
            stats.observe_insert(1, &[i % 8, i % 16]);
            stats.observe_insert(2, &[if i < 56 { 3 } else { i }, i]);
        }
        let plan = Planner::default().plan(&q, &stats).unwrap();
        let snap = |p: &Plan| {
            let mut e = Encoder::new();
            p.snapshot_to(&mut e);
            e.into_bytes()
        };
        let bytes = snap(&plan);
        let mut dec = Decoder::new(&bytes);
        let plan2 = Plan::restore_from(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(plan2.root, plan.root);
        assert_eq!(plan2.cost, plan.cost);
        assert_eq!(plan2.candidates, plan.candidates);
        assert_eq!(plan2.is_canonical, plan.is_canonical);
        for i in 0..plan.tree.len() {
            assert_eq!(plan2.tree.neighbors(i), plan.tree.neighbors(i));
        }
        assert_eq!(snap(&plan2), bytes);
    }

    #[test]
    fn delete_share_activates_delete_cost() {
        let q = line3();
        let mut stats = empty_stats(&q);
        for i in 0..32u64 {
            stats.observe_insert(0, &[i, i % 4]);
            stats.observe_insert(1, &[i % 4, i % 4]);
            stats.observe_insert(2, &[i % 4, i]);
        }
        let planner = Planner::default();
        let tree = JoinTree::build(&q).unwrap();
        let before = planner.score(&q, &tree, 0, &stats).unwrap();
        assert_eq!(before.delete, 0.0);
        for i in 0..8u64 {
            stats.observe_delete(0, &[i, i % 4]);
        }
        let after = planner.score(&q, &tree, 0, &stats).unwrap();
        assert!(after.delete > 0.0);
        assert!(after.total > before.total - 1e-9);
    }
}
