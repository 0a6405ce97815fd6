//! Rooted views of a join tree, with all attribute bookkeeping precomputed.
//!
//! The paper's index maintains, for each relation `r`, a version of the join
//! tree rooted at `r`; the tree rooted at `r` generates the delta batch when
//! a tuple is inserted into `R_r` (§4.3). For a rooted tree and node `e`:
//!
//! * `key(e) = e ∩ parent(e)` — the attributes shared with the parent
//!   (empty for the root);
//! * each node knows, for every child `c`, where `key(c)` lives inside its
//!   own schema (to project an own tuple down to a child group);
//! * the grouping optimization (§4.4) needs `ē = key(e) ∪ ⋃_c key(c)`, the
//!   node's *join attributes*, and where they live.
//!
//! Key attribute order is canonicalized (sorted by attribute id) so the same
//! key value produces identical [`Key`](rsj_common::Key)s whether projected
//! from the child or the parent side.

use crate::hypergraph::{AttrId, Query};
use crate::join_tree::JoinTree;
use rsj_common::value::MAX_KEY_ARITY;

/// Per-node structure of a rooted join tree.
#[derive(Clone, Debug)]
pub struct NodeInfo {
    /// The relation this node corresponds to.
    pub relation: usize,
    /// Parent relation, `None` for the root.
    pub parent: Option<usize>,
    /// Child relations.
    pub children: Vec<usize>,
    /// `key(e)` attribute ids, sorted.
    pub key_attrs: Vec<AttrId>,
    /// Positions of `key_attrs` in this relation's schema.
    pub key_positions: Vec<usize>,
    /// For each child `c` (parallel to `children`): positions in *this*
    /// relation's schema of `key(c)`'s attributes (sorted by attr id).
    pub child_key_positions: Vec<Vec<usize>>,
    /// Size of the subtree rooted here, `|T_e|` (number of relations).
    pub subtree_size: usize,
    /// Grouping metadata (§4.4): positions in this relation's schema of the
    /// node's join attributes `ē`, sorted by attr id.
    pub ebar_positions: Vec<usize>,
    /// True when `ē` is a strict subset of the schema *and* the node is a
    /// non-root internal node — the precondition for the grouping
    /// optimization to change anything.
    pub groupable: bool,
    /// Positions of `key(e)` inside the `ē` projection.
    pub key_positions_in_ebar: Vec<usize>,
    /// For each child: positions of `key(c)` inside the `ē` projection.
    pub child_key_positions_in_ebar: Vec<Vec<usize>>,
}

/// A join tree rooted at one relation.
#[derive(Clone, Debug)]
pub struct RootedTree {
    root: usize,
    /// Indexed by relation id.
    nodes: Vec<NodeInfo>,
}

/// Errors from rooted-tree construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RootedError {
    /// A key exceeded [`MAX_KEY_ARITY`].
    KeyTooWide {
        /// Offending relation name.
        relation: String,
        /// The key's attribute count.
        width: usize,
    },
}

impl std::fmt::Display for RootedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RootedError::KeyTooWide { relation, width } => write!(
                f,
                "join key of relation {relation} has {width} attributes; max {MAX_KEY_ARITY}"
            ),
        }
    }
}

impl std::error::Error for RootedError {}

impl RootedTree {
    /// Roots `tree` at `root`, computing all key/child metadata.
    pub fn build(q: &Query, tree: &JoinTree, root: usize) -> Result<RootedTree, RootedError> {
        let n = q.num_relations();
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut order = Vec::with_capacity(n);
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(root);
        seen[root] = true;
        while let Some(i) = queue.pop_front() {
            order.push(i);
            for &j in tree.neighbors(i) {
                if !seen[j] {
                    seen[j] = true;
                    parent[j] = Some(i);
                    queue.push_back(j);
                }
            }
        }
        debug_assert_eq!(order.len(), n, "join tree must span all relations");

        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            if let Some(p) = parent[i] {
                children[p].push(i);
            }
        }

        // key(e) = e ∩ parent(e), sorted by attr id.
        let key_attrs: Vec<Vec<AttrId>> = (0..n)
            .map(|i| match parent[i] {
                None => Vec::new(),
                Some(p) => {
                    let mut ks: Vec<AttrId> = q
                        .relation(i)
                        .attrs
                        .iter()
                        .copied()
                        .filter(|a| q.relation(p).contains(*a))
                        .collect();
                    ks.sort_unstable();
                    ks
                }
            })
            .collect();
        for (i, ks) in key_attrs.iter().enumerate() {
            if ks.len() > MAX_KEY_ARITY {
                return Err(RootedError::KeyTooWide {
                    relation: q.relation(i).name.clone(),
                    width: ks.len(),
                });
            }
        }

        // Subtree sizes bottom-up (reverse BFS order).
        let mut subtree = vec![1usize; n];
        for &i in order.iter().rev() {
            for &c in &children[i] {
                subtree[i] += subtree[c];
            }
        }

        let positions = |rel: usize, attrs: &[AttrId]| -> Vec<usize> {
            attrs
                .iter()
                .map(|&a| {
                    q.relation(rel)
                        .position_of(a)
                        .expect("key attribute must be in schema")
                })
                .collect()
        };

        let mut nodes = Vec::with_capacity(n);
        for i in 0..n {
            let child_keys: Vec<Vec<AttrId>> =
                children[i].iter().map(|&c| key_attrs[c].clone()).collect();
            // ē = key(e) ∪ ⋃ key(c), sorted.
            let mut ebar: Vec<AttrId> = key_attrs[i].clone();
            for ck in &child_keys {
                ebar.extend_from_slice(ck);
            }
            ebar.sort_unstable();
            ebar.dedup();
            let is_internal_nonroot = parent[i].is_some() && !children[i].is_empty();
            let groupable = is_internal_nonroot && ebar.len() < q.relation(i).attrs.len();
            let pos_in_ebar = |attrs: &[AttrId]| -> Vec<usize> {
                attrs
                    .iter()
                    .map(|a| ebar.iter().position(|b| b == a).expect("attr in ebar"))
                    .collect()
            };
            nodes.push(NodeInfo {
                relation: i,
                parent: parent[i],
                children: children[i].clone(),
                key_attrs: key_attrs[i].clone(),
                key_positions: positions(i, &key_attrs[i]),
                child_key_positions: child_keys.iter().map(|ck| positions(i, ck)).collect(),
                subtree_size: subtree[i],
                ebar_positions: positions(i, &ebar),
                groupable,
                key_positions_in_ebar: pos_in_ebar(&key_attrs[i]),
                child_key_positions_in_ebar: child_keys.iter().map(|ck| pos_in_ebar(ck)).collect(),
            });
        }
        Ok(RootedTree { root, nodes })
    }

    /// The root relation.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Node info for relation `i`.
    pub fn node(&self, i: usize) -> &NodeInfo {
        &self.nodes[i]
    }

    /// All nodes, indexed by relation id.
    pub fn nodes(&self) -> &[NodeInfo] {
        &self.nodes
    }

    /// Number of relations.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for an empty tree (never constructed).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// All rooted views of one join tree: `forest[r]` is rooted at relation `r`.
pub fn all_rooted_trees(q: &Query, tree: &JoinTree) -> Result<Vec<RootedTree>, RootedError> {
    (0..q.num_relations())
        .map(|r| RootedTree::build(q, tree, r))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::QueryBuilder;

    fn line3() -> (Query, JoinTree) {
        let mut qb = QueryBuilder::new();
        qb.relation("G1", &["A", "B"]);
        qb.relation("G2", &["B", "C"]);
        qb.relation("G3", &["C", "D"]);
        let q = qb.build().unwrap();
        let t = JoinTree::build(&q).unwrap();
        (q, t)
    }

    #[test]
    fn root_has_empty_key() {
        let (q, t) = line3();
        let rt = RootedTree::build(&q, &t, 0).unwrap();
        assert_eq!(rt.node(0).key_attrs, Vec::<AttrId>::new());
        assert_eq!(rt.node(0).parent, None);
        assert_eq!(rt.node(0).subtree_size, 3);
    }

    #[test]
    fn line3_rooted_at_end_is_a_chain() {
        let (q, t) = line3();
        let rt = RootedTree::build(&q, &t, 0).unwrap();
        assert_eq!(rt.node(0).children, vec![1]);
        assert_eq!(rt.node(1).children, vec![2]);
        assert_eq!(rt.node(2).children, Vec::<usize>::new());
        // key(G2) = {B}: position 0 in G2's schema (B, C).
        assert_eq!(rt.node(1).key_positions, vec![0]);
        // key(G3) = {C}: position 0 in G3's schema (C, D).
        assert_eq!(rt.node(2).key_positions, vec![0]);
        // G2 sees key(G3)={C} at position 1 of its own schema.
        assert_eq!(rt.node(1).child_key_positions, vec![vec![1]]);
    }

    #[test]
    fn line3_rooted_at_middle_has_two_children() {
        let (q, t) = line3();
        let rt = RootedTree::build(&q, &t, 1).unwrap();
        let mut kids = rt.node(1).children.clone();
        kids.sort_unstable();
        assert_eq!(kids, vec![0, 2]);
        assert_eq!(rt.node(0).parent, Some(1));
        assert_eq!(rt.node(2).parent, Some(1));
        // G1's key with its parent G2 is {B}, at position 1 in (A, B).
        assert_eq!(rt.node(0).key_positions, vec![1]);
    }

    #[test]
    fn grouping_metadata_line3_is_not_groupable() {
        // G2(B, C) in the middle: ē = {B} ∪ {C} = full schema — no grouping.
        let (q, t) = line3();
        let rt = RootedTree::build(&q, &t, 0).unwrap();
        assert!(!rt.node(1).groupable);
    }

    #[test]
    fn grouping_metadata_wide_middle_is_groupable() {
        // R_b(Y, Z, W) between R_a(X, Y) and R_c(W, U): ē = {Y, W} ⊊ schema
        // — the Example 4.5 shape.
        let mut qb = QueryBuilder::new();
        qb.relation("Ra", &["X", "Y"]);
        qb.relation("Rb", &["Y", "Z", "W"]);
        qb.relation("Rc", &["W", "U"]);
        let q = qb.build().unwrap();
        let t = JoinTree::build(&q).unwrap();
        // Root at Rc: Rb internal with child Ra.
        let rt = RootedTree::build(&q, &t, 2).unwrap();
        let b = rt.node(1);
        assert!(b.groupable);
        // ē = {Y, W} at schema positions (0, 2); sorted by attr id Y < W
        // given builder interning order X=0,Y=1,Z=2,W=3.
        assert_eq!(b.ebar_positions, vec![0, 2]);
        // key(Rb) with parent Rc = {W}: inside ē it sits at index 1.
        assert_eq!(b.key_positions_in_ebar, vec![1]);
        // child Ra's key {Y} sits at index 0 of ē.
        assert_eq!(b.child_key_positions_in_ebar, vec![vec![0]]);
    }

    #[test]
    fn all_roots_built() {
        let (q, t) = line3();
        let forest = all_rooted_trees(&q, &t).unwrap();
        assert_eq!(forest.len(), 3);
        for (r, rt) in forest.iter().enumerate() {
            assert_eq!(rt.root(), r);
            assert_eq!(rt.node(r).parent, None);
        }
    }

    #[test]
    fn subtree_sizes_sum() {
        let (q, t) = line3();
        let rt = RootedTree::build(&q, &t, 1).unwrap();
        assert_eq!(rt.node(1).subtree_size, 3);
        assert_eq!(rt.node(0).subtree_size, 1);
        assert_eq!(rt.node(2).subtree_size, 1);
    }

    #[test]
    fn composite_key_positions_sorted_consistently() {
        let mut qb = QueryBuilder::new();
        qb.relation("R", &["B", "A", "X"]);
        qb.relation("S", &["A", "B", "Y"]);
        let q = qb.build().unwrap();
        let t = JoinTree::build(&q).unwrap();
        let rt = RootedTree::build(&q, &t, 1).unwrap();
        // key(R) = {A, B}, sorted by attr id. Builder interned B=0, A=1.
        assert_eq!(rt.node(0).key_attrs, vec![0, 1]); // B then A
                                                      // In R's schema (B, A, X): positions 0, 1. In S's schema (A, B, Y):
                                                      // child_key_positions from S's perspective: B at 1, A at 0.
        assert_eq!(rt.node(0).key_positions, vec![0, 1]);
        assert_eq!(rt.node(1).child_key_positions, vec![vec![1, 0]]);
    }
}
