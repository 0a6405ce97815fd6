//! GYO reduction: α-acyclicity testing and join-tree construction.
//!
//! A join query is α-acyclic iff the GYO (Graham / Yu–Özsoyoğlu) reduction
//! eliminates every relation: repeatedly (1) delete attributes that occur in
//! only one remaining relation ("isolated" attributes), then (2) delete a
//! relation whose remaining attributes are contained in another remaining
//! relation (an *ear*), recording the container as its join-tree neighbour.
//! The recorded (ear, witness) pairs form the join tree of Definition 4.1.

use crate::hypergraph::Query;
use rsj_common::codec::{CodecError, Decoder, Encoder};

/// An unrooted join tree over the relations of an acyclic query.
#[derive(Clone, Debug)]
pub struct JoinTree {
    /// `adj[i]` lists the relations adjacent to relation `i` in the tree.
    adj: Vec<Vec<usize>>,
}

impl JoinTree {
    /// Runs GYO reduction; returns the join tree, or `None` if the query is
    /// cyclic.
    pub fn build(q: &Query) -> Option<JoinTree> {
        let n = q.num_relations();
        let mut alive = vec![true; n];
        // Mutable copies of attribute sets as bitsets over attr ids.
        let mut attrs: Vec<Vec<bool>> = (0..n)
            .map(|i| {
                let mut b = vec![false; q.num_attrs()];
                for &a in &q.relation(i).attrs {
                    b[a] = true;
                }
                b
            })
            .collect();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut remaining = n;

        while remaining > 1 {
            // Step 1: clear attributes now occurring in at most one living
            // relation.
            for a in 0..q.num_attrs() {
                let holders: Vec<usize> = (0..n).filter(|&i| alive[i] && attrs[i][a]).collect();
                if holders.len() == 1 {
                    attrs[holders[0]][a] = false;
                }
            }
            // Step 2: find an ear — a living relation whose remaining
            // attributes are contained in some other living relation.
            let mut progressed = false;
            'search: for i in 0..n {
                if !alive[i] {
                    continue;
                }
                for j in 0..n {
                    if i == j || !alive[j] {
                        continue;
                    }
                    let contained = (0..q.num_attrs()).all(|a| !attrs[i][a] || attrs[j][a]);
                    if contained {
                        alive[i] = false;
                        remaining -= 1;
                        adj[i].push(j);
                        adj[j].push(i);
                        progressed = true;
                        break 'search;
                    }
                }
            }
            if !progressed {
                return None; // stuck: cyclic query
            }
        }
        Some(JoinTree { adj })
    }

    /// Neighbours of relation `i` in the tree.
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.adj[i]
    }

    /// Number of nodes (relations).
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True for a zero-relation tree (never produced by [`JoinTree::build`]).
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// All tree edges `(i, j)` with `i < j`.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (i, ns) in self.adj.iter().enumerate() {
            for &j in ns {
                if i < j {
                    out.push((i, j));
                }
            }
        }
        out
    }

    /// Builds a tree from an explicit edge list over `n` relations, with
    /// adjacency lists in deterministic (ascending) order.
    ///
    /// This is how a caller hand-builds a non-GYO orientation. The caller
    /// is responsible for the edges satisfying the join-tree property for
    /// its query ([`JoinTree::satisfies_connectedness`] checks it, and
    /// index construction rejects a tree that fails it).
    ///
    /// # Panics
    /// Panics if the edges do not form a spanning tree of `n` nodes.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> JoinTree {
        assert_eq!(edges.len() + 1, n.max(1), "spanning tree has n-1 edges");
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(i, j) in edges {
            assert!(i != j && i < n && j < n, "bad edge ({i}, {j})");
            adj[i].push(j);
            adj[j].push(i);
        }
        for ns in &mut adj {
            ns.sort_unstable();
        }
        let t = JoinTree { adj };
        // Spanning: every node reachable from 0.
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        if n > 0 {
            seen[0] = true;
        }
        let mut reached = usize::from(n > 0);
        while let Some(i) = stack.pop() {
            for &j in &t.adj[i] {
                if !seen[j] {
                    seen[j] = true;
                    reached += 1;
                    stack.push(j);
                }
            }
        }
        assert_eq!(reached, n, "edges do not span all {n} relations");
        t
    }

    /// The tree's edge set in canonical form: `(min, max)` pairs, sorted.
    /// Two `JoinTree`s describe the same unrooted tree iff their canonical
    /// edge sets are equal (adjacency-list *order* may still differ, and
    /// does change node-state discovery order downstream — which is why a
    /// plan carries the tree instance, not its edge set).
    pub fn canonical_edges(&self) -> Vec<(usize, usize)> {
        let mut e = self.edges();
        e.sort_unstable();
        e
    }

    /// Serializes the *exact* adjacency lists, order included. Adjacency
    /// order drives node-state discovery order in the dynamic index, so a
    /// checkpointed plan must restore the instance verbatim — rebuilding
    /// from [`canonical_edges`](JoinTree::canonical_edges) via
    /// [`from_edges`](JoinTree::from_edges) could reorder neighbours and
    /// change sample-relevant layout.
    pub fn snapshot_to(&self, enc: &mut Encoder) {
        enc.put_usize(self.adj.len());
        for ns in &self.adj {
            enc.put_usize(ns.len());
            for &j in ns {
                enc.put_usize(j);
            }
        }
    }

    /// Reconstructs a tree from [`snapshot_to`](JoinTree::snapshot_to)
    /// bytes, validating that the adjacency describes a spanning tree
    /// (symmetric edges, `n - 1` of them, all nodes reachable).
    pub fn restore_from(dec: &mut Decoder) -> Result<JoinTree, CodecError> {
        let n = dec.seq_len(8)?;
        let mut adj = Vec::with_capacity(n);
        let mut half_edges = 0usize;
        for _ in 0..n {
            let deg = dec.seq_len(8)?;
            let mut ns = Vec::with_capacity(deg);
            for _ in 0..deg {
                let j = dec.usize()?;
                if j >= n {
                    return Err(CodecError::Corrupt("join tree neighbour out of range"));
                }
                ns.push(j);
            }
            half_edges += deg;
            adj.push(ns);
        }
        if half_edges != n.saturating_sub(1) * 2 {
            return Err(CodecError::Corrupt("join tree edge count"));
        }
        let t = JoinTree { adj };
        for (i, ns) in t.adj.iter().enumerate() {
            for &j in ns {
                if !t.adj[j].contains(&i) {
                    return Err(CodecError::Corrupt("join tree adjacency not symmetric"));
                }
            }
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        if n > 0 {
            seen[0] = true;
        }
        let mut reached = usize::from(n > 0);
        while let Some(i) = stack.pop() {
            for &j in &t.adj[i] {
                if !seen[j] {
                    seen[j] = true;
                    reached += 1;
                    stack.push(j);
                }
            }
        }
        if reached != n {
            return Err(CodecError::Corrupt("join tree not spanning"));
        }
        Ok(t)
    }

    /// Validates the join-tree property: for every attribute, the relations
    /// containing it induce a connected subtree. Used by tests; `true` for
    /// every tree produced by GYO on an acyclic query.
    pub fn satisfies_connectedness(&self, q: &Query) -> bool {
        for a in 0..q.num_attrs() {
            let holders = q.relations_with_attr(a);
            if holders.len() <= 1 {
                continue;
            }
            // BFS within the holder-induced subgraph.
            let mut seen = vec![false; self.adj.len()];
            let mut stack = vec![holders[0]];
            seen[holders[0]] = true;
            while let Some(i) = stack.pop() {
                for &j in &self.adj[i] {
                    if holders.contains(&j) && !seen[j] {
                        seen[j] = true;
                        stack.push(j);
                    }
                }
            }
            if !holders.iter().all(|&h| seen[h]) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::QueryBuilder;

    fn build(specs: &[(&str, &[&str])]) -> Query {
        let mut qb = QueryBuilder::new();
        for (name, attrs) in specs {
            qb.relation(name, attrs);
        }
        qb.build().unwrap()
    }

    #[test]
    fn two_table_is_acyclic() {
        let q = build(&[("R1", &["X", "Y"]), ("R2", &["Y", "Z"])]);
        let t = JoinTree::build(&q).unwrap();
        assert_eq!(t.edges(), vec![(0, 1)]);
        assert!(t.satisfies_connectedness(&q));
    }

    #[test]
    fn line3_tree_is_a_path() {
        let q = build(&[
            ("G1", &["A", "B"]),
            ("G2", &["B", "C"]),
            ("G3", &["C", "D"]),
        ]);
        let t = JoinTree::build(&q).unwrap();
        assert!(t.satisfies_connectedness(&q));
        // Path: G2 in the middle with two neighbours.
        assert_eq!(t.neighbors(1).len(), 2);
        assert_eq!(t.neighbors(0).len(), 1);
        assert_eq!(t.neighbors(2).len(), 1);
    }

    #[test]
    fn star4_tree_is_a_star() {
        let q = build(&[
            ("G1", &["A", "B1"]),
            ("G2", &["A", "B2"]),
            ("G3", &["A", "B3"]),
            ("G4", &["A", "B4"]),
        ]);
        let t = JoinTree::build(&q).unwrap();
        assert!(t.satisfies_connectedness(&q));
        assert_eq!(t.edges().len(), 3);
        // Some node has degree 3 OR the star is realized as a path — both
        // are valid join trees for the star query since all relations share
        // A. Connectedness of the A-subtree is the real requirement.
    }

    #[test]
    fn triangle_is_cyclic() {
        let q = build(&[
            ("R1", &["X", "Y"]),
            ("R2", &["Y", "Z"]),
            ("R3", &["Z", "X"]),
        ]);
        assert!(JoinTree::build(&q).is_none());
    }

    #[test]
    fn cycle4_is_cyclic() {
        let q = build(&[
            ("R1", &["A", "B"]),
            ("R2", &["B", "C"]),
            ("R3", &["C", "D"]),
            ("R4", &["D", "A"]),
        ]);
        assert!(JoinTree::build(&q).is_none());
    }

    #[test]
    fn dumbbell_is_cyclic() {
        let q = build(&[
            ("R1", &["x1", "x2"]),
            ("R2", &["x1", "x3"]),
            ("R3", &["x2", "x3"]),
            ("R4", &["x5", "x6"]),
            ("R5", &["x4", "x5"]),
            ("R6", &["x4", "x6"]),
            ("R7", &["x3", "x4"]),
        ]);
        assert!(JoinTree::build(&q).is_none());
    }

    #[test]
    fn single_relation_tree() {
        let q = build(&[("R", &["X"])]);
        let t = JoinTree::build(&q).unwrap();
        assert!(t.edges().is_empty());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn snowflake_is_acyclic() {
        // A fact table with two dimension chains — the relational shape of
        // QY/QZ after FK analysis.
        let q = build(&[
            ("fact", &["K1", "K2", "M"]),
            ("dim1", &["K1", "D1"]),
            ("dim1b", &["D1", "E1"]),
            ("dim2", &["K2", "D2"]),
        ]);
        let t = JoinTree::build(&q).unwrap();
        assert!(t.satisfies_connectedness(&q));
        assert_eq!(t.edges().len(), 3);
    }

    #[test]
    fn relation_contained_in_another_is_acyclic() {
        let q = build(&[("R", &["X", "Y", "Z"]), ("S", &["X", "Z"])]);
        let t = JoinTree::build(&q).unwrap();
        assert_eq!(t.edges(), vec![(0, 1)]);
    }

    #[test]
    fn from_edges_round_trips() {
        let t = JoinTree::from_edges(4, &[(2, 1), (0, 1), (3, 2)]);
        assert_eq!(t.canonical_edges(), vec![(0, 1), (1, 2), (2, 3)]);
        assert_eq!(t.neighbors(1), &[0, 2]);
    }

    #[test]
    #[should_panic(expected = "span")]
    fn from_edges_rejects_disconnected() {
        // 4 nodes, 3 edges, but node 3 unreached (duplicate edge).
        JoinTree::from_edges(4, &[(0, 1), (1, 2), (2, 0)]);
    }

    #[test]
    fn snapshot_preserves_adjacency_order_exactly() {
        // Build via GYO (adjacency order is reduction order, not sorted)
        // and round-trip: neighbour lists must come back verbatim.
        let q = build(&[
            ("G1", &["A", "B1"]),
            ("G2", &["A", "B2"]),
            ("G3", &["A", "B3"]),
            ("G4", &["A", "B4"]),
        ]);
        let t = JoinTree::build(&q).unwrap();
        let mut e = Encoder::new();
        t.snapshot_to(&mut e);
        let bytes = e.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let t2 = JoinTree::restore_from(&mut dec).unwrap();
        dec.finish().unwrap();
        for i in 0..t.len() {
            assert_eq!(t2.neighbors(i), t.neighbors(i), "node {i}");
        }
        let mut e2 = Encoder::new();
        t2.snapshot_to(&mut e2);
        assert_eq!(e2.into_bytes(), bytes);
    }

    #[test]
    fn snapshot_rejects_asymmetric_adjacency() {
        // Hand-craft bytes: 2 nodes, node 0 lists 1 but node 1 lists 0 twice.
        let mut e = Encoder::new();
        e.put_usize(3);
        e.put_usize(1);
        e.put_usize(1); // 0 -> [1]
        e.put_usize(2);
        e.put_usize(0);
        e.put_usize(2); // 1 -> [0, 2]
        e.put_usize(1);
        e.put_usize(0); // 2 -> [0]  (asymmetric: 0 does not list 2)
        let bytes = e.into_bytes();
        assert!(JoinTree::restore_from(&mut Decoder::new(&bytes)).is_err());
    }
}
