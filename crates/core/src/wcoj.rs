//! Hash tries and generic worst-case-optimal delta enumeration.
//!
//! The cyclic driver (§5) needs, for each GHD bag, the *delta* of the bag's
//! sub-join when one tuple arrives: `ΔQ_u = Q_u(R ∪ {t}) ⋉ t`. This module
//! implements that with the standard generic-join recipe: every relation of
//! the bag is indexed as a hash trie following one global attribute order;
//! enumeration binds attributes in that order, intersecting the candidate
//! sets of the relations that contain each attribute (iterating the
//! smallest), with the inserted tuple's attributes pre-bound. Per delta
//! result the work is `O(|attrs| · |relations|)` hash probes, and the total
//! across a stream is bounded by the bag's AGM bound — the `N^w` term of
//! Theorem 5.4.
//!
//! Since PR 10 the structure is fully turnstile: [`HashTrie::remove`] prunes
//! emptied trie paths (recycling arena nodes through a free list), and
//! [`BagJoin::delete_and_delta`] enumerates the *dead* delta — the bag
//! results that existed only through the departing tuple — before removing
//! it, giving the cyclic driver the `-1` side of its signed pipeline.

use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::{FxHashMap, Value};

/// A hash trie over tuples of a fixed arity, one map level per attribute in
/// a fixed order.
#[derive(Clone, Debug)]
struct HashTrie {
    depth: usize,
    /// Node arena; node 0 is the root. Leaf-level nodes store no children.
    nodes: Vec<TrieNode>,
    /// Arena slots freed by [`HashTrie::remove`], recycled by inserts.
    free: Vec<u32>,
}

#[derive(Clone, Debug, Default)]
struct TrieNode {
    children: FxHashMap<Value, u32>,
}

impl HashTrie {
    /// Creates an empty trie of the given depth (tuple arity).
    pub fn new(depth: usize) -> HashTrie {
        assert!(depth > 0);
        HashTrie {
            depth,
            nodes: vec![TrieNode::default()],
            free: Vec::new(),
        }
    }

    /// Inserts a tuple (values in trie attribute order). Returns `true` if
    /// the tuple was new, `false` if already present (set semantics).
    pub fn insert(&mut self, values: &[Value]) -> bool {
        debug_assert_eq!(values.len(), self.depth);
        let mut node = 0u32;
        let mut created = false;
        for &v in values {
            node = match self.nodes[node as usize].children.get(&v) {
                Some(&c) => c,
                None => {
                    created = true;
                    let c = match self.free.pop() {
                        Some(c) => c,
                        None => {
                            self.nodes.push(TrieNode::default());
                            (self.nodes.len() - 1) as u32
                        }
                    };
                    self.nodes[node as usize].children.insert(v, c);
                    c
                }
            };
        }
        created
    }

    /// Whether the tuple is present.
    pub fn contains(&self, values: &[Value]) -> bool {
        debug_assert_eq!(values.len(), self.depth);
        let mut node = 0u32;
        for &v in values {
            match self.nodes[node as usize].children.get(&v) {
                Some(&c) => node = c,
                None => return false,
            }
        }
        true
    }

    /// Removes a tuple, pruning every trie path that held only this tuple
    /// and recycling the freed arena nodes. Returns `true` if the tuple was
    /// present.
    pub fn remove(&mut self, values: &[Value]) -> bool {
        debug_assert_eq!(values.len(), self.depth);
        // Record the descent: (parent node, branch value, child node).
        let mut path = Vec::with_capacity(self.depth);
        let mut node = 0u32;
        for &v in values {
            match self.nodes[node as usize].children.get(&v) {
                Some(&c) => {
                    path.push((node, v, c));
                    node = c;
                }
                None => return false,
            }
        }
        // Unwind: drop the leaf, then every ancestor left childless.
        for &(parent, v, child) in path.iter().rev() {
            if !self.nodes[child as usize].children.is_empty() {
                break;
            }
            self.nodes[parent as usize].children.remove(&v);
            self.free.push(child);
        }
        true
    }

    /// All stored tuples in trie attribute order, sorted lexicographically
    /// (a canonical enumeration, independent of insertion history).
    pub fn tuples(&self) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        let mut acc = Vec::with_capacity(self.depth);
        self.collect(0, &mut acc, &mut out);
        out.sort_unstable();
        out
    }

    fn collect(&self, node: u32, acc: &mut Vec<Value>, out: &mut Vec<Vec<Value>>) {
        if acc.len() == self.depth {
            out.push(acc.clone());
            return;
        }
        for (&v, &c) in &self.nodes[node as usize].children {
            acc.push(v);
            self.collect(c, acc, out);
            acc.pop();
        }
    }

    /// The child node for value `v` under `node`, if present.
    #[inline]
    pub fn descend(&self, node: u32, v: Value) -> Option<u32> {
        self.nodes[node as usize].children.get(&v).copied()
    }

    /// Number of children under `node`.
    #[inline]
    fn fanout(&self, node: u32) -> usize {
        self.nodes[node as usize].children.len()
    }

    /// Iterates the `(value, child)` pairs under `node`.
    pub fn children(&self, node: u32) -> impl Iterator<Item = (Value, u32)> + '_ {
        self.nodes[node as usize]
            .children
            .iter()
            .map(|(&v, &c)| (v, c))
    }

    /// The root node id.
    pub fn root(&self) -> u32 {
        0
    }

    /// Estimated heap bytes.
    pub fn heap_size(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<TrieNode>()
            + self
                .nodes
                .iter()
                .map(|n| n.children.capacity() * 13)
                .sum::<usize>()
    }
}

/// One relation inside a bag join.
#[derive(Clone, Debug)]
struct BagRel {
    /// Indices into the bag's attribute order, ascending — the trie levels.
    attr_order_idx: Vec<usize>,
    /// For each trie level, the position of that attribute in the
    /// relation's own schema (to reorder incoming tuples).
    schema_positions: Vec<usize>,
    trie: HashTrie,
}

/// Incremental worst-case-optimal join over the relations of one GHD bag.
///
/// Attributes are identified by their index in the bag's (sorted) attribute
/// list; enumeration output tuples follow that order.
#[derive(Clone, Debug)]
pub(crate) struct BagJoin {
    num_attrs: usize,
    rels: Vec<BagRel>,
    /// Relations containing each attribute (by bag-relation index).
    attr_rels: Vec<Vec<usize>>,
}

impl BagJoin {
    /// Creates a bag join.
    ///
    /// `rel_attrs[i]` lists, for bag relation `i`, pairs
    /// `(bag_attr_index, position_in_relation_schema)`; they may be given in
    /// any order and are sorted by bag attribute index internally.
    pub fn new(num_attrs: usize, rel_attrs: &[Vec<(usize, usize)>]) -> BagJoin {
        let mut rels = Vec::with_capacity(rel_attrs.len());
        let mut attr_rels = vec![Vec::new(); num_attrs];
        for (ri, pairs) in rel_attrs.iter().enumerate() {
            let mut sorted = pairs.clone();
            sorted.sort_unstable();
            let attr_order_idx: Vec<usize> = sorted.iter().map(|&(a, _)| a).collect();
            let schema_positions: Vec<usize> = sorted.iter().map(|&(_, p)| p).collect();
            for &a in &attr_order_idx {
                attr_rels[a].push(ri);
            }
            rels.push(BagRel {
                trie: HashTrie::new(attr_order_idx.len()),
                attr_order_idx,
                schema_positions,
            });
        }
        BagJoin {
            num_attrs,
            rels,
            attr_rels,
        }
    }

    /// Inserts a tuple into bag relation `ri` (values in the relation's own
    /// schema order) and returns the *delta*: every full bag-attribute
    /// assignment newly joined through this tuple, in bag attribute order.
    /// A duplicate insert returns `None` (set semantics, nothing changed).
    pub(crate) fn insert_and_delta(
        &mut self,
        ri: usize,
        tuple: &[Value],
    ) -> Option<Vec<Vec<Value>>> {
        // Reorder into trie order and insert.
        let reordered: Vec<Value> = self.rels[ri]
            .schema_positions
            .iter()
            .map(|&p| tuple[p])
            .collect();
        if !self.rels[ri].trie.insert(&reordered) {
            return None;
        }
        Some(self.semijoin_delta(ri, &reordered))
    }

    /// Deletes a tuple from bag relation `ri` and returns the *dead delta*:
    /// every full bag-attribute assignment that joined through this tuple
    /// (enumerated before removal, so it is exactly the mirror of the delta
    /// its insertion produced against the same co-relations). Deleting an
    /// absent tuple returns `None`.
    pub(crate) fn delete_and_delta(
        &mut self,
        ri: usize,
        tuple: &[Value],
    ) -> Option<Vec<Vec<Value>>> {
        let reordered: Vec<Value> = self.rels[ri]
            .schema_positions
            .iter()
            .map(|&p| tuple[p])
            .collect();
        if !self.rels[ri].trie.contains(&reordered) {
            return None;
        }
        let dead = self.semijoin_delta(ri, &reordered);
        self.rels[ri].trie.remove(&reordered);
        Some(dead)
    }

    /// Enumerates the bag results semijoined with relation `ri`'s tuple
    /// (given in trie order): the delta of that tuple against the current
    /// trie contents, which must already include the tuple itself.
    fn semijoin_delta(&self, ri: usize, reordered: &[Value]) -> Vec<Vec<Value>> {
        let mut bound: Vec<Option<Value>> = vec![None; self.num_attrs];
        for (level, &a) in self.rels[ri].attr_order_idx.iter().enumerate() {
            bound[a] = Some(reordered[level]);
        }
        let mut out = Vec::new();
        let mut assignment = vec![0; self.num_attrs];
        let mut cursors: Vec<u32> = self.rels.iter().map(|r| r.trie.root()).collect();
        self.enumerate(0, &bound, &mut cursors, &mut assignment, &mut out);
        out
    }

    /// Recursive generic join over attribute `a`.
    fn enumerate(
        &self,
        a: usize,
        bound: &[Option<Value>],
        cursors: &mut [u32],
        assignment: &mut [Value],
        out: &mut Vec<Vec<Value>>,
    ) {
        if a == self.num_attrs {
            out.push(assignment.to_vec());
            return;
        }
        let holders = &self.attr_rels[a];
        debug_assert!(!holders.is_empty(), "bag attribute covered by no relation");
        if let Some(v) = bound[a] {
            // Pre-bound: every holder must contain v.
            let mut saved = Vec::with_capacity(holders.len());
            for &ri in holders {
                match self.rels[ri].trie.descend(cursors[ri], v) {
                    Some(c) => {
                        saved.push((ri, cursors[ri]));
                        cursors[ri] = c;
                    }
                    None => {
                        for (ri, old) in saved {
                            cursors[ri] = old;
                        }
                        return;
                    }
                }
            }
            assignment[a] = v;
            self.enumerate(a + 1, bound, cursors, assignment, out);
            for (ri, old) in saved {
                cursors[ri] = old;
            }
            return;
        }
        // Free attribute: iterate the smallest candidate set, probe others.
        let lead = *holders
            .iter()
            .min_by_key(|&&ri| self.rels[ri].trie.fanout(cursors[ri]))
            .expect("nonempty holders");
        let mut candidates: Vec<(Value, u32)> =
            self.rels[lead].trie.children(cursors[lead]).collect();
        // Canonical order: delta emission must not depend on hash-map
        // iteration (node ids shift once deletes recycle arena slots, and
        // restored tries rebuild their maps from scratch).
        candidates.sort_unstable();
        'candidates: for (v, lead_child) in candidates {
            let mut saved = Vec::with_capacity(holders.len());
            for &ri in holders {
                let child = if ri == lead {
                    Some(lead_child)
                } else {
                    self.rels[ri].trie.descend(cursors[ri], v)
                };
                match child {
                    Some(c) => {
                        saved.push((ri, cursors[ri]));
                        cursors[ri] = c;
                    }
                    None => {
                        for (ri, old) in saved {
                            cursors[ri] = old;
                        }
                        continue 'candidates;
                    }
                }
            }
            assignment[a] = v;
            self.enumerate(a + 1, bound, cursors, assignment, out);
            for (ri, old) in saved {
                cursors[ri] = old;
            }
        }
    }

    /// Estimated heap bytes of all tries.
    pub fn heap_size(&self) -> usize {
        self.rels.iter().map(|r| r.trie.heap_size()).sum()
    }

    /// Serializes the bag's dynamic contents canonically: per relation, its
    /// stored tuples in sorted trie order. Structure (attribute orders,
    /// schema positions) is not serialized — it is rebuilt from the query.
    pub fn snapshot_to(&self, enc: &mut Encoder) {
        enc.put_usize(self.rels.len());
        for r in &self.rels {
            let tuples = r.trie.tuples();
            enc.put_usize(tuples.len());
            for t in tuples {
                enc.put_u64s(&t);
            }
        }
    }

    /// A bag with `self`'s structure holding the contents
    /// [`BagJoin::snapshot_to`] wrote; `self` is not changed.
    pub fn restore_from(&self, dec: &mut Decoder) -> Result<BagJoin, CodecError> {
        if dec.seq_len(2)? != self.rels.len() {
            return Err(CodecError::Corrupt("bag relation count mismatch"));
        }
        let mut rels = Vec::with_capacity(self.rels.len());
        for r in &self.rels {
            let depth = r.attr_order_idx.len();
            let mut trie = HashTrie::new(depth);
            let count = dec.seq_len(2)?;
            for _ in 0..count {
                let t = dec.u64s()?;
                if t.len() != depth {
                    return Err(CodecError::Corrupt("bag tuple arity mismatch"));
                }
                if !trie.insert(&t) {
                    return Err(CodecError::Corrupt("duplicate bag tuple in snapshot"));
                }
            }
            rels.push(BagRel {
                trie,
                attr_order_idx: r.attr_order_idx.clone(),
                schema_positions: r.schema_positions.clone(),
            });
        }
        Ok(BagJoin {
            num_attrs: self.num_attrs,
            rels,
            attr_rels: self.attr_rels.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_common::rng::RsjRng;
    use rsj_common::FxHashSet;

    #[test]
    fn trie_insert_and_descend() {
        let mut t = HashTrie::new(2);
        t.insert(&[1, 2]);
        t.insert(&[1, 3]);
        t.insert(&[1, 2]); // idempotent
        let n1 = t.descend(t.root(), 1).unwrap();
        assert_eq!(t.fanout(n1), 2);
        assert!(t.descend(t.root(), 9).is_none());
    }

    #[test]
    fn trie_remove_prunes_and_recycles() {
        let mut t = HashTrie::new(3);
        t.insert(&[1, 2, 3]);
        t.insert(&[1, 2, 4]);
        t.insert(&[1, 5, 6]);
        assert!(t.contains(&[1, 2, 3]));
        assert!(!t.remove(&[9, 9, 9])); // absent
        assert!(t.remove(&[1, 2, 3]));
        assert!(!t.contains(&[1, 2, 3]));
        assert!(t.contains(&[1, 2, 4])); // shared prefix survives
        assert!(t.remove(&[1, 2, 4]));
        // The (1,2) branch is now fully pruned.
        let n1 = t.descend(t.root(), 1).unwrap();
        assert!(t.descend(n1, 2).is_none());
        assert!(t.remove(&[1, 5, 6]));
        assert_eq!(t.fanout(t.root()), 0);
        // Freed arena slots are recycled: re-inserting everything does not
        // grow the arena past its previous footprint.
        let nodes_before = t.nodes.len();
        t.insert(&[1, 2, 3]);
        t.insert(&[1, 2, 4]);
        t.insert(&[1, 5, 6]);
        assert_eq!(t.nodes.len(), nodes_before);
        assert_eq!(
            t.tuples(),
            vec![vec![1, 2, 3], vec![1, 2, 4], vec![1, 5, 6]]
        );
    }

    /// Triangle bag: R1(X,Y), R2(Y,Z), R3(Z,X); attrs X=0, Y=1, Z=2.
    fn triangle() -> BagJoin {
        BagJoin::new(
            3,
            &[
                vec![(0, 0), (1, 1)], // R1: X at schema pos 0, Y at 1
                vec![(1, 0), (2, 1)], // R2
                vec![(2, 0), (0, 1)], // R3: Z at 0, X at 1
            ],
        )
    }

    #[test]
    fn triangle_delta_closes_on_last_edge() {
        let mut bj = triangle();
        assert!(bj.insert_and_delta(0, &[1, 2]).unwrap().is_empty()); // X=1,Y=2
        assert!(bj.insert_and_delta(1, &[2, 3]).unwrap().is_empty()); // Y=2,Z=3
        let d = bj.insert_and_delta(2, &[3, 1]).unwrap(); // Z=3,X=1
        assert_eq!(d, vec![vec![1, 2, 3]]);
    }

    #[test]
    fn triangle_delta_counts_match_brute_force() {
        let mut bj = triangle();
        let mut rng = RsjRng::seed_from_u64(17);
        let mut edges: [FxHashSet<(u64, u64)>; 3] =
            [Default::default(), Default::default(), Default::default()];
        let mut total_delta = 0usize;
        for _ in 0..600 {
            let ri = rng.index(3);
            let e = (rng.below_u64(12), rng.below_u64(12));
            if !edges[ri].insert(e) {
                continue; // duplicate; BagJoin insert is idempotent too
            }
            total_delta += bj.insert_and_delta(ri, &[e.0, e.1]).unwrap().len();
        }
        // Brute-force triangle count.
        let mut brute = 0usize;
        for &(x, y) in &edges[0] {
            for &(y2, z) in &edges[1] {
                if y != y2 {
                    continue;
                }
                if edges[2].contains(&(z, x)) {
                    brute += 1;
                }
            }
        }
        assert_eq!(total_delta, brute);
    }

    #[test]
    fn deltas_are_disjoint_over_time() {
        // Every result is emitted exactly once across the stream.
        let mut bj = triangle();
        let mut rng = RsjRng::seed_from_u64(23);
        let mut seen: FxHashSet<Vec<u64>> = FxHashSet::default();
        for _ in 0..500 {
            let ri = rng.index(3);
            let t = [rng.below_u64(8), rng.below_u64(8)];
            for d in bj.insert_and_delta(ri, &t).into_iter().flatten() {
                assert!(seen.insert(d.clone()), "duplicate delta {d:?}");
            }
        }
    }

    #[test]
    fn two_relation_bag_is_plain_join() {
        // Bag with R(X,Y), S(Y,Z): delta of S-insert = matching R tuples.
        let mut bj = BagJoin::new(3, &[vec![(0, 0), (1, 1)], vec![(1, 0), (2, 1)]]);
        bj.insert_and_delta(0, &[1, 5]);
        bj.insert_and_delta(0, &[2, 5]);
        let d = bj.insert_and_delta(1, &[5, 9]).unwrap();
        let set: FxHashSet<Vec<u64>> = d.into_iter().collect();
        assert_eq!(set, [vec![1, 5, 9], vec![2, 5, 9]].into_iter().collect());
    }

    #[test]
    fn schema_reordering_respected() {
        // Relation whose schema order differs from bag attr order.
        // Bag attrs: A=0, B=1. Relation schema is (B, A).
        let mut bj = BagJoin::new(2, &[vec![(1, 0), (0, 1)]]);
        let d = bj.insert_and_delta(0, &[7, 3]).unwrap(); // B=7, A=3
        assert_eq!(d, vec![vec![3, 7]]); // output in bag order (A, B)
    }

    #[test]
    fn four_cycle_bag() {
        // Bag = whole 4-cycle: R1(A,B) R2(B,C) R3(C,D) R4(D,A).
        let mut bj = BagJoin::new(
            4,
            &[
                vec![(0, 0), (1, 1)],
                vec![(1, 0), (2, 1)],
                vec![(2, 0), (3, 1)],
                vec![(3, 0), (0, 1)],
            ],
        );
        bj.insert_and_delta(0, &[1, 2]);
        bj.insert_and_delta(1, &[2, 3]);
        bj.insert_and_delta(2, &[3, 4]);
        let d = bj.insert_and_delta(3, &[4, 1]).unwrap();
        assert_eq!(d, vec![vec![1, 2, 3, 4]]);
    }
}
