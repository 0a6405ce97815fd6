//! The execution plan of an acyclic query: a join tree and a sampling
//! root.
//!
//! The paper's RSJoin (Alg. 6, Thm 4.2) keeps one join tree for the whole
//! stream and samples through it. A plan is fixed when the sampler is
//! built: [`Plan::canonical`] (the GYO tree, root 0) unless the caller
//! hands one in. The tree decides how the dynamic index is materialized;
//! the root decides which rooted view full-result draws (delete repair
//! backfill) descend. Every rooted view is maintained either way, so any
//! root is statistically correct.

use crate::hypergraph::Query;
use crate::join_tree::JoinTree;
use rsj_common::codec::{CodecError, Decoder, Encoder};

/// A join tree and the root sampling draws through.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The join tree the index is built over. For the canonical plan this
    /// is the [`JoinTree::build`] instance verbatim (same adjacency
    /// order), so consumers reproduce the GYO index layout exactly.
    pub tree: JoinTree,
    /// The rooted view sampling draws through (repair backfill, full
    /// result sampling).
    pub root: usize,
}

impl Plan {
    /// The canonical plan: GYO tree, root 0. `None` for cyclic queries
    /// *only*: an acyclic query the index cannot materialize (a key wider
    /// than the arity cap) still gets its canonical plan, so index
    /// construction reports the real `KeyTooWide` error instead of this
    /// function masking it as "cyclic".
    pub fn canonical(q: &Query) -> Option<Plan> {
        Some(Plan {
            tree: JoinTree::build(q)?,
            root: 0,
        })
    }

    /// Serializes the plan, tree adjacency order included (see
    /// [`JoinTree::snapshot_to`] for why the order matters).
    pub fn snapshot_to(&self, enc: &mut Encoder) {
        self.tree.snapshot_to(enc);
        enc.put_usize(self.root);
    }

    /// Reconstructs a plan from [`snapshot_to`](Plan::snapshot_to) bytes.
    pub fn restore_from(dec: &mut Decoder) -> Result<Plan, CodecError> {
        let tree = JoinTree::restore_from(dec)?;
        let root = dec.usize()?;
        if root >= tree.len() {
            return Err(CodecError::Corrupt("plan root out of range"));
        }
        Ok(Plan { tree, root })
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

    fn snap(p: &Plan) -> Vec<u8> {
        let mut e = Encoder::new();
        p.snapshot_to(&mut e);
        e.into_bytes()
    }

    #[test]
    fn the_canonical_plan_is_the_gyo_tree_at_root_0() {
        let q = line3();
        let plan = Plan::canonical(&q).unwrap();
        assert_eq!(plan.root, 0);
        assert_eq!(
            plan.tree.canonical_edges(),
            JoinTree::build(&q).unwrap().canonical_edges()
        );
    }

    #[test]
    fn cyclic_queries_have_no_plan() {
        let mut qb = QueryBuilder::new();
        qb.relation("R1", &["X", "Y"]);
        qb.relation("R2", &["Y", "Z"]);
        qb.relation("R3", &["Z", "X"]);
        assert!(Plan::canonical(&qb.build().unwrap()).is_none());
    }

    #[test]
    fn plan_snapshot_round_trips() {
        let mut plan = Plan::canonical(&line3()).unwrap();
        plan.root = 2;
        let bytes = snap(&plan);
        let mut dec = Decoder::new(&bytes);
        let plan2 = Plan::restore_from(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(plan2.root, 2);
        for i in 0..plan.tree.len() {
            assert_eq!(plan2.tree.neighbors(i), plan.tree.neighbors(i));
        }
        assert_eq!(snap(&plan2), bytes);
    }

    #[test]
    fn an_image_with_an_out_of_range_root_is_rejected() {
        let mut plan = Plan::canonical(&line3()).unwrap();
        plan.root = 3;
        let Err(err) = Plan::restore_from(&mut Decoder::new(&snap(&plan))) else {
            panic!("root 3 of a 3-relation tree restored");
        };
        assert!(err.to_string().contains("plan root out of range"), "{err}");
    }
}
