//! Foreign-key join combination (paper §4.4, "Foreign-keys").
//!
//! When `R_i ⋈_X R_j` joins on the primary key `X` of `R_j`, each `R_i`
//! tuple matches at most one `R_j` tuple, so the pair can be treated as a
//! single relation `R_ij = R_i ⋈ R_j`. Applied recursively this collapses
//! the foreign-key spine of a star/snowflake query into a handful of wide
//! relations (Example 4.6), shrinking the join tree the dynamic index must
//! maintain — the `RSJoin_opt` / `SJoin_opt` variants of §6.
//!
//! This module performs the *static* rewrite: given per-relation primary
//! keys, it computes which relations merge into which, the resulting
//! [`CombinePlan`] (consumed by the runtime combiner in `rsj-core`), and
//! the rewritten [`Query`].

use crate::hypergraph::{AttrId, Query, QueryBuilder};

/// Why the foreign-key rewrite could not be computed for a query.
///
/// These are the construction failures a caller can reach with ordinary
/// (if malformed) input; they route through the engine factories' build
/// errors instead of panicking mid-construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CombineError {
    /// The [`FkSchema`] declares keys for a different number of relations
    /// than the query has.
    SchemaArityMismatch {
        /// Relations in the query.
        relations: usize,
        /// Entries in [`FkSchema::primary_keys`].
        declared: usize,
    },
    /// A declared primary key is empty or wider than the inline composite
    /// key the runtime combiner can project (`MAX_KEY_ARITY`).
    UnusableKey {
        /// The relation whose key is unusable.
        relation: usize,
        /// The declared key arity.
        arity: usize,
    },
    /// The rewritten query failed validation (e.g. the merge left a
    /// degenerate hypergraph the query builder rejects).
    MalformedRewrite(String),
}

impl std::fmt::Display for CombineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CombineError::SchemaArityMismatch {
                relations,
                declared,
            } => write!(
                f,
                "FkSchema declares keys for {declared} relations but the query has {relations}"
            ),
            CombineError::UnusableKey { relation, arity } => write!(
                f,
                "relation {relation} declares a primary key of arity {arity}, \
                 outside the combinable range 1..={}",
                rsj_common::value::MAX_KEY_ARITY
            ),
            CombineError::MalformedRewrite(m) => {
                write!(f, "foreign-key rewrite produced a malformed query: {m}")
            }
        }
    }
}

impl std::error::Error for CombineError {}

/// Primary-key metadata for the relations of a query.
#[derive(Clone, Debug, Default)]
pub struct FkSchema {
    /// `primary_keys[r]` is the set of attribute ids forming `R_r`'s primary
    /// key, if declared. Sorted.
    pub primary_keys: Vec<Option<Vec<AttrId>>>,
}

impl FkSchema {
    /// No primary keys declared: the rewrite is the identity.
    pub fn none(num_relations: usize) -> FkSchema {
        FkSchema {
            primary_keys: vec![None; num_relations],
        }
    }

    /// Declares `attrs` as the primary key of relation `r`.
    pub fn with_pk(mut self, r: usize, mut attrs: Vec<AttrId>) -> FkSchema {
        attrs.sort_unstable();
        self.primary_keys[r] = Some(attrs);
        self
    }
}

/// One dimension join inside a combined relation, in application order.
#[derive(Clone, Debug)]
pub struct DimJoin {
    /// The original relation acting as dimension.
    pub dim: usize,
    /// Positions *in the accumulated tuple* (fact schema plus previously
    /// appended dim attributes) of the foreign-key attributes, sorted by
    /// attribute id.
    pub fk_positions_in_acc: Vec<usize>,
    /// Positions of the primary-key attributes in the dimension's schema,
    /// sorted by attribute id (same order as `fk_positions_in_acc`).
    pub pk_positions_in_dim: Vec<usize>,
    /// Dimension schema positions appended to the accumulated tuple
    /// (the non-key attributes).
    pub append_positions: Vec<usize>,
}

/// A combined relation: one fact plus zero or more dimension joins.
#[derive(Clone, Debug)]
pub struct CombinedRelation {
    /// Display name, e.g. `"store_sales⋈d1⋈c1"`.
    pub name: String,
    /// The original fact relation.
    pub fact: usize,
    /// Dimension joins in application order.
    pub dims: Vec<DimJoin>,
    /// Resulting schema as attribute ids of the *original* query.
    pub schema_attrs: Vec<AttrId>,
}

/// Where an original relation's tuples are routed after the rewrite.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Routing {
    /// The relation is the fact of a combined relation.
    Fact {
        /// Index of the combined relation in the rewritten query.
        combined: usize,
    },
    /// The relation is a dimension of a combined relation.
    Dim {
        /// Index of the combined relation in the rewritten query.
        combined: usize,
        /// Which dimension-join step this relation feeds.
        step: usize,
    },
}

/// The complete static output of the foreign-key rewrite.
#[derive(Clone, Debug)]
pub struct CombinePlan {
    /// Combined relations, in the order they appear in [`Self::rewritten`].
    pub combined: Vec<CombinedRelation>,
    /// The rewritten query over the combined relations.
    pub rewritten: Query,
    /// `routing[r]` for every original relation `r`.
    pub routing: Vec<Routing>,
}

impl CombinePlan {
    /// Computes the foreign-key rewrite.
    ///
    /// Greedy fixpoint: repeatedly find an alive relation `i` and an
    /// *original, un-merged* relation `j ≠ i` such that the shared
    /// attributes of `i`'s current schema and `j` equal `j`'s primary key;
    /// merge `j` into `i` as a dimension. Relations that never merge become
    /// trivial single-fact combined relations.
    ///
    /// Malformed input — a schema sized for a different query, a key the
    /// runtime combiner cannot project, a rewrite the query builder
    /// rejects — returns a [`CombineError`] instead of panicking; the
    /// engine factories surface it through their build errors.
    pub fn build(q: &Query, fks: &FkSchema) -> Result<CombinePlan, CombineError> {
        let n = q.num_relations();
        if fks.primary_keys.len() != n {
            return Err(CombineError::SchemaArityMismatch {
                relations: n,
                declared: fks.primary_keys.len(),
            });
        }
        for (r, pk) in fks.primary_keys.iter().enumerate() {
            if let Some(pk) = pk {
                if pk.is_empty() || pk.len() > rsj_common::value::MAX_KEY_ARITY {
                    return Err(CombineError::UnusableKey {
                        relation: r,
                        arity: pk.len(),
                    });
                }
            }
        }
        let mut combined: Vec<CombinedRelation> = (0..n)
            .map(|r| CombinedRelation {
                name: q.relation(r).name.clone(),
                fact: r,
                dims: Vec::new(),
                schema_attrs: q.relation(r).attrs.clone(),
            })
            .collect();
        let mut alive = vec![true; n];
        let mut merged_into: Vec<Option<usize>> = vec![None; n];

        loop {
            let mut merge: Option<(usize, usize)> = None;
            'outer: for i in 0..n {
                if !alive[i] {
                    continue;
                }
                for j in 0..n {
                    if i == j || !alive[j] {
                        continue;
                    }
                    // j must be an original, never-combined relation with a
                    // declared PK.
                    if !combined[j].dims.is_empty() {
                        continue;
                    }
                    let Some(pk) = &fks.primary_keys[j] else {
                        continue;
                    };
                    let mut shared: Vec<AttrId> = combined[i]
                        .schema_attrs
                        .iter()
                        .copied()
                        .filter(|a| q.relation(j).contains(*a))
                        .collect();
                    shared.sort_unstable();
                    shared.dedup();
                    if !shared.is_empty() && &shared == pk {
                        merge = Some((i, j));
                        break 'outer;
                    }
                }
            }
            let Some((i, j)) = merge else { break };
            let pk = fks.primary_keys[j].clone().expect("checked above");
            let acc_schema = combined[i].schema_attrs.clone();
            let fk_positions_in_acc: Vec<usize> = pk
                .iter()
                .map(|a| {
                    acc_schema
                        .iter()
                        .position(|b| b == a)
                        .expect("FK attr in accumulated schema")
                })
                .collect();
            let pk_positions_in_dim: Vec<usize> = pk
                .iter()
                .map(|a| q.relation(j).position_of(*a).expect("PK attr in dim"))
                .collect();
            let append_positions: Vec<usize> = (0..q.relation(j).attrs.len())
                .filter(|p| {
                    let a = q.relation(j).attrs[*p];
                    !acc_schema.contains(&a)
                })
                .collect();
            let appended_attrs: Vec<AttrId> = append_positions
                .iter()
                .map(|&p| q.relation(j).attrs[p])
                .collect();
            let dim_name = q.relation(j).name.clone();
            let target = &mut combined[i];
            target.dims.push(DimJoin {
                dim: j,
                fk_positions_in_acc,
                pk_positions_in_dim,
                append_positions,
            });
            target.schema_attrs.extend(appended_attrs);
            target.name = format!("{}⋈{}", target.name, dim_name);
            alive[j] = false;
            merged_into[j] = Some(i);
        }

        // Assemble routing and the rewritten query (alive relations only).
        let alive_ids: Vec<usize> = (0..n).filter(|&i| alive[i]).collect();
        let mut routing = vec![
            Routing::Fact {
                combined: usize::MAX
            };
            n
        ];
        let mut out_combined = Vec::with_capacity(alive_ids.len());
        let mut qb = QueryBuilder::new();
        for (out_idx, &i) in alive_ids.iter().enumerate() {
            let c = combined[i].clone();
            routing[c.fact] = Routing::Fact { combined: out_idx };
            for (step, d) in c.dims.iter().enumerate() {
                routing[d.dim] = Routing::Dim {
                    combined: out_idx,
                    step,
                };
            }
            let names: Vec<&str> = c.schema_attrs.iter().map(|&a| q.attr_name(a)).collect();
            qb.relation(&c.name, &names);
            out_combined.push(c);
        }
        let rewritten = qb
            .build()
            .map_err(|e| CombineError::MalformedRewrite(e.to_string()))?;
        Ok(CombinePlan {
            combined: out_combined,
            rewritten,
            routing,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// QY-like shape: ss(CK,M) ⋈ c1(CK, HD) ⋈ d1(HD, IB) ⋈ d2(IB, HD2) ⋈
    /// c2(HD2, M2), with PKs: c1 on CK, d1 on HD, d2 on HD2... here we
    /// mirror the paper: c joins d on d's PK.
    fn qy_like() -> (Query, FkSchema) {
        let mut qb = QueryBuilder::new();
        let ss = qb.relation("ss", &["CK", "M"]);
        let c1 = qb.relation("c1", &["CK", "HD1"]);
        let d1 = qb.relation("d1", &["HD1", "IB"]);
        let d2 = qb.relation("d2", &["HD2", "IB"]);
        let c2 = qb.relation("c2", &["HD2", "M2"]);
        let q = qb.build().unwrap();
        // Attr ids: CK=0, M=1, HD1=2, IB=3, HD2=4, M2=5.
        let fks = FkSchema::none(5)
            .with_pk(c1, vec![0])
            .with_pk(d1, vec![2])
            .with_pk(d2, vec![4]);
        let _ = (ss, c2);
        (q, fks)
    }

    #[test]
    fn identity_without_pks() {
        let mut qb = QueryBuilder::new();
        qb.relation("R", &["X", "Y"]);
        qb.relation("S", &["Y", "Z"]);
        let q = qb.build().unwrap();
        let plan = CombinePlan::build(&q, &FkSchema::none(2)).unwrap();
        assert!(plan.combined.iter().all(|c| c.dims.is_empty()));
        assert_eq!(plan.rewritten.num_relations(), 2);
        assert_eq!(plan.routing[0], Routing::Fact { combined: 0 });
    }

    #[test]
    fn qy_collapses_to_two_relations() {
        let (q, fks) = qy_like();
        let plan = CombinePlan::build(&q, &fks).unwrap();
        // ss absorbs c1 then d1; c2 absorbs d2. Two relations remain,
        // joined on IB — the paper's QY outcome.
        assert_eq!(plan.rewritten.num_relations(), 2);
        let shared = plan.rewritten.shared_attrs(0, 1);
        assert_eq!(shared.len(), 1);
        let names: Vec<&str> = shared
            .iter()
            .map(|&a| plan.rewritten.attr_name(a))
            .collect();
        assert_eq!(names, vec!["IB"]);
    }

    #[test]
    fn dim_routing_points_at_steps() {
        let (q, fks) = qy_like();
        let plan = CombinePlan::build(&q, &fks).unwrap();
        // c1 (rel 1) is step 0 of ss's combined relation; d1 (rel 2) step 1.
        let ss_combined = match plan.routing[0] {
            Routing::Fact { combined } => combined,
            _ => panic!("ss must be a fact"),
        };
        assert_eq!(
            plan.routing[1],
            Routing::Dim {
                combined: ss_combined,
                step: 0
            }
        );
        assert_eq!(
            plan.routing[2],
            Routing::Dim {
                combined: ss_combined,
                step: 1
            }
        );
    }

    #[test]
    fn combined_schema_orders_fact_then_appended() {
        let (q, fks) = qy_like();
        let plan = CombinePlan::build(&q, &fks).unwrap();
        let ss = &plan.combined[0];
        // Schema: CK, M (fact) then HD1 (from c1) then IB (from d1).
        let names: Vec<&str> = ss.schema_attrs.iter().map(|&a| q.attr_name(a)).collect();
        assert_eq!(names, vec!["CK", "M", "HD1", "IB"]);
        // Step 0 (c1): FK = CK at acc position 0, PK at dim position 0,
        // appends HD1 (dim position 1).
        assert_eq!(ss.dims[0].fk_positions_in_acc, vec![0]);
        assert_eq!(ss.dims[0].pk_positions_in_dim, vec![0]);
        assert_eq!(ss.dims[0].append_positions, vec![1]);
        // Step 1 (d1): FK = HD1 now at acc position 2.
        assert_eq!(ss.dims[1].fk_positions_in_acc, vec![2]);
    }

    #[test]
    fn example_4_6_chain() {
        // Q := R1(X,Y) ⋈ R2(Y,Z) ⋈ R3(Z,W,U) ⋈ R4(U,A) ⋈ R5(A,C) ⋈ R6(C,E)
        // with PKs Y(R2)... the paper declares PKs on R3.Z, R4.U, R5.A? Per
        // Example 4.6 the result is R1 ⋈ S(Y..A) ⋈ T(A,C,E) with
        // S = R2⋈R3⋈R4 and T = R5⋈R6.
        let mut qb = QueryBuilder::new();
        qb.relation("R1", &["X", "Y"]);
        qb.relation("R2", &["Y", "Z"]);
        qb.relation("R3", &["Z", "W", "U"]);
        qb.relation("R4", &["U", "A"]);
        qb.relation("R5", &["A", "C"]);
        qb.relation("R6", &["C", "E"]);
        let q = qb.build().unwrap();
        // Attr ids: X=0 Y=1 Z=2 W=3 U=4 A=5 C=6 E=7.
        let fks = FkSchema::none(6)
            .with_pk(2, vec![2]) // R3 PK Z
            .with_pk(3, vec![4]) // R4 PK U
            .with_pk(5, vec![6]); // R6 PK C
        let plan = CombinePlan::build(&q, &fks).unwrap();
        assert_eq!(plan.rewritten.num_relations(), 3);
        let sizes: Vec<usize> = plan.combined.iter().map(|c| c.dims.len()).collect();
        // R1 alone, R2 absorbs R3+R4, R5 absorbs R6.
        assert_eq!(sizes, vec![0, 2, 1]);
    }

    #[test]
    fn partial_pk_overlap_does_not_merge() {
        // Shared attrs must equal the *whole* PK.
        let mut qb = QueryBuilder::new();
        qb.relation("F", &["A"]);
        qb.relation("D", &["A", "B"]);
        let q = qb.build().unwrap();
        let fks = FkSchema::none(2).with_pk(1, vec![0, 1]); // PK = (A, B)
        let plan = CombinePlan::build(&q, &fks).unwrap();
        assert!(plan.combined.iter().all(|c| c.dims.is_empty()));
    }

    #[test]
    fn mis_sized_schema_is_a_typed_error() {
        // An FkSchema built for another query used to trip an assert deep
        // inside the rewrite; now it is a plain build error.
        let mut qb = QueryBuilder::new();
        qb.relation("R", &["X", "Y"]);
        qb.relation("S", &["Y", "Z"]);
        let q = qb.build().unwrap();
        let err = CombinePlan::build(&q, &FkSchema::none(3)).unwrap_err();
        assert_eq!(
            err,
            CombineError::SchemaArityMismatch {
                relations: 2,
                declared: 3
            }
        );
        assert!(err.to_string().contains("declares keys for 3 relations"));
    }

    #[test]
    fn oversized_primary_key_is_a_typed_error() {
        // A PK wider than MAX_KEY_ARITY would overflow the runtime
        // combiner's inline Key projection.
        let mut qb = QueryBuilder::new();
        qb.relation("F", &["A", "B", "C", "D", "E"]);
        qb.relation("D5", &["A", "B", "C", "D", "E", "W"]);
        let q = qb.build().unwrap();
        let fks = FkSchema::none(2).with_pk(1, vec![0, 1, 2, 3, 4]);
        assert_eq!(
            CombinePlan::build(&q, &fks).unwrap_err(),
            CombineError::UnusableKey {
                relation: 1,
                arity: 5
            }
        );
        // An empty PK is equally unusable (it would merge on nothing).
        let fks = FkSchema::none(2).with_pk(1, vec![]);
        assert!(matches!(
            CombinePlan::build(&q, &fks).unwrap_err(),
            CombineError::UnusableKey { arity: 0, .. }
        ));
    }
}
