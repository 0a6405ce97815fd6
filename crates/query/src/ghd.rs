//! Generalized hypertree decompositions (paper §5).
//!
//! A GHD groups the relations of a cyclic query into *bags*; each bag
//! materializes its sub-join (via worst-case-optimal enumeration in
//! `rsj-core`), and the bag-level join is acyclic, so the §4 machinery
//! applies on top. The width of a GHD is the maximum `ρ*` over its bags'
//! induced subqueries; the fractional hypertree width `w(Q)` is the minimum
//! width over GHDs, and drives the `O(N^w log N)` bound of Theorem 5.4.
//!
//! Construction: queries are tiny, so [`Ghd::search`] enumerates set
//! partitions of the relations (Bell(8) = 4140 at most), takes each group's
//! attribute union as a bag, keeps the partitions whose bag-level join is
//! acyclic (GYO), and returns the minimum-width one. This searches the
//! subclass of GHDs whose bags are unions of edge groups — enough to find
//! the optimal decomposition for every query in the paper's evaluation
//! (e.g. width 1.5 for the dumbbell). [`Ghd::manual`] accepts an explicit
//! grouping for queries beyond the search's reach.

use crate::fractional::min_fractional_cover;
use crate::hypergraph::{AttrId, Query, QueryBuilder};
use crate::join_tree::JoinTree;

/// One bag of a GHD.
#[derive(Clone, Debug)]
pub struct Bag {
    /// `λ(u)`: the bag's attributes (union of its relations'), sorted.
    pub attrs: Vec<AttrId>,
    /// Original relations assigned to this bag (each `e ⊆ λ(u)`).
    pub relations: Vec<usize>,
    /// `ρ*` of the join of the *assigned* relations — this bag's width
    /// contribution. (The textbook definition uses the subquery induced by
    /// `λ(u)` over intersections of *all* relations; our cyclic driver
    /// materializes exactly the join of the assigned relations, so the
    /// assigned-only `ρ*` is the bound that actually governs its cost. For
    /// the paper's queries — triangles, dumbbell — the two coincide on the
    /// optimal decomposition.)
    pub rho: f64,
}

/// A generalized hypertree decomposition.
#[derive(Clone, Debug)]
pub struct Ghd {
    bags: Vec<Bag>,
    /// The acyclic *bag-level query*: one relation per bag with schema
    /// `λ(u)` (attribute names borrowed from the original query).
    bag_query: Query,
    width: f64,
}

/// Errors from GHD construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GhdError {
    /// The given grouping does not yield an acyclic bag-level join.
    BagJoinCyclic,
    /// A grouping did not partition the relations.
    NotAPartition,
    /// No acyclic grouping exists within the searched class.
    SearchFailed,
}

impl std::fmt::Display for GhdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GhdError::BagJoinCyclic => write!(f, "bag-level join is cyclic"),
            GhdError::NotAPartition => write!(f, "groups do not partition the relations"),
            GhdError::SearchFailed => write!(f, "no acyclic bag grouping found"),
        }
    }
}

impl std::error::Error for GhdError {}

impl Ghd {
    /// Builds a GHD from an explicit partition of relation indices.
    pub fn manual(q: &Query, groups: &[Vec<usize>]) -> Result<Ghd, GhdError> {
        let mut seen = vec![false; q.num_relations()];
        for g in groups {
            for &r in g {
                if r >= seen.len() || seen[r] {
                    return Err(GhdError::NotAPartition);
                }
                seen[r] = true;
            }
        }
        if !seen.iter().all(|&s| s) {
            return Err(GhdError::NotAPartition);
        }
        Ghd::from_partition(q, groups).ok_or(GhdError::BagJoinCyclic)
    }

    /// Searches all set partitions of the relations for the minimum-width
    /// GHD with an acyclic bag-level join.
    ///
    /// For an already-acyclic query this returns the trivial width-1 GHD
    /// (every relation its own bag).
    pub fn search(q: &Query) -> Result<Ghd, GhdError> {
        let n = q.num_relations();
        assert!(
            n <= 9,
            "GHD search enumerates set partitions; {n} relations is too many — use Ghd::manual"
        );
        let mut best: Option<Ghd> = None;
        // Enumerate set partitions via restricted growth strings.
        let mut rgs = vec![0usize; n];
        loop {
            let num_groups = rgs.iter().copied().max().unwrap_or(0) + 1;
            let mut groups: Vec<Vec<usize>> = vec![Vec::new(); num_groups];
            for (rel, &g) in rgs.iter().enumerate() {
                groups[g].push(rel);
            }
            if let Some(ghd) = Ghd::from_partition(q, &groups) {
                let better = match &best {
                    None => true,
                    Some(b) => {
                        ghd.width < b.width - 1e-9
                            || (ghd.width < b.width + 1e-9 && ghd.bags.len() > b.bags.len())
                    }
                };
                if better {
                    best = Some(ghd);
                }
            }
            if !next_rgs(&mut rgs) {
                break;
            }
        }
        best.ok_or(GhdError::SearchFailed)
    }

    fn from_partition(q: &Query, groups: &[Vec<usize>]) -> Option<Ghd> {
        let mut bags = Vec::with_capacity(groups.len());
        let mut qb = QueryBuilder::new();
        for (gi, g) in groups.iter().enumerate() {
            if g.is_empty() {
                return None;
            }
            let mut attrs: Vec<AttrId> = g
                .iter()
                .flat_map(|&r| q.relation(r).attrs.iter().copied())
                .collect();
            attrs.sort_unstable();
            attrs.dedup();
            let names: Vec<&str> = attrs.iter().map(|&a| q.attr_name(a)).collect();
            qb.relation(&format!("bag{gi}"), &names);
            // ρ* of the assigned relations' join: cover each bag attribute
            // using the assigned relations only.
            let rows: Vec<Vec<usize>> = attrs
                .iter()
                .map(|&a| {
                    (0..g.len())
                        .filter(|&gi| q.relation(g[gi]).contains(a))
                        .collect()
                })
                .collect();
            let rho = min_fractional_cover(g.len(), &rows).0;
            bags.push(Bag {
                rho,
                attrs,
                relations: g.clone(),
            });
        }
        let bag_query = qb.build().ok()?;
        JoinTree::build(&bag_query)?;
        let width = bags.iter().map(|b| b.rho).fold(0.0, f64::max);
        Some(Ghd {
            bags,
            bag_query,
            width,
        })
    }

    /// The bags.
    pub fn bags(&self) -> &[Bag] {
        &self.bags
    }

    /// The acyclic bag-level query.
    pub fn bag_query(&self) -> &Query {
        &self.bag_query
    }

    /// The decomposition's width (`max_u ρ*(Q_u)`).
    pub fn width(&self) -> f64 {
        self.width
    }

    /// The bag a given original relation was assigned to.
    pub fn bag_of(&self, relation: usize) -> usize {
        self.bags
            .iter()
            .position(|b| b.relations.contains(&relation))
            .expect("every relation is assigned to a bag")
    }
}

/// Advances a restricted growth string (canonical set-partition encoding);
/// `false` when exhausted.
fn next_rgs(rgs: &mut [usize]) -> bool {
    let n = rgs.len();
    // Find rightmost position that can be incremented: rgs[i] can go up to
    // max(rgs[..i]) + 1.
    for i in (1..n).rev() {
        let max_prefix = rgs[..i].iter().copied().max().unwrap_or(0);
        if rgs[i] <= max_prefix {
            rgs[i] += 1;
            for x in rgs[i + 1..].iter_mut() {
                *x = 0;
            }
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypergraph::QueryBuilder;

    fn dumbbell() -> Query {
        let mut qb = QueryBuilder::new();
        qb.relation("R1", &["x1", "x2"]);
        qb.relation("R2", &["x1", "x3"]);
        qb.relation("R3", &["x2", "x3"]);
        qb.relation("R4", &["x5", "x6"]);
        qb.relation("R5", &["x4", "x5"]);
        qb.relation("R6", &["x4", "x6"]);
        qb.relation("R7", &["x3", "x4"]);
        qb.build().unwrap()
    }

    fn triangle() -> Query {
        let mut qb = QueryBuilder::new();
        qb.relation("R1", &["X", "Y"]);
        qb.relation("R2", &["Y", "Z"]);
        qb.relation("R3", &["Z", "X"]);
        qb.build().unwrap()
    }

    #[test]
    fn rgs_enumerates_bell_numbers() {
        let mut rgs = vec![0usize; 4];
        let mut count = 1;
        while next_rgs(&mut rgs) {
            count += 1;
        }
        assert_eq!(count, 15); // Bell(4)
    }

    #[test]
    fn triangle_ghd_is_one_bag_width_1_5() {
        let q = triangle();
        let ghd = Ghd::search(&q).unwrap();
        assert_eq!(ghd.bags().len(), 1);
        assert!((ghd.width() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn dumbbell_ghd_width_1_5_three_bags() {
        let q = dumbbell();
        let ghd = Ghd::search(&q).unwrap();
        assert!((ghd.width() - 1.5).abs() < 1e-9, "width={}", ghd.width());
        assert_eq!(ghd.bags().len(), 3);
        // The bridge R7 sits alone in a width-1 bag.
        let bridge_bag = ghd.bag_of(6);
        assert!((ghd.bags()[bridge_bag].rho - 1.0).abs() < 1e-9);
        // Bag-level join is a path, hence acyclic by construction.
        assert_eq!(JoinTree::build(ghd.bag_query()).unwrap().edges().len(), 2);
    }

    #[test]
    fn manual_matches_search_on_dumbbell() {
        let q = dumbbell();
        let ghd = Ghd::manual(&q, &[vec![0, 1, 2], vec![6], vec![3, 4, 5]]).unwrap();
        assert!((ghd.width() - 1.5).abs() < 1e-9);
        assert_eq!(ghd.bag_of(0), 0);
        assert_eq!(ghd.bag_of(6), 1);
        assert_eq!(ghd.bag_of(4), 2);
    }

    #[test]
    fn manual_rejects_non_partition() {
        let q = triangle();
        assert_eq!(
            Ghd::manual(&q, &[vec![0, 1]]).unwrap_err(),
            GhdError::NotAPartition
        );
        assert_eq!(
            Ghd::manual(&q, &[vec![0, 0, 1, 2]]).unwrap_err(),
            GhdError::NotAPartition
        );
    }

    #[test]
    fn acyclic_query_gets_trivial_ghd() {
        let mut qb = QueryBuilder::new();
        qb.relation("G1", &["A", "B"]);
        qb.relation("G2", &["B", "C"]);
        let q = qb.build().unwrap();
        let ghd = Ghd::search(&q).unwrap();
        assert_eq!(ghd.bags().len(), 2);
        assert!((ghd.width() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cycle4_ghd_width_2() {
        let mut qb = QueryBuilder::new();
        qb.relation("R1", &["A", "B"]);
        qb.relation("R2", &["B", "C"]);
        qb.relation("R3", &["C", "D"]);
        qb.relation("R4", &["D", "A"]);
        let q = qb.build().unwrap();
        let ghd = Ghd::search(&q).unwrap();
        // Fractional hypertree width of the 4-cycle is 2 within this search
        // class (e.g. two opposite edges per bag).
        assert!(ghd.width() <= 2.0 + 1e-9);
        assert!(ghd.width() >= 1.5 - 1e-9);
    }

    #[test]
    fn bag_query_preserves_attr_names() {
        let q = dumbbell();
        let ghd = Ghd::search(&q).unwrap();
        let names: Vec<&str> = ghd
            .bag_query()
            .attr_names()
            .iter()
            .map(String::as_str)
            .collect();
        for x in ["x1", "x2", "x3", "x4", "x5", "x6"] {
            assert!(names.contains(&x), "missing {x}");
        }
    }
}
