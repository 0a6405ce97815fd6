//! Query hypergraphs and their builder.
//!
//! Natural-join semantics: two relations join on every attribute *name* they
//! share. Attributes are interned to dense ids; a relation's schema is the
//! ordered list of its attribute ids, and tuples flow in schema order.

use rsj_common::FxHashMap;

/// Dense attribute identifier within one query.
pub(crate) type AttrId = usize;

/// One relation's schema within a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelSchema {
    /// Display name (e.g. `"G1"`, `"store_sales"`).
    pub name: String,
    /// Attribute ids in schema (tuple) order. No duplicates.
    pub attrs: Vec<AttrId>,
}

impl RelSchema {
    /// Position of attribute `a` in this schema, if present.
    pub fn position_of(&self, a: AttrId) -> Option<usize> {
        self.attrs.iter().position(|&x| x == a)
    }

    /// True if the schema contains attribute `a`.
    pub fn contains(&self, a: AttrId) -> bool {
        self.attrs.contains(&a)
    }
}

/// A natural join query: attributes and relation schemas.
#[derive(Clone, Debug)]
pub struct Query {
    attr_names: Vec<String>,
    relations: Vec<RelSchema>,
}

impl Query {
    /// All attribute names, indexed by `AttrId`.
    pub fn attr_names(&self) -> &[String] {
        &self.attr_names
    }

    /// Number of attributes `|V|`.
    pub fn num_attrs(&self) -> usize {
        self.attr_names.len()
    }

    /// The relation schemas `E`.
    pub fn relations(&self) -> &[RelSchema] {
        &self.relations
    }

    /// Number of relations `|E|`.
    pub fn num_relations(&self) -> usize {
        self.relations.len()
    }

    /// The schema of relation `idx`.
    pub fn relation(&self, idx: usize) -> &RelSchema {
        &self.relations[idx]
    }

    /// The name of attribute `a`.
    pub fn attr_name(&self, a: AttrId) -> &str {
        &self.attr_names[a]
    }

    /// Attribute ids shared by relations `i` and `j`, in `i`'s schema order.
    pub fn shared_attrs(&self, i: usize, j: usize) -> Vec<AttrId> {
        self.relations[i]
            .attrs
            .iter()
            .copied()
            .filter(|a| self.relations[j].contains(*a))
            .collect()
    }

    /// Relations whose schema contains attribute `a`.
    pub fn relations_with_attr(&self, a: AttrId) -> Vec<usize> {
        (0..self.relations.len())
            .filter(|&i| self.relations[i].contains(a))
            .collect()
    }

    /// True if the query's join graph is connected (every pair of relations
    /// linked through shared attributes). The drivers require connectivity;
    /// a disconnected query is a Cartesian product of independent joins.
    fn is_connected(&self) -> bool {
        let n = self.relations.len();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(i) = stack.pop() {
            for j in 0..n {
                if !seen[j] && !self.shared_attrs(i, j).is_empty() {
                    seen[j] = true;
                    stack.push(j);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }
}

/// Builder for [`Query`], interning attribute names.
///
/// ```
/// use rsj_query::QueryBuilder;
/// let mut qb = QueryBuilder::new();
/// qb.relation("G1", &["A", "B"]);
/// qb.relation("G2", &["B", "C"]);
/// let q = qb.build().unwrap();
/// assert_eq!(q.num_attrs(), 3);
/// ```
#[derive(Debug, Default)]
pub struct QueryBuilder {
    attr_names: Vec<String>,
    attr_ids: FxHashMap<String, AttrId>,
    relations: Vec<RelSchema>,
}

/// Errors from query construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// A relation listed the same attribute twice.
    DuplicateAttr {
        /// Offending relation name.
        relation: String,
        /// The duplicated attribute name.
        attr: String,
    },
    /// The query has no relations.
    Empty,
    /// The join graph is disconnected.
    Disconnected,
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::DuplicateAttr { relation, attr } => {
                write!(f, "relation {relation} lists attribute {attr} twice")
            }
            QueryError::Empty => write!(f, "query has no relations"),
            QueryError::Disconnected => write!(f, "join graph is disconnected"),
        }
    }
}

impl std::error::Error for QueryError {}

impl QueryBuilder {
    /// Creates an empty builder.
    pub fn new() -> QueryBuilder {
        QueryBuilder::default()
    }

    /// Adds a relation with the given attribute names; returns its index.
    pub fn relation(&mut self, name: &str, attrs: &[&str]) -> usize {
        let ids = attrs.iter().map(|a| self.intern(a)).collect();
        self.relations.push(RelSchema {
            name: name.to_string(),
            attrs: ids,
        });
        self.relations.len() - 1
    }

    fn intern(&mut self, name: &str) -> AttrId {
        if let Some(&id) = self.attr_ids.get(name) {
            return id;
        }
        let id = self.attr_names.len();
        self.attr_names.push(name.to_string());
        self.attr_ids.insert(name.to_string(), id);
        id
    }

    /// Finalizes the query, validating schemas and connectivity.
    pub fn build(self) -> Result<Query, QueryError> {
        if self.relations.is_empty() {
            return Err(QueryError::Empty);
        }
        for r in &self.relations {
            let mut seen = vec![false; self.attr_names.len()];
            for &a in &r.attrs {
                if seen[a] {
                    return Err(QueryError::DuplicateAttr {
                        relation: r.name.clone(),
                        attr: self.attr_names[a].clone(),
                    });
                }
                seen[a] = true;
            }
        }
        let q = Query {
            attr_names: self.attr_names,
            relations: self.relations,
        };
        if !q.is_connected() {
            return Err(QueryError::Disconnected);
        }
        Ok(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line3() -> Query {
        let mut qb = QueryBuilder::new();
        qb.relation("G1", &["A", "B"]);
        qb.relation("G2", &["B", "C"]);
        qb.relation("G3", &["C", "D"]);
        qb.build().unwrap()
    }

    #[test]
    fn builder_interns_attrs() {
        let q = line3();
        assert_eq!(q.num_attrs(), 4);
        assert_eq!(q.num_relations(), 3);
        // B shared between G1 and G2.
        assert_eq!(q.shared_attrs(0, 1), vec![1]);
        assert_eq!(q.shared_attrs(0, 2), Vec::<AttrId>::new());
    }

    #[test]
    fn relations_with_attr() {
        let q = line3();
        let b = 1; // attr "B"
        assert_eq!(q.relations_with_attr(b), vec![0, 1]);
    }

    #[test]
    fn duplicate_attr_rejected() {
        let mut qb = QueryBuilder::new();
        qb.relation("R", &["X", "X"]);
        assert!(matches!(qb.build(), Err(QueryError::DuplicateAttr { .. })));
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(QueryBuilder::new().build().unwrap_err(), QueryError::Empty);
    }

    #[test]
    fn disconnected_rejected() {
        let mut qb = QueryBuilder::new();
        qb.relation("R", &["X"]);
        qb.relation("S", &["Y"]);
        assert_eq!(qb.build().unwrap_err(), QueryError::Disconnected);
    }

    #[test]
    fn single_relation_is_connected() {
        let mut qb = QueryBuilder::new();
        qb.relation("R", &["X", "Y"]);
        assert!(qb.build().is_ok());
    }

    #[test]
    fn schema_position_lookup() {
        let q = line3();
        let g2 = q.relation(1);
        assert_eq!(g2.position_of(1), Some(0)); // B first in G2
        assert_eq!(g2.position_of(2), Some(1)); // C second
        assert_eq!(g2.position_of(0), None);
    }
}
