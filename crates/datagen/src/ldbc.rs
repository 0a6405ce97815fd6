//! `ldbc-lite`: the LDBC-SNB tables touched by BI query Q10.
//!
//! Q10 (paper Appendix A) joins `Message → HasTag ×2 → Tag ×2 → TagClass`,
//! `Message → Person1 → City → Country`, and `Person1 → Knows → Person2`.
//! The generator preserves the cardinality pyramid
//! (messages ≫ persons ≫ cities ≫ countries), the tag fan-out per message,
//! and the `Knows` many-to-many edge with Zipf-skewed endpoints. Static
//! tables (`Tag`, `TagClass`, `City`, `Country`) are pre-loaded in the
//! harness; dynamic tables stream — matching §6.1.

use crate::graph::Zipf;
use rsj_common::rng::RsjRng;
use rsj_common::{FxHashSet, Value};

/// One generated LDBC-lite instance.
#[derive(Clone, Debug)]
pub struct LdbcLite {
    /// `(id,)`
    pub country: Vec<[Value; 1]>,
    /// `(id, part_of_place_id)`
    pub city: Vec<[Value; 2]>,
    /// `(id,)`
    pub tag_class: Vec<[Value; 1]>,
    /// `(id, type_tag_class_id)`
    pub tag: Vec<[Value; 2]>,
    /// `(id, location_city_id)`
    pub person: Vec<[Value; 2]>,
    /// `(person1_id, person2_id)`
    pub knows: Vec<[Value; 2]>,
    /// `(id, creator_person_id)`
    pub message: Vec<[Value; 2]>,
    /// `(message_id, tag_id)`
    pub has_tag: Vec<[Value; 2]>,
}

impl LdbcLite {
    /// Generates an instance at scale factor `sf` (≥ 1).
    pub fn generate(sf: usize, seed: u64) -> LdbcLite {
        assert!(sf >= 1);
        let mut rng = RsjRng::seed_from_u64(seed);
        let n_countries = 20;
        let n_cities = 100;
        let n_tag_classes = 10;
        let n_tags = 120;
        let n_persons = 300 * sf;
        let n_knows = 1500 * sf;
        let n_messages = 2500 * sf;

        let country: Vec<[Value; 1]> = (0..n_countries).map(|i| [i as Value]).collect();
        let city: Vec<[Value; 2]> = (0..n_cities)
            .map(|i| [i as Value, rng.below_u64(n_countries as u64)])
            .collect();
        let tag_class: Vec<[Value; 1]> = (0..n_tag_classes).map(|i| [i as Value]).collect();
        let tag: Vec<[Value; 2]> = (0..n_tags)
            .map(|i| [i as Value, rng.below_u64(n_tag_classes as u64)])
            .collect();
        let person: Vec<[Value; 2]> = (0..n_persons)
            .map(|i| [i as Value, rng.below_u64(n_cities as u64)])
            .collect();

        let person_zipf = Zipf::new(n_persons, 0.9);
        let mut knows_set: FxHashSet<(Value, Value)> = FxHashSet::default();
        let mut knows = Vec::with_capacity(n_knows);
        let mut attempts = 0;
        while knows.len() < n_knows && attempts < n_knows * 50 {
            attempts += 1;
            let a = person_zipf.sample(&mut rng) as Value;
            let b = person_zipf.sample(&mut rng) as Value;
            if a != b && knows_set.insert((a, b)) {
                knows.push([a, b]);
            }
        }

        let tag_zipf = Zipf::new(n_tags, 1.0);
        let message: Vec<[Value; 2]> = (0..n_messages)
            .map(|i| [i as Value, person_zipf.sample(&mut rng) as Value])
            .collect();
        let mut has_tag = Vec::new();
        let mut seen_mt: FxHashSet<(Value, Value)> = FxHashSet::default();
        for m in &message {
            // 1–3 distinct tags per message.
            let n = 1 + rng.index(3);
            for _ in 0..n {
                let t = tag_zipf.sample(&mut rng) as Value;
                if seen_mt.insert((m[0], t)) {
                    has_tag.push([m[0], t]);
                }
            }
        }

        LdbcLite {
            country,
            city,
            tag_class,
            tag,
            person,
            knows,
            message,
            has_tag,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn referential_integrity() {
        let d = LdbcLite::generate(1, 3);
        let countries: FxHashSet<Value> = d.country.iter().map(|r| r[0]).collect();
        let cities: FxHashSet<Value> = d.city.iter().map(|r| r[0]).collect();
        let classes: FxHashSet<Value> = d.tag_class.iter().map(|r| r[0]).collect();
        let tags: FxHashSet<Value> = d.tag.iter().map(|r| r[0]).collect();
        let persons: FxHashSet<Value> = d.person.iter().map(|r| r[0]).collect();
        let messages: FxHashSet<Value> = d.message.iter().map(|r| r[0]).collect();
        for c in &d.city {
            assert!(countries.contains(&c[1]));
        }
        for t in &d.tag {
            assert!(classes.contains(&t[1]));
        }
        for p in &d.person {
            assert!(cities.contains(&p[1]));
        }
        for k in &d.knows {
            assert!(persons.contains(&k[0]) && persons.contains(&k[1]));
        }
        for m in &d.message {
            assert!(persons.contains(&m[1]));
        }
        for h in &d.has_tag {
            assert!(messages.contains(&h[0]) && tags.contains(&h[1]));
        }
    }

    #[test]
    fn cardinality_pyramid() {
        let d = LdbcLite::generate(1, 7);
        assert!(d.message.len() > d.person.len());
        assert!(d.person.len() > d.city.len());
        assert!(d.city.len() > d.country.len());
        assert!(d.has_tag.len() >= d.message.len());
    }

    #[test]
    fn knows_edges_distinct_no_loops() {
        let d = LdbcLite::generate(1, 9);
        let set: FxHashSet<(Value, Value)> = d.knows.iter().map(|k| (k[0], k[1])).collect();
        assert_eq!(set.len(), d.knows.len());
        assert!(d.knows.iter().all(|k| k[0] != k[1]));
    }

    #[test]
    fn scale_factor_scales_dynamic_rows() {
        let a = LdbcLite::generate(1, 11);
        let b = LdbcLite::generate(2, 11);
        let dynamic_rows =
            |d: &LdbcLite| d.person.len() + d.knows.len() + d.message.len() + d.has_tag.len();
        assert!(dynamic_rows(&b) > dynamic_rows(&a) * 3 / 2);
    }
}
