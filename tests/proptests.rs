//! Property-based tests (proptest) over the core invariants:
//! density lemmas (3.6–3.8), count approximation (Lemma 4.4 flavour),
//! delta-batch completeness, reservoir batching invariance, and the
//! Fenwick tree against a naive model.

use proptest::prelude::*;
use rsjoin::prelude::*;
use rsjoin::stream::density;

// ---------------------------------------------------------------- density

proptest! {
    #[test]
    fn lemma_3_6_concat_density(a in proptest::collection::vec(any::<bool>(), 0..60),
                                b in proptest::collection::vec(any::<bool>(), 0..60)) {
        let c = density::concat(&a, &b);
        let lhs = density::density(&c);
        let rhs = density::density(&a).min(density::density(&b));
        prop_assert!(lhs >= rhs - 1e-12, "concat {lhs} < min {rhs}");
    }

    #[test]
    fn lemma_3_7_product_density(a in proptest::collection::vec(any::<bool>(), 1..25),
                                 b in proptest::collection::vec(any::<bool>(), 1..25)) {
        let p = density::product(&a, &b);
        let lhs = density::density(&p);
        let rhs = density::density(&a) * density::density(&b) / 2.0;
        prop_assert!(lhs >= rhs - 1e-12, "product {lhs} < bound {rhs}");
    }

    #[test]
    fn lemma_3_8_padding_density(a in proptest::collection::vec(any::<bool>(), 1..60),
                                 pad in 0usize..120) {
        let padded = density::pad(&a, pad);
        let m = a.len() as f64;
        let bound = m / (m + pad as f64) * density::density(&a);
        prop_assert!(density::density(&padded) >= bound - 1e-12);
    }
}

// ---------------------------------------------------- index vs brute force

/// Brute-force two-hop join size for line-3 tuples.
fn brute_line3_count(tuples: &[(usize, (u8, u8))]) -> u128 {
    let mut n = 0u128;
    for &(r1, t1) in tuples.iter().filter(|(r, _)| *r == 0) {
        for &(r2, t2) in tuples.iter().filter(|(r, _)| *r == 1) {
            for &(r3, t3) in tuples.iter().filter(|(r, _)| *r == 2) {
                let _ = (r1, r2, r3);
                if t1.1 == t2.0 && t2.1 == t3.0 {
                    n += 1;
                }
            }
        }
    }
    n
}

fn line3_query() -> Query {
    let mut qb = QueryBuilder::new();
    qb.relation("G1", &["A", "B"]);
    qb.relation("G2", &["B", "C"]);
    qb.relation("G3", &["C", "D"]);
    qb.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The index's implicit full-result array always bounds the true join
    /// size from above, within the density constant (16x for |T| = 3).
    #[test]
    fn index_size_bound_sandwich(
        stream in proptest::collection::vec(
            (0usize..3, (0u8..5, 0u8..5)), 1..120)
    ) {
        let mut idx = DynamicIndex::new(line3_query(), IndexOptions::default()).unwrap();
        let mut accepted = Vec::new();
        for &(rel, t) in &stream {
            if idx.insert(rel, &[t.0 as u64, t.1 as u64]).is_some() {
                accepted.push((rel, t));
            }
        }
        let truth = brute_line3_count(&accepted);
        let bound = FullSampler::default().implicit_size(&idx);
        prop_assert!(bound >= truth, "bound {bound} < truth {truth}");
        prop_assert!(bound <= truth * 16, "bound {bound} > 16x truth {truth}");
    }

    /// Sum of per-tuple delta batch real counts equals the final join size.
    #[test]
    fn deltas_partition_the_result(
        stream in proptest::collection::vec(
            (0usize..3, (0u8..4, 0u8..4)), 1..80)
    ) {
        let mut idx = DynamicIndex::new(line3_query(), IndexOptions::default()).unwrap();
        let mut reals = 0u128;
        let mut accepted = Vec::new();
        for &(rel, t) in &stream {
            if let Some(tid) = idx.insert(rel, &[t.0 as u64, t.1 as u64]) {
                accepted.push((rel, t));
                let b = idx.delta_batch(rel, tid);
                for z in 0..b.size() {
                    if b.retrieve(z).is_some() {
                        reals += 1;
                    }
                }
            }
        }
        prop_assert_eq!(reals, brute_line3_count(&accepted));
    }

    /// SJoin's exact total always equals brute force.
    #[test]
    fn sjoin_exact_count(
        stream in proptest::collection::vec(
            (0usize..3, (0u8..5, 0u8..5)), 1..100)
    ) {
        let mut idx = rsjoin::baselines::SJoinIndex::new(line3_query()).unwrap();
        let mut accepted = Vec::new();
        for &(rel, t) in &stream {
            if idx.insert(rel, &[t.0 as u64, t.1 as u64]).is_some() {
                accepted.push((rel, t));
            }
        }
        prop_assert_eq!(idx.total_results(), brute_line3_count(&accepted));
    }
}

// ---------------------------------------------------- reservoir invariance

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Splitting a stream into arbitrary batches never changes the
    /// reservoir (same seed => identical samples).
    #[test]
    fn reservoir_batch_split_invariance(
        n in 1usize..800,
        k in 1usize..20,
        seed in 0u64..1000,
        splits in proptest::collection::vec(1usize..97, 1..8)
    ) {
        let items: Vec<u64> = (0..n as u64).collect();
        let run = |sizes: &[usize]| {
            let mut r = Reservoir::new(k, 1, seed);
            let mut rest: &[u64] = &items;
            let mut i = 0;
            while !rest.is_empty() {
                let take = sizes[i % sizes.len()].min(rest.len());
                let (chunk, tail) = rest.split_at(take);
                let mut b = SliceBatch::new(chunk);
                r.process_batch(&mut b, |x, slot| {
                    if x % 3 != 0 {
                        slot.accept()[0] = x;
                    }
                });
                rest = tail;
                i += 1;
            }
            r.samples().flat().to_vec()
        };
        prop_assert_eq!(run(&[usize::MAX >> 1]), run(&splits));
    }

    /// The reservoir never holds a dummy, never exceeds k, and holds
    /// exactly min(k, #reals) items.
    #[test]
    fn reservoir_cardinality(
        flags in proptest::collection::vec(any::<bool>(), 0..400),
        k in 1usize..10,
        seed in 0u64..100
    ) {
        let items: Vec<(u64, bool)> =
            flags.iter().enumerate().map(|(i, &f)| (i as u64, f)).collect();
        let mut r = Reservoir::new(k, 1, seed);
        let mut b = SliceBatch::new(&items);
        r.process_batch(&mut b, |(x, real), slot| {
            if real {
                slot.accept()[0] = x;
            }
        });
        let reals = flags.iter().filter(|&&f| f).count();
        prop_assert_eq!(r.samples().len(), reals.min(k));
        // All sampled ids must be real positions, distinct.
        let mut seen = std::collections::BTreeSet::new();
        for &s in r.samples().flat() {
            prop_assert!(flags[s as usize]);
            prop_assert!(seen.insert(s));
        }
    }
}

// ------------------------------------------------------------- fenwick

proptest! {
    #[test]
    fn fenwick_matches_model(
        ops in proptest::collection::vec((any::<bool>(), 0usize..50, 0u64..100), 1..200)
    ) {
        let mut f = rsjoin::baselines::Fenwick::new();
        let mut model: Vec<u128> = Vec::new();
        for (push, idx, w) in ops {
            if push || model.is_empty() {
                f.push(w as u128);
                model.push(w as u128);
            } else {
                let i = idx % model.len();
                f.add(i, w as u128);
                model[i] += w as u128;
            }
        }
        prop_assert_eq!(f.total(), model.iter().sum::<u128>());
        for i in 0..=model.len() {
            prop_assert_eq!(f.prefix(i), model[..i].iter().sum::<u128>());
        }
        // Search on every valid position of a small prefix.
        let total = f.total();
        if total > 0 {
            for z in (0..total.min(64)).chain([total - 1]) {
                let (i, rem) = f.search(z);
                prop_assert!(rem < model[i]);
                prop_assert_eq!(f.prefix(i) + rem, z);
            }
        }
    }
}

// ----------------------------------------------------------- levenshtein

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn banded_levenshtein_matches_full(
        a in proptest::collection::vec(0u8..4, 0..40),
        b in proptest::collection::vec(0u8..4, 0..40),
        limit in 0usize..15
    ) {
        let full = rsjoin::datagen::strings::levenshtein_full(&a, &b);
        let banded = rsjoin::datagen::levenshtein_within(&a, &b, limit);
        prop_assert_eq!(banded, (full <= limit).then_some(full));
    }
}
