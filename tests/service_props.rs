//! Property tests for the resident [`SamplerService`]'s bookkeeping:
//!
//! 1. **Counts are exact under churn** — any random interleaving of
//!    register / deregister / ingest actions leaves every live
//!    registration's `exact_count` equal to the brute-force `|Q(R)|`, its
//!    reservoir at `min(k, |Q(R)|)` live samples, and the shared store's
//!    reference counts in lockstep with the live registration set.
//! 2. **Nothing leaks** — after the last deregistration the service heap
//!    is exactly the retained store again (`heap_size() ==
//!    store().heap_size()`) and no relation holds a reference.
//! 3. **Snapshots are faithful** — a `snapshot_to`/`restore_from_snapshot`
//!    round trip at any churn point reproduces every member byte-for-byte
//!    and continues identically on further ingest.

use proptest::prelude::*;
use rsj_testutil::{brute_join_named, two_table, NamedSample};
use rsjoin::common::codec::{Decoder, Encoder};
use rsjoin::common::{FxHashSet, HeapSize};
use rsjoin::prelude::*;

fn named(q: &Query, row: &[Value]) -> NamedSample {
    let mut kv: Vec<(String, Value)> = q
        .attr_names()
        .iter()
        .cloned()
        .zip(row.iter().copied())
        .collect();
    kv.sort();
    kv
}

/// Decodes one `(tag, raw)` action against the current model and applies
/// it to the service, keeping the model in lockstep. Returns `Ok(())`
/// from every path — failures surface as panics/prop asserts upstream.
fn apply_action(
    q: &Query,
    svc: &mut SamplerService,
    model: &mut [FxHashSet<Vec<Value>>],
    live: &mut Vec<(QueryHandle, usize)>,
    tag: u8,
    raw: u64,
) {
    match tag {
        // Ingest (weighted 5/8): inserts with occasional deletes of a
        // live tuple, values from a small domain so joins stay dense.
        0..=4 => {
            if raw.is_multiple_of(5) {
                let all: Vec<(usize, Vec<Value>)> = model
                    .iter()
                    .enumerate()
                    .flat_map(|(r, s)| s.iter().map(move |t| (r, t.clone())))
                    .collect();
                if !all.is_empty() {
                    let (rel, t) = all[(raw >> 24) as usize % all.len()].clone();
                    svc.process_op(&StreamOp::delete(rel, t.clone())).unwrap();
                    model[rel].remove(&t);
                    return;
                }
            }
            let rel = (raw % 2) as usize;
            let vals = vec![(raw >> 8) % 4, (raw >> 16) % 4];
            svc.process(rel, &vals).unwrap();
            model[rel].insert(vals);
        }
        // Register (weighted 2/8), in one of two index groups.
        5 | 6 => {
            let k = 1 + (raw % 6) as usize;
            let mut opts = QueryOpts::new(k, raw);
            opts.index = IndexOptions {
                grouping: raw.is_multiple_of(2),
            };
            let h = svc.register(q, &opts).unwrap();
            live.push((h, k));
        }
        // Deregister (weighted 1/8), plus the double-free probe.
        _ => {
            if !live.is_empty() {
                let (h, _) = live.swap_remove(raw as usize % live.len());
                svc.deregister(h).unwrap();
                assert!(!svc.registered(h));
                assert!(
                    svc.deregister(h).is_err(),
                    "double deregister must be rejected"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Invariants 1 + 2: exact counts and live samples after every single
    /// action, store refcounts in lockstep, and a leak-free drain.
    #[test]
    fn churn_preserves_exact_counts_and_leaks_nothing(
        actions in proptest::collection::vec((0u8..8, any::<u64>()), 1..120)
    ) {
        let q = two_table();
        let mut svc = SamplerService::with_opts(q.clone(), ServiceOpts { publish_every: 16 });
        let mut model: Vec<FxHashSet<Vec<Value>>> =
            vec![FxHashSet::default(); q.num_relations()];
        let mut live: Vec<(QueryHandle, usize)> = Vec::new();
        for &(tag, raw) in &actions {
            apply_action(&q, &mut svc, &mut model, &mut live, tag, raw);
            let brute = brute_join_named(&q, &model);
            for &(h, k) in &live {
                prop_assert_eq!(
                    svc.exact_count(h).unwrap(),
                    brute.len() as u128,
                    "|Q(R)| drifted for handle {}", h.id()
                );
                let samples = svc.samples(h).unwrap();
                prop_assert_eq!(samples.len(), k.min(brute.len()));
                for row in &samples {
                    prop_assert!(brute.contains(&named(&q, row)), "dead sample");
                }
            }
            prop_assert_eq!(svc.num_queries(), live.len());
            prop_assert_eq!(
                svc.store().live_refs(),
                (live.len() * q.num_relations()) as u64,
                "store refcounts out of lockstep"
            );
        }
        // A final publish serves every reader the exact live state.
        svc.publish();
        let brute = brute_join_named(&q, &model);
        for &(h, _) in &live {
            let snap = svc.reader(h).unwrap().snapshot();
            prop_assert_eq!(snap.lsn, svc.lsn());
            prop_assert_eq!(snap.population, brute.len() as u128);
            prop_assert_eq!(&snap.samples, &svc.samples(h).unwrap());
        }
        // Drain: the heap must return to exactly the retained store.
        for (h, _) in live.drain(..) {
            svc.deregister(h).unwrap();
        }
        prop_assert_eq!(svc.store().live_refs(), 0);
        prop_assert_eq!(svc.num_groups(), 0);
        prop_assert_eq!(svc.num_queries(), 0);
        prop_assert_eq!(
            svc.heap_size(),
            svc.store().heap_size(),
            "registration state leaked past the last deregister"
        );
    }

    /// Invariant 3: snapshot/restore at an arbitrary churn point is an
    /// identity — and stays one over further ingest.
    #[test]
    fn snapshot_restore_round_trips_at_any_churn_point(
        actions in proptest::collection::vec((0u8..8, any::<u64>()), 1..80),
        tail in proptest::collection::vec(any::<u64>(), 0..24)
    ) {
        let q = two_table();
        let mut svc = SamplerService::with_opts(q.clone(), ServiceOpts { publish_every: 8 });
        let mut model: Vec<FxHashSet<Vec<Value>>> =
            vec![FxHashSet::default(); q.num_relations()];
        let mut live: Vec<(QueryHandle, usize)> = Vec::new();
        for &(tag, raw) in &actions {
            apply_action(&q, &mut svc, &mut model, &mut live, tag, raw);
        }
        let mut enc = Encoder::new();
        svc.snapshot_to(&mut enc);
        let bytes = enc.into_bytes();
        let mut twin = SamplerService::new(q.clone());
        let mut dec = Decoder::new(&bytes);
        twin.restore_from_snapshot(&mut dec).unwrap();
        dec.finish().unwrap();
        prop_assert_eq!(twin.lsn(), svc.lsn());
        prop_assert_eq!(twin.num_queries(), svc.num_queries());
        prop_assert_eq!(twin.num_groups(), svc.num_groups());
        for &(h, _) in &live {
            prop_assert_eq!(twin.samples(h).unwrap(), svc.samples(h).unwrap());
            prop_assert_eq!(twin.exact_count(h).unwrap(), svc.exact_count(h).unwrap());
        }
        // Continuation identity: both sides ingest the same suffix.
        for &raw in &tail {
            let op = if raw % 4 == 0 {
                StreamOp::delete((raw % 2) as usize, vec![(raw >> 8) % 4, (raw >> 16) % 4])
            } else {
                StreamOp::insert((raw % 2) as usize, vec![(raw >> 8) % 4, (raw >> 16) % 4])
            };
            svc.process_op(&op).unwrap();
            twin.process_op(&op).unwrap();
        }
        for &(h, _) in &live {
            prop_assert_eq!(twin.samples(h).unwrap(), svc.samples(h).unwrap());
            prop_assert_eq!(twin.exact_count(h).unwrap(), svc.exact_count(h).unwrap());
        }
    }
}
