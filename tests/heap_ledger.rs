//! The index's byte ledger, pinned.
//!
//! `DynamicIndex::heap_breakdown()` must sum to `heap_size()` exactly and
//! repeat exactly for a fixed input, so a change to a slot layout, a
//! growth policy or a struct's width shows up here as a diff naming the
//! structure — before a benchmark run shows it as `heap_bytes_per_tuple`.
//! Re-pin with `RSJ_PIN_PLANS=1 cargo test --test heap_ledger -- --nocapture`
//! and say in the PR which line moved and why.

use rsjoin::prelude::*;

/// Ingests `w` into a bare index and returns `(part, bytes)` summed over
/// owners, in ledger order.
fn ledger(w: &rsj_queries::Workload) -> Vec<(&'static str, usize)> {
    let mut idx = DynamicIndex::new(w.query.clone(), IndexOptions::default()).unwrap();
    for t in w.preload.iter().chain(w.stream.tuples()) {
        idx.insert(t.relation, &t.values);
    }
    let lines = idx.heap_breakdown();
    let total: usize = lines.iter().map(|l| l.bytes).sum();
    assert_eq!(total, idx.heap_size(), "{}: ledger must be exact", w.name);
    // Four parts per relation, nine per configuration, one header line.
    let n = w.query.num_relations();
    let configs = (lines.len() - 1 - 4 * n) / 9;
    assert_eq!(lines.len(), 4 * n + 9 * configs + 1);
    assert!(configs >= n, "at least one configuration per relation");
    let mut by_part: Vec<(&'static str, usize)> = Vec::new();
    for l in lines {
        match by_part.iter_mut().find(|(part, _)| *part == l.part) {
            Some((_, bytes)) => *bytes += l.bytes,
            None => by_part.push((l.part, l.bytes)),
        }
    }
    by_part
}

/// The ledger's parts, in the order `heap_breakdown` first names them.
const PARTS: [&str; 14] = [
    "relation.data",
    "relation.dedup",
    "relation.tombstones",
    "relation.name",
    "config.group_table",
    "config.group_arena",
    "config.bucket_vectors",
    "config.item_pos",
    "config.child_index_tables",
    "config.posting_data",
    "config.posting_chunks",
    "config.posting_lists",
    "config.grouped_payload",
    "index.headers",
];

fn check(w: &rsj_queries::Workload, expect: [usize; 14]) {
    let got = ledger(w);
    if std::env::var_os("RSJ_PIN_PLANS").is_some() {
        let bytes: Vec<usize> = got.iter().map(|&(_, b)| b).collect();
        println!("{}: {bytes:?}", w.name);
        return;
    }
    let expect: Vec<_> = PARTS.into_iter().zip(expect).collect();
    assert_eq!(got, expect, "{}: a structure changed size", w.name);
}

#[test]
fn line3_ledger_is_pinned() {
    let edges = rsj_datagen::GraphConfig {
        nodes: 300,
        edges: 2400,
        zipf: 0.8,
        seed: 4242,
    }
    .generate();
    check(
        &rsj_queries::line_k(3, &edges, 7),
        [
            196608, 98304, 12288, 6, 33152, 98880, 48224, 344064, 49392, 270336, 62720, 86128, 0,
            3296,
        ],
    );
}

/// QZ's wide tuples make its internal nodes groupable, so this one also
/// pins the §4.4 grouped payload and the wide (`ē`-keyed) slot layout.
#[test]
fn qz_ledger_is_pinned() {
    let data = rsj_datagen::TpcdsLite::generate(1, 99);
    check(
        &rsj_queries::qz(&data, 31),
        [
            188416, 69632, 7680, 23, 84352, 227136, 117024, 267264, 159344, 256032, 52880, 284016,
            819200, 12224,
        ],
    );
}
