//! Microbenchmarks for the primitive operations whose costs the paper's
//! complexity claims are built from: index insert (`O(log N)` amortized),
//! positional retrieve (`O(log N)`), full-query sample (`O(log N)`
//! expected), and the reservoir skip machinery.
//!
//! Custom harness (no external bench framework): each benchmark runs a
//! timed loop after a warmup pass and reports mean wall time per
//! iteration.

use rsj_bench::{fig_name, record_json};
use rsj_common::hash::{fx_hash_columns, fx_hash_columns_scalar};
use rsj_common::rng::RsjRng;
use rsj_core::{exact_result_count, ReservoirJoin};
use rsj_datagen::{GraphConfig, TurnstileConfig, VictimPolicy};
use rsj_index::{DescentMemo, DynamicIndex, FullSampler, IndexOptions};
use rsj_queries::{line_k, star_k};
use rsj_storage::StreamOp;
use rsj_stream::{Reservoir, SliceBatch};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts heap allocations so the counted cases can report allocs/iter,
/// not just wall time (a relaxed counter around `System`).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Times `iters` runs of `f` (after one warmup call) and prints the mean.
fn bench(name: &str, iters: u32, mut f: impl FnMut()) {
    f();
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let total = start.elapsed();
    let per_iter = total / iters;
    println!("{name:<36} {per_iter:>12.2?}/iter  ({iters} iters)");
    record_json(
        &fig_name(),
        name,
        "-",
        iters as usize,
        total.as_nanos(),
        Some(iters as f64 / total.as_secs_f64().max(f64::MIN_POSITIVE)),
        None,
        None,
        false,
    );
}

/// [`bench`] for cases whose headline is **allocator calls per
/// iteration**: times `iters` runs of `f` (the caller warms up) and
/// records the calls of the timed loop in the record's `inserts` field,
/// with `engine` naming the variant measured.
fn bench_allocs(name: &str, engine: &str, iters: u32, mut f: impl FnMut()) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    let total = start.elapsed();
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let label = match engine {
        "-" => name.to_string(),
        _ => format!("{name}[{engine}]"),
    };
    println!(
        "{label:<36} {:>12.2?}/iter  ({iters} iters, {:.1} allocs/iter)",
        total / iters,
        allocs as f64 / iters as f64
    );
    record_json(
        &fig_name(),
        name,
        engine,
        iters as usize,
        total.as_nanos(),
        Some(iters as f64 / total.as_secs_f64().max(f64::MIN_POSITIVE)),
        Some((allocs, 0)),
        None,
        false,
    );
}

/// A line-3 index loaded with `edges` Zipf edges per relation.
fn loaded_index(edges: usize) -> DynamicIndex {
    let edges = GraphConfig {
        nodes: 1000,
        edges,
        zipf: 1.0,
        seed: 42,
    }
    .generate();
    let w = line_k(3, &edges, 1);
    let mut idx = DynamicIndex::new(w.query.clone(), IndexOptions::default()).unwrap();
    for t in w.stream.iter() {
        idx.insert(t.relation, &t.values);
    }
    idx
}

fn bench_index_insert() {
    let edges = GraphConfig {
        nodes: 1000,
        edges: 8000,
        zipf: 1.0,
        seed: 42,
    }
    .generate();
    let w = line_k(3, &edges, 1);
    bench("index_insert_8k_edges_line3", 10, || {
        let mut idx = DynamicIndex::new(w.query.clone(), IndexOptions::default()).unwrap();
        for t in w.stream.iter() {
            idx.insert(t.relation, &t.values);
        }
        black_box(idx.stats().inserts);
    });
}

fn bench_full_sample() {
    let idx = loaded_index(8000);
    let sampler = FullSampler::default();
    let mut rng = RsjRng::seed_from_u64(1);
    bench("full_query_sample", 10_000, || {
        black_box(sampler.sample(&idx, &mut rng));
    });
}

fn bench_delta_retrieve() {
    let idx = loaded_index(8000);
    // Pick a tuple of relation 0 with a non-empty batch.
    let mut target = None;
    for tid in 0..idx.database().relation(0).num_slots() as u32 {
        let b = idx.delta_batch(0, tid);
        if b.size() > 4 {
            target = Some((tid, b.size()));
            break;
        }
    }
    let (tid, size) = target.expect("some tuple has results");
    let mut rng = RsjRng::seed_from_u64(2);
    bench("delta_retrieve_random_position", 10_000, || {
        let z = rng.below_u128(size);
        black_box(idx.delta_batch(0, tid).retrieve(z));
    });
}

fn bench_reservoir_skip() {
    let items: Vec<u64> = (0..1_000_000).collect();
    bench("reservoir_1m_items_k100", 10, || {
        let mut r = Reservoir::new(100, 1, 7);
        let mut batch = SliceBatch::new(&items);
        r.process_batch(&mut batch, |x, slot| slot.accept()[0] = x);
        black_box(r.stops());
    });
}

/// The vectorized column-hash kernel against its scalar fallback: 8192
/// binary rows hashed per iteration, both bit-identical to `fx_hash_one`
/// over the row slice (the unrolled kernel's claim to exist is pure
/// throughput).
fn bench_columnar_hash() {
    let mut rng = RsjRng::seed_from_u64(3);
    let flat: Vec<u64> = (0..8192 * 2).map(|_| rng.below_u64(1 << 20)).collect();
    let mut out = Vec::new();
    bench("columnar_hash_8k_keys", 2_000, || {
        out.clear();
        fx_hash_columns(2, 2, &flat, &mut out);
        black_box(out.last().copied());
    });
    bench("columnar_hash_8k_keys_scalar", 2_000, || {
        out.clear();
        fx_hash_columns_scalar(2, 2, &flat, &mut out);
        black_box(out.last().copied());
    });
}

/// Exact `|Q(R)|` on line-3 at N = 15k (the `svc_churn_durable` shape),
/// by both kernels: the index-resident pass over the index's own groups
/// (`DynamicIndex::exact_count`) and the `Database` message pass
/// (`exact_result_count`, which plans and hashes from scratch). One record
/// per kernel, `engine` naming it, with the allocator calls of the timed
/// loop in `inserts` — CI gates the index kernel's allocations per count,
/// a counted bound rather than a timed one.
fn bench_exact_count() {
    let idx = loaded_index(5000);
    assert_eq!(
        idx.exact_count(),
        exact_result_count(idx.query(), idx.database())
    );
    bench_allocs("exact_count_line3_15k", "index", 200, || {
        black_box(idx.exact_count());
    });
    bench_allocs("exact_count_line3_15k", "database", 200, || {
        black_box(exact_result_count(idx.query(), idx.database()));
    });
}

/// The anchored count on a turnstile: a 20 %-delete line-3 weave at the
/// `svc_churn_durable` shape through `ReservoirJoin`, whose every delete
/// is a repair point against the exact `|Q(R)|`. After a warm half (which
/// deletes, so the ledger is anchored), every op of the timed half is
/// applied and then counted — a settled read. Three records: `engine` —
/// allocator calls of that loop; `index` — the same ops on a bare twin
/// index, so `engine − index` is what the samples, repairs and settled
/// counts allocated; `passes` — full index count passes the timed loop
/// paid, in `inserts`. CI gates `engine − index == 0` and `passes == 0`.
fn bench_anchored_count() {
    let edges = GraphConfig {
        nodes: 1000,
        edges: 5000,
        zipf: 1.0,
        seed: 42,
    }
    .generate();
    let w = line_k(3, &edges, 1);
    let ops = TurnstileConfig {
        delete_ratio: 0.2,
        policy: VictimPolicy::Uniform,
        seed: 7,
    }
    .weave(&w.stream);
    let (warm, timed) = ops.ops().split_at(ops.len() / 2);
    assert!(
        warm.iter().any(StreamOp::is_delete),
        "the warm half anchors"
    );
    let mut rj = ReservoirJoin::new(w.query.clone(), 64, 7).unwrap();
    let mut twin =
        DynamicIndex::with_tree(w.query.clone(), &rj.plan().tree, rj.index().options()).unwrap();
    for op in warm {
        let t = op.tuple();
        if op.is_delete() {
            rj.delete(t.relation, &t.values);
            twin.delete(t.relation, &t.values);
        } else {
            rj.process(t.relation, &t.values);
            twin.insert(t.relation, &t.values);
        }
    }
    let passes = rj.count_passes();
    let mut next = timed.iter();
    bench_allocs(
        "exact_count_anchored_line3",
        "engine",
        timed.len() as u32,
        || {
            let op = next.next().expect("one op per iteration");
            let t = op.tuple();
            if op.is_delete() {
                rj.delete(t.relation, &t.values);
            } else {
                rj.process(t.relation, &t.values);
            }
            black_box(rj.exact_count());
        },
    );
    let passes = rj.count_passes() - passes;
    assert_eq!(rj.exact_count(), rj.index().exact_count());
    let mut next = timed.iter();
    bench_allocs(
        "exact_count_anchored_line3",
        "index",
        timed.len() as u32,
        || {
            let op = next.next().expect("one op per iteration");
            let t = op.tuple();
            if op.is_delete() {
                black_box(twin.delete(t.relation, &t.values));
            } else {
                black_box(twin.insert(t.relation, &t.values));
            }
        },
    );
    println!("{:<36} {passes} full count passes in the timed loop", "");
    record_json(
        &fig_name(),
        "exact_count_anchored_line3",
        "passes",
        timed.len(),
        0,
        None,
        Some((passes, 0)),
        None,
        false,
    );
}

/// A reservoir stop and a repair draw allocate nothing (the slice-writing
/// retrieval kernel + the flat sample arena). Star-4 at `k` well under
/// `|Q(R)|`: once the reservoir is full its buffer stops growing, and every
/// later `process` call is an index insert plus a batch of stops. Three
/// records, allocator calls in `inserts`: `engine` — a warm loop of
/// `ReservoirJoin::process`; `index` — the same inserts into a bare twin
/// index, so `engine − index` is what the stops allocated; `draw` —
/// full-query sampler trials materialized into a row, the repair
/// backfill's draw. CI gates `engine == index` and `draw == 0`: counts, no
/// wall-clock ratio.
fn bench_stop_allocations() {
    let edges = GraphConfig {
        nodes: 400,
        edges: 2000,
        zipf: 1.0,
        seed: 42,
    }
    .generate();
    let w = star_k(4, &edges, 1);
    let (warm, timed) = w.stream.tuples().split_at(6000);
    let mut rj = ReservoirJoin::new(w.query.clone(), 20_000, 7).unwrap();
    let mut twin =
        DynamicIndex::with_tree(w.query.clone(), &rj.plan().tree, rj.index().options()).unwrap();
    for t in warm {
        rj.process(t.relation, &t.values);
        twin.insert(t.relation, &t.values);
    }
    assert_eq!(rj.samples().len(), rj.k(), "the reservoir must be full");
    let stops = rj.reservoir_stops();
    let mut next = timed.iter();
    bench_allocs("reservoir_stop_star4", "engine", timed.len() as u32, || {
        let t = next.next().expect("one tuple per iteration");
        black_box(rj.process(t.relation, &t.values));
    });
    let stops = rj.reservoir_stops() - stops;
    assert!(
        stops >= timed.len() as u64,
        "{stops} stops over {} process calls: the case measures nothing",
        timed.len()
    );
    println!("{:<36} {stops} stops in the timed loop", "");
    let mut next = timed.iter();
    bench_allocs("reservoir_stop_star4", "index", timed.len() as u32, || {
        let t = next.next().expect("one tuple per iteration");
        black_box(twin.insert(t.relation, &t.values));
    });
    let sampler = FullSampler::default();
    let mut rng = RsjRng::seed_from_u64(5);
    let mut ids = vec![0; w.query.num_relations()];
    let mut memo = DescentMemo::new(&twin);
    let mut row = vec![0; w.query.num_attrs()];
    let mut real = 0u32;
    bench_allocs("reservoir_stop_star4", "draw", 10_000, || {
        if sampler.try_sample_into(&twin, &mut rng, &mut ids, &mut memo) {
            twin.materialize_ids(&ids, &mut row);
            real += 1;
        }
        black_box(&row);
    });
    assert!(real > 0, "every draw hit a dummy");
}

fn main() {
    println!("micro — primitive-operation costs\n");
    bench_index_insert();
    bench_full_sample();
    bench_delta_retrieve();
    bench_reservoir_skip();
    bench_columnar_hash();
    bench_exact_count();
    bench_anchored_count();
    bench_stop_allocations();
}
