//! Work and bytes counted rather than timed.
//!
//! Allocator calls and live bytes are pure functions of the input, so
//! these gates repeat exactly and need no timing.
//!
//! - Feeding TPC-DS-lite QZ through a bare `FkCombiner` must allocate next
//!   to nothing per op — its arenas grow by doubling and every
//!   accumulated tuple is re-derived into one reused row — and
//!   `heap_size()` must agree with the bytes the allocator holds for it.
//! - Reading a full reservoir through `JoinSampler::for_each_sample` must
//!   allocate nothing on every engine that stores its sample rows, and
//!   `SamplerExt::samples` must make exactly one allocation per row plus
//!   one for the outer `Vec`: what a read adds to `allocs_per_op`.
//! - A checkpoint of an engine or of the service must peak at no more
//!   than twice its file's length above the live heap: the image is
//!   framed in the one buffer that is written, with no second copy.

use rsjoin::core::{FkCombiner, Rewrite};
use rsjoin::engine::{Engine, EngineOpts};
use rsjoin::prelude::*;
use rsjoin::query::CombinePlan;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Set while the current thread runs [`counted`]'s closure, so other
    /// test threads stay out of its counts.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static CALLS: Cell<u64> = const { Cell::new(0) };
    static NET_BYTES: Cell<isize> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<isize> = const { Cell::new(0) };
}

fn count(calls: u64, bytes: isize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = CALLS.try_with(|c| c.set(c.get() + calls));
        let _ = NET_BYTES.try_with(|b| {
            b.set(b.get() + bytes);
            let _ = PEAK_BYTES.try_with(|p| p.set(p.get().max(b.get())));
        });
    }
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`, only adding bookkeeping.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocator calls (allocations
/// and reallocations) it made and the net bytes it left allocated.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, isize) {
    CALLS.with(|c| c.set(0));
    NET_BYTES.with(|b| b.set(0));
    PEAK_BYTES.with(|p| p.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, CALLS.with(Cell::get), NET_BYTES.with(Cell::get))
}

#[test]
fn combiner_allocates_almost_nothing_per_op_and_reports_its_heap() {
    let w = rsjoin::queries::qz(&rsjoin::datagen::TpcdsLite::generate(5, 7), 7);
    let plan = CombinePlan::build(&w.query, &w.fks).unwrap();
    let ops: Vec<_> = w.preload.iter().chain(w.stream.tuples()).collect();

    let ((combiner, emitted), calls, net_bytes) = counted(|| {
        let mut combiner = FkCombiner::new(plan);
        let mut emitted = 0u64;
        for t in &ops {
            combiner.insert(t.relation, &t.values, |_, _| emitted += 1);
        }
        (combiner, emitted)
    });

    assert!(emitted > 0, "the stream completes combined tuples");
    let per_op = calls as f64 / ops.len() as f64;
    assert!(
        per_op < 0.05,
        "{per_op:.3} allocator calls per op over {} ops",
        ops.len()
    );
    let actual = net_bytes as f64;
    let reported = combiner.heap_size() as f64;
    let err = (reported - actual).abs() / actual;
    assert!(
        err <= 0.10,
        "heap_size() {reported} is {:.1}% off the allocator's {actual}",
        err * 100.0
    );
}

#[test]
fn the_sample_visitor_allocates_nothing_and_samples_one_per_row() {
    let mut qb = QueryBuilder::new();
    qb.relation("R", &["X", "Y"]);
    qb.relation("S", &["Y", "Z"]);
    let two_table = qb.build().unwrap();
    let mut qb = QueryBuilder::new();
    qb.relation("R1", &["X", "Y"]);
    qb.relation("R2", &["Y", "Z"]);
    qb.relation("R3", &["Z", "X"]);
    let triangle = qb.build().unwrap();
    let k = 8;
    for (engine, q) in [
        (Engine::Reservoir, &two_table),
        (Engine::FkReservoir, &two_table),
        (Engine::Cyclic, &triangle),
        (Engine::SJoin, &two_table),
        (Engine::SJoinOpt, &two_table),
        (Engine::Naive, &two_table),
    ] {
        let mut s = engine.build(q, k, 3, &EngineOpts::default()).unwrap();
        let mut rng = RsjRng::seed_from_u64(5);
        for _ in 0..60 {
            let rel = rng.index(q.num_relations());
            s.process(rel, &[rng.below_u64(4), rng.below_u64(4)]);
        }

        let (rows, calls, _) = counted(|| {
            let mut rows = 0;
            s.for_each_sample(&mut |_| rows += 1);
            rows
        });
        assert_eq!(rows, k, "{engine}: the reservoir is full");
        assert_eq!(calls, 0, "{engine}: for_each_sample allocated");

        let (samples, calls, _) = counted(|| s.samples());
        assert_eq!(samples.len(), k, "{engine}");
        assert_eq!(calls, k as u64 + 1, "{engine}: samples() allocator calls");
    }
}

/// Runs `f` and returns its result with the most bytes it held allocated
/// at any one time, above what was live when it started.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let (out, _, _) = counted(f);
    (out, PEAK_BYTES.with(Cell::get))
}

#[test]
fn a_checkpoint_peaks_below_twice_its_file() {
    let query = rsj_testutil::line3();
    let ops = rsj_testutil::turnstile_ops(&query, 3000, 40, 11);
    let scratch = rsj_testutil::Scratch::new("counted-checkpoint");
    let file_len = |dir: &std::path::Path| {
        let file = dir.join(rsjoin::persist::CHECKPOINT_FILE);
        std::fs::metadata(file).unwrap().len() as isize
    };

    let mut svc = SamplerService::new(query.clone());
    let mut ungrouped = QueryOpts::new(64, 7);
    ungrouped.index = IndexOptions { grouping: false };
    svc.register(&query, &QueryOpts::new(64, 1)).unwrap();
    svc.register(&query, &ungrouped).unwrap();
    let mut p = PersistentService::open(
        svc,
        scratch.path().join("service"),
        CheckpointPolicy::Manual,
        &mut |_, _| None,
    )
    .unwrap();
    for op in &ops {
        p.process_op(op).unwrap();
    }
    let (done, peak) = peak_of(|| p.checkpoint());
    done.unwrap();
    let len = file_len(&scratch.path().join("service"));
    assert!(
        peak <= 2 * len,
        "service: a {len}-byte checkpoint peaked at {peak} bytes"
    );
    drop(p);

    let mut p = Persistent::open(
        Engine::Reservoir
            .build(&query, 64, 3, &EngineOpts::default())
            .unwrap(),
        scratch.path(),
        CheckpointPolicy::Manual,
    )
    .unwrap();
    for op in &ops {
        p.process_op(op).unwrap();
    }
    let (done, peak) = peak_of(|| p.checkpoint());
    done.unwrap();
    let len = file_len(scratch.path());
    assert!(
        peak <= 2 * len,
        "{}: a {len}-byte checkpoint peaked at {peak} bytes",
        Engine::Reservoir
    );
}
