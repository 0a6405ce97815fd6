//! The foreign-key combiner's work and bytes, counted rather than timed.
//!
//! Allocator calls and live bytes are pure functions of the input, so this
//! gate repeats exactly and needs no timing. Feeding TPC-DS-lite QZ through
//! a bare `FkCombiner` must allocate next to nothing per op — its arenas
//! grow by doubling and every accumulated tuple is re-derived into one
//! reused row — and `heap_size()` must agree with the bytes the allocator
//! holds for it.

use rsjoin::core::{FkCombiner, Rewrite};
use rsjoin::query::CombinePlan;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};

static CALLS: AtomicU64 = AtomicU64::new(0);
static NET_BYTES: AtomicIsize = AtomicIsize::new(0);

thread_local! {
    /// Set on the measuring thread only, so the test harness's own
    /// threads stay out of the counts.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn count(bytes: isize) {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        NET_BYTES.fetch_add(bytes, Ordering::Relaxed);
    }
}

struct CountingAlloc;

// SAFETY: delegates every operation to `System`, only adding bookkeeping.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            NET_BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn combiner_allocates_almost_nothing_per_op_and_reports_its_heap() {
    let w = rsjoin::queries::qz(&rsjoin::datagen::TpcdsLite::generate(5, 7), 7);
    let plan = CombinePlan::build(&w.query, &w.fks).unwrap();
    let ops: Vec<_> = w.preload.iter().chain(w.stream.tuples()).collect();

    COUNTING.with(|c| c.set(true));
    let mut combiner = FkCombiner::new(plan);
    let mut emitted = 0u64;
    for t in &ops {
        combiner.insert(t.relation, &t.values, |_, _| emitted += 1);
    }
    COUNTING.with(|c| c.set(false));

    assert!(emitted > 0, "the stream completes combined tuples");
    let per_op = CALLS.load(Ordering::Relaxed) as f64 / ops.len() as f64;
    assert!(
        per_op < 0.05,
        "{per_op:.3} allocator calls per op over {} ops",
        ops.len()
    );
    let actual = NET_BYTES.load(Ordering::Relaxed) as f64;
    let reported = combiner.heap_size() as f64;
    let err = (reported - actual).abs() / actual;
    assert!(
        err <= 0.10,
        "heap_size() {reported} is {:.1}% off the allocator's {actual}",
        err * 100.0
    );
}
