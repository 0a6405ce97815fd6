//! Counting global allocator: live and peak bytes for the heap metrics,
//! allocator calls for `allocs_per_op`.
//!
//! Two thread-local switches keep the numbers about the library and not
//! about the harness:
//!
//! * [`count_calls`] is on only on the ingest thread inside the timed
//!   region, so the service reader's snapshot buffers never reach
//!   `allocs_per_op`;
//! * [`untracked`] wraps harness-side bookkeeping (the oracle, kept
//!   snapshots, latency buffers). Memory allocated inside it must also be
//!   freed inside it — both sides skip the live/peak counters.
//!
//! Both flags are `const`-initialised `Cell`s: no lazy initialiser and no
//! destructor, so the allocator may read them at any point of a thread's
//! life.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

pub struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNT_CALLS: Cell<bool> = const { Cell::new(false) };
    static UNTRACKED: Cell<bool> = const { Cell::new(false) };
}

fn grew(bytes: usize) {
    // Relaxed everywhere: these are statistics and publish no other data.
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping around the calls touches only atomics and
// destructor-free thread-local `Cell`s, and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNT_CALLS.get() {
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        if !UNTRACKED.get() {
            grew(layout.size());
        }
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if !UNTRACKED.get() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNT_CALLS.get() {
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        if !UNTRACKED.get() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Live tracked bytes right now.
pub fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// Highest live tracked bytes seen since the process started.
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

/// Allocator calls (`alloc` + `realloc`) counted so far.
pub fn calls() -> u64 {
    CALLS.load(Ordering::Relaxed)
}

/// Turns call counting on or off for the current thread.
pub fn count_calls(on: bool) {
    COUNT_CALLS.set(on);
}

/// Runs harness-side bookkeeping with the live/peak counters and the call
/// counter switched off. Everything `f` allocates must be freed inside
/// another `untracked` call — return owned memory through [`Untracked`],
/// which guarantees that.
pub fn untracked<T>(f: impl FnOnce() -> T) -> T {
    let was = UNTRACKED.replace(true);
    let counting = COUNT_CALLS.replace(false);
    let out = f();
    COUNT_CALLS.set(counting);
    UNTRACKED.set(was);
    out
}

/// A harness-owned value whose memory stays out of the heap metrics: it is
/// built, mutated and dropped with tracking off.
pub struct Untracked<T>(Option<T>);

impl<T> Untracked<T> {
    pub fn new(build: impl FnOnce() -> T) -> Untracked<T> {
        Untracked(Some(untracked(build)))
    }

    /// Mutates the value with tracking off (growth stays untracked).
    pub fn with<R>(&mut self, f: impl FnOnce(&mut T) -> R) -> R {
        let v = self.0.as_mut().expect("present until drop");
        untracked(|| f(v))
    }
}

impl<T> std::ops::Deref for Untracked<T> {
    type Target = T;

    fn deref(&self) -> &T {
        self.0.as_ref().expect("present until drop")
    }
}

/// In-place mutation only (a push within reserved capacity, a sort):
/// anything that may allocate goes through [`Untracked::with`].
impl<T> std::ops::DerefMut for Untracked<T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("present until drop")
    }
}

impl<T> Drop for Untracked<T> {
    fn drop(&mut self) {
        untracked(|| drop(self.0.take()));
    }
}
