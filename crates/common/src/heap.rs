//! Structural heap-size accounting.
//!
//! The paper's Figure 11 tracks resident memory as the stream is consumed.
//! A reproduction that shells out to the OS for RSS would be noisy and
//! allocator-dependent, so instead every index structure implements
//! [`HeapSize`]: a deterministic, capacity-based estimate of its heap
//! footprint. Relative comparisons (RSJoin vs. SJoin) — which is what the
//! figure is about — are preserved exactly.

/// Types that can report an estimate of their owned heap bytes.
pub trait HeapSize {
    /// Estimated bytes of heap memory owned by `self`, excluding
    /// `size_of::<Self>()` itself.
    fn heap_size(&self) -> usize;
}

impl<T: Copy> HeapSize for Vec<T> {
    fn heap_size(&self) -> usize {
        self.capacity() * std::mem::size_of::<T>()
    }
}

/// Bucket count of a hashbrown table reporting `capacity` usable slots:
/// a power of two sized so that capacity ≈ 7/8 of it (tiny tables use 4
/// or 8 buckets directly).
fn hashbrown_buckets(capacity: usize) -> usize {
    match capacity {
        0 => 0,
        1..=3 => 4,
        4..=7 => 8,
        c => (c * 8 / 7).next_power_of_two(),
    }
}

impl<K, V, S> HeapSize for std::collections::HashMap<K, V, S> {
    fn heap_size(&self) -> usize {
        // hashbrown allocates one (K, V) slot plus one control byte per
        // *bucket* (not per usable capacity slot), plus a 16-byte control
        // group tail. Mirroring that keeps capacity-based accounting
        // within a few percent of the allocator's view, which the
        // heap-tracking test in rsj-index pins.
        let buckets = hashbrown_buckets(self.capacity());
        if buckets == 0 {
            0
        } else {
            buckets * (std::mem::size_of::<(K, V)>() + 1) + 16
        }
    }
}

impl<K, S> HeapSize for std::collections::HashSet<K, S> {
    fn heap_size(&self) -> usize {
        let buckets = hashbrown_buckets(self.capacity());
        if buckets == 0 {
            0
        } else {
            buckets * (std::mem::size_of::<K>() + 1) + 16
        }
    }
}

impl<T: HeapSize> HeapSize for Option<T> {
    fn heap_size(&self) -> usize {
        self.as_ref().map_or(0, HeapSize::heap_size)
    }
}

impl HeapSize for String {
    fn heap_size(&self) -> usize {
        self.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FxHashMap;

    #[test]
    fn vec_accounts_capacity() {
        let mut v: Vec<u64> = Vec::with_capacity(100);
        v.push(1);
        assert_eq!(v.heap_size(), 800);
    }

    #[test]
    fn map_grows_accounting() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        let empty = m.heap_size();
        for i in 0..1000 {
            m.insert(i, i);
        }
        assert!(m.heap_size() > empty + 1000 * 16);
    }

    #[test]
    fn option_and_string() {
        assert_eq!(None::<String>.heap_size(), 0);
        let s = String::with_capacity(32);
        assert_eq!(Some(s).heap_size(), 32);
    }
}
