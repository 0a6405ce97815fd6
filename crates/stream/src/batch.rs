//! Positional batch streams: the `next` / `skip` / `remain` primitives.
//!
//! A [`Batch`] is one item-disjoint segment of the conceptual stream the
//! batched reservoir algorithm (paper Algorithms 4–5) consumes. The join
//! driver produces one batch per input tuple — the delta `ΔJ` of that tuple —
//! without materializing it: an [`FnBatch`] of bare positions, so `skip(i)`
//! is pure arithmetic and only the position a stop lands on is retrieved
//! from the index (`O(log N)`, in the reservoir's stop closure).
//!
//! Positions and sizes are `u128`: a single delta batch over a join with
//! fractional edge cover number `ρ*` can have up to `N^{ρ*}` positions.

/// A finite stream segment supporting positional access.
///
/// The cursor starts before position 0. `next()` returns the item at the
/// cursor and advances; `skip(i)` discards `i` items and returns the
/// `(i+1)`-th, mirroring the paper's primitives exactly.
pub trait Batch {
    /// The item type. Join batches yield bare positions: the reservoir's
    /// stop closure retrieves the position from the index, which is also
    /// what tells a real result from a dummy introduced by count rounding.
    type Item;

    /// Number of items not yet consumed.
    fn remain(&self) -> u128;

    /// Skips `i` items, then consumes and returns the next one.
    /// Returns `None` iff fewer than `i + 1` items remain (the batch is then
    /// fully consumed).
    fn skip(&mut self, i: u128) -> Option<Self::Item>;

    /// Consumes and returns the next item (`skip(0)`).
    fn next(&mut self) -> Option<Self::Item> {
        self.skip(0)
    }

    /// Discards the next `n` items without producing any (all that
    /// remain if fewer do).
    fn advance(&mut self, n: u128);
}

/// A batch over a slice, cloning items out. Mostly used in tests and by the
/// string-stream experiments.
#[derive(Debug)]
pub struct SliceBatch<'a, T: Clone> {
    items: &'a [T],
    pos: usize,
}

impl<'a, T: Clone> SliceBatch<'a, T> {
    /// Wraps a slice as a batch.
    pub fn new(items: &'a [T]) -> Self {
        SliceBatch { items, pos: 0 }
    }
}

impl<T: Clone> Batch for SliceBatch<'_, T> {
    type Item = T;

    fn remain(&self) -> u128 {
        (self.items.len() - self.pos) as u128
    }

    fn skip(&mut self, i: u128) -> Option<T> {
        let r = self.remain();
        if i >= r {
            self.pos = self.items.len();
            return None;
        }
        self.pos += i as usize;
        let item = self.items[self.pos].clone();
        self.pos += 1;
        Some(item)
    }

    fn advance(&mut self, n: u128) {
        self.pos += n.min(self.remain()) as usize;
    }
}

/// A batch defined by a size and a positional accessor.
///
/// This is the adapter the join driver uses, with the identity accessor:
/// a stop yields its position `z`, and the driver's stop closure performs
/// the positional `Retrieve` into the dynamic index (paper Algorithm 9).
pub struct FnBatch<T, F: FnMut(u128) -> T> {
    size: u128,
    pos: u128,
    f: F,
}

impl<T, F: FnMut(u128) -> T> FnBatch<T, F> {
    /// Creates a batch of `size` positions backed by accessor `f`.
    pub fn new(size: u128, f: F) -> Self {
        FnBatch { size, pos: 0, f }
    }

    /// Total size of the batch (consumed or not).
    pub fn size(&self) -> u128 {
        self.size
    }
}

impl<T, F: FnMut(u128) -> T> Batch for FnBatch<T, F> {
    type Item = T;

    fn remain(&self) -> u128 {
        self.size - self.pos
    }

    fn skip(&mut self, i: u128) -> Option<T> {
        if i >= self.remain() {
            self.pos = self.size;
            return None;
        }
        self.pos += i;
        let item = (self.f)(self.pos);
        self.pos += 1;
        Some(item)
    }

    /// Pure arithmetic: the accessor is not called.
    fn advance(&mut self, n: u128) {
        self.pos += n.min(self.remain());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_batch_sequential() {
        let data = [1, 2, 3];
        let mut b = SliceBatch::new(&data);
        assert_eq!(b.remain(), 3);
        assert_eq!(b.next(), Some(1));
        assert_eq!(b.next(), Some(2));
        assert_eq!(b.next(), Some(3));
        assert_eq!(b.next(), None);
        assert_eq!(b.remain(), 0);
    }

    #[test]
    fn slice_batch_skip() {
        let data = [10, 20, 30, 40, 50];
        let mut b = SliceBatch::new(&data);
        assert_eq!(b.skip(2), Some(30));
        assert_eq!(b.remain(), 2);
        assert_eq!(b.skip(1), Some(50));
        assert_eq!(b.remain(), 0);
        assert_eq!(b.skip(0), None);
    }

    #[test]
    fn skip_past_end_consumes_all() {
        let data = [1, 2];
        let mut b = SliceBatch::new(&data);
        assert_eq!(b.skip(5), None);
        assert_eq!(b.remain(), 0);
    }

    #[test]
    fn fn_batch_positions() {
        let mut calls = Vec::new();
        {
            let mut b = FnBatch::new(10, |z| {
                calls.push(z);
                z * z
            });
            assert_eq!(b.skip(3), Some(9));
            assert_eq!(b.skip(0), Some(16));
            assert_eq!(b.skip(4), Some(81));
            assert_eq!(b.remain(), 0);
            assert_eq!(b.skip(0), None);
        }
        // Accessor called only at stop positions — that's the whole point.
        assert_eq!(calls, vec![3, 4, 9]);
    }

    #[test]
    fn slice_batch_advance() {
        let data = [10, 20, 30, 40, 50];
        let mut b = SliceBatch::new(&data);
        b.advance(0);
        assert_eq!(b.next(), Some(10));
        b.advance(2);
        assert_eq!(b.remain(), 2);
        assert_eq!(b.next(), Some(40));
        b.advance(7);
        assert_eq!(b.remain(), 0);
        assert_eq!(b.next(), None);
    }

    #[test]
    fn fn_batch_advance_never_calls_the_accessor() {
        let mut calls = Vec::new();
        {
            let mut b = FnBatch::new(1u128 << 90, |z| {
                calls.push(z);
                z
            });
            b.advance(5);
            assert_eq!(b.skip(1), Some(6));
            b.advance((1u128 << 89) - 7);
            assert_eq!(b.remain(), 1u128 << 89);
            assert_eq!(b.next(), Some(1u128 << 89));
            b.advance(u128::MAX);
            assert_eq!(b.remain(), 0);
            b.advance(1);
            assert_eq!(b.next(), None);
        }
        assert_eq!(calls, vec![6, 1u128 << 89]);
    }

    #[test]
    fn fn_batch_huge_positions() {
        let size = 1u128 << 100;
        let mut b = FnBatch::new(size, |z| z);
        assert_eq!(b.skip((1u128 << 99) - 1), Some((1u128 << 99) - 1));
        assert_eq!(b.remain(), 1u128 << 99);
    }
}
