//! A segmented posting arena: many append-mostly `u32` lists in one flat
//! allocation.
//!
//! The dynamic index keeps one posting list per `(child, key)` pair, per
//! weight bucket, and per group tuple. Storing each as its own `Vec` means
//! millions of 3-word heap objects on skewed streams — the allocator, not
//! the algorithm, ends up on the profile. This arena packs every list into
//! shared flat vectors, arrangement-style: a list is a chain of *chunks*
//! whose capacities double ([`FIRST_CHUNK_CAP`] = 8, then 16, 32, …), so
//!
//! * appends are `O(1)` amortized and allocation-free in steady state
//!   (freed chunks are recycled through per-size free lists; the flat data
//!   vector only grows when genuinely new capacity is needed);
//! * positional access walks at most `log₂(len / FIRST_CHUNK_CAP)` chunk
//!   links —
//!   `O(log n)`, preserving the index's polylog retrieval bound;
//! * iteration yields elements in append order, so replacing a `Vec` list
//!   with an arena list is invisible to anything order-dependent (the
//!   byte-identical-samples invariant).
//!
//! Removal is swap-remove only (the index's bucket discipline): the last
//! element fills the hole and the caller fixes its bookkeeping, exactly
//! like `Vec::swap_remove`.

use crate::codec::{CodecError, Decoder, Encoder};
use crate::heap::HeapSize;

/// Handle of one list within a [`PostingArena`].
pub type ListId = u32;

/// Sentinel for "no list allocated yet" — callers that create lists lazily
/// can park this in their metadata. Never returned by
/// [`PostingArena::new_list`].
pub const NO_LIST: ListId = u32::MAX;

const NONE: u32 = u32::MAX;

/// Capacity of a list's first chunk; each subsequent chunk doubles.
pub const FIRST_CHUNK_CAP: u32 = 8;

#[derive(Clone, Copy, Debug)]
struct ChunkMeta {
    /// Offset of this chunk's slots in `data`.
    start: u32,
    /// Number of slots.
    cap: u32,
    /// Next chunk in the list, [`NONE`] at the tail.
    next: u32,
}

#[derive(Clone, Copy, Debug)]
struct ListMeta {
    head: u32,
    tail: u32,
    len: u32,
}

/// Flat-arena storage for many `u32` posting lists.
#[derive(Clone, Debug, Default)]
pub struct PostingArena {
    /// All chunk slots, every list interleaved.
    data: Vec<u32>,
    chunks: Vec<ChunkMeta>,
    lists: Vec<ListMeta>,
    /// Recycled list handles.
    free_lists: Vec<ListId>,
    /// Recycled chunks, bucketed by size class (`cap = FIRST_CHUNK_CAP << class`).
    free_chunks: Vec<Vec<u32>>,
}

#[inline]
fn class_of(cap: u32) -> usize {
    (cap / FIRST_CHUNK_CAP).trailing_zeros() as usize
}

impl PostingArena {
    /// Creates an empty arena.
    pub fn new() -> PostingArena {
        PostingArena::default()
    }

    /// Allocates a fresh empty list (no chunk until the first push).
    pub fn new_list(&mut self) -> ListId {
        if let Some(id) = self.free_lists.pop() {
            return id;
        }
        self.lists.push(ListMeta {
            head: NONE,
            tail: NONE,
            len: 0,
        });
        (self.lists.len() - 1) as ListId
    }

    /// Number of elements in `list`.
    #[inline]
    pub fn len(&self, list: ListId) -> usize {
        self.lists[list as usize].len as usize
    }

    /// True when `list` holds no elements.
    #[inline]
    pub fn is_empty(&self, list: ListId) -> bool {
        self.lists[list as usize].len == 0
    }

    /// Allocates (or recycles) a chunk of the given size class.
    fn alloc_chunk(&mut self, class: usize) -> u32 {
        if let Some(&c) = self.free_chunks.get(class).and_then(|v| v.last()) {
            self.free_chunks[class].pop();
            self.chunks[c as usize].next = NONE;
            return c;
        }
        let cap = FIRST_CHUNK_CAP << class;
        let start = self.data.len() as u32;
        self.data.resize(self.data.len() + cap as usize, 0);
        self.chunks.push(ChunkMeta {
            start,
            cap,
            next: NONE,
        });
        (self.chunks.len() - 1) as u32
    }

    /// Slots already used in the tail chunk. The chunk chain is always the
    /// exact doubling sequence `FIRST, 2·FIRST, …, cap_tail`, so the
    /// prefix before the tail sums to `cap_tail - FIRST`.
    #[inline]
    fn used_in_tail(lm: ListMeta, tail_cap: u32) -> u32 {
        lm.len - (tail_cap - FIRST_CHUNK_CAP)
    }

    /// Appends `v` to `list`.
    pub fn push(&mut self, list: ListId, v: u32) {
        let lm = self.lists[list as usize];
        let tail = if lm.head == NONE {
            let c = self.alloc_chunk(0);
            let lm = &mut self.lists[list as usize];
            lm.head = c;
            lm.tail = c;
            c
        } else {
            let tail_cap = self.chunks[lm.tail as usize].cap;
            if Self::used_in_tail(lm, tail_cap) == tail_cap {
                let c = self.alloc_chunk(class_of(tail_cap) + 1);
                self.chunks[lm.tail as usize].next = c;
                self.lists[list as usize].tail = c;
                c
            } else {
                lm.tail
            }
        };
        let lm = self.lists[list as usize];
        let tc = self.chunks[tail as usize];
        let used = Self::used_in_tail(lm, tc.cap);
        self.data[(tc.start + used) as usize] = v;
        self.lists[list as usize].len += 1;
    }

    /// Flat-data offset of `list[idx]`.
    #[inline]
    fn slot_of(&self, list: ListId, idx: u32) -> usize {
        let lm = self.lists[list as usize];
        debug_assert!(idx < lm.len, "index past list end");
        // Tail fast path: the doubling chain puts the second half of a
        // full list in its tail chunk, and `swap_remove` always touches
        // the last element — O(1) through the tail pointer.
        let tail = self.chunks[lm.tail as usize];
        let tail_prefix = tail.cap - FIRST_CHUNK_CAP;
        if idx >= tail_prefix {
            return (tail.start + (idx - tail_prefix)) as usize;
        }
        let mut c = lm.head;
        let mut base = 0u32;
        loop {
            let cm = self.chunks[c as usize];
            if idx < base + cm.cap {
                return (cm.start + (idx - base)) as usize;
            }
            base += cm.cap;
            c = cm.next;
        }
    }

    /// The element at position `idx` (append order). `O(log len)`.
    #[inline]
    pub fn get(&self, list: ListId, idx: u32) -> u32 {
        self.data[self.slot_of(list, idx)]
    }

    /// Removes the element at `pos` by swapping the last element into its
    /// place. Returns the id that now occupies `pos` (`None` when `pos`
    /// was the last element) so the caller can fix its bookkeeping —
    /// `Vec::swap_remove` semantics.
    pub fn swap_remove(&mut self, list: ListId, pos: u32) -> Option<u32> {
        let lm = self.lists[list as usize];
        debug_assert!(pos < lm.len, "swap_remove past list end");
        let last_idx = lm.len - 1;
        let last_val = self.get(list, last_idx);
        let moved = if pos != last_idx {
            let slot = self.slot_of(list, pos);
            self.data[slot] = last_val;
            Some(last_val)
        } else {
            None
        };
        self.lists[list as usize].len = last_idx;
        // Retire the tail chunk when it empties (unless it is the head,
        // which is kept so a refill allocates nothing).
        let tail_cap = self.chunks[lm.tail as usize].cap;
        if lm.tail != lm.head && last_idx == tail_cap - FIRST_CHUNK_CAP {
            let mut prev = lm.head;
            while self.chunks[prev as usize].next != lm.tail {
                prev = self.chunks[prev as usize].next;
            }
            self.chunks[prev as usize].next = NONE;
            self.push_free_chunk(lm.tail);
            self.lists[list as usize].tail = prev;
        }
        moved
    }

    fn push_free_chunk(&mut self, chunk: u32) {
        let class = class_of(self.chunks[chunk as usize].cap);
        if self.free_chunks.len() <= class {
            self.free_chunks.resize_with(class + 1, Vec::new);
        }
        self.free_chunks[class].push(chunk);
    }

    /// Releases `list` and all its chunks back to the free pools.
    pub fn free_list(&mut self, list: ListId) {
        let mut c = self.lists[list as usize].head;
        while c != NONE {
            let next = self.chunks[c as usize].next;
            self.push_free_chunk(c);
            c = next;
        }
        self.lists[list as usize] = ListMeta {
            head: NONE,
            tail: NONE,
            len: 0,
        };
        self.free_lists.push(list);
    }

    /// Iterates the elements of `list` in append order.
    pub fn iter(&self, list: ListId) -> PostingIter<'_> {
        let lm = self.lists[list as usize];
        PostingIter {
            arena: self,
            chunk: lm.head,
            offset: 0,
            remaining: lm.len,
        }
    }

    /// Serializes the arena's exact physical layout — data slots (including
    /// allocation slack, which is op-history-determined), chunk chains, list
    /// metadata and free pools — so a restored arena is byte-identical in
    /// memory, not merely equivalent. Positional retrieval (`get`) is
    /// sample-relevant, so physical layout IS behavior.
    pub fn snapshot_to(&self, enc: &mut Encoder) {
        enc.put_u32s(&self.data);
        enc.put_usize(self.chunks.len());
        for c in &self.chunks {
            enc.put_u32(c.start);
            enc.put_u32(c.cap);
            enc.put_u32(c.next);
        }
        enc.put_usize(self.lists.len());
        for l in &self.lists {
            enc.put_u32(l.head);
            enc.put_u32(l.tail);
            enc.put_u32(l.len);
        }
        enc.put_u32s(&self.free_lists);
        enc.put_usize(self.free_chunks.len());
        for pool in &self.free_chunks {
            enc.put_u32s(pool);
        }
    }

    /// Reconstructs an arena from [`snapshot_to`](PostingArena::snapshot_to)
    /// bytes.
    pub fn restore_from(dec: &mut Decoder) -> Result<PostingArena, CodecError> {
        let data = dec.u32s()?;
        let nchunks = dec.seq_len(12)?;
        let mut chunks = Vec::with_capacity(nchunks);
        for _ in 0..nchunks {
            let (start, cap, next) = (dec.u32()?, dec.u32()?, dec.u32()?);
            if start as usize + cap as usize > data.len() || !cap.is_power_of_two() {
                return Err(CodecError::Corrupt("posting chunk outside data"));
            }
            chunks.push(ChunkMeta { start, cap, next });
        }
        let nlists = dec.seq_len(12)?;
        let mut lists = Vec::with_capacity(nlists);
        for _ in 0..nlists {
            let (head, tail, len) = (dec.u32()?, dec.u32()?, dec.u32()?);
            if head != NONE && head as usize >= chunks.len() {
                return Err(CodecError::Corrupt("posting list head out of range"));
            }
            lists.push(ListMeta { head, tail, len });
        }
        let free_lists = dec.u32s()?;
        let npools = dec.seq_len(8)?;
        let free_chunks = (0..npools).map(|_| dec.u32s()).collect::<Result<_, _>>()?;
        Ok(PostingArena {
            data,
            chunks,
            lists,
            free_lists,
            free_chunks,
        })
    }

    /// Appends the elements of `list` to `out` (chunk-wise memcpy).
    pub fn extend_into(&self, list: ListId, out: &mut Vec<u32>) {
        let lm = self.lists[list as usize];
        out.reserve(lm.len as usize);
        let mut c = lm.head;
        let mut remaining = lm.len;
        while remaining > 0 {
            let cm = self.chunks[c as usize];
            let take = remaining.min(cm.cap);
            out.extend_from_slice(&self.data[cm.start as usize..(cm.start + take) as usize]);
            remaining -= take;
            c = cm.next;
        }
    }

    /// [`HeapSize::heap_size`] split into element slots, chunk metadata
    /// (with the recycled-chunk lists) and list metadata (with the
    /// recycled handles).
    pub fn heap_parts(&self) -> [usize; 3] {
        let free_chunks = self.free_chunks.capacity() * std::mem::size_of::<Vec<u32>>()
            + self
                .free_chunks
                .iter()
                .map(HeapSize::heap_size)
                .sum::<usize>();
        [
            self.data.heap_size(),
            self.chunks.capacity() * std::mem::size_of::<ChunkMeta>() + free_chunks,
            self.lists.capacity() * std::mem::size_of::<ListMeta>() + self.free_lists.heap_size(),
        ]
    }
}

/// Iterator over one list's elements, in append order.
pub struct PostingIter<'a> {
    arena: &'a PostingArena,
    chunk: u32,
    offset: u32,
    remaining: u32,
}

impl Iterator for PostingIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.remaining == 0 {
            return None;
        }
        let cm = self.arena.chunks[self.chunk as usize];
        let v = self.arena.data[(cm.start + self.offset) as usize];
        self.offset += 1;
        self.remaining -= 1;
        if self.offset == cm.cap {
            self.chunk = cm.next;
            self.offset = 0;
        }
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for PostingIter<'_> {}

impl HeapSize for PostingArena {
    fn heap_size(&self) -> usize {
        self.heap_parts().iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(a: &PostingArena, l: ListId) -> Vec<u32> {
        a.iter(l).collect()
    }

    #[test]
    fn push_and_iterate_in_order() {
        let mut a = PostingArena::new();
        let l = a.new_list();
        assert!(a.is_empty(l));
        for v in 0..100u32 {
            a.push(l, v * 10);
        }
        assert_eq!(a.len(l), 100);
        assert_eq!(collect(&a, l), (0..100).map(|v| v * 10).collect::<Vec<_>>());
    }

    #[test]
    fn positional_get_matches_iteration() {
        let mut a = PostingArena::new();
        let l = a.new_list();
        for v in 0..1000u32 {
            a.push(l, v ^ 0xABCD);
        }
        for (i, v) in collect(&a, l).into_iter().enumerate() {
            assert_eq!(a.get(l, i as u32), v, "idx {i}");
        }
    }

    #[test]
    fn many_interleaved_lists_stay_separate() {
        let mut a = PostingArena::new();
        let lists: Vec<ListId> = (0..50).map(|_| a.new_list()).collect();
        for round in 0..40u32 {
            for (li, &l) in lists.iter().enumerate() {
                a.push(l, round * 1000 + li as u32);
            }
        }
        for (li, &l) in lists.iter().enumerate() {
            let expect: Vec<u32> = (0..40).map(|r| r * 1000 + li as u32).collect();
            assert_eq!(collect(&a, l), expect, "list {li}");
        }
    }

    #[test]
    fn swap_remove_mirrors_vec_semantics() {
        let mut a = PostingArena::new();
        let l = a.new_list();
        let mut shadow: Vec<u32> = Vec::new();
        for v in 0..37u32 {
            a.push(l, v);
            shadow.push(v);
        }
        // Deterministic pseudo-random removal positions.
        let mut x = 12345u32;
        while !shadow.is_empty() {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let pos = x % shadow.len() as u32;
            shadow.swap_remove(pos as usize);
            let moved = a.swap_remove(l, pos);
            assert_eq!(moved, shadow.get(pos as usize).copied(), "pos {pos}");
            assert_eq!(collect(&a, l), shadow);
        }
        assert!(a.is_empty(l));
        // Refilling after drain reuses the retained head chunk.
        a.push(l, 7);
        assert_eq!(collect(&a, l), vec![7]);
    }

    #[test]
    fn freed_chunks_are_recycled() {
        let mut a = PostingArena::new();
        let l = a.new_list();
        for v in 0..64u32 {
            a.push(l, v);
        }
        let data_cap = a.data.len();
        a.free_list(l);
        // A new list of the same size must fit entirely in recycled space.
        let l2 = a.new_list();
        assert_eq!(l2, l, "list handle recycled");
        for v in 0..64u32 {
            a.push(l2, v + 100);
        }
        assert_eq!(a.data.len(), data_cap, "no new chunk space allocated");
        assert_eq!(collect(&a, l2), (100..164).collect::<Vec<_>>());
    }

    #[test]
    fn extend_into_matches_iter() {
        let mut a = PostingArena::new();
        let l = a.new_list();
        for v in 0..123u32 {
            a.push(l, v * 3);
        }
        let mut out = vec![999];
        a.extend_into(l, &mut out);
        let mut expect = vec![999];
        expect.extend((0..123u32).map(|v| v * 3));
        assert_eq!(out, expect);
    }

    #[test]
    fn shrink_past_chunk_boundary_then_refill() {
        let mut a = PostingArena::new();
        let l = a.new_list();
        // Fill past the first-chunk boundary, shrink below it, refill.
        for v in 0..13u32 {
            a.push(l, v);
        }
        for _ in 0..10 {
            a.swap_remove(l, 0);
        }
        assert_eq!(a.len(l), 3);
        for v in 100..120u32 {
            a.push(l, v);
        }
        assert_eq!(a.len(l), 23);
        let got = collect(&a, l);
        assert_eq!(got.len(), 23);
        assert_eq!(&got[3..], (100..120).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn snapshot_restores_the_exact_physical_layout() {
        let mut a = PostingArena::new();
        let lists: Vec<ListId> = (0..8).map(|_| a.new_list()).collect();
        let mut x = 99u32;
        for round in 0..200u32 {
            for &l in &lists {
                a.push(l, round ^ l);
            }
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            let victim = lists[(x % 8) as usize];
            if a.len(victim) > 1 {
                a.swap_remove(victim, x % a.len(victim) as u32);
            }
        }
        a.free_list(lists[3]);
        let mut enc = crate::codec::Encoder::new();
        a.snapshot_to(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = crate::codec::Decoder::new(&bytes);
        let mut b = PostingArena::restore_from(&mut dec).unwrap();
        dec.finish().unwrap();
        // Same contents in order, and — layout being behavior — identical
        // bytes when snapshotted again, even after identical further ops.
        for &l in &lists {
            if l == lists[3] {
                continue;
            }
            assert_eq!(collect(&a, l), collect(&b, l), "list {l}");
        }
        a.push(lists[0], 424242);
        b.push(lists[0], 424242);
        let snap = |arena: &PostingArena| {
            let mut e = crate::codec::Encoder::new();
            arena.snapshot_to(&mut e);
            e.into_bytes()
        };
        assert_eq!(snap(&a), snap(&b));
    }

    #[test]
    fn snapshot_rejects_corrupt_chunk_bounds() {
        let mut a = PostingArena::new();
        let l = a.new_list();
        a.push(l, 1);
        let mut enc = crate::codec::Encoder::new();
        a.snapshot_to(&mut enc);
        let mut bytes = enc.into_bytes();
        // data is 8 slots; chunk meta follows: corrupt its `start` field
        // (first u32 after data vec + chunk count) to point past the data.
        let off = 8 + 8 * 4 + 8;
        bytes[off..off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut dec = crate::codec::Decoder::new(&bytes);
        assert!(PostingArena::restore_from(&mut dec).is_err());
    }

    #[test]
    fn heap_size_is_flat_and_shared() {
        let mut a = PostingArena::new();
        let lists: Vec<ListId> = (0..1000).map(|_| a.new_list()).collect();
        for &l in &lists {
            a.push(l, 1);
        }
        // 1000 single-element Vec<u32>s would cost >= 1000 separate
        // allocations; the arena packs them into ~4 slots each plus
        // metadata, all in three flat vectors.
        let per_list = a.heap_size() / 1000;
        assert!(per_list < 64, "per-list footprint {per_list} bytes");
    }
}
