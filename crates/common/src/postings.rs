//! A segmented posting arena: many append-mostly `u32` lists in one flat
//! allocation.
//!
//! The dynamic index keeps one posting list per `(child, key)` pair, per
//! weight bucket, and per group tuple. Storing each as its own `Vec` means
//! millions of 3-word heap objects on skewed streams — the allocator, not
//! the algorithm, ends up on the profile. This arena packs every list into
//! shared flat vectors, arrangement-style. A list's storage is chosen by
//! its length alone: inline ≤ 2, then chunks of 8, 16, 32, …. Up to two
//! items live in the two header words that otherwise name the list's head
//! and tail chunks, so such a list owns no chunk (on skewed streams most
//! lists are that short). A longer list is a chain of *chunks* whose
//! capacities double from [`FIRST_CHUNK_CAP`], so
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
//! like `Vec::swap_remove`. The third push moves the two header items into
//! a fresh first chunk; a removal from three items to two moves the
//! survivors back into the header and frees the chunk.

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

/// Items a list keeps in its header: the two words that name the head and
/// tail chunks of a longer list.
const INLINE: u32 = 2;
const HEAD: usize = 0;
const TAIL: usize = 1;

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
    /// `len ≤ INLINE`: the items, unused words [`NONE`]. Otherwise the
    /// head and tail chunks.
    words: [u32; 2],
    len: u32,
}

const EMPTY: ListMeta = ListMeta {
    words: [NONE; 2],
    len: 0,
};

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

    /// Allocates a fresh empty list (no chunk until the third push).
    pub fn new_list(&mut self) -> ListId {
        if let Some(id) = self.free_lists.pop() {
            return id;
        }
        self.lists.push(EMPTY);
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

    /// Chunks owned by lists (every chunk not in a free pool).
    pub fn chunks_in_use(&self) -> usize {
        self.chunks.len() - self.free_chunks.iter().map(Vec::len).sum::<usize>()
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
    fn used_in_tail(len: u32, tail_cap: u32) -> u32 {
        len - (tail_cap - FIRST_CHUNK_CAP)
    }

    /// Appends `v` to `list`.
    pub fn push(&mut self, list: ListId, v: u32) {
        let lm = &mut self.lists[list as usize];
        if lm.len < INLINE {
            lm.words[lm.len as usize] = v;
            lm.len += 1;
            return;
        }
        if lm.len == INLINE {
            let items = lm.words;
            let c = self.alloc_chunk(0);
            let start = self.chunks[c as usize].start as usize;
            self.data[start..start + INLINE as usize].copy_from_slice(&items);
            self.lists[list as usize].words = [c, c];
        }
        let lm = self.lists[list as usize];
        let mut tc = self.chunks[lm.words[TAIL] as usize];
        let mut used = Self::used_in_tail(lm.len, tc.cap);
        if used == tc.cap {
            let c = self.alloc_chunk(class_of(tc.cap) + 1);
            self.chunks[lm.words[TAIL] as usize].next = c;
            self.lists[list as usize].words[TAIL] = c;
            tc = self.chunks[c as usize];
            used = 0;
        }
        self.data[(tc.start + used) as usize] = v;
        self.lists[list as usize].len += 1;
    }

    /// Flat-data offset of item `idx` of a chunked list.
    #[inline]
    fn slot_of(&self, lm: ListMeta, idx: u32) -> usize {
        debug_assert!(INLINE < lm.len && idx < lm.len, "index past list end");
        // Tail fast path: the doubling chain puts the second half of a
        // full list in its tail chunk, and `swap_remove` always touches
        // the last element — O(1) through the tail pointer.
        let tail = self.chunks[lm.words[TAIL] as usize];
        let tail_prefix = tail.cap - FIRST_CHUNK_CAP;
        if idx >= tail_prefix {
            return (tail.start + (idx - tail_prefix)) as usize;
        }
        let mut c = lm.words[HEAD];
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
        let lm = self.lists[list as usize];
        if lm.len <= INLINE {
            debug_assert!(idx < lm.len, "index past list end");
            return lm.words[idx as usize];
        }
        self.data[self.slot_of(lm, idx)]
    }

    /// Removes the element at `pos` by swapping the last element into its
    /// place. Returns the id that now occupies `pos` (`None` when `pos`
    /// was the last element) so the caller can fix its bookkeeping —
    /// `Vec::swap_remove` semantics.
    pub fn swap_remove(&mut self, list: ListId, pos: u32) -> Option<u32> {
        let lm = self.lists[list as usize];
        debug_assert!(pos < lm.len, "swap_remove past list end");
        let last_idx = lm.len - 1;
        if lm.len <= INLINE {
            let l = &mut self.lists[list as usize];
            let last_val = std::mem::replace(&mut l.words[last_idx as usize], NONE);
            l.len = last_idx;
            if pos == last_idx {
                return None;
            }
            l.words[pos as usize] = last_val;
            return Some(last_val);
        }
        let last_val = self.data[self.slot_of(lm, last_idx)];
        let moved = if pos != last_idx {
            let slot = self.slot_of(lm, pos);
            self.data[slot] = last_val;
            Some(last_val)
        } else {
            None
        };
        self.lists[list as usize].len = last_idx;
        let (head, tail) = (lm.words[HEAD], lm.words[TAIL]);
        if last_idx == INLINE {
            // Back into the header: the survivors are the head's first two
            // slots, and the head is the whole chain.
            let start = self.chunks[head as usize].start as usize;
            let items = &self.data[start..start + INLINE as usize];
            self.lists[list as usize].words = [items[0], items[1]];
            self.push_free_chunk(head);
        } else if tail != head && last_idx == self.chunks[tail as usize].cap - FIRST_CHUNK_CAP {
            // Retire the tail chunk when it empties.
            let mut prev = head;
            while self.chunks[prev as usize].next != tail {
                prev = self.chunks[prev as usize].next;
            }
            self.chunks[prev as usize].next = NONE;
            self.push_free_chunk(tail);
            self.lists[list as usize].words[TAIL] = prev;
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
        let lm = self.lists[list as usize];
        if lm.len > INLINE {
            let mut c = lm.words[HEAD];
            while c != NONE {
                let next = self.chunks[c as usize].next;
                self.push_free_chunk(c);
                c = next;
            }
        }
        self.lists[list as usize] = EMPTY;
        self.free_lists.push(list);
    }

    /// Iterates the elements of `list` in append order.
    pub fn iter(&self, list: ListId) -> PostingIter<'_> {
        let lm = &self.lists[list as usize];
        let (run, chunk, rest): (&[u32], _, _) = if lm.len <= INLINE {
            (&lm.words[..lm.len as usize], NONE, 0)
        } else {
            (&[], lm.words[HEAD], lm.len)
        };
        PostingIter {
            run: run.iter(),
            runs: Runs {
                arena: self,
                chunk,
                rest,
            },
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
            enc.put_u32(l.words[HEAD]);
            enc.put_u32(l.words[TAIL]);
            enc.put_u32(l.len);
        }
        enc.put_u32s(&self.free_lists);
        enc.put_usize(self.free_chunks.len());
        for pool in &self.free_chunks {
            enc.put_u32s(pool);
        }
    }

    /// Reconstructs an arena from [`snapshot_to`](PostingArena::snapshot_to)
    /// bytes, checking every invariant that access relies on: chunks tile
    /// `data` in allocation order; each chunked list's chain is the exact
    /// doubling sequence from its head to its tail, and its `len` falls in
    /// the tail chunk; every chunk has at most one owner (a list or the
    /// pool of its size class); a recycled handle is empty; and an inline
    /// list's unused words are `u32::MAX`.
    pub fn restore_from(dec: &mut Decoder) -> Result<PostingArena, CodecError> {
        let data = dec.u32s()?;
        let nchunks = dec.seq_len(12)?;
        let mut chunks = Vec::with_capacity(nchunks);
        let mut end = 0usize;
        for _ in 0..nchunks {
            let (start, cap, next) = (dec.u32()?, dec.u32()?, dec.u32()?);
            if start as usize != end || cap < FIRST_CHUNK_CAP || !cap.is_power_of_two() {
                return Err(CodecError::Corrupt("posting chunk outside data"));
            }
            end += cap as usize;
            chunks.push(ChunkMeta { start, cap, next });
        }
        if end != data.len() {
            return Err(CodecError::Corrupt("posting chunk outside data"));
        }
        let mut owned = vec![false; nchunks];
        let mut claim = |c: u32| match owned.get_mut(c as usize) {
            Some(o) if !*o => {
                *o = true;
                true
            }
            _ => false,
        };
        let nlists = dec.seq_len(12)?;
        let mut lists = Vec::with_capacity(nlists);
        for _ in 0..nlists {
            let lm = ListMeta {
                words: [dec.u32()?, dec.u32()?],
                len: dec.u32()?,
            };
            if lm.len <= INLINE {
                if lm.words[lm.len as usize..].iter().any(|&w| w != NONE) {
                    return Err(CodecError::Corrupt("posting list header not canonical"));
                }
            } else {
                let (mut c, mut cap) = (lm.words[HEAD], FIRST_CHUNK_CAP);
                loop {
                    if !claim(c) || chunks[c as usize].cap != cap {
                        return Err(CodecError::Corrupt("posting chunk chain broken"));
                    }
                    if c == lm.words[TAIL] {
                        break;
                    }
                    c = chunks[c as usize].next;
                    cap = cap.saturating_mul(2);
                }
                let prefix = cap - FIRST_CHUNK_CAP;
                if chunks[c as usize].next != NONE || lm.len <= prefix || lm.len - prefix > cap {
                    return Err(CodecError::Corrupt("posting list length off its chain"));
                }
            }
            lists.push(lm);
        }
        let free_lists = dec.u32s()?;
        let mut recycled = vec![false; nlists];
        for &l in &free_lists {
            match (lists.get(l as usize), recycled.get_mut(l as usize)) {
                (Some(lm), Some(r)) if lm.len == 0 && !*r => *r = true,
                _ => return Err(CodecError::Corrupt("recycled posting list not empty")),
            }
        }
        let npools = dec.seq_len(8)?;
        let mut free_chunks = Vec::with_capacity(npools);
        for class in 0..npools {
            let pool = dec.u32s()?;
            let cap = FIRST_CHUNK_CAP.checked_shl(class as u32);
            if pool
                .iter()
                .any(|&c| !claim(c) || Some(chunks[c as usize].cap) != cap)
            {
                return Err(CodecError::Corrupt(
                    "pooled posting chunk of the wrong class",
                ));
            }
            free_chunks.push(pool);
        }
        Ok(PostingArena {
            data,
            chunks,
            lists,
            free_lists,
            free_chunks,
        })
    }

    /// Appends the elements of `list` to `out` (run-wise memcpy).
    pub fn extend_into(&self, list: ListId, out: &mut Vec<u32>) {
        let it = self.iter(list);
        out.reserve(it.len());
        out.extend_from_slice(it.run.as_slice());
        for run in it.runs {
            out.extend_from_slice(run);
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

/// A chunked list's items as one slice per chunk, in append order.
struct Runs<'a> {
    arena: &'a PostingArena,
    chunk: u32,
    /// Items of the list in `chunk` and after it.
    rest: u32,
}

impl<'a> Iterator for Runs<'a> {
    type Item = &'a [u32];

    #[inline]
    fn next(&mut self) -> Option<&'a [u32]> {
        if self.rest == 0 {
            return None;
        }
        let cm = self.arena.chunks[self.chunk as usize];
        let take = self.rest.min(cm.cap);
        self.rest -= take;
        self.chunk = cm.next;
        Some(&self.arena.data[cm.start as usize..(cm.start + take) as usize])
    }
}

/// Iterator over one list's elements, in append order.
pub struct PostingIter<'a> {
    /// The items left in the current run: the header's inline items, or
    /// one chunk's.
    run: std::slice::Iter<'a, u32>,
    runs: Runs<'a>,
}

impl Iterator for PostingIter<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        loop {
            if let Some(&v) = self.run.next() {
                return Some(v);
            }
            self.run = self.runs.next()?.iter();
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.run.len() + self.runs.rest as usize;
        (n, Some(n))
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
        // Draining returned every chunk; a refill starts in the header.
        assert_eq!(a.chunks_in_use(), 0);
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
        // Three items: past the header, so the list owns a real chunk.
        for v in 1..=3 {
            a.push(l, v);
        }
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
    #[test]
    fn short_lists_live_in_the_header() {
        let mut a = PostingArena::new();
        let l = a.new_list();
        a.push(l, 10);
        a.push(l, 11);
        assert_eq!((a.chunks_in_use(), a.data.len()), (0, 0));
        assert_eq!((a.get(l, 0), a.get(l, 1)), (10, 11));
        // The third push moves both items into a first chunk.
        a.push(l, 12);
        assert_eq!(a.chunks_in_use(), 1);
        assert_eq!(collect(&a, l), vec![10, 11, 12]);
        // Back to two: the survivors return to the header, the chunk to
        // its pool, and the spare word reads NONE again once one is left.
        assert_eq!(a.swap_remove(l, 0), Some(12));
        assert_eq!(a.chunks_in_use(), 0);
        assert_eq!(collect(&a, l), vec![12, 11]);
        assert_eq!(a.swap_remove(l, 1), None);
        assert_eq!(a.lists[l as usize].words, [12, NONE]);
        // A refill recycles the pooled chunk instead of growing `data`.
        a.push(l, 13);
        a.push(l, 14);
        assert_eq!((a.chunks_in_use(), a.data.len()), (1, 8));
        assert_eq!(collect(&a, l), vec![12, 13, 14]);
    }

    /// A small arena with every kind of state an image holds: inline lists
    /// of one and two items, chunked lists of one and two chunks, a
    /// recycled handle and pooled chunks of two classes.
    fn sample_arena() -> PostingArena {
        let mut a = PostingArena::new();
        let lists: Vec<ListId> = (0..6).map(|_| a.new_list()).collect();
        for (i, &l) in lists.iter().enumerate() {
            for v in 0..[1, 2, 3, 11, 20, 0][i] {
                a.push(l, 100 * i as u32 + v);
            }
        }
        a.free_list(lists[4]);
        a.push(lists[5], 7);
        a.push(lists[5], 8);
        a.push(lists[5], 9);
        a.swap_remove(lists[5], 0);
        a
    }

    fn image(a: &PostingArena) -> Vec<u8> {
        let mut enc = crate::codec::Encoder::new();
        a.snapshot_to(&mut enc);
        enc.into_bytes()
    }

    fn restore(bytes: &[u8]) -> Result<PostingArena, CodecError> {
        PostingArena::restore_from(&mut crate::codec::Decoder::new(bytes))
    }

    /// Restores the image of [`sample_arena`] after `corrupt` edits it.
    fn restore_edited(corrupt: impl FnOnce(&mut PostingArena)) -> Result<PostingArena, CodecError> {
        let mut a = sample_arena();
        corrupt(&mut a);
        restore(&image(&a))
    }

    #[test]
    fn sample_image_round_trips() {
        let a = sample_arena();
        assert_eq!(a.chunks_in_use(), 3);
        assert_eq!(image(&restore(&image(&a)).unwrap()), image(&a));
    }

    #[test]
    fn restore_rejects_a_chain_that_is_not_the_doubling_sequence() {
        // List 3 (11 items) is chunks [8, 16]: point its tail at the head.
        let err = restore_edited(|a| a.lists[3].words[TAIL] = a.lists[3].words[HEAD]);
        assert!(err.is_err());
        // Skip the head: the chain starts at the 16-slot chunk.
        let err = restore_edited(|a| a.lists[3].words[HEAD] = a.lists[3].words[TAIL]);
        assert!(err.is_err());
        // A tail that links onward.
        let err = restore_edited(|a| {
            let (head, tail) = (a.lists[3].words[HEAD], a.lists[3].words[TAIL]);
            a.chunks[tail as usize].next = head;
        });
        assert!(err.is_err());
    }

    #[test]
    fn restore_rejects_a_len_off_its_chain() {
        // Chain [8, 16] holds 9..=24 items.
        for len in [3, 8, 25, u32::MAX] {
            assert!(restore_edited(|a| a.lists[3].len = len).is_err(), "{len}");
        }
        for len in [9, 24] {
            assert!(restore_edited(|a| a.lists[3].len = len).is_ok(), "{len}");
        }
    }

    #[test]
    fn restore_rejects_a_chunk_with_two_owners() {
        // Two lists share list 2's chunk.
        let err = restore_edited(|a| {
            a.lists[1] = a.lists[2];
        });
        assert!(err.is_err());
        // A list's chunk also sits in the free pool.
        let err = restore_edited(|a| {
            let head = a.lists[2].words[HEAD];
            a.free_chunks[0].push(head);
        });
        assert!(err.is_err());
    }

    #[test]
    fn restore_rejects_a_pooled_chunk_of_the_wrong_class() {
        let err = restore_edited(|a| {
            let c = a.free_chunks[1].pop().unwrap();
            a.free_chunks[0].push(c);
        });
        assert!(err.is_err());
    }

    #[test]
    fn restore_rejects_a_recycled_handle_that_is_not_empty() {
        assert!(restore_edited(|a| a.free_lists.push(0)).is_err());
        // Nor may one handle be recycled twice.
        assert!(restore_edited(|a| a.free_lists.push(4)).is_err());
    }

    #[test]
    fn restore_rejects_an_inline_header_with_a_stray_word() {
        assert!(restore_edited(|a| a.lists[0].words[1] = 5).is_err());
        assert!(restore_edited(|a| a.lists[4].words[0] = 0).is_err());
    }

    #[test]
    fn every_single_bit_flip_is_an_error_or_a_walkable_arena() {
        let bytes = image(&sample_arena());
        let (mut rejected, mut accepted) = (0, 0);
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let Ok(b) = restore(&flipped) else {
                rejected += 1;
                continue;
            };
            accepted += 1;
            for l in 0..b.lists.len() as ListId {
                let n = b.len(l);
                assert_eq!(b.iter(l).count(), n, "bit {bit}, list {l}");
                let mut out = Vec::new();
                b.extend_into(l, &mut out);
                assert_eq!(out.len(), n, "bit {bit}, list {l}");
                for i in 0..n as u32 {
                    assert_eq!(b.get(l, i), out[i as usize], "bit {bit}, list {l}");
                }
            }
        }
        // Data-slot flips restore; most structural flips do not.
        assert!(
            rejected > 0 && accepted > 0,
            "{rejected} rejected, {accepted} accepted"
        );
    }
}
