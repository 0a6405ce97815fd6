//! Differential property test of `PostingArena` against a `Vec<Vec<u32>>`
//! model, weighted toward the lengths where a list moves between its
//! header (≤ 2 items) and its first chunk.

use proptest::collection::vec;
use proptest::prelude::*;
use rsjoin::common::codec::{Decoder, Encoder};
use rsjoin::common::postings::{ListId, PostingArena, FIRST_CHUNK_CAP};

/// The arena beside its model: `model[id]` is list `id`'s items, `None`
/// while the handle is recycled; `recycled` is the model's handle stack.
#[derive(Default)]
struct Twin {
    arena: PostingArena,
    model: Vec<Option<Vec<u32>>>,
    recycled: Vec<ListId>,
}

/// Chunks a list of `len > 2` items owns: the shortest doubling chain
/// `8, 16, …` whose capacities sum to at least `len`.
fn chain_len(len: usize) -> usize {
    let (mut chunks, mut cap, mut total) = (0, FIRST_CHUNK_CAP as usize, 0);
    while total < len {
        total += cap;
        cap *= 2;
        chunks += 1;
    }
    chunks
}

fn image(arena: &PostingArena) -> Vec<u8> {
    let mut enc = Encoder::new();
    arena.snapshot_to(&mut enc);
    enc.into_bytes()
}

impl Twin {
    fn live(&self) -> Vec<ListId> {
        (0..self.model.len() as ListId)
            .filter(|&l| self.model[l as usize].is_some())
            .collect()
    }

    fn new_list(&mut self) {
        let id = self.arena.new_list();
        let expect = self.recycled.pop().unwrap_or(self.model.len() as ListId);
        assert_eq!(id, expect, "handle reuse is last-freed-first");
        if id as usize == self.model.len() {
            self.model.push(None);
        }
        self.model[id as usize] = Some(Vec::new());
    }

    fn free_list(&mut self, l: ListId) {
        self.arena.free_list(l);
        self.model[l as usize] = None;
        self.recycled.push(l);
    }

    fn push(&mut self, l: ListId, v: u32) {
        self.arena.push(l, v);
        self.model[l as usize].as_mut().unwrap().push(v);
    }

    fn swap_remove(&mut self, l: ListId, pos: u32) {
        let items = self.model[l as usize].as_mut().unwrap();
        let pos = pos % items.len() as u32;
        items.swap_remove(pos as usize);
        let moved = self.arena.swap_remove(l, pos);
        assert_eq!(moved, items.get(pos as usize).copied(), "moved value");
    }

    fn check(&self) {
        let mut chunks = 0;
        for l in self.live() {
            let items = self.model[l as usize].as_ref().unwrap();
            assert_eq!(self.arena.len(l), items.len(), "len of {l}");
            assert_eq!(self.arena.iter(l).len(), items.len(), "size hint of {l}");
            assert_eq!(
                &self.arena.iter(l).collect::<Vec<_>>(),
                items,
                "iter of {l}"
            );
            for (i, &v) in items.iter().enumerate() {
                assert_eq!(self.arena.get(l, i as u32), v, "get({l}, {i})");
            }
            let mut out = vec![7];
            self.arena.extend_into(l, &mut out);
            assert_eq!(
                (out[0], &out[1..]),
                (7, items.as_slice()),
                "extend_into {l}"
            );
            if items.len() > 2 {
                chunks += chain_len(items.len());
            }
        }
        assert_eq!(
            self.arena.chunks_in_use(),
            chunks,
            "lists of ≤ 2 own no chunk"
        );
        let bytes = image(&self.arena);
        let mut dec = Decoder::new(&bytes);
        let restored = PostingArena::restore_from(&mut dec).unwrap();
        dec.finish().unwrap();
        assert_eq!(image(&restored), bytes, "snapshot → restore → snapshot");
    }
}

proptest! {
    /// Removals are a little likelier than pushes and an empty list takes a
    /// push instead, so most lists hover at one to four items, across the
    /// header/chunk boundary; an occasional burst carries a list across its
    /// first and second chunk boundaries and back. `new_list` reuses the
    /// handles `free_list` recycled.
    #[test]
    fn posting_arena_matches_a_vec_model(
        ops in vec((0u8..30, 0u32..8, any::<u32>()), 1..300),
    ) {
        let mut t = Twin::default();
        t.new_list();
        for (kind, pick, v) in ops {
            let live = t.live();
            let l = live.get(pick as usize % live.len().max(1)).copied();
            match (kind, l) {
                (12..=25, Some(l)) if !t.arena.is_empty(l) => t.swap_remove(l, v),
                (0..=25, Some(l)) => t.push(l, v),
                (26, Some(l)) => {
                    for i in 0..v % 16 {
                        t.push(l, v.wrapping_add(i));
                    }
                }
                (27, Some(l)) => t.free_list(l),
                _ => t.new_list(),
            }
            t.check();
        }
    }
}
