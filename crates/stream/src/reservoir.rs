//! The reservoir sampling algorithms (paper §3.1–§3.3).
//!
//! [`ClassicReservoir`] is Waterman's algorithm: one uniform draw per item,
//! `O(N)` total. [`Reservoir`] is the paper's contribution — Algorithm 1
//! (reservoir sampling with a predicate) in the batched formulation of
//! Algorithms 4–5. It only *stops* at (and therefore only evaluates the
//! predicate on) an expected `Σ_i min(1, k/(r_i+1))` positions, where `r_i`
//! counts real items before position `i`; everything between stops is
//! skipped in `O(1)` stream operations.
//!
//! The two are distribution-equivalent: the predicate version is exactly
//! classic reservoir sampling run over the subsequence of real items
//! (Theorem 3.1). Splitting a stream into batches does not change the
//! random sequence consumed, so for a fixed seed the batched and unbatched
//! runs produce byte-identical reservoirs — a property the tests rely on.

use crate::batch::Batch;
use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::rng::{Below, RsjRng, SkipLaw};

fn put_rng(enc: &mut Encoder, rng: &RsjRng) {
    for w in rng.state() {
        enc.put_u64(w);
    }
}

fn get_rng(dec: &mut Decoder) -> Result<RsjRng, CodecError> {
    let s = [dec.u64()?, dec.u64()?, dec.u64()?, dec.u64()?];
    RsjRng::restore_state(s).ok_or(CodecError::Corrupt("rng state is the zero fixed point"))
}

/// Waterman's classic `O(N)` reservoir (paper §3.1, the `RS` baseline).
///
/// Maintains `k` uniform samples without replacement of all items offered so
/// far. Every item costs one RNG draw; there is no skipping.
#[derive(Clone, Debug)]
pub struct ClassicReservoir<T> {
    k: usize,
    seen: u128,
    samples: Vec<T>,
    rng: RsjRng,
}

impl<T> ClassicReservoir<T> {
    /// Creates a reservoir of capacity `k > 0`.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k > 0, "reservoir size must be positive");
        ClassicReservoir {
            k,
            seen: 0,
            samples: Vec::with_capacity(k),
            rng: RsjRng::seed_from_u64(seed),
        }
    }

    /// Offers one item to the reservoir.
    pub fn offer(&mut self, item: T) {
        self.seen += 1;
        if self.samples.len() < self.k {
            self.samples.push(item);
        } else {
            let j = self.rng.below_u128(self.seen);
            if j < self.k as u128 {
                self.samples[j as usize] = item;
            }
        }
    }

    /// The current samples (length `min(k, items offered)`).
    pub fn samples(&self) -> &[T] {
        &self.samples
    }

    /// Reservoir capacity `k`.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Number of items offered so far.
    pub fn seen(&self) -> u128 {
        self.seen
    }

    /// Removes every sample matching `dead`, returning how many were
    /// evicted. Part of the turnstile repair protocol (see
    /// [`set_population`](ClassicReservoir::set_population)).
    pub fn evict_where(&mut self, mut dead: impl FnMut(&T) -> bool) -> usize {
        let before = self.samples.len();
        self.samples.retain(|s| !dead(s));
        before - self.samples.len()
    }

    /// Pushes a replacement sample into a vacated slot (turnstile repair).
    ///
    /// # Panics
    /// Panics if the reservoir is already at capacity.
    pub fn refill(&mut self, item: T) {
        assert!(self.samples.len() < self.k, "refill past capacity");
        self.samples.push(item);
    }

    /// Backfills vacated slots to `min(target, k)` distinct samples using
    /// `draw` (turnstile repair; `None` = failed trial). Returns whether
    /// the target was reached within `per_slot_tries` draws per slot.
    pub fn backfill_distinct(
        &mut self,
        target: usize,
        per_slot_tries: usize,
        mut draw: impl FnMut() -> Option<T>,
    ) -> bool
    where
        T: PartialEq,
    {
        let target = target.min(self.k);
        while self.samples.len() < target {
            let mut tries = per_slot_tries;
            loop {
                if tries == 0 {
                    return false;
                }
                tries -= 1;
                let Some(t) = draw() else { continue };
                if !self.samples.contains(&t) {
                    self.samples.push(t);
                    break;
                }
            }
        }
        true
    }

    /// Recalibrates the item counter to an externally maintained live
    /// population (turnstile deletions shrink the population; the classic
    /// acceptance probability `k/(seen+1)` must track the *live* count for
    /// the sample to stay uniform).
    pub fn set_population(&mut self, population: u128) {
        self.seen = population;
    }

    /// Serializes the full sampler state — samples in slot order, the item
    /// counter, and the RNG position — so a restored reservoir continues
    /// the exact same acceptance/victim stream.
    pub fn snapshot_to(&self, enc: &mut Encoder, mut put: impl FnMut(&mut Encoder, &T)) {
        enc.put_usize(self.k);
        enc.put_u128(self.seen);
        enc.put_usize(self.samples.len());
        for s in &self.samples {
            put(enc, s);
        }
        put_rng(enc, &self.rng);
    }

    /// Reconstructs a reservoir from
    /// [`snapshot_to`](ClassicReservoir::snapshot_to) bytes.
    pub fn restore_from(
        dec: &mut Decoder,
        mut get: impl FnMut(&mut Decoder) -> Result<T, CodecError>,
    ) -> Result<ClassicReservoir<T>, CodecError> {
        let k = dec.usize()?;
        if k == 0 {
            return Err(CodecError::Corrupt("reservoir capacity zero"));
        }
        // No `Vec<T>` holds more than `isize::MAX` bytes, so a larger
        // capacity was never written by `snapshot_to`.
        if k.saturating_mul(std::mem::size_of::<T>()) > isize::MAX as usize {
            return Err(CodecError::Corrupt(
                "reservoir capacity past the address space",
            ));
        }
        let seen = dec.u128()?;
        // The buffer is sized by the input-bounded sample count, not by
        // `k`: a capacity word is checked, never allocated.
        let n = dec.seq_len(1)?;
        if n > k {
            return Err(CodecError::Corrupt("more samples than capacity"));
        }
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            samples.push(get(dec)?);
        }
        let rng = get_rng(dec)?;
        Ok(ClassicReservoir {
            k,
            seen,
            samples,
            rng,
        })
    }
}

/// A borrowed view of fixed-width sample rows stored back to back: what
/// [`Reservoir::samples`] hands out. Row `i` is words
/// `i·width .. (i+1)·width` of one flat buffer, in slot order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Rows<'a> {
    flat: &'a [u64],
    width: usize,
}

impl<'a> Rows<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.flat.len() / self.width
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.flat.is_empty()
    }

    /// The rows in slot order.
    pub fn iter(&self) -> std::slice::ChunksExact<'a, u64> {
        self.flat.chunks_exact(self.width)
    }

    /// All rows as one slice, row after row (for a width-1 reservoir: the
    /// sampled scalars themselves).
    pub fn flat(&self) -> &'a [u64] {
        self.flat
    }

    /// Copies the rows out, one `Vec` each.
    pub fn to_vec(&self) -> Vec<Vec<u64>> {
        self.iter().map(<[u64]>::to_vec).collect()
    }
}

impl std::ops::Index<usize> for Rows<'_> {
    type Output = [u64];

    /// Row `i`; panics if `i >= len()`.
    fn index(&self, i: usize) -> &[u64] {
        &self.flat[i * self.width..][..self.width]
    }
}

impl<'a> IntoIterator for Rows<'a> {
    type Item = &'a [u64];
    type IntoIter = std::slice::ChunksExact<'a, u64>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Removes slots from `buf`, a sequence of `width`-item slots, closing
/// the gaps in slot order with one move per run of kept slots, and
/// returns how many went. `next_dead(buf, from)` names the first slot at
/// or after `from` to remove; it is asked with `from` ascending, and
/// since moves only write below `from`, what it reads at or past `from`
/// — in `buf` itself or in per-slot data being compacted by the same
/// list — is still as it was. The compaction of a [`Reservoir`]'s rows
/// by slot ([`Reservoir::evict_slots`]) and of any per-slot data a
/// caller keeps beside them, so that the two stay in step.
pub fn remove_slots<T: Copy>(
    buf: &mut Vec<T>,
    width: usize,
    mut next_dead: impl FnMut(&[T], usize) -> Option<usize>,
) -> usize {
    let slots = buf.len() / width;
    let Some(mut to) = next_dead(buf, 0) else {
        return 0;
    };
    let mut from = to + 1;
    while from < slots {
        let end = next_dead(buf, from).unwrap_or(slots);
        buf.copy_within(from * width..end * width, to * width);
        to += end - from;
        from = end + 1;
    }
    buf.truncate(to * width);
    slots - to
}

/// Reservoir sampling with a predicate over a stream of batches
/// (paper Algorithms 1, 4 and 5).
///
/// The predicate is fused with payload extraction: each stop hands the
/// stream item and a [`Slot`] to a `stop` closure, which calls
/// [`Slot::accept`] for a real item — receiving the row to write the
/// payload into — and drops the slot for a dummy, or reports with
/// [`Slot::reject_run`] that the dummy begins a run of them. For join
/// batches the "predicate evaluation" *is* the positional retrieve — a
/// dummy position is one the retrieve reports as such, with its run.
///
/// A reported run is passed whole. A dummy changes neither `w` nor the
/// sample, and the skip is memoryless (each position is a stop with
/// probability `w`, independently), so the next stop after the run lies
/// at its end plus a fresh `Geo(w)` — the law of stopping at every dummy
/// in it in turn. The fill phase draws nothing, so passing a run there
/// leaves the samples as they were; only the stop count falls.
///
/// Samples are fixed-width rows of `u64` words in one flat buffer (`len ×
/// width` words, grown on demand and never past `k × width`), so a stop
/// allocates nothing and readers get contiguous memory. Scalar streams
/// are width-1 reservoirs.
///
/// State carried across batches: the reservoir `S`, the parameter `w`
/// (`∞` until the reservoir first fills — see Algorithm 4 line 1), and the
/// pending skip count `q` (what remains of the last geometric draw after the
/// previous batch ended; Algorithm 5 line 15).
///
/// A stop costs constant work beyond its retrieve: `w` is held as its
/// [`SkipLaw`], whose logarithm is taken only when a replacement changes
/// `w`, and the victim draw's rejection zone for `k` is computed once.
#[derive(Clone, Debug)]
pub struct Reservoir {
    k: usize,
    width: usize,
    /// The sample rows, back to back in slot order.
    rows: Vec<u64>,
    /// `Geo(w)`: the parameter `w` and its skip law.
    skip: SkipLaw,
    q: u128,
    rng: RsjRng,
    /// The victim draw from `[0, k)`.
    victims: Below,
    stops: u64,
    replacements: u64,
}

/// Where the payload of the item a [`Reservoir`] stopped at goes, should
/// the item turn out real. Dropping the slot rejects the item (a dummy).
pub struct Slot<'a> {
    reservoir: &'a mut Reservoir,
    /// Items after this one known to be dummies too.
    past: &'a mut u128,
}

impl<'a> Slot<'a> {
    /// Accepts the item: returns the sample row (`width` words, contents
    /// unspecified) the caller must now fill with its payload — a fresh
    /// row while the reservoir is filling, a uniformly drawn victim's row
    /// once it is full.
    pub fn accept(self) -> &'a mut [u64] {
        self.accept_slot().1
    }

    /// [`accept`](Slot::accept), also naming the slot whose row it is —
    /// for callers that keep per-slot data of their own beside the rows.
    /// While the reservoir fills, the slot is the new last one.
    pub fn accept_slot(self) -> (usize, &'a mut [u64]) {
        let r = self.reservoir;
        let slot = if r.is_full() {
            r.replacements += 1;
            r.rng.below(&r.victims) as usize
        } else {
            r.push_row()
        };
        (slot, &mut r.rows[slot * r.width..][..r.width])
    }

    /// Rejects the item as the first of `run` consecutive dummies (0 and
    /// 1 both mean this item alone): the reservoir passes the rest of the
    /// run without stopping in it.
    pub fn reject_run(self, run: u128) {
        *self.past = run.saturating_sub(1);
    }
}

impl Reservoir {
    /// Creates a reservoir of capacity `k > 0` rows of `width > 0` words.
    pub fn new(k: usize, width: usize, seed: u64) -> Self {
        assert!(k > 0, "reservoir size must be positive");
        assert!(width > 0, "sample rows must be at least one word wide");
        Reservoir {
            k,
            width,
            rows: Vec::new(),
            skip: SkipLaw::new(f64::INFINITY),
            q: 0,
            rng: RsjRng::seed_from_u64(seed),
            victims: Below::new(k as u64),
            stops: 0,
            replacements: 0,
        }
    }

    /// Whether all `k` slots hold a sample. Compared in words: the stop
    /// path asks this per stop, and `len()` costs a division.
    fn is_full(&self) -> bool {
        self.rows.len() == self.k.saturating_mul(self.width)
    }

    /// Appends one zeroed row, returning its slot. The buffer doubles, but
    /// never past the `k` rows the reservoir can hold.
    fn push_row(&mut self) -> usize {
        let (len, width) = (self.rows.len(), self.width);
        if self.rows.capacity() - len < width {
            let target = (2 * self.rows.capacity())
                .max(4 * width)
                .min(self.k.saturating_mul(width));
            self.rows.reserve_exact(target.saturating_sub(len));
        }
        self.rows.resize(len + width, 0);
        len / width
    }

    /// Hands the item stopped at to `stop`, then passes the rest of the
    /// dummy run it reported.
    fn stop_at<B: Batch>(
        &mut self,
        batch: &mut B,
        x: B::Item,
        stop: &mut impl FnMut(B::Item, Slot<'_>),
    ) {
        self.stops += 1;
        let mut past = 0;
        stop(
            x,
            Slot {
                reservoir: self,
                past: &mut past,
            },
        );
        batch.advance(past);
    }

    /// Processes one batch (Algorithm 5, `BatchUpdate`).
    ///
    /// `stop` is invoked once per *stop* with the item stopped at; it
    /// accepts the [`Slot`] and fills the returned row for a real item,
    /// and drops the slot — or reports its dummy run — for a dummy.
    pub fn process_batch<B, F>(&mut self, batch: &mut B, mut stop: F)
    where
        B: Batch,
        F: FnMut(B::Item, Slot<'_>),
    {
        // Fill phase (Alg. 5 lines 1–4): scan sequentially, keeping only
        // real items, until the reservoir holds k samples.
        while !self.is_full() {
            let Some(x) = batch.next() else { return };
            self.stop_at(batch, x, &mut stop);
        }
        // One-time initialization of (w, q) the first time the reservoir is
        // full (Alg. 5 lines 5–7; w stays <= 1 forever after).
        if self.skip.w() > 1.0 {
            self.skip = SkipLaw::new(self.rng.unit().powf(1.0 / self.k as f64));
            self.q = self.rng.skip(&self.skip);
        }
        // Skip phase (Alg. 5 lines 8–14). An accepted slot drew its victim
        // and counted the replacement; a rejected run was passed, and the
        // next skip starts at its end.
        while batch.remain() > self.q {
            let x = batch.skip(self.q).expect("stop within batch");
            let replaced = self.replacements;
            self.stop_at(batch, x, &mut stop);
            if self.replacements != replaced {
                self.skip = SkipLaw::new(self.rng.decay_w(self.skip.w(), self.k));
            }
            self.q = self.rng.skip(&self.skip);
        }
        // The rest of the batch is skipped wholesale; carry the remainder of
        // the geometric draw into the next batch (Alg. 5 line 15).
        self.q -= batch.remain();
    }

    /// Consumes a whole batch of `n` items by pure skip arithmetic, if the
    /// pending geometric skip allows it: a full reservoir whose next stop
    /// lies beyond the batch does exactly `q -= n` and touches nothing
    /// else — no RNG, no retrievals. Returns whether the batch was
    /// consumed; on `false` the caller must run the real
    /// [`process_batch`](Reservoir::process_batch) path.
    ///
    /// Callers use this to spare building the batch's retrieval machinery
    /// at all; randomness consumption is identical either way.
    pub fn try_skip(&mut self, n: u128) -> bool {
        if self.is_full() && self.skip.w() <= 1.0 && n <= self.q {
            self.q -= n;
            true
        } else {
            false
        }
    }

    /// The current samples in slot order (fewer than `k` until enough real
    /// items arrive).
    pub fn samples(&self) -> Rows<'_> {
        Rows {
            flat: &self.rows,
            width: self.width,
        }
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.rows.len() / self.width
    }

    /// Whether no sample is held.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Reservoir capacity `k`.
    pub fn capacity(&self) -> usize {
        self.k
    }

    /// Heap bytes held by the sample buffer (its capacity, not its length).
    pub fn heap_size(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<u64>()
    }

    /// Instrumentation: number of stream positions the algorithm stopped at
    /// and evaluated the predicate on. The positions of a dummy run passed
    /// after a stop are not counted, so Theorem 3.2's
    /// `(p-1) + Σ_{i>=p} k/(r_i+1)` bounds its expectation from above.
    pub fn stops(&self) -> u64 {
        self.stops
    }

    /// Instrumentation: number of reservoir replacements performed.
    pub fn replacements(&self) -> u64 {
        self.replacements
    }

    /// Removes every sample matching `dead`, closing the gaps in slot
    /// order, and returns how many were evicted. First step of the
    /// turnstile repair protocol (see
    /// [`recalibrate`](Reservoir::recalibrate)).
    pub fn evict_where(&mut self, mut dead: impl FnMut(&[u64]) -> bool) -> usize {
        let (slots, width) = (self.len(), self.width);
        remove_slots(&mut self.rows, width, |rows, from| {
            (from..slots).find(|&slot| dead(&rows[slot * width..][..width]))
        })
    }

    /// [`evict_where`](Reservoir::evict_where) by slot, for a caller that
    /// keeps per-slot data beside the rows and decides from it alone:
    /// [`remove_slots`] over the rows, with the same `next_dead`. No row
    /// is read, and rows move only from the first evicted slot on, one
    /// move per run of kept rows.
    pub fn evict_slots(&mut self, mut next_dead: impl FnMut(usize) -> Option<usize>) -> usize {
        remove_slots(&mut self.rows, self.width, |_, from| next_dead(from))
    }

    /// Backfills vacated slots to `min(target, k)` distinct samples
    /// (turnstile repair). `draw` writes one candidate into the row it is
    /// given and returns whether the trial succeeded (`false` = a dummy
    /// position); a candidate equal to a held sample is drawn again.
    /// Returns whether the target was reached within `per_slot_tries`
    /// draws per slot — `false` means the defensive cap was exhausted,
    /// which callers treat as an invariant violation; size the budget
    /// from the draw's real-position density.
    pub fn backfill_distinct(
        &mut self,
        target: usize,
        per_slot_tries: usize,
        mut draw: impl FnMut(&mut [u64]) -> bool,
    ) -> bool {
        self.backfill(target, per_slot_tries, |held, candidate| {
            draw(candidate) && held.iter().all(|s| s != candidate)
        })
    }

    /// [`backfill_distinct`](Reservoir::backfill_distinct) where the draw
    /// decides distinctness: `draw(held, row)` returns whether it took a
    /// candidate — real and distinct from the `held` samples, by their
    /// rows or by whatever the caller keeps beside them — and then must
    /// have written it into `row`, slot `held.len()`. A declined draw
    /// counts against the budget like a dummy.
    pub fn backfill(
        &mut self,
        target: usize,
        per_slot_tries: usize,
        mut draw: impl FnMut(Rows<'_>, &mut [u64]) -> bool,
    ) -> bool {
        let (target, width) = (target.min(self.k), self.width);
        while self.len() < target {
            // Candidates are drawn straight into the next slot's row.
            let held = self.rows.len();
            self.push_row();
            let (have, candidate) = self.rows.split_at_mut(held);
            let have = Rows { flat: have, width };
            let mut tries = per_slot_tries;
            loop {
                if tries == 0 {
                    self.rows.truncate(held);
                    return false;
                }
                tries -= 1;
                if draw(have, candidate) {
                    break;
                }
            }
        }
        true
    }

    /// Re-draws the skip state `(w, q)` against an exact live population of
    /// `population` real items — the turnstile repair step that keeps
    /// *future* inserts correctly weighted after deletions.
    ///
    /// Algorithm L's `w` is distributed as the `k`-th smallest of `r` iid
    /// uniform keys when `r` reals have been processed (after the fill it
    /// is `U^(1/k)`, the max of `k` uniforms = `k`-th smallest of `k`; each
    /// replacement multiplies by `U^(1/k)`, maintaining the law). A
    /// deletion shrinks the population, so the stored `w` corresponds to a
    /// stale, larger `r` and under-accepts subsequent arrivals. Because
    /// `(samples, w)` are independent in the algorithm's state law (the
    /// sample is a uniform `k`-subset by exchangeability, whatever the key
    /// *values*), drawing a fresh `w` from the exact `k`-th-smallest-of-`r`
    /// law — `Beta(k, r − k + 1)`, two Gamma draws, `O(1)` for any `k` and
    /// any `r` up to `u128::MAX` ([`RsjRng::kth_smallest_uniform`]) —
    /// restores the exact joint state of a fresh run over the live
    /// population. The pending skip `q` is re-drawn too (geometric in `w`).
    ///
    /// With `population <= samples.len()` the reservoir holds the whole
    /// result set and `(w, q)` reverts to the unfilled state.
    ///
    /// Call after eviction ([`evict_where`](Reservoir::evict_where) or
    /// [`evict_slots`](Reservoir::evict_slots)) and backfill
    /// ([`backfill_distinct`](Reservoir::backfill_distinct) or
    /// [`backfill`](Reservoir::backfill)) have restored the sample
    /// itself; insert-only runs never call this, so their
    /// random streams are untouched.
    pub fn recalibrate(&mut self, population: u128) {
        if population <= self.len() as u128 {
            self.skip = SkipLaw::new(f64::INFINITY);
            self.q = 0;
            return;
        }
        debug_assert_eq!(self.len(), self.k, "full before population");
        self.skip = SkipLaw::new(self.rng.kth_smallest_uniform(self.k as u128, population));
        self.q = self.rng.skip(&self.skip);
    }

    /// Serializes the full sampler state — samples in slot order (each row
    /// length-prefixed), the skip parameters `(w, q)` (bit-exact, including
    /// the pre-fill `w = ∞`), the RNG position, and the instrumentation
    /// counters — so a restored reservoir continues the exact same
    /// skip/victim stream.
    pub fn snapshot_to(&self, enc: &mut Encoder) {
        enc.put_usize(self.k);
        enc.put_usize(self.len());
        for row in self.samples() {
            enc.put_u64s(row);
        }
        enc.put_f64(self.skip.w());
        enc.put_u128(self.q);
        put_rng(enc, &self.rng);
        enc.put_u64(self.stops);
        enc.put_u64(self.replacements);
    }

    /// Reconstructs a reservoir of `width`-word rows from
    /// [`snapshot_to`](Reservoir::snapshot_to) bytes. A row whose length
    /// prefix is not `width` is corruption — the image belongs to another
    /// query, or was damaged.
    pub fn restore_from(dec: &mut Decoder, width: usize) -> Result<Reservoir, CodecError> {
        assert!(width > 0, "sample rows must be at least one word wide");
        let k = dec.usize()?;
        if k == 0 {
            return Err(CodecError::Corrupt("reservoir capacity zero"));
        }
        // A row is its length prefix plus `width` words, so a plausible
        // count also bounds the buffer: `n × width` words fit the input.
        let n = dec.seq_len(8 * (width + 1))?;
        if n > k {
            return Err(CodecError::Corrupt("more samples than capacity"));
        }
        let mut rows = Vec::with_capacity(n * width);
        for _ in 0..n {
            if dec.usize()? != width {
                return Err(CodecError::Corrupt("sample row width mismatch"));
            }
            let words = dec.take(8 * width)?.chunks_exact(8);
            rows.extend(words.map(|w| u64::from_le_bytes(w.try_into().expect("8-byte chunk"))));
        }
        let skip = SkipLaw::new(dec.f64()?);
        let q = dec.u128()?;
        let rng = get_rng(dec)?;
        let stops = dec.u64()?;
        let replacements = dec.u64()?;
        Ok(Reservoir {
            k,
            width,
            rows,
            skip,
            q,
            rng,
            victims: Below::new(k as u64),
            stops,
            replacements,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::SliceBatch;
    use rsj_common::stats::{chi_square_critical, chi_square_uniform};

    /// A width-1 stop closure: sample the scalar `x` iff `real(x)`.
    fn keep(real: impl Fn(u64) -> bool) -> impl FnMut(u64, Slot<'_>) {
        move |x, slot| {
            if real(x) {
                slot.accept()[0] = x;
            }
        }
    }

    /// Runs `trials` reservoirs of size `k` over `0..n` and returns per-item
    /// inclusion counts.
    fn inclusion_counts_classic(n: u64, k: usize, trials: u64) -> Vec<u64> {
        let mut counts = vec![0u64; n as usize];
        for t in 0..trials {
            let mut r = ClassicReservoir::new(k, 1000 + t);
            for x in 0..n {
                r.offer(x);
            }
            for &x in r.samples() {
                counts[x as usize] += 1;
            }
        }
        counts
    }

    fn inclusion_counts_predicate(
        n: u64,
        k: usize,
        trials: u64,
        batch_size: usize,
        real: impl Fn(u64) -> bool,
    ) -> Vec<u64> {
        let mut counts = vec![0u64; n as usize];
        let items: Vec<u64> = (0..n).collect();
        for t in 0..trials {
            let mut r = Reservoir::new(k, 1, 2000 + t);
            for chunk in items.chunks(batch_size) {
                let mut b = SliceBatch::new(chunk);
                r.process_batch(&mut b, keep(&real));
            }
            for &x in r.samples().flat() {
                counts[x as usize] += 1;
            }
        }
        counts
    }

    #[test]
    fn classic_uniformity() {
        let counts = inclusion_counts_classic(50, 10, 4000);
        let (stat, df) = chi_square_uniform(&counts);
        assert!(
            stat < chi_square_critical(df, 0.0001),
            "chi2={stat} df={df}"
        );
    }

    #[test]
    fn classic_without_replacement() {
        let mut r = ClassicReservoir::new(10, 1);
        for x in 0..5u64 {
            r.offer(x);
        }
        let mut s = r.samples().to_vec();
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn predicate_uniform_over_reals_only() {
        // Items divisible by 3 are real; dummies must never be sampled and
        // reals must be uniform.
        let n = 90;
        let counts = inclusion_counts_predicate(n, 6, 4000, 17, |x| x % 3 == 0);
        for (x, &c) in counts.iter().enumerate() {
            if x % 3 != 0 {
                assert_eq!(c, 0, "dummy {x} sampled");
            }
        }
        let real_counts: Vec<u64> = counts
            .iter()
            .enumerate()
            .filter(|(x, _)| x % 3 == 0)
            .map(|(_, &c)| c)
            .collect();
        let (stat, df) = chi_square_uniform(&real_counts);
        assert!(
            stat < chi_square_critical(df, 0.0001),
            "chi2={stat} df={df}"
        );
    }

    #[test]
    fn batching_is_invisible_to_the_distribution() {
        // Same seed, different batch splits => byte-identical reservoirs,
        // because skips across batch boundaries consume no randomness.
        let items: Vec<u64> = (0..10_000).collect();
        let run = |sizes: &[usize]| {
            let mut r = Reservoir::new(20, 1, 777);
            let mut rest: &[u64] = &items;
            let mut i = 0;
            while !rest.is_empty() {
                let take = sizes[i % sizes.len()].min(rest.len());
                let (chunk, tail) = rest.split_at(take);
                let mut b = SliceBatch::new(chunk);
                r.process_batch(&mut b, keep(|x| x % 2 == 0));
                rest = tail;
                i += 1;
            }
            r.samples().flat().to_vec()
        };
        assert_eq!(run(&[10_000]), run(&[1]));
        assert_eq!(run(&[10_000]), run(&[7, 1, 313, 50]));
    }

    #[test]
    fn all_dummy_stream_never_fills() {
        let items: Vec<u64> = (0..1000).collect();
        let mut r = Reservoir::new(5, 1, 3);
        let mut b = SliceBatch::new(&items);
        r.process_batch(&mut b, keep(|_| false));
        assert!(r.samples().is_empty());
        // Not safe to skip anything: every position must be a stop.
        assert_eq!(r.stops(), 1000);
    }

    #[test]
    fn single_real_item_always_found() {
        // The adversarial case from §1: exactly one real item hiding in a
        // sea of dummies must always end up in the reservoir.
        for seed in 0..50 {
            let mut r = Reservoir::new(3, 1, seed);
            let items: Vec<u64> = (0..500).collect();
            let mut b = SliceBatch::new(&items);
            r.process_batch(&mut b, keep(|x| x == 499));
            assert_eq!(r.samples().flat(), &[499]);
        }
    }

    #[test]
    fn dense_stream_stops_are_logarithmic() {
        // Fully real stream of n items, reservoir k: expected stops
        // ~ k + k ln(n/k) ≈ 100 + 100*ln(1000) ≈ 790. Allow generous slack.
        let n: u64 = 100_000;
        let k = 100;
        let items: Vec<u64> = (0..n).collect();
        let mut r = Reservoir::new(k, 1, 11);
        let mut b = SliceBatch::new(&items);
        r.process_batch(&mut b, keep(|_| true));
        let stops = r.stops();
        assert!((300..4000).contains(&stops), "stops={stops}, expected ~790");
    }

    #[test]
    fn half_dense_stream_stops_stay_logarithmic() {
        // Theorem 3.2: for φ-dense streams with constant φ, stops stay
        // O(k log(N/k)) — far below N.
        let n: u64 = 100_000;
        let items: Vec<u64> = (0..n).collect();
        let mut r = Reservoir::new(100, 1, 13);
        let mut b = SliceBatch::new(&items);
        r.process_batch(&mut b, keep(|x| x % 2 == 0));
        assert!(r.stops() < 8000, "stops={}", r.stops());
    }

    #[test]
    fn reservoir_correct_at_every_prefix() {
        // Uniformity must hold at every timestamp, not just the end: check
        // inclusion frequency of item 0 after 10 and after 40 items.
        let trials = 3000u64;
        let (mut hit10, mut hit40) = (0u64, 0u64);
        for t in 0..trials {
            let mut r = Reservoir::new(2, 1, 5000 + t);
            let items: Vec<u64> = (0..40).collect();
            let mut b = SliceBatch::new(&items[..10]);
            r.process_batch(&mut b, keep(|_| true));
            if r.samples().flat().contains(&0) {
                hit10 += 1;
            }
            let mut b = SliceBatch::new(&items[10..]);
            r.process_batch(&mut b, keep(|_| true));
            if r.samples().flat().contains(&0) {
                hit40 += 1;
            }
        }
        let f10 = hit10 as f64 / trials as f64; // expect 2/10
        let f40 = hit40 as f64 / trials as f64; // expect 2/40
        assert!((f10 - 0.2).abs() < 0.03, "f10={f10}");
        assert!((f40 - 0.05).abs() < 0.02, "f40={f40}");
    }

    #[test]
    fn fewer_reals_than_k_collects_all() {
        let items: Vec<u64> = (0..100).collect();
        let mut r = Reservoir::new(50, 1, 9);
        let mut b = SliceBatch::new(&items);
        r.process_batch(&mut b, keep(|x| x % 10 == 0));
        let mut s = r.samples().flat().to_vec();
        s.sort_unstable();
        assert_eq!(s, vec![0, 10, 20, 30, 40, 50, 60, 70, 80, 90]);
    }

    #[test]
    fn predicate_matches_classic_distribution() {
        // Theorem 3.1: Alg. 1 == classic reservoir over the real
        // subsequence. Compare inclusion-frequency vectors statistically.
        let n = 60u64;
        let trials = 4000;
        let pred_counts = inclusion_counts_predicate(n, 5, trials, 13, |x| x % 2 == 0);
        let classic: Vec<u64> = {
            let mut counts = vec![0u64; n as usize];
            for t in 0..trials {
                let mut r = ClassicReservoir::new(5, 9000 + t);
                for x in (0..n).filter(|x| x % 2 == 0) {
                    r.offer(x);
                }
                for &x in r.samples() {
                    counts[x as usize] += 1;
                }
            }
            counts
        };
        // Both should be uniform over the 30 reals with mean trials*5/30.
        for x in (0..n).step_by(2) {
            let a = pred_counts[x as usize] as f64;
            let b = classic[x as usize] as f64;
            let expect = trials as f64 * 5.0 / 30.0;
            assert!((a - expect).abs() < expect * 0.25, "pred {x}: {a}");
            assert!((b - expect).abs() < expect * 0.25, "classic {x}: {b}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        Reservoir::new(0, 1, 0);
    }

    #[test]
    fn snapshot_mid_stream_continues_byte_identically() {
        // Run to position p, snapshot, restore, finish — the reservoir must
        // equal an uninterrupted run bit for bit (samples AND skip state,
        // exercised by continuing the stream after restore).
        let items: Vec<u64> = (0..30_000).collect();
        let real = |x: u64| x % 5 != 2;
        for p in [0usize, 3, 1000, 15_000, 29_999] {
            let mut whole = Reservoir::new(12, 1, 99);
            let mut b = SliceBatch::new(&items);
            whole.process_batch(&mut b, keep(real));

            let mut head = Reservoir::new(12, 1, 99);
            let mut b = SliceBatch::new(&items[..p]);
            head.process_batch(&mut b, keep(real));
            let mut enc = rsj_common::codec::Encoder::new();
            head.snapshot_to(&mut enc);
            let bytes = enc.into_bytes();
            let mut dec = rsj_common::codec::Decoder::new(&bytes);
            let mut tail = Reservoir::restore_from(&mut dec, 1).unwrap();
            dec.finish().unwrap();
            let mut b = SliceBatch::new(&items[p..]);
            tail.process_batch(&mut b, keep(real));
            assert_eq!(tail.samples(), whole.samples(), "split at {p}");
            assert_eq!(tail.stops(), whole.stops(), "split at {p}");
            assert_eq!(tail.replacements(), whole.replacements(), "split at {p}");
        }
    }

    #[test]
    fn classic_snapshot_continues_byte_identically() {
        for p in [0usize, 5, 500] {
            let mut whole = ClassicReservoir::new(7, 31);
            for x in 0..1000u64 {
                whole.offer(x);
            }
            let mut head = ClassicReservoir::new(7, 31);
            for x in 0..p as u64 {
                head.offer(x);
            }
            let mut enc = rsj_common::codec::Encoder::new();
            head.snapshot_to(&mut enc, |e, v| e.put_u64(*v));
            let bytes = enc.into_bytes();
            let mut dec = rsj_common::codec::Decoder::new(&bytes);
            let mut tail = ClassicReservoir::restore_from(&mut dec, |d| d.u64()).unwrap();
            dec.finish().unwrap();
            for x in p as u64..1000 {
                tail.offer(x);
            }
            assert_eq!(tail.samples(), whole.samples(), "split at {p}");
            assert_eq!(tail.seen(), whole.seen(), "split at {p}");
        }
    }

    #[test]
    fn classic_restore_rejects_a_capacity_no_buffer_can_hold() {
        let mut r = ClassicReservoir::new(4, 3);
        for x in 0..10u64 {
            r.offer(x);
        }
        let mut enc = rsj_common::codec::Encoder::new();
        r.snapshot_to(&mut enc, |e, v| e.put_u64(*v));
        let mut bytes = enc.into_bytes();
        bytes[..8].copy_from_slice(&(u64::MAX >> 2).to_le_bytes());
        let mut dec = rsj_common::codec::Decoder::new(&bytes);
        assert!(matches!(
            ClassicReservoir::restore_from(&mut dec, |d| d.u64()),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn snapshot_rejects_over_capacity_sample_counts() {
        let mut r = Reservoir::new(2, 1, 1);
        let items: Vec<u64> = (0..10).collect();
        let mut b = SliceBatch::new(&items);
        r.process_batch(&mut b, keep(|_| true));
        let mut enc = rsj_common::codec::Encoder::new();
        r.snapshot_to(&mut enc);
        let mut bytes = enc.into_bytes();
        bytes[..8].copy_from_slice(&1u64.to_le_bytes()); // claim k=1 < 2 samples
        let mut dec = rsj_common::codec::Decoder::new(&bytes);
        assert!(Reservoir::restore_from(&mut dec, 1).is_err());
    }
}
