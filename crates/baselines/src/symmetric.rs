//! Symmetric hash join + classic reservoir: the simplest streaming
//! two-table baseline (paper §6.1, \[2\]).
//!
//! Both inputs are hashed on the join key as they arrive; each arrival
//! probes the opposite table and offers every new join result to a classic
//! reservoir. Total time is proportional to the number of join results —
//! fine when the join is small, hopeless when it is polynomially larger
//! than the input, which is exactly the gap RSJoin closes.
//!
//! The operator is naturally symmetric under deletions too: removing a
//! tuple kills exactly its matches in the opposite table, the live result
//! count `Σ_key |L_key|·|R_key|` updates in `O(matches)`, and the classic
//! reservoir repairs exactly — its acceptance probability is driven by an
//! explicit counter, which simply tracks the live population.

use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::rng::{child_seed, RsjRng};
use rsj_common::{FxHashMap, Key, Value};
use rsj_stream::ClassicReservoir;

/// Streaming two-table natural join with reservoir sampling.
pub struct SymmetricHashJoin {
    /// Join-key positions in the left / right schemas.
    left_key: Vec<usize>,
    right_key: Vec<usize>,
    left: FxHashMap<Key, Vec<Vec<Value>>>,
    right: FxHashMap<Key, Vec<Vec<Value>>>,
    reservoir: ClassicReservoir<(Vec<Value>, Vec<Value>)>,
    /// Exact current `|Q(R)| = Σ_key |L_key|·|R_key|`.
    results_live: u128,
    /// RNG for turnstile backfill draws (untouched on insert-only runs).
    repair_rng: RsjRng,
}

impl SymmetricHashJoin {
    /// Creates the operator. `left_key[i]` must join with `right_key[i]`.
    pub fn new(
        left_key: Vec<usize>,
        right_key: Vec<usize>,
        k: usize,
        seed: u64,
    ) -> SymmetricHashJoin {
        assert_eq!(left_key.len(), right_key.len());
        SymmetricHashJoin {
            left_key,
            right_key,
            left: FxHashMap::default(),
            right: FxHashMap::default(),
            reservoir: ClassicReservoir::new(k, seed),
            results_live: 0,
            repair_rng: RsjRng::seed_from_u64(child_seed(seed, u64::from_le_bytes(*b"turnstil"))),
        }
    }

    /// Inserts a left tuple, offering all new matches to the reservoir.
    pub(crate) fn insert_left(&mut self, tuple: &[Value]) {
        let key = Key::project(tuple, &self.left_key);
        for r in self.right.get(&key).into_iter().flatten() {
            self.results_live += 1;
            self.reservoir.offer((tuple.to_vec(), r.clone()));
        }
        self.left.entry(key).or_default().push(tuple.to_vec());
    }

    /// Inserts a right tuple, offering all new matches to the reservoir.
    pub(crate) fn insert_right(&mut self, tuple: &[Value]) {
        let key = Key::project(tuple, &self.right_key);
        for l in self.left.get(&key).into_iter().flatten() {
            self.results_live += 1;
            self.reservoir.offer((l.clone(), tuple.to_vec()));
        }
        self.right.entry(key).or_default().push(tuple.to_vec());
    }

    /// Deletes one occurrence of a left tuple; returns whether it was
    /// present. Kills its matches, repairs the reservoir, and re-points
    /// the classic acceptance counter at the live population — all exact.
    pub(crate) fn delete_left(&mut self, tuple: &[Value]) -> bool {
        let key = Key::project(tuple, &self.left_key);
        if !remove_one(&mut self.left, &key, tuple) {
            return false;
        }
        let dead = self.right.get(&key).map_or(0, |v| v.len()) as u128;
        self.results_live -= dead;
        self.reservoir.evict_where(|(l, _)| l == tuple);
        self.repair();
        true
    }

    /// Deletes one occurrence of a right tuple; returns whether it was
    /// present. Mirror of [`delete_left`](SymmetricHashJoin::delete_left).
    pub(crate) fn delete_right(&mut self, tuple: &[Value]) -> bool {
        let key = Key::project(tuple, &self.right_key);
        if !remove_one(&mut self.right, &key, tuple) {
            return false;
        }
        let dead = self.left.get(&key).map_or(0, |v| v.len()) as u128;
        self.results_live -= dead;
        self.reservoir.evict_where(|(_, r)| r == tuple);
        self.repair();
        true
    }

    /// Backfills vacated reservoir slots with uniform distinct draws from
    /// the live result set and recalibrates the acceptance counter.
    fn repair(&mut self) {
        let target = (self.reservoir.capacity() as u128).min(self.results_live) as usize;
        // Draws are 1-dense; the per-slot budget only covers distinctness
        // rejection, worst around O(k) when the population barely exceeds
        // the sample.
        let per_slot = (4096 + 256 * self.reservoir.capacity()).min(1 << 24);
        let (left, right, live) = (&self.left, &self.right, self.results_live);
        // Walk key blocks in sorted order so draws depend only on logical
        // state, never on hash-map iteration order — required for
        // byte-identical replay after a snapshot restore.
        let mut keys: Vec<Key> = left.keys().copied().collect();
        keys.sort_unstable_by(|a, b| a.as_slice().cmp(b.as_slice()));
        let rng = &mut self.repair_rng;
        let filled = self.reservoir.backfill_distinct(target, per_slot, || {
            draw_uniform(&keys, left, right, live, rng)
        });
        debug_assert!(filled, "backfill exhausted its rejection cap");
        self.reservoir.set_population(self.results_live);
    }

    /// The tuples stored on the left (`side == 0`) or right side.
    pub(crate) fn side(&self, side: usize) -> impl Iterator<Item = &Vec<Value>> {
        [&self.left, &self.right][side].values().flatten()
    }

    /// Samples: `(left_tuple, right_tuple)` pairs.
    pub fn samples(&self) -> &[(Vec<Value>, Vec<Value>)] {
        self.reservoir.samples()
    }

    /// Exact number of currently-live join results (equals the cumulative
    /// count on insert-only streams).
    pub fn live_results(&self) -> u128 {
        self.results_live
    }

    /// Serializes the full dynamic state. Hash-table entries go out sorted
    /// by key (canonical image); bucket order within a key is positional
    /// (draws index `ls[i]`/`rs[j]`) and is preserved verbatim.
    pub fn snapshot_to(&self, enc: &mut Encoder) {
        enc.put_usize(self.left_key.len());
        for &p in &self.left_key {
            enc.put_usize(p);
        }
        for &p in &self.right_key {
            enc.put_usize(p);
        }
        put_side(enc, &self.left);
        put_side(enc, &self.right);
        self.reservoir.snapshot_to(enc, |e, (l, r)| {
            e.put_u64s(l);
            e.put_u64s(r);
        });
        enc.put_u128(self.results_live);
        for w in self.repair_rng.state() {
            enc.put_u64(w);
        }
    }

    /// An operator like `self` holding the state a
    /// [`SymmetricHashJoin::snapshot_to`] image of one built with the same
    /// key positions and `k` carries; `self` is not changed. `arity` is
    /// the width of a left and of a right tuple: a stored or sampled tuple
    /// of another width, one stored under a key it does not project to,
    /// or a sample pair not stored on both sides under one key rejects
    /// the image.
    pub fn restore_from(
        &self,
        dec: &mut Decoder,
        arity: [usize; 2],
    ) -> Result<SymmetricHashJoin, CodecError> {
        let nk = dec.seq_len(1)?;
        if nk != self.left_key.len() {
            return Err(CodecError::Corrupt("snapshot join-key width mismatch"));
        }
        for i in 0..nk {
            if dec.usize()? != self.left_key[i] {
                return Err(CodecError::Corrupt("snapshot left key positions differ"));
            }
        }
        for i in 0..nk {
            if dec.usize()? != self.right_key[i] {
                return Err(CodecError::Corrupt("snapshot right key positions differ"));
            }
        }
        let left = read_side(dec, &self.left_key, arity[0])?;
        let right = read_side(dec, &self.right_key, arity[1])?;
        let reservoir = ClassicReservoir::restore_from(dec, |d| Ok((d.u64s()?, d.u64s()?)))?;
        if reservoir.capacity() != self.reservoir.capacity() {
            return Err(CodecError::Corrupt("snapshot reservoir capacity mismatch"));
        }
        let widths = |(l, r): &(Vec<Value>, Vec<Value>)| [l.len(), r.len()] == arity;
        if !reservoir.samples().iter().all(widths) {
            return Err(CodecError::Corrupt("snapshot sample width mismatch"));
        }
        let stored = |(l, r): &(Vec<Value>, Vec<Value>)| {
            let key = Key::project(l, &self.left_key);
            Key::project(r, &self.right_key) == key
                && left.get(&key).is_some_and(|ls| ls.contains(l))
                && right.get(&key).is_some_and(|rs| rs.contains(r))
        };
        if !reservoir.samples().iter().all(stored) {
            return Err(CodecError::Corrupt("snapshot sample is not a stored pair"));
        }
        let results_live = dec.u128()?;
        let computed: u128 = left
            .iter()
            .map(|(k, ls)| {
                let rs = right.get(k).map_or(0, Vec::len);
                (ls.len() as u128) * (rs as u128)
            })
            .sum();
        if computed != results_live {
            return Err(CodecError::Corrupt("snapshot live-result count mismatch"));
        }
        let s = [dec.u64()?, dec.u64()?, dec.u64()?, dec.u64()?];
        let repair_rng = RsjRng::restore_state(s)
            .ok_or(CodecError::Corrupt("rng state is the zero fixed point"))?;
        Ok(SymmetricHashJoin {
            left_key: self.left_key.clone(),
            right_key: self.right_key.clone(),
            left,
            right,
            reservoir,
            results_live,
            repair_rng,
        })
    }
}

/// Serializes one hash side sorted by key; buckets keep their stored order.
fn put_side(enc: &mut Encoder, side: &FxHashMap<Key, Vec<Vec<Value>>>) {
    let mut entries: Vec<(&Key, &Vec<Vec<Value>>)> = side.iter().collect();
    entries.sort_unstable_by(|a, b| a.0.as_slice().cmp(b.0.as_slice()));
    enc.put_usize(entries.len());
    for (k, bucket) in entries {
        k.encode_to(enc);
        enc.put_usize(bucket.len());
        for t in bucket {
            enc.put_u64s(t);
        }
    }
}

/// Reads back one hash side written by [`put_side`], whose tuples are
/// `arity` wide and keyed on positions `key`.
fn read_side(
    dec: &mut Decoder,
    key: &[usize],
    arity: usize,
) -> Result<FxHashMap<Key, Vec<Vec<Value>>>, CodecError> {
    let n = dec.seq_len(2)?;
    let mut side = FxHashMap::default();
    for _ in 0..n {
        let k = Key::decode_from(dec)?;
        let nb = dec.seq_len(1)?;
        if nb == 0 {
            return Err(CodecError::Corrupt("empty bucket in snapshot"));
        }
        let mut bucket = Vec::with_capacity(nb);
        for _ in 0..nb {
            let t = dec.u64s()?;
            if t.len() != arity {
                return Err(CodecError::Corrupt("snapshot tuple width mismatch"));
            }
            if Key::project(&t, key) != k {
                return Err(CodecError::Corrupt("snapshot tuple under a foreign key"));
            }
            bucket.push(t);
        }
        if side.insert(k, bucket).is_some() {
            return Err(CodecError::Corrupt("duplicate key in side snapshot"));
        }
    }
    Ok(side)
}

/// One uniform draw over the live results: pick a global position in
/// `Σ_key |L_key|·|R_key|` and decode it against the key blocks in the
/// caller-fixed (sorted) order. `O(#distinct keys)`.
fn draw_uniform(
    keys: &[Key],
    left: &FxHashMap<Key, Vec<Vec<Value>>>,
    right: &FxHashMap<Key, Vec<Vec<Value>>>,
    live: u128,
    rng: &mut RsjRng,
) -> Option<(Vec<Value>, Vec<Value>)> {
    if live == 0 {
        return None;
    }
    let mut z = rng.below_u128(live);
    for key in keys {
        let ls = &left[key];
        let rs = match right.get(key) {
            Some(rs) if !ls.is_empty() => rs,
            _ => continue,
        };
        let block = (ls.len() as u128) * (rs.len() as u128);
        if z < block {
            let i = (z / rs.len() as u128) as usize;
            let j = (z % rs.len() as u128) as usize;
            return Some((ls[i].clone(), rs[j].clone()));
        }
        z -= block;
    }
    unreachable!("z < results_live must land in a key block");
}

/// Removes one occurrence of `tuple` from the bucket at `key`, dropping
/// emptied buckets. Returns whether anything was removed.
fn remove_one(side: &mut FxHashMap<Key, Vec<Vec<Value>>>, key: &Key, tuple: &[Value]) -> bool {
    let Some(bucket) = side.get_mut(key) else {
        return false;
    };
    let Some(pos) = bucket.iter().position(|t| t == tuple) else {
        return false;
    };
    bucket.swap_remove(pos);
    if bucket.is_empty() {
        side.remove(key);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_common::FxHashSet;

    #[test]
    fn join_results_complete() {
        let mut shj = SymmetricHashJoin::new(vec![1], vec![0], 100, 1);
        shj.insert_left(&[1, 10]);
        shj.insert_right(&[10, 5]);
        shj.insert_right(&[10, 6]);
        shj.insert_left(&[2, 10]); // matches both rights
        shj.insert_left(&[3, 99]); // no match
        assert_eq!(shj.live_results(), 4);
        let got: FxHashSet<(Vec<u64>, Vec<u64>)> = shj.samples().iter().cloned().collect();
        let expect: FxHashSet<(Vec<u64>, Vec<u64>)> = [
            (vec![1, 10], vec![10, 5]),
            (vec![1, 10], vec![10, 6]),
            (vec![2, 10], vec![10, 5]),
            (vec![2, 10], vec![10, 6]),
        ]
        .into_iter()
        .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn arrival_order_irrelevant_for_results() {
        let run = |order: &[(bool, [u64; 2])]| -> u128 {
            let mut shj = SymmetricHashJoin::new(vec![1], vec![0], 10, 2);
            for &(is_left, t) in order {
                if is_left {
                    shj.insert_left(&t);
                } else {
                    shj.insert_right(&t);
                }
            }
            shj.live_results()
        };
        let a = run(&[(true, [1, 7]), (false, [7, 2]), (true, [3, 7])]);
        let b = run(&[(false, [7, 2]), (true, [3, 7]), (true, [1, 7])]);
        assert_eq!(a, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn snapshot_restores_byte_identical_turnstile_behavior() {
        let mut shj = SymmetricHashJoin::new(vec![1], vec![0], 4, 11);
        let mut rng = RsjRng::seed_from_u64(23);
        let mut live: Vec<(bool, [u64; 2])> = Vec::new();
        for i in 0..300u64 {
            if i % 4 == 3 && !live.is_empty() {
                let (is_left, t) = live.swap_remove(rng.index(live.len()));
                if is_left {
                    shj.delete_left(&t);
                } else {
                    shj.delete_right(&t);
                }
            } else {
                let is_left = rng.index(2) == 0;
                let t = [rng.below_u64(5), rng.below_u64(5)];
                if is_left {
                    shj.insert_left(&t);
                } else {
                    shj.insert_right(&t);
                }
                live.push((is_left, t));
            }
        }
        let mut e = Encoder::new();
        shj.snapshot_to(&mut e);
        let bytes = e.into_bytes();

        let mut d = Decoder::new(&bytes);
        let mut restored = SymmetricHashJoin::new(vec![1], vec![0], 4, 0)
            .restore_from(&mut d, [2, 2])
            .unwrap();
        d.finish().unwrap();
        assert_eq!(restored.samples(), shj.samples());
        assert_eq!(restored.live_results(), shj.live_results());

        // Re-serialization is byte-identical (canonical image).
        let mut e2 = Encoder::new();
        restored.snapshot_to(&mut e2);
        assert_eq!(e2.into_bytes(), bytes);

        // Lockstep continuation; deletes exercise the sorted-key repair
        // draws, which must match step for step.
        for i in 0..200u64 {
            if i % 3 == 2 && !live.is_empty() {
                let (is_left, t) = live.swap_remove(rng.index(live.len()));
                if is_left {
                    assert_eq!(shj.delete_left(&t), restored.delete_left(&t));
                } else {
                    assert_eq!(shj.delete_right(&t), restored.delete_right(&t));
                }
            } else {
                let is_left = rng.index(2) == 0;
                let t = [rng.below_u64(5), rng.below_u64(5)];
                if is_left {
                    shj.insert_left(&t);
                    restored.insert_left(&t);
                } else {
                    shj.insert_right(&t);
                    restored.insert_right(&t);
                }
                live.push((is_left, t));
            }
            assert_eq!(restored.samples(), shj.samples());
            assert_eq!(restored.live_results(), shj.live_results());
        }

        // Mismatched key positions are rejected.
        let wrong = SymmetricHashJoin::new(vec![0], vec![1], 4, 0);
        assert!(wrong
            .restore_from(&mut Decoder::new(&bytes), [2, 2])
            .is_err());
    }

    #[test]
    fn composite_keys_join() {
        let mut shj = SymmetricHashJoin::new(vec![0, 1], vec![1, 2], 10, 3);
        shj.insert_left(&[1, 2, 77]);
        shj.insert_right(&[88, 1, 2]);
        shj.insert_right(&[88, 1, 3]); // second key differs
        assert_eq!(shj.live_results(), 1);
    }
}
