//! Property and boundary tests for the reservoir algorithms beyond the
//! in-module unit tests: stop-count bounds against Theorem 3.2's formula,
//! k = 1 analytics, adversarial real/dummy layouts, passing reported dummy
//! runs, and a model test of the flat sample arena — by row and by slot —
//! against a plain `Vec<Vec<u64>>` reservoir.

use proptest::prelude::*;
use rsj_common::codec::{Decoder, Encoder};
use rsj_common::rng::RsjRng;
use rsj_common::stats::{chi_square_critical, chi_square_uniform};
use rsj_stream::{remove_slots, ClassicReservoir, Reservoir, SliceBatch, Slot};

/// A width-1 stop closure over `(scalar, is_real)` items.
fn keep_flagged((x, real): (u64, bool), slot: Slot<'_>) {
    if real {
        slot.accept()[0] = x;
    }
}

/// A width-1 stop closure sampling every scalar.
fn keep_all(x: u64, slot: Slot<'_>) {
    slot.accept()[0] = x;
}

/// Theorem 3.2 stop bound: (p-1) + Σ_{i>=p} k/(r_i+1), where p is the
/// first index at which k reals have been seen.
fn theorem_bound(flags: &[bool], k: usize) -> f64 {
    let mut r = 0usize; // reals among the first i-1
    let mut p_reached = false;
    let mut bound = 0.0;
    for &f in flags.iter() {
        if r >= k {
            p_reached = true;
        }
        if p_reached {
            bound += k as f64 / (r as f64 + 1.0);
        } else {
            bound += 1.0;
        }
        if f {
            r += 1;
        }
    }
    bound
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Measured stops stay within a constant factor of the Theorem 3.2
    /// expectation (averaged across seeds to tame variance).
    #[test]
    fn stops_match_theorem_bound(
        density_pct in 5u32..100,
        k in 1usize..8,
    ) {
        let n = 4000;
        // Periodic real pattern at the given density.
        let flags: Vec<bool> = (0..n)
            .map(|i| (i as u32 * density_pct) % 100 < density_pct)
            .collect();
        let items: Vec<(u64, bool)> = flags
            .iter()
            .enumerate()
            .map(|(i, &f)| (i as u64, f))
            .collect();
        let expected = theorem_bound(&flags, k);
        let seeds = 12;
        let mut total = 0u64;
        for seed in 0..seeds {
            let mut r = Reservoir::new(k, 1, seed);
            let mut b = SliceBatch::new(&items);
            r.process_batch(&mut b, keep_flagged);
            total += r.stops();
        }
        let mean = total as f64 / seeds as f64;
        prop_assert!(
            mean < 6.0 * expected + 50.0,
            "mean stops {mean} ≫ bound {expected}"
        );
    }

    /// k=1 inclusion: the last real item is sampled with probability
    /// 1/#reals — spot-check the frequency.
    #[test]
    fn k1_last_item_frequency(reals in 2usize..30) {
        let items: Vec<u64> = (0..reals as u64).collect();
        let trials = 3000u64;
        let mut hits = 0u64;
        for seed in 0..trials {
            let mut r = Reservoir::new(1, 1, seed);
            let mut b = SliceBatch::new(&items);
            r.process_batch(&mut b, keep_all);
            if r.samples().flat()[0] == (reals as u64 - 1) {
                hits += 1;
            }
        }
        let f = hits as f64 / trials as f64;
        let expect = 1.0 / reals as f64;
        prop_assert!(
            (f - expect).abs() < 0.05 + expect,
            "freq {f} vs {expect}"
        );
    }
}

/// The reference the flat arena must be indistinguishable from: the same
/// algorithm (Algorithm 5 plus the turnstile repair steps) over a plain
/// `Vec<Vec<u64>>` — one heap row per sample, payloads moved in whole.
struct Model {
    k: usize,
    samples: Vec<Vec<u64>>,
    w: f64,
    q: u128,
    rng: RsjRng,
    stops: u64,
    replacements: u64,
}

impl Model {
    fn new(k: usize, seed: u64) -> Model {
        Model {
            k,
            samples: Vec::new(),
            w: f64::INFINITY,
            q: 0,
            rng: RsjRng::seed_from_u64(seed),
            stops: 0,
            replacements: 0,
        }
    }

    /// One batch of `(row, is_real)` items.
    fn process_batch(&mut self, items: &[(Vec<u64>, bool)]) {
        let mut pos = 0;
        while self.samples.len() < self.k {
            let Some((row, real)) = items.get(pos) else {
                return;
            };
            pos += 1;
            self.stops += 1;
            if *real {
                self.samples.push(row.clone());
            }
        }
        if self.w > 1.0 {
            self.w = self.rng.unit().powf(1.0 / self.k as f64);
            self.q = self.rng.geometric(self.w);
        }
        while ((items.len() - pos) as u128) > self.q {
            pos += self.q as usize;
            let (row, real) = &items[pos];
            pos += 1;
            self.stops += 1;
            if *real {
                let victim = self.rng.index(self.k);
                self.samples[victim] = row.clone();
                self.replacements += 1;
                self.w = self.rng.decay_w(self.w, self.k);
            }
            self.q = self.rng.geometric(self.w);
        }
        self.q -= (items.len() - pos) as u128;
    }

    fn backfill_distinct(
        &mut self,
        target: usize,
        per_slot_tries: usize,
        mut draw: impl FnMut() -> Option<Vec<u64>>,
    ) -> bool {
        while self.samples.len() < target.min(self.k) {
            let mut tries = per_slot_tries;
            loop {
                if tries == 0 {
                    return false;
                }
                tries -= 1;
                let Some(row) = draw() else { continue };
                if !self.samples.contains(&row) {
                    self.samples.push(row);
                    break;
                }
            }
        }
        true
    }

    fn recalibrate(&mut self, population: u128) {
        if population <= self.samples.len() as u128 {
            self.w = f64::INFINITY;
            self.q = 0;
            return;
        }
        self.w = self.rng.kth_smallest_uniform(self.k as u128, population);
        self.q = self.rng.geometric(self.w);
    }

    /// The engines' image format: length-prefixed rows.
    fn snapshot(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_usize(self.k);
        enc.put_usize(self.samples.len());
        for s in &self.samples {
            enc.put_u64s(s);
        }
        enc.put_f64(self.w);
        enc.put_u128(self.q);
        for word in self.rng.state() {
            enc.put_u64(word);
        }
        enc.put_u64(self.stops);
        enc.put_u64(self.replacements);
        enc.into_bytes()
    }
}

fn snapshot(r: &Reservoir) -> Vec<u8> {
    let mut enc = Encoder::new();
    r.snapshot_to(&mut enc);
    enc.into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random fill / replace / evict / backfill / recalibrate /
    /// snapshot-restore sequences leave the flat arena and the
    /// `Vec<Vec<u64>>` model in the same state after every step: same
    /// rows in the same slots, same counters, and — through the snapshot
    /// bytes — the same `(w, q)` and RNG position. The arena never holds
    /// more than `k` rows of memory.
    ///
    /// A second arena runs the same steps by slot, the way a caller that
    /// keeps per-slot data beside the rows does: `Slot::accept_slot`
    /// records each accepted row in a side table at the slot it names,
    /// `evict_slots` evicts the slots the side table alone names while
    /// `remove_slots` compacts the side table by the same list, and
    /// `backfill`'s draw decides distinctness against it.
    /// It must match the model — and `evict_where` / `backfill_distinct`
    /// — byte for byte, and its side table must equal its rows.
    #[test]
    fn flat_arena_matches_vec_of_vecs_model(
        k in 1usize..12,
        width in 1usize..4,
        seed in 0u64..1000,
        ops in proptest::collection::vec((0u8..7, 0u64..1000, 0u64..1000), 1..60)
    ) {
        let mut flat = Reservoir::new(k, width, seed);
        let mut slotted = Reservoir::new(k, width, seed);
        // The side table: `width` words per slot, back to back.
        let mut side: Vec<u64> = Vec::new();
        let mut model = Model::new(k, seed);
        // Rows come from a small domain so evictions hit and backfill
        // candidates collide with held samples.
        let row_of = |id: u64| -> Vec<u64> { (0..width as u64).map(|c| (id >> c) % 23).collect() };
        let mut next_id = 0u64;
        for (step, &(kind, a, b)) in ops.iter().enumerate() {
            match kind {
                // Batches: the fill phase first, replacements once full.
                0..=2 => {
                    let items: Vec<(Vec<u64>, bool)> = (0..a % 80)
                        .map(|i| {
                            next_id += 1;
                            (row_of(next_id * 7 + b), (i + b) % 4 != 0)
                        })
                        .collect();
                    let mut batch = SliceBatch::new(&items);
                    flat.process_batch(&mut batch, |(row, real), slot| {
                        if real {
                            slot.accept().copy_from_slice(&row);
                        }
                    });
                    let mut batch = SliceBatch::new(&items);
                    slotted.process_batch(&mut batch, |(row, real), slot| {
                        if real {
                            let (at, dst) = slot.accept_slot();
                            dst.copy_from_slice(&row);
                            match side.get_mut(at * width..(at + 1) * width) {
                                Some(held) => held.copy_from_slice(&row),
                                None => {
                                    assert_eq!(at * width, side.len(), "a new slot is the last one");
                                    side.extend_from_slice(&row);
                                }
                            }
                        }
                    });
                    model.process_batch(&items);
                }
                3 => {
                    let dead = |row: &[u64]| row[0] % (2 + a % 5) == b % 2;
                    let evicted = flat.evict_where(dead);
                    // The dead slots, read off the side table alone; the
                    // rows and the side table compact by the same list.
                    let doomed: Vec<usize> = side
                        .chunks_exact(width)
                        .enumerate()
                        .filter_map(|(at, held)| dead(held).then_some(at))
                        .collect();
                    let next_dead = |from: usize| doomed.iter().copied().find(|&at| at >= from);
                    let by_slot = slotted.evict_slots(next_dead);
                    prop_assert_eq!(remove_slots(&mut side, width, |_, from| next_dead(from)), by_slot);
                    let before = model.samples.len();
                    model.samples.retain(|row| !dead(row));
                    prop_assert_eq!(evicted, before - model.samples.len());
                    prop_assert_eq!(by_slot, evicted);
                }
                4 => {
                    // Every third trial is a dummy; a tight budget makes
                    // some backfills give up part-way.
                    let tries = 1 + (b % 9) as usize;
                    let candidate = |n: u64| (!n.is_multiple_of(3)).then(|| row_of(a + n * 5));
                    let mut n = 0;
                    let reached = flat.backfill_distinct(k, tries, |row| {
                        n += 1;
                        candidate(n).map(|c| row.copy_from_slice(&c)).is_some()
                    });
                    let mut s = 0;
                    let by_slot = slotted.backfill(k, tries, |held, row| {
                        let at = held.len();
                        s += 1;
                        let Some(c) = candidate(s).filter(|c| side.chunks_exact(width).all(|held| held != c)) else {
                            return false;
                        };
                        assert_eq!(at * width, side.len(), "a backfilled slot is the new last one");
                        row.copy_from_slice(&c);
                        side.extend_from_slice(&c);
                        true
                    });
                    let mut m = 0;
                    let expect = model.backfill_distinct(k, tries, || {
                        m += 1;
                        candidate(m)
                    });
                    prop_assert_eq!((reached, n), (expect, m), "step {}", step);
                    prop_assert_eq!((by_slot, s), (expect, m), "step {}", step);
                }
                5 => {
                    // Recalibration against a larger population needs a
                    // full reservoir; otherwise it holds everything.
                    let held = model.samples.len() as u128;
                    let population = if model.samples.len() == k { held + 1 + a as u128 } else { held };
                    flat.recalibrate(population);
                    slotted.recalibrate(population);
                    model.recalibrate(population);
                }
                _ => {
                    let bytes = snapshot(&flat);
                    let mut dec = Decoder::new(&bytes);
                    flat = Reservoir::restore_from(&mut dec, width).unwrap();
                    dec.finish().unwrap();
                    prop_assert_eq!(flat.capacity(), k);
                    let bytes = snapshot(&slotted);
                    let mut dec = Decoder::new(&bytes);
                    slotted = Reservoir::restore_from(&mut dec, width).unwrap();
                    dec.finish().unwrap();
                }
            }
            prop_assert_eq!(flat.samples().to_vec(), model.samples.clone(), "step {}", step);
            prop_assert_eq!(flat.len(), model.samples.len());
            prop_assert_eq!(flat.stops(), model.stops, "step {}", step);
            prop_assert_eq!(flat.replacements(), model.replacements, "step {}", step);
            prop_assert_eq!(snapshot(&flat), model.snapshot(), "step {}", step);
            prop_assert_eq!(snapshot(&slotted), model.snapshot(), "step {}", step);
            prop_assert_eq!(slotted.samples().flat(), &side[..], "step {}", step);
            prop_assert!(
                flat.heap_size() <= k * width * 8,
                "step {}: arena of {} bytes for k={} width={}",
                step, flat.heap_size(), k, width
            );
        }
    }
}

#[test]
fn adversarial_real_at_the_very_end_of_many_batches() {
    // Dummy-only batches forever, then one real item in the last batch —
    // it must always be captured (can't be skipped past).
    for seed in 0..100 {
        let mut r = Reservoir::new(2, 1, seed);
        for _ in 0..50 {
            let dummies: Vec<(u64, bool)> = (0..37).map(|i| (i, false)).collect();
            let mut b = SliceBatch::new(&dummies);
            r.process_batch(&mut b, keep_flagged);
        }
        let last = vec![(999u64, true)];
        let mut b = SliceBatch::new(&last);
        r.process_batch(&mut b, keep_flagged);
        assert_eq!(r.samples().flat(), &[999], "seed {seed}");
    }
}

#[test]
fn alternating_fill_and_drain_batches() {
    // Alternate dense and empty batches; reservoir stays valid throughout.
    let mut r = Reservoir::new(5, 1, 3);
    let mut next_id = 0u64;
    for round in 0..30 {
        let n = if round % 2 == 0 { 100 } else { 0 };
        let items: Vec<u64> = (0..n).map(|i| next_id + i).collect();
        next_id += n;
        let mut b = SliceBatch::new(&items);
        r.process_batch(&mut b, keep_all);
        assert!(r.samples().len() <= 5);
        for &s in r.samples().flat() {
            assert!(s < next_id);
        }
    }
    assert_eq!(r.samples().len(), 5);
}

#[test]
fn classic_reservoir_huge_seen_count() {
    // seen is u128; push past u32 range cheaply by offering in a loop with
    // a small reservoir — sanity that nothing overflows and frequency of
    // retention drops.
    let mut r = ClassicReservoir::new(1, 9);
    for x in 0..200_000u64 {
        r.offer(x);
    }
    assert_eq!(r.seen(), 200_000);
    assert_eq!(r.samples().len(), 1);
}

#[test]
fn stops_scale_logarithmically_in_stream_length() {
    // Doubling N adds ~k ln 2 stops, not 2x stops.
    let run = |n: u64| {
        let items: Vec<u64> = (0..n).collect();
        let mut total = 0u64;
        for seed in 0..8 {
            let mut r = Reservoir::new(50, 1, seed);
            let mut b = SliceBatch::new(&items);
            r.process_batch(&mut b, keep_all);
            total += r.stops();
        }
        total as f64 / 8.0
    };
    let s1 = run(50_000);
    let s2 = run(100_000);
    assert!(
        s2 - s1 < 200.0,
        "doubling N added {} stops (expected ~{})",
        s2 - s1,
        50.0 * std::f64::consts::LN_2
    );
}

/// A batch stream of `(id, run)` items, as a join driver sees it:
/// `run == 0` marks a real item, and a dummy carries the length of its
/// dummy run from itself to the run's end — what the retrieval kernel
/// reports. The first batch holds `k` reals and then a run, so the
/// reservoir fills right before it and its first skip-phase stops land in
/// it; later batches mix reals with runs of up to 40 dummies, and every
/// other one ends in a run. Returns the batches and the number of reals,
/// whose ids are `0..reals`.
fn dummy_run_stream(k: usize, batches: usize, seed: u64) -> (Vec<Vec<(u64, u128)>>, u64) {
    let mut rng = RsjRng::seed_from_u64(seed);
    let mut reals = 0u64;
    let mut real = |batch: &mut Vec<(u64, u128)>| {
        batch.push((reals, 0));
        reals += 1;
    };
    let run = |batch: &mut Vec<(u64, u128)>, len: u128| {
        batch.extend((1..=len).rev().map(|left| (u64::MAX, left)));
    };
    let mut out = Vec::new();
    let mut first = Vec::new();
    for _ in 0..k {
        real(&mut first);
    }
    run(&mut first, 25);
    out.push(first);
    for b in 1..batches {
        let mut batch = Vec::new();
        for _ in 0..rng.index(12) {
            if rng.index(2) == 0 {
                real(&mut batch);
            } else {
                run(&mut batch, 1 + rng.index(40) as u128);
            }
        }
        if b % 2 == 0 {
            run(&mut batch, 1 + rng.index(40) as u128);
        }
        out.push(batch);
    }
    (out, reals)
}

/// Feeds `batches` to a reservoir that passes the reported runs
/// (`runs = true`) or drops every dummy's slot alone.
fn run_stream(r: &mut Reservoir, batches: &[Vec<(u64, u128)>], runs: bool) {
    for items in batches {
        let mut b = SliceBatch::new(items);
        r.process_batch(&mut b, |(x, run), slot| match run {
            0 => slot.accept()[0] = x,
            run if runs => slot.reject_run(run),
            _ => {} // the slot drops: one dummy
        });
    }
}

/// Passing a reported run keeps the law: over many seeds, both the
/// run-passing reservoir and the one stopping at every dummy hold each
/// real with frequency `k/n` (chi-square), and never a dummy; passing the
/// runs makes fewer stops.
#[test]
fn passing_dummy_runs_keeps_inclusion_uniform() {
    let k = 8;
    let (batches, n) = dummy_run_stream(k, 60, 46);
    assert!(n > 100, "{n} reals");
    let trials = 4000;
    let trial = |runs: bool| {
        let (mut counts, mut stops) = (vec![0u64; n as usize], 0);
        for t in 0..trials {
            let mut r = Reservoir::new(k, 1, 46_000 + t);
            run_stream(&mut r, &batches, runs);
            assert_eq!(r.len(), k);
            for &x in r.samples().flat() {
                assert!(x < n, "dummy sampled");
                counts[x as usize] += 1;
            }
            stops += r.stops();
        }
        (counts, stops as f64 / trials as f64)
    };
    let (passing, passing_stops) = trial(true);
    let (stopping, stopping_stops) = trial(false);
    for (name, counts) in [("run-passing", passing), ("per-dummy", stopping)] {
        let (stat, df) = chi_square_uniform(&counts);
        assert!(
            stat < chi_square_critical(df, 0.0001),
            "{name}: chi2={stat} df={df}"
        );
    }
    assert!(
        passing_stops < 0.9 * stopping_stops,
        "run-passing stops {passing_stops} vs per-dummy stops {stopping_stops}"
    );
}

/// While the reservoir fills, passing a run draws nothing: a stream that
/// never fills it leaves the same samples, skip state and RNG position as
/// stopping at every dummy — only the stop count falls.
#[test]
fn passing_dummy_runs_in_the_fill_phase_keeps_the_bytes() {
    for seed in 0..20 {
        let (batches, n) = dummy_run_stream(3, 40, seed);
        let k = n as usize + 1;
        let (mut passed, mut stopped) = (Reservoir::new(k, 1, seed), Reservoir::new(k, 1, seed));
        run_stream(&mut passed, &batches, true);
        run_stream(&mut stopped, &batches, false);
        assert!(passed.stops() < stopped.stops(), "seed {seed}");
        let (a, b) = (snapshot(&passed), snapshot(&stopped));
        // The image ends with the stop and replacement counters.
        let at = a.len() - 16;
        assert_eq!(a.len(), b.len());
        assert_eq!(
            a[..at],
            b[..at],
            "seed {seed}: samples, skip state or RNG moved"
        );
        assert_eq!(a[at + 8..], b[at + 8..], "seed {seed}: replacements moved");
    }
}
