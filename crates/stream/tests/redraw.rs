//! The turnstile skip-state redraw, `Reservoir::recalibrate`: its law
//! against the order-statistics chain it replaced, and its behaviour on
//! populations past `2^53`, where that chain rounded `w` to 0 and froze
//! the reservoir for good.

use rsj_common::codec::{Decoder, Encoder};
use rsj_common::rng::RsjRng;
use rsj_stream::{FnBatch, Reservoir};

/// A full width-1 reservoir of capacity `k`.
fn full(k: usize, seed: u64) -> Reservoir {
    let mut r = Reservoir::new(k, 1, seed);
    let mut batch = FnBatch::new(k as u128, |z| z as u64);
    r.process_batch(&mut batch, |x, slot| slot.accept()[0] = x);
    assert_eq!(r.len(), k);
    r
}

/// The skip state `(w, q)`, read back from the reservoir's image (capacity,
/// length-prefixed rows, then `w` and `q`).
fn skip_state(r: &Reservoir) -> (f64, u128) {
    let mut enc = Encoder::new();
    r.snapshot_to(&mut enc);
    let bytes = enc.into_bytes();
    let mut dec = Decoder::new(&bytes);
    dec.usize().unwrap();
    for _ in 0..dec.usize().unwrap() {
        dec.u64s().unwrap();
    }
    (dec.f64().unwrap(), dec.u128().unwrap())
}

/// The redraw `recalibrate` ran before its Beta form: the `k` smallest of
/// `n` uniforms in ascending order, each rescaled into the interval above
/// the previous one — `k` steps.
fn chain(rng: &mut RsjRng, k: usize, n: u128) -> f64 {
    let mut w = 0.0f64;
    let mut rem = n as f64;
    for _ in 0..k {
        w += (1.0 - w) * (1.0 - rng.unit().powf(1.0 / rem));
        rem -= 1.0;
    }
    w
}

/// Two-sample Kolmogorov–Smirnov distance `sup |F_a − F_b|`.
fn ks_distance(a: &mut [f64], b: &mut [f64]) -> f64 {
    a.sort_by(f64::total_cmp);
    b.sort_by(f64::total_cmp);
    let (mut i, mut j, mut d) = (0, 0, 0.0f64);
    while i < a.len() && j < b.len() {
        let x = a[i].min(b[j]);
        while i < a.len() && a[i] <= x {
            i += 1;
        }
        while j < b.len() && b[j] <= x {
            j += 1;
        }
        d = d.max((i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs());
    }
    d
}

/// Where the chain is still accurate (`r ≤ 2^30`), the `O(1)` redraw and
/// the `O(k)` chain draw `w` from one law: a two-sample KS test at
/// `α = 1e-6` per `(k, r)`.
#[test]
fn redraw_matches_the_order_statistics_chain() {
    let m = 4000;
    // c(α) = sqrt(−ln(α/2) / 2) for the two-sample KS test.
    let c = (-(1e-6f64 / 2.0).ln() / 2.0).sqrt();
    let critical = c * (2.0 / m as f64).sqrt();
    let mut rng = RsjRng::seed_from_u64(0x5EED);
    for (k, n) in [
        (1, 2),
        (4, 5),
        (4, 1000),
        (16, 1 << 20),
        (100, 150),
        (256, 1 << 30),
    ] {
        let mut redrawn: Vec<f64> = (0..m as u64)
            .map(|seed| {
                let mut r = full(k, seed);
                r.recalibrate(n);
                skip_state(&r).0
            })
            .collect();
        let mut chained: Vec<f64> = (0..m).map(|_| chain(&mut rng, k, n)).collect();
        let d = ks_distance(&mut redrawn, &mut chained);
        assert!(d < critical, "k={k} r={n}: KS distance {d} ≥ {critical}");
    }
}

/// Regression: at `|Q(R)| ≥ 2^54` every step of the chain computed
/// `1 − u^(1/r) = 0`, so `w` was 0, `q` saturated at `u128::MAX` and the
/// reservoir never stopped again. The redraw must keep `w` positive with
/// the Beta mean `k / (r + 1)`, and arrivals after it must still stop.
#[test]
fn redraw_on_huge_populations_keeps_the_reservoir_live() {
    let k = 4;
    let seeds = 2000u64;
    for exp in [54u32, 60, 100, 127] {
        let population = 1u128 << exp;
        let (mut sum, mut stopped) = (0.0, 0);
        for seed in 0..seeds {
            let mut r = full(k, seed);
            r.recalibrate(population);
            let (w, _) = skip_state(&r);
            assert!(w > 0.0 && w < 1.0, "r = 2^{exp}, seed {seed}: w = {w:e}");
            sum += w;
            // Every later arrival extends the stream: `u128::MAX` more
            // positions hold on average k·ln(1 + n/r) ≥ k·ln 3 stops.
            let before = r.stops();
            let mut batch = FnBatch::new(u128::MAX, |z| z as u64);
            r.process_batch(&mut batch, |x, slot| slot.accept()[0] = x);
            stopped += u64::from(r.stops() > before);
        }
        let mean = sum / seeds as f64;
        let want = k as f64 / (population as f64 + 1.0);
        assert!(
            (mean / want - 1.0).abs() < 0.05,
            "r = 2^{exp}: mean w {mean:e}, want {want:e}"
        );
        assert!(
            stopped * 10 >= seeds * 9,
            "r = 2^{exp}: only {stopped} of {seeds} reservoirs stopped again"
        );
    }
}
