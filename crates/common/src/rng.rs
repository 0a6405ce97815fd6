//! Seeded randomness helpers.
//!
//! Everything in this workspace that flips a coin goes through [`RsjRng`] so
//! experiments and tests are reproducible from a single `u64` seed. The
//! non-trivial pieces are:
//!
//! * [`RsjRng::geometric`] — the skip-length draw `q ~ Geo(w)` computed as
//!   `floor(ln(u) / ln(1-w))` (paper Algorithm 1, lines 7/15). Skip lengths
//!   over a simulated join-result stream can reach `N^{ρ*}`, so the result
//!   saturates into `u128`. A reservoir draws through a [`SkipLaw`], which
//!   takes the denominator once per `w` rather than once per draw.
//! * [`RsjRng::below_u128`] — unbiased uniform draw from `[0, n)` for
//!   128-bit batch positions, via rejection sampling.
//! * [`RsjRng::kth_smallest_uniform`] — the `k`-th smallest of `n`
//!   uniforms in `O(1)` from its Beta law (two `RsjRng::gamma` draws),
//!   for `n` up to `u128::MAX`: the turnstile repair's skip-state redraw.

/// The splitmix64 golden-ratio increment.
const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Skip probabilities below which [`RsjRng::geometric`] takes its
/// logarithm through `ln_1p`.
const TINY_W: f64 = 1.0 / (1u64 << 40) as f64;

/// `2^64`: skips below it convert through `u64`, whose conversion is one
/// instruction; `f64 → u128` is a software routine.
const TWO_POW_64: f64 = 18_446_744_073_709_551_616.0;

/// The law `Geo(w)` of one skip parameter `w`, with its denominator
/// `ln(1 − w)` taken once. Algorithm L changes `w` only at a replacement,
/// so a reservoir keeps one law across the stops in between; every
/// [`RsjRng::skip`] draw is bit-identical to [`RsjRng::geometric`] of the
/// same `w`.
#[derive(Clone, Copy, Debug)]
pub struct SkipLaw {
    w: f64,
    /// `ln(1 − w)`, through `ln_1p` below [`TINY_W`]: `1 - w` would round
    /// to (or next to) 1 there, which made every skip infinite once the
    /// population passed about `k · 2^53`.
    ln_stay: f64,
}

impl SkipLaw {
    /// The law of parameter `w` (`w >= 1` draws no skip at all).
    pub fn new(w: f64) -> SkipLaw {
        let ln_stay = if w < TINY_W {
            (-w).ln_1p()
        } else {
            (1.0 - w).ln()
        };
        SkipLaw { w, ln_stay }
    }

    /// The parameter `w`.
    #[inline]
    pub fn w(&self) -> f64 {
        self.w
    }
}

/// A uniform draw from `[0, n)` with its rejection zone computed once:
/// [`RsjRng::below`] then costs one division per accepted draw, where
/// [`RsjRng::below_u64`] pays two more to find the zone. For a reservoir's
/// fixed `k`.
#[derive(Clone, Copy, Debug)]
pub struct Below {
    n: u64,
    /// The largest draw kept: draws above it fall in the tail where the
    /// `u64::MAX % n` residues would be over-represented.
    zone: u64,
}

impl Below {
    /// The draw from `[0, n)`, `n > 0`.
    pub fn new(n: u64) -> Below {
        assert!(n > 0, "below_u64(0)");
        Below {
            n,
            zone: u64::MAX - u64::MAX.wrapping_rem(n).wrapping_add(1) % n,
        }
    }
}

/// A skip length from the real quotient `q`: its floor, saturating at
/// `u128::MAX` (practically: never re-stop in this stream).
#[inline]
fn skip_length(q: f64) -> u128 {
    if !q.is_finite() || q >= u128::MAX as f64 {
        u128::MAX
    } else if q < TWO_POW_64 {
        q as u64 as u128
    } else {
        q as u128
    }
}

/// `ln(1+y) − y + y²/2 − y³/3`, the residue of Marsaglia and Tsang's log
/// test: its series `Σ_{n≥4} (−1)^{n+1} yⁿ/n` for `|y| < 0.1`, where the
/// direct form would cancel away, and the direct form elsewhere.
fn log1p_tail(y: f64) -> f64 {
    if y.abs() >= 0.1 {
        return y.ln_1p() - y + y * y / 2.0 - y * y * y / 3.0;
    }
    let mut acc = 0.0;
    for n in (4..=24).rev() {
        let sign = if n % 2 == 0 { -1.0 } else { 1.0 };
        acc = acc * y + sign / n as f64;
    }
    acc * y.powi(4)
}

/// One splitmix64 step: mixes `x + γ` through two multiply-xorshift rounds.
///
/// This is the standard seed-expansion mixer (Steele, Lea, Flood —
/// OOPSLA'14): consecutive inputs produce decorrelated outputs, and every
/// output is reachable (the mixer is a bijection). It seeds the xoshiro
/// state below and derives independent child seeds via [`child_seed`].
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(SPLITMIX_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the `index`-th child seed of `seed`, deterministically.
///
/// Used wherever one user-visible seed must fan out into several
/// independent RNG streams whose identities do not depend on construction
/// or scheduling order — the delete-repair RNGs of the turnstile engines
/// and the service's schedule harness. Unlike [`RsjRng::split`], deriving
/// child `i` does not consume randomness from any parent stream.
#[inline]
pub fn child_seed(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(index).rotate_left(17))
}

/// xoshiro256++ core — the same generator family `rand`'s `SmallRng` uses
/// on 64-bit targets, inlined here so the workspace builds offline with no
/// external dependencies. Seeding expands the `u64` through splitmix64,
/// matching the conventional `seed_from_u64` construction.
#[derive(Clone, Debug)]
struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    fn seed_from_u64(seed: u64) -> Xoshiro256pp {
        Xoshiro256pp {
            s: [
                splitmix64(seed),
                splitmix64(seed.wrapping_add(SPLITMIX_GAMMA)),
                splitmix64(seed.wrapping_add(SPLITMIX_GAMMA.wrapping_mul(2))),
                splitmix64(seed.wrapping_add(SPLITMIX_GAMMA.wrapping_mul(3))),
            ],
        }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// A small, fast, seedable RNG used across the workspace.
#[derive(Clone, Debug)]
pub struct RsjRng {
    inner: Xoshiro256pp,
}

impl RsjRng {
    /// Creates an RNG from a seed. Equal seeds yield equal streams.
    pub fn seed_from_u64(seed: u64) -> RsjRng {
        RsjRng {
            inner: Xoshiro256pp::seed_from_u64(seed),
        }
    }

    /// Uniform draw from the open interval `(0, 1)`.
    ///
    /// Zero is excluded so that `ln(u)` and `u^(1/k)` are always finite and
    /// non-degenerate, exactly as the reservoir algorithms require.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        loop {
            // 53 uniform mantissa bits in [0, 1).
            let u = (self.inner.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Draws `w_new = w * u^(1/k)` — the reservoir parameter update
    /// (Algorithm 1 lines 6/14).
    #[inline]
    pub fn decay_w(&mut self, w: f64, k: usize) -> f64 {
        w * self.unit().powf(1.0 / k as f64)
    }

    /// Geometric skip length `q ~ Geo(w)`: the number of items to skip
    /// before the next reservoir stop, computed as
    /// `floor(ln(u) / ln(1-w))` (see [`SkipLaw`] for the denominator).
    ///
    /// Saturates at `u128::MAX` when `w` is so small that the draw exceeds
    /// 128 bits (practically: never re-stop in this stream).
    #[inline]
    pub fn geometric(&mut self, w: f64) -> u128 {
        self.skip(&SkipLaw::new(w))
    }

    /// A skip length drawn from `law`: [`geometric`](RsjRng::geometric)
    /// with the denominator already taken.
    #[inline]
    pub fn skip(&mut self, law: &SkipLaw) -> u128 {
        debug_assert!((0.0..=1.0).contains(&law.w), "w out of range: {}", law.w);
        if law.w >= 1.0 {
            return 0;
        }
        skip_length(self.unit().ln() / law.ln_stay)
    }

    /// Standard normal draw (Box–Muller, two uniforms per draw).
    #[inline]
    fn normal(&mut self) -> f64 {
        let r = (-2.0 * self.unit().ln()).sqrt();
        r * (std::f64::consts::TAU * self.unit()).cos()
    }

    /// `Gamma(shape, 1)` for `shape >= 1`: Marsaglia and Tsang's method
    /// (ACM TOMS 26(3), 2000), a normal draw transformed by `d·(1 + c·x)³`
    /// and accepted by a squeeze or a log test.
    ///
    /// Both steps are written to stay exact for shapes up to
    /// `u128::MAX as f64`. With `y = c·x` the log test `ln u < x²/2 + d·(1
    /// − v + ln v)` is `ln u < 3d·(ln(1+y) − y + y²/2 − y³/3)`, whose
    /// cancelling terms are summed as a series for small `y`; and the draw
    /// `d·v` keeps `v − 1` apart from the 1, so its spread survives when
    /// `y` is below the machine epsilon.
    fn gamma(&mut self, shape: f64) -> f64 {
        debug_assert!(shape >= 1.0, "gamma shape below 1: {shape}");
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.normal();
            let y = c * x;
            if y <= -1.0 {
                continue;
            }
            let u = self.unit();
            let x2 = x * x;
            if u < 1.0 - 0.0331 * x2 * x2 || u.ln() < 3.0 * d * log1p_tail(y) {
                return d + d * (y * (3.0 + y * (3.0 + y)));
            }
        }
    }

    /// The `k`-th smallest of `n` iid uniforms, `1 <= k <= n`, drawn from
    /// its exact law `Beta(k, n − k + 1)` as `X / (X + Y)` with `X ~
    /// Gamma(k)` and `Y ~ Gamma(n − k + 1)`: `O(1)` whatever `k` and `n`.
    pub fn kth_smallest_uniform(&mut self, k: u128, n: u128) -> f64 {
        debug_assert!(1 <= k && k <= n, "order statistic {k} of {n}");
        let x = self.gamma(k as f64);
        let y = self.gamma((n - k + 1) as f64);
        x / (x + y)
    }

    /// Unbiased uniform draw from `[0, n)`, `n > 0`, over 128 bits.
    #[inline]
    pub fn below_u128(&mut self, n: u128) -> u128 {
        assert!(n > 0, "below_u128(0)");
        if n <= u64::MAX as u128 {
            return self.below_u64(n as u64) as u128;
        }
        // Rejection sampling on the smallest power-of-two zone >= n.
        let zone_bits = 128 - (n - 1).leading_zeros();
        loop {
            let hi = self.inner.next_u64() as u128;
            let lo = self.inner.next_u64() as u128;
            let x = ((hi << 64) | lo) >> (128 - zone_bits);
            if x < n {
                return x;
            }
        }
    }

    /// Uniform index into a collection of length `n > 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.below_u64(n as u64) as usize
    }

    /// Uniform `u64` from `[0, n)` via rejection sampling (unbiased).
    #[inline]
    pub fn below_u64(&mut self, n: u64) -> u64 {
        self.below(&Below::new(n))
    }

    /// A uniform draw from `[0, n)` for the `n` of `b`: the same draws as
    /// [`below_u64`](RsjRng::below_u64), with the zone precomputed.
    #[inline]
    pub fn below(&mut self, b: &Below) -> u64 {
        loop {
            let x = self.inner.next_u64();
            if x <= b.zone {
                return x % b.n;
            }
        }
    }

    /// A fresh RNG split off from this one (for sub-streams that must not
    /// perturb the parent's sequence).
    pub fn split(&mut self) -> RsjRng {
        RsjRng::seed_from_u64(self.inner.next_u64())
    }

    /// The generator's position: the raw xoshiro256++ state words.
    ///
    /// Checkpoints persist this so a restored RNG continues the *same*
    /// stream — [`restore_state`](RsjRng::restore_state) followed by any
    /// draw sequence is bit-identical to having never snapshotted.
    pub fn state(&self) -> [u64; 4] {
        self.inner.s
    }

    /// Reconstructs an RNG at an exact position captured by
    /// [`state`](RsjRng::state).
    ///
    /// The all-zero state is the xoshiro fixed point (it only ever emits
    /// zeros) and is unreachable from [`seed_from_u64`](RsjRng::seed_from_u64),
    /// so it is rejected as corrupt input rather than accepted silently.
    pub fn restore_state(state: [u64; 4]) -> Option<RsjRng> {
        if state == [0; 4] {
            return None;
        }
        Some(RsjRng {
            inner: Xoshiro256pp { s: state },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible() {
        let mut a = RsjRng::seed_from_u64(7);
        let mut b = RsjRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
    }

    #[test]
    fn unit_in_open_interval() {
        let mut r = RsjRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!(u > 0.0 && u < 1.0);
        }
    }

    #[test]
    fn geometric_mean_matches_theory() {
        // E[Geo(w)] = (1-w)/w; check within 5% over many draws.
        let mut r = RsjRng::seed_from_u64(2);
        let w = 0.01;
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| r.geometric(w) as f64).sum::<f64>() / n as f64;
        let expected = (1.0 - w) / w;
        assert!(
            (mean - expected).abs() / expected < 0.05,
            "mean={mean} expected={expected}"
        );
    }

    #[test]
    fn geometric_w_one_is_zero() {
        let mut r = RsjRng::seed_from_u64(3);
        assert_eq!(r.geometric(1.0), 0);
    }

    #[test]
    fn below_u128_bounds_and_coverage() {
        let mut r = RsjRng::seed_from_u64(4);
        let n: u128 = (1u128 << 90) + 12345;
        for _ in 0..1000 {
            assert!(r.below_u128(n) < n);
        }
        // Small n: every residue must appear.
        let mut seen = [false; 7];
        for _ in 0..1000 {
            seen[r.below_u128(7) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn below_u128_is_roughly_uniform_in_halves() {
        let mut r = RsjRng::seed_from_u64(5);
        let n: u128 = 1u128 << 100;
        let half = n / 2;
        let lows = (0..20_000).filter(|_| r.below_u128(n) < half).count();
        assert!((8_000..12_000).contains(&lows), "lows={lows}");
    }

    #[test]
    fn gamma_moments_match_theory() {
        // Gamma(a): mean a, variance a. Check the mean within 4 standard
        // errors and the variance within 10 % across small and huge shapes.
        let mut r = RsjRng::seed_from_u64(21);
        for a in [1.0, 2.5, 17.0, 1e6, 2f64.powi(70)] {
            let n = 20_000;
            let xs: Vec<f64> = (0..n).map(|_| r.gamma(a)).collect();
            let mean = xs.iter().sum::<f64>() / n as f64;
            let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64;
            assert!(
                (mean - a).abs() < 4.0 * (a / n as f64).sqrt(),
                "a={a}: mean {mean}"
            );
            assert!((var / a - 1.0).abs() < 0.1, "a={a}: variance {var}");
        }
    }

    #[test]
    fn log1p_tail_is_continuous_at_the_series_switch() {
        for y in [0.1f64, -0.1] {
            let below = log1p_tail(y * (1.0 - 1e-12));
            let at = log1p_tail(y);
            assert!(
                (below - at).abs() <= 1e-9 * at.abs(),
                "y={y}: {below} vs {at}"
            );
        }
        assert_eq!(log1p_tail(0.0), 0.0);
        let y = 1e-3f64;
        let lead = -y.powi(4) / 4.0 + y.powi(5) / 5.0;
        assert!((log1p_tail(y) / lead - 1.0).abs() < 1e-5);
    }

    #[test]
    fn kth_smallest_uniform_has_the_beta_mean_at_any_scale() {
        // E[k-th smallest of n] = k / (n + 1), relative sd ≈ 1/√k.
        let mut r = RsjRng::seed_from_u64(22);
        for (k, n) in [
            (1u128, 1u128),
            (4, 10),
            (64, 1 << 20),
            (4, 1 << 127),
            (256, u128::MAX),
        ] {
            let trials = 4000;
            let mean = (0..trials)
                .map(|_| r.kth_smallest_uniform(k, n))
                .sum::<f64>()
                / trials as f64;
            let want = k as f64 / (n as f64 + 1.0);
            assert!(mean > 0.0, "k={k} n={n}: collapsed to zero");
            assert!(
                (mean / want - 1.0).abs() < 0.1,
                "k={k} n={n}: {mean} vs {want}"
            );
        }
    }

    #[test]
    fn geometric_stays_finite_for_tiny_w() {
        // A skip probability of 2^-120 has mean skip 2^120 — far inside
        // u128, so no draw may saturate.
        let mut r = RsjRng::seed_from_u64(23);
        let w = 2f64.powi(-120);
        let n = 2000;
        let mean = (0..n)
            .map(|_| {
                let q = r.geometric(w);
                assert!(q < u128::MAX, "tiny w froze the skip");
                q as f64
            })
            .sum::<f64>()
            / n as f64;
        assert!((mean * w - 1.0).abs() < 0.1, "mean skip {mean}");
    }

    /// The skip draw as it was before [`SkipLaw`]: the denominator and
    /// the `f64 → u128` conversion at every draw.
    fn geometric_reference(rng: &mut RsjRng, w: f64) -> u128 {
        if w >= 1.0 {
            return 0;
        }
        let u = rng.unit();
        let q = u.ln()
            / if w < TINY_W {
                (-w).ln_1p()
            } else {
                (1.0 - w).ln()
            };
        if !q.is_finite() || q >= u128::MAX as f64 {
            u128::MAX
        } else {
            q as u128
        }
    }

    #[test]
    fn skip_law_draws_are_bit_identical_to_geometric() {
        let mut ws = vec![
            0.0,
            f64::MIN_POSITIVE,
            2f64.powi(-120),
            TINY_W / 2.0,
            f64::from_bits(TINY_W.to_bits() - 1),
            TINY_W,
            f64::from_bits(TINY_W.to_bits() + 1),
            2.0 * TINY_W,
            1e-9,
            1e-3,
            0.25,
            0.5,
            0.9,
            1.0 - 1e-9,
            f64::from_bits(1f64.to_bits() - 1),
            1.0,
        ];
        ws.extend((1..64).map(|i| 2f64.powi(-i)));
        let mut saturated = 0;
        for (i, &w) in ws.iter().enumerate() {
            let law = SkipLaw::new(w);
            let mut a = RsjRng::seed_from_u64(31 + i as u64);
            let (mut b, mut c) = (a.clone(), a.clone());
            for _ in 0..200 {
                let want = geometric_reference(&mut a, w);
                assert_eq!(b.skip(&law), want, "w = {w:e}");
                assert_eq!(c.geometric(w), want, "w = {w:e}");
                saturated += usize::from(want == u128::MAX);
            }
            assert_eq!(a.state(), b.state(), "w = {w:e}: draws consumed");
        }
        assert!(saturated >= 200, "w = 0 saturates every draw");
    }

    #[test]
    fn skip_lengths_convert_as_u128_does_on_both_sides_of_2_64() {
        let edge = TWO_POW_64;
        let below = f64::from_bits(edge.to_bits() - 1);
        let above = f64::from_bits(edge.to_bits() + 1);
        for q in [
            0.0,
            0.5,
            1.0,
            1.5,
            4096.75,
            1e18,
            below,
            edge,
            above,
            1e30,
            f64::from_bits((u128::MAX as f64).to_bits() - 1),
        ] {
            assert_eq!(skip_length(q), q as u128, "q = {q:e}");
        }
        assert_eq!(skip_length(below), below as u64 as u128);
        for q in [u128::MAX as f64, f64::INFINITY, f64::NAN] {
            assert_eq!(skip_length(q), u128::MAX, "q = {q:e}");
        }
    }

    #[test]
    fn zoned_draws_are_bit_identical_to_below_u64() {
        // The draw as it was before `Below`: the zone found per call.
        let reference = |rng: &mut RsjRng, n: u64| {
            let zone = u64::MAX - u64::MAX.wrapping_rem(n).wrapping_add(1) % n;
            loop {
                let x = rng.inner.next_u64();
                if x <= zone {
                    return x % n;
                }
            }
        };
        for n in [1, 2, 3, 1000, 120_000, (1u64 << 63) + 1] {
            let b = Below::new(n);
            let mut a = RsjRng::seed_from_u64(n);
            let (mut z, mut c) = (a.clone(), a.clone());
            for _ in 0..2000 {
                let want = reference(&mut a, n);
                assert_eq!(z.below(&b), want, "n = {n}");
                assert_eq!(c.below_u64(n), want, "n = {n}");
            }
            assert_eq!(a.state(), z.state(), "n = {n}: draws consumed");
        }
    }

    #[test]
    fn decay_w_shrinks() {
        let mut r = RsjRng::seed_from_u64(6);
        let mut w = 1.0;
        for _ in 0..50 {
            let next = r.decay_w(w, 10);
            assert!(next < w && next > 0.0);
            w = next;
        }
    }

    #[test]
    fn child_seeds_are_deterministic_and_distinct() {
        let kids: Vec<u64> = (0..64).map(|i| child_seed(42, i)).collect();
        assert_eq!(kids, (0..64).map(|i| child_seed(42, i)).collect::<Vec<_>>());
        let set: std::collections::BTreeSet<u64> = kids.iter().copied().collect();
        assert_eq!(set.len(), 64, "child seed collision");
        // Different parents give different families.
        assert_ne!(child_seed(42, 0), child_seed(43, 0));
        // Children are not the parent.
        assert!(!kids.contains(&42));
    }

    #[test]
    fn child_seed_streams_decorrelate() {
        // Streams seeded by sibling child seeds must not track each other.
        let mut a = RsjRng::seed_from_u64(child_seed(7, 0));
        let mut b = RsjRng::seed_from_u64(child_seed(7, 1));
        let va: Vec<u64> = (0..16).map(|_| a.below_u64(1 << 60)).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.below_u64(1 << 60)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn seed_expansion_is_stable() {
        // Pin the seeding path: fixed-seed experiment streams must never
        // silently change across refactors (the statistical suites rely on
        // reproducible streams).
        let mut r = RsjRng::seed_from_u64(0);
        let first = r.unit();
        let mut r2 = RsjRng::seed_from_u64(0);
        assert_eq!(first.to_bits(), r2.unit().to_bits());
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF, "splitmix64 drifted");
    }

    #[test]
    fn state_round_trip_continues_the_stream() {
        let mut a = RsjRng::seed_from_u64(123);
        for _ in 0..37 {
            a.unit();
        }
        let snap = a.state();
        let mut b = RsjRng::restore_state(snap).unwrap();
        for _ in 0..100 {
            assert_eq!(a.unit().to_bits(), b.unit().to_bits());
        }
        assert!(
            RsjRng::restore_state([0; 4]).is_none(),
            "fixed point accepted"
        );
    }

    #[test]
    fn split_decorrelates() {
        let mut a = RsjRng::seed_from_u64(9);
        let mut c = a.split();
        // Parent and child should not produce identical streams.
        let pa: Vec<u64> = (0..10).map(|_| a.below_u64(1 << 60)).collect();
        let pc: Vec<u64> = (0..10).map(|_| c.below_u64(1 << 60)).collect();
        assert_ne!(pa, pc);
    }
}
