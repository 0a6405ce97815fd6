//! Power-of-two rounding for approximate degree counters.
//!
//! The dynamic index (paper §4) stores, for every join-tree node `e` and key
//! value `t`, an exact count `cnt[T,e,t]` and its rounding
//! `cnt~[T,e,t] = 2^(ceil(log2 cnt))`. All update propagation is triggered
//! only when `cnt~` changes, which happens `O(log N)` times per key — the
//! source of the `O(log N)` amortized update bound. Counts are `u128`
//! because intermediate batch sizes reach `N^{ρ*}` (e.g. `Σ_v deg(v)^6` for
//! star-6 overflows `u64` already at moderate scale).

/// Rounds `n` up to the nearest power of two; `0` maps to `0`.
///
/// This is the paper's `cnt~` operator. The zero case is meaningful: a key
/// that no tuple matches yet has an empty (not merely small) delta batch.
#[inline]
fn round_up_pow2(n: u128) -> u128 {
    if n == 0 {
        0
    } else {
        n.next_power_of_two()
    }
}

/// `log2` of a power of two, as a bucket level.
///
/// # Panics
/// Panics (debug) if `n` is not a positive power of two.
#[inline]
fn log2_exact(n: u128) -> u32 {
    debug_assert!(n.is_power_of_two(), "log2_exact on non-power-of-two {n}");
    127 - n.leading_zeros()
}

/// The bucket level of a count: `log2(round_up_pow2(cnt))`, or `None` for a
/// zero count (the paper's "empty bucket" case, which contributes weight 0).
#[inline]
pub fn level_of(cnt: u128) -> Option<u32> {
    if cnt == 0 {
        None
    } else {
        Some(log2_exact(round_up_pow2(cnt)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounding_basics() {
        assert_eq!(round_up_pow2(0), 0);
        assert_eq!(round_up_pow2(1), 1);
        assert_eq!(round_up_pow2(2), 2);
        assert_eq!(round_up_pow2(3), 4);
        assert_eq!(round_up_pow2(4), 4);
        assert_eq!(round_up_pow2(5), 8);
        assert_eq!(round_up_pow2(1023), 1024);
    }

    #[test]
    fn rounding_never_more_than_doubles() {
        // cnt~ <= 2*cnt is the density guarantee's foundation (Lemma 3.8
        // with m/(m+n) >= 1/2).
        for n in 1..10_000u128 {
            let r = round_up_pow2(n);
            assert!(r >= n && r < 2 * n, "n={n} r={r}");
        }
    }

    #[test]
    fn levels() {
        assert_eq!(level_of(0), None);
        assert_eq!(level_of(1), Some(0));
        assert_eq!(level_of(2), Some(1));
        assert_eq!(level_of(3), Some(2));
        assert_eq!(level_of(8), Some(3));
    }

    #[test]
    fn huge_counts() {
        let big = 1u128 << 100;
        assert_eq!(round_up_pow2(big + 1), big << 1);
        assert_eq!(level_of(big), Some(100));
    }

    #[test]
    fn doubling_count_is_logarithmic() {
        // Simulate a key whose count grows 1..=n and count cnt~ changes:
        // must be exactly floor(log2(n)) + 1 changes.
        let n = 1_000_000u128;
        let mut changes = 0;
        let mut prev = 0u128;
        for c in 1..=n {
            let r = round_up_pow2(c);
            if r != prev {
                changes += 1;
                prev = r;
            }
        }
        // cnt~ takes each value 2^0 .. 2^ceil(log2 n) exactly once.
        assert_eq!(changes, (n as f64).log2().ceil() as u32 + 1);
    }
}
