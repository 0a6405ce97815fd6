//! φ-density of real/dummy streams (paper Definition 3.4, Lemmas 3.6–3.8).
//!
//! A stream is φ-dense when every prefix of length `i` contains at least
//! `φ·i` real items. Density is what makes the predicate reservoir fast
//! (Corollary 3.5), and the dynamic index is engineered so that every delta
//! batch it emits is `(1/2)^{2|T_e|-1}`-dense — a constant for a fixed
//! query. The three lemmas say density survives the ways batches are
//! composed: concatenation, Cartesian product, and dummy padding. This
//! module implements the compositions on explicit flag vectors so tests and
//! property tests can check the lemmas directly against the index's
//! behaviour.

/// The density of a stream given its real-item flags: the largest φ with
/// `q_i >= φ·i` for every prefix, i.e. `min_i q_i / i`.
///
/// Returns 1.0 for an empty stream (vacuously dense).
pub fn density(flags: &[bool]) -> f64 {
    let mut reals = 0u64;
    let mut phi = 1.0f64;
    for (i, &f) in flags.iter().enumerate() {
        if f {
            reals += 1;
        }
        phi = phi.min(reals as f64 / (i + 1) as f64);
    }
    phi
}

/// Concatenation of two streams (Lemma 3.6: density >= min(φ1, φ2)).
pub fn concat(a: &[bool], b: &[bool]) -> Vec<bool> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    out
}

/// Row-major Cartesian product of two streams, where a pair is real iff both
/// components are (Lemma 3.7: density >= φ1·φ2/2).
pub fn product(a: &[bool], b: &[bool]) -> Vec<bool> {
    let mut out = Vec::with_capacity(a.len() * b.len());
    for &x in a {
        for &y in b {
            out.push(x && y);
        }
    }
    out
}

/// Pads `n` dummies at the end (Lemma 3.8: density >= m/(m+n)·φ).
pub fn pad(a: &[bool], n: usize) -> Vec<bool> {
    let mut out = Vec::with_capacity(a.len() + n);
    out.extend_from_slice(a);
    out.extend(std::iter::repeat_n(false, n));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn density_basics() {
        assert_eq!(density(&[]), 1.0);
        assert_eq!(density(&[true, true]), 1.0);
        assert_eq!(density(&[false]), 0.0);
        assert_eq!(density(&[true, false]), 0.5);
        // Leading dummy forces density 0 regardless of what follows.
        assert_eq!(density(&[false, true, true, true]), 0.0);
    }

    #[test]
    fn alternating_is_half_dense() {
        let s: Vec<bool> = (0..100).map(|i| i % 2 == 0).collect();
        let d = density(&s);
        assert!((0.5..=1.0).contains(&d), "d={d}");
    }

    #[test]
    fn lemma_3_6_concat() {
        let a = [true, true, false, true]; // 0.5-ish dense
        let b = [true, false];
        let c = concat(&a, &b);
        assert!(density(&c) >= density(&a).min(density(&b)) - 1e-12);
    }

    #[test]
    fn lemma_3_7_product() {
        let a = [true, false, true, true];
        let b = [true, true, false];
        let p = product(&a, &b);
        assert_eq!(p.len(), 12);
        assert!(density(&p) >= density(&a) * density(&b) / 2.0 - 1e-12);
        // Real pairs = reals(a) * reals(b).
        let reals = |s: &[bool]| s.iter().filter(|&&f| f).count();
        assert_eq!(reals(&p), reals(&a) * reals(&b));
    }

    #[test]
    fn lemma_3_8_pad() {
        let a = [true, true, true, false];
        let padded = pad(&a, 4);
        let m = a.len() as f64;
        let bound = m / (m + 4.0) * density(&a);
        assert!(density(&padded) >= bound - 1e-12);
    }

    #[test]
    fn pow2_padding_is_half_dense() {
        // The index pads a cnt-sized all-real batch to cnt~ = next pow2;
        // the result must be at least 1/2-dense: the exact situation of
        // BatchGenerate Case 3.
        for cnt in 1usize..200 {
            let padded = pad(&vec![true; cnt], cnt.next_power_of_two() - cnt);
            assert!(density(&padded) >= 0.5, "cnt={cnt} d={}", density(&padded));
        }
    }
}
