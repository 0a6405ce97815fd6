//! Order statistics and ladder-span arithmetic.

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `p` percent of the samples at or below it.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (upper median on even counts — every value
/// reported is one that was measured).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// One rung of the layer ladder: the op stream replayed through one stack
/// height. `below` is the rung this one stands on — the next shorter
/// stack, whose work this rung's time contains. Several rungs may stand
/// on the same one.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub below: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A rung's self time: its duration minus the duration of the rung it
/// stands on. Raw, so it can go negative when run-to-run noise exceeds a
/// thin layer; the caller prints it raw and clamped.
pub fn self_ns(spans: &[Span], i: usize) -> i64 {
    let below = spans[i].below.map_or(0, |b| spans[b].duration_ns());
    spans[i].duration_ns() as i64 - below as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7u32], 99.0), 7);
        // 1000 samples: p99 leaves exactly ten beyond it.
        let w: Vec<u32> = (0..1000).collect();
        assert_eq!(percentile(&w, 99.0), 989);
    }

    #[test]
    fn median_takes_a_measured_value() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn self_times_of_a_chain_sum_to_the_top_rung() {
        // engine on index on storage, plus a side rung that also stands on
        // the index.
        let spans = vec![
            Span {
                name: "storage",
                start_ns: 0,
                end_ns: 10,
                below: None,
            },
            Span {
                name: "index",
                start_ns: 10,
                end_ns: 70,
                below: Some(0),
            },
            Span {
                name: "engine",
                start_ns: 70,
                end_ns: 170,
                below: Some(1),
            },
            Span {
                name: "side",
                start_ns: 170,
                end_ns: 235,
                below: Some(1),
            },
        ];
        assert_eq!(self_ns(&spans, 0), 10);
        assert_eq!(self_ns(&spans, 1), 50);
        assert_eq!(self_ns(&spans, 2), 40);
        assert_eq!(self_ns(&spans, 3), 5);
        let chain: i64 = (0..3).map(|i| self_ns(&spans, i)).sum();
        assert_eq!(chain as u64, spans[2].duration_ns());
    }

    #[test]
    fn a_noisy_thin_layer_reads_negative_raw() {
        let spans = vec![
            Span {
                name: "below",
                start_ns: 0,
                end_ns: 100,
                below: None,
            },
            Span {
                name: "above",
                start_ns: 100,
                end_ns: 195,
                below: Some(0),
            },
        ];
        assert_eq!(self_ns(&spans, 1), -5);
        assert_eq!(self_ns(&spans, 1).max(0), 0);
    }
}
