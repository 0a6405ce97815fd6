//! Figure 12: RSWP vs RS cumulative time vs. stream progress (§6.3).
//!
//! Paper setup: a 1/10-dense stream of 100,000 strings, k = 1,000,
//! predicate = edit distance ≤ 16 from a 1024-char query string;
//! cumulative time recorded every 10%. Expected shape: both algorithms
//! track each other over the first chunk (reservoir filling), then RSWP's
//! curve flattens (stops thin out as r_i grows) while RS stays linear.

use rsj_bench::*;
use rsj_common::stats::Summary;
use rsj_datagen::{levenshtein_within, StringStream, StringStreamConfig};
use rsj_stream::{ClassicReservoir, FnBatch, Reservoir};
use std::time::Instant;

fn main() {
    banner("Figure 12", "RSWP vs RS cumulative time vs stream progress");
    let cfg = StringStreamConfig {
        len: 1024,
        n: scaled(100_000),
        density: 0.1,
        threshold: 16,
        seed: 3,
    };
    let s = StringStream::generate(&cfg);
    let k = scaled(1000);
    let n = s.items.len();
    let checkpoints: Vec<usize> = (1..=10).map(|i| i * n / 10).collect();

    // RS: classic reservoir, predicate on every item.
    let mut rs_times = Vec::new();
    {
        let mut r = ClassicReservoir::new(k, 1);
        let start = Instant::now();
        let mut next = 0;
        for (i, item) in s.items.iter().enumerate() {
            if levenshtein_within(&s.query, item, cfg.threshold).is_some() {
                r.offer(item.clone());
            }
            if i + 1 == checkpoints[next] {
                rs_times.push(start.elapsed());
                next += 1;
                if next == checkpoints.len() {
                    break;
                }
            }
        }
    }

    // RSWP: batched predicate reservoir; one batch per 10% chunk so we can
    // checkpoint (batching does not change behaviour).
    let mut rswp_times = Vec::new();
    let mut evals = 0u64;
    {
        // A width-1 reservoir: the sample is the string's stream position.
        let mut r = Reservoir::new(k, 1, 1);
        let start = Instant::now();
        let mut prev = 0;
        for &cp in &checkpoints {
            let mut batch = FnBatch::new((cp - prev) as u128, |z| prev + z as usize);
            r.process_batch(&mut batch, |i, slot| {
                evals += 1;
                if levenshtein_within(&s.query, &s.items[i], cfg.threshold).is_some() {
                    slot.accept()[0] = i as u64;
                }
            });
            rswp_times.push(start.elapsed());
            prev = cp;
        }
    }

    println!("\n{:>6} {:>12} {:>12}", "input", "RS", "RSWP");
    for i in 0..10 {
        println!(
            "{:>5}% {:>12} {:>12}",
            (i + 1) * 10,
            format!("{:.2?}", rs_times[i]),
            format!("{:.2?}", rswp_times[i])
        );
    }
    // Shape check: RSWP's per-chunk increments shrink over time.
    let mut increments = Summary::new();
    let first_inc = rswp_times[0].as_secs_f64();
    let last_inc = rswp_times[9].as_secs_f64() - rswp_times[8].as_secs_f64();
    increments.record(first_inc);
    increments.record(last_inc);
    println!(
        "\nshape check: RSWP chunk time fell from {:.3}s (first 10%) to \
         {:.3}s (last 10%); predicate evaluated {evals} times out of {n} \
         items; RS/RSWP total = {:.1}x",
        first_inc,
        last_inc,
        rs_times[9].as_secs_f64() / rswp_times[9].as_secs_f64()
    );
}
