//! Reservoir sampling with a predicate, standalone (paper §3 / §6.3).
//!
//! Run with: `cargo run --example predicate_stream`
//!
//! The generalized reservoir algorithm is useful far beyond joins: here we
//! sample strings whose edit distance to a query string is small, from a
//! stream where the predicate is expensive to evaluate. The classic
//! algorithm (`RS`) must evaluate the predicate on *every* item; the
//! predicate-aware skip-based algorithm (`RSWP`) only evaluates it at its
//! reservoir stops — `O(Σ min(1, k/(r_i+1)))` of them.

use rsjoin::datagen::{levenshtein_within, StringStream, StringStreamConfig};
use rsjoin::prelude::*;
use std::time::Instant;

fn main() {
    let cfg = StringStreamConfig {
        len: 512,
        n: 20_000,
        density: 0.1,
        threshold: 16,
        seed: 3,
    };
    let s = StringStream::generate(&cfg);
    println!(
        "stream: {} strings of length {}, measured density {:.3}",
        cfg.n,
        cfg.len,
        s.measured_density()
    );

    let k = 200;

    // RS: classic reservoir — predicate on every item.
    let t0 = Instant::now();
    let mut rs = ClassicReservoir::new(k, 1);
    let mut evals_rs = 0u64;
    for item in &s.items {
        evals_rs += 1;
        if levenshtein_within(&s.query, item, cfg.threshold).is_some() {
            rs.offer(item.clone());
        }
    }
    let rs_time = t0.elapsed();

    // RSWP: skip-based with predicate — evaluation only at stops.
    let t0 = Instant::now();
    // A width-1 reservoir: the sample is the string's stream position.
    let mut rswp = Reservoir::new(k, 1, 1);
    let mut evals_rswp = 0u64;
    let mut batch = FnBatch::new(s.items.len() as u128, |z| z as usize);
    rswp.process_batch(&mut batch, |i, slot| {
        evals_rswp += 1;
        if levenshtein_within(&s.query, &s.items[i], cfg.threshold).is_some() {
            slot.accept()[0] = i as u64;
        }
    });
    let rswp_time = t0.elapsed();

    println!("\n              time        predicate evaluations   samples");
    println!(
        "RS   (§3.1)  {:>9.1?}   {:>21}   {:>7}",
        rs_time,
        evals_rs,
        rs.samples().len()
    );
    println!(
        "RSWP (§3.2)  {:>9.1?}   {:>21}   {:>7}",
        rswp_time,
        evals_rswp,
        rswp.samples().len()
    );
    println!(
        "\nRSWP evaluated the predicate on {:.1}% of the stream and produced \
         an equally uniform sample.",
        100.0 * evals_rswp as f64 / evals_rs as f64
    );
    assert_eq!(rswp.samples().len(), k.min(rswp.samples().len()));
}
