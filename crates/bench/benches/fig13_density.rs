//! Figure 13: RSWP vs RS running time vs. stream density (§6.3).
//!
//! Paper setup: 11 streams of equal size but densities 0.0, 0.1, ..., 1.0.
//! Expected shape: RS is flat (it always evaluates every item); RSWP
//! matches RS at density 0 (nothing can be skipped) and drops steeply as
//! density rises — 17.7× faster at density 1.0 in the paper.

use rsj_bench::*;
use rsj_datagen::{levenshtein_within, StringStream, StringStreamConfig};
use rsj_stream::{ClassicReservoir, FnBatch, Reservoir};
use std::time::Instant;

fn main() {
    banner("Figure 13", "RSWP vs RS running time vs density");
    let n = scaled(30_000);
    let k = scaled(1000);
    println!(
        "\n{:>8} {:>12} {:>12} {:>10}",
        "density", "RS", "RSWP", "speedup"
    );
    let mut first_ratio = None;
    let mut last_ratio = None;
    for d in 0..=10 {
        let density = d as f64 / 10.0;
        let cfg = StringStreamConfig {
            len: 1024,
            n,
            density,
            threshold: 16,
            seed: 3 + d as u64,
        };
        let s = StringStream::generate(&cfg);

        let t0 = Instant::now();
        let mut rs = ClassicReservoir::new(k, 1);
        for item in &s.items {
            if levenshtein_within(&s.query, item, cfg.threshold).is_some() {
                rs.offer(item.clone());
            }
        }
        let rs_time = t0.elapsed();

        let t0 = Instant::now();
        // A width-1 reservoir: the sample is the string's stream position.
        let mut rswp = Reservoir::new(k, 1, 1);
        let mut batch = FnBatch::new(s.items.len() as u128, |z| z as usize);
        rswp.process_batch(&mut batch, |i, slot| {
            if levenshtein_within(&s.query, &s.items[i], cfg.threshold).is_some() {
                slot.accept()[0] = i as u64;
            }
        });
        let rswp_time = t0.elapsed();

        let ratio = rs_time.as_secs_f64() / rswp_time.as_secs_f64();
        if d == 0 {
            first_ratio = Some(ratio);
        }
        if d == 10 {
            last_ratio = Some(ratio);
        }
        println!(
            "{:>8.1} {:>12} {:>12} {:>9.1}x",
            density,
            format!("{rs_time:.2?}"),
            format!("{rswp_time:.2?}"),
            ratio
        );
    }
    println!(
        "\nshape check: speedup ~1x at density 0 (got {:.1}x) rising \
         monotonically to ≫1 at density 1.0 (got {:.1}x; paper: 17.7x)",
        first_ratio.unwrap(),
        last_ratio.unwrap()
    );
}
