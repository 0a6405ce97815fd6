//! Tour of all seven engines behind one driver loop.
//!
//! Run with: `cargo run --example engine_tour`
//!
//! The executor layer's pitch in one file: the same two-table workload is
//! streamed through every [`Engine`] variant — the paper's `RSJoin`
//! family and all baselines — via `Box<dyn JoinSampler>`, with zero
//! engine-specific driver code. Every engine reports the same result
//! count; their cost profiles (shown via the uniform stats hook) differ
//! wildly, which is exactly the paper's point.

use rsjoin::prelude::*;
use std::time::Instant;

fn main() {
    // R(X,Y) ⋈ S(Y,Z): the one shape every engine supports, including the
    // two-table-only symmetric hash join.
    let mut qb = QueryBuilder::new();
    qb.relation("R", &["X", "Y"]);
    qb.relation("S", &["Y", "Z"]);
    let query = qb.build().unwrap();

    // A skewed stream: a few hot join keys so the join is much larger
    // than the input.
    let mut rng = RsjRng::seed_from_u64(11);
    let mut stream = TupleStream::new();
    for _ in 0..4_000 {
        let rel = rng.index(2);
        stream.push(rel, vec![rng.below_u64(5_000), rng.below_u64(40)]);
    }

    let k = 100;
    println!(
        "{:<18} {:>10} {:>9} {:>10} {:>12} {:>14}",
        "engine", "time", "samples", "stops", "heap KiB", "exact |Q(R)|"
    );
    for engine in Engine::ALL {
        if !engine.supports(&query) {
            continue;
        }
        // NaiveRebuild re-enumerates the join after every insert; at this
        // stream size that is the quadratic wall the paper opens with, so
        // give it a shorter stream instead of an afternoon.
        let n = if engine == Engine::Naive {
            400
        } else {
            stream.len()
        };
        let mut sampler = engine
            .build(&query, k, 7, &EngineOpts::default())
            .expect("two-table join suits every engine");
        let t0 = Instant::now();
        for t in stream.iter().take(n) {
            sampler.process(t.relation, &t.values);
        }
        let elapsed = t0.elapsed();
        let st = sampler.stats();
        let opt = |v: Option<String>| v.unwrap_or_else(|| "—".into());
        println!(
            "{:<18} {:>10} {:>9} {:>10} {:>12} {:>14}{}",
            sampler.name(),
            format!("{elapsed:.2?}"),
            sampler.samples().len(),
            opt(st.reservoir_stops.map(|v| v.to_string())),
            opt(st.heap_bytes.map(|v| (v / 1024).to_string())),
            sampler.exact_count(),
            if n < stream.len() {
                format!("   (first {n} tuples only)")
            } else {
                String::new()
            }
        );
    }

    println!(
        "\nall engines above drove the identical stream through the same\n\
         `dyn JoinSampler` loop; see tests/engine_conformance.rs for the\n\
         proof that their result sets agree exactly."
    );
}
