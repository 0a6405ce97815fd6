//! Approximate analytics from join samples — the use case the paper's
//! introduction motivates ("a uniform sample of the join results would
//! suffice ... for answering analytical queries").
//!
//! Run with: `cargo run --example approximate_analytics`
//!
//! We stream a star-schema join, then answer three analytical questions
//! from the k-sample alone and compare against exact answers computed by
//! the SJoin baseline's exact counters / full enumeration:
//!
//! 1. `COUNT(*)` of the join — via the sampler's unbiased size estimator;
//! 2. `AVG(amount)` over the join — sample mean;
//! 3. a GROUP-BY share — fraction of results per region.

use rsjoin::prelude::*;

fn main() {
    // orders(order, cust, amount) ⋈ customers(cust, region)
    let mut qb = QueryBuilder::new();
    qb.relation("orders", &["order", "cust", "amount"]);
    qb.relation("customers", &["cust", "region"]);
    let query = qb.build().unwrap();

    // Build the stream: region shares 50/30/20, amounts correlated with
    // region so the estimates are non-trivial.
    let mut rng = RsjRng::seed_from_u64(7);
    let n_cust = 2_000u64;
    let mut stream: Vec<(usize, Vec<u64>)> = Vec::new();
    for c in 0..n_cust {
        let region = match c % 10 {
            0..=4 => 0,
            5..=7 => 1,
            _ => 2,
        };
        stream.push((1, vec![c, region]));
    }
    for o in 0..60_000u64 {
        let c = rng.below_u64(n_cust);
        let region = match c % 10 {
            0..=4 => 0u64,
            5..=7 => 1,
            _ => 2,
        };
        let amount = 100 + region * 50 + rng.below_u64(40);
        stream.push((0, vec![o, c, amount]));
    }
    let mut shuffle_rng = RsjRng::seed_from_u64(9);
    for i in (1..stream.len()).rev() {
        stream.swap(i, shuffle_rng.index(i + 1));
    }

    // Maintain k samples + an ad-hoc sampler for size estimation.
    let k = 2_000;
    let mut rj = ReservoirJoin::new(query.clone(), k, 1).unwrap();
    let mut ix = DynamicSampleIndex::new(query.clone(), 2).unwrap();
    let mut exact = SJoin::new(query, 1 << 24, 3).unwrap();
    for (rel, t) in &stream {
        rj.process(*rel, t);
        ix.insert(*rel, t);
        exact.process(*rel, t);
    }

    // (1) COUNT(*).
    let est_count = ix.estimate_result_size(50_000);
    let true_count = exact.index().total_results() as f64;
    println!(
        "COUNT(*):   estimate {est_count:.0}   exact {true_count:.0}   err {:.2}%",
        100.0 * (est_count - true_count).abs() / true_count
    );

    // (2) AVG(amount) — attribute order: order, cust, amount, region.
    let avg_est: f64 =
        rj.samples().iter().map(|s| s[2] as f64).sum::<f64>() / rj.samples().len() as f64;
    let avg_true: f64 =
        exact.samples().iter().map(|s| s[2] as f64).sum::<f64>() / exact.samples().len() as f64;
    println!(
        "AVG(amount): estimate {avg_est:.2}   exact {avg_true:.2}   err {:.2}%",
        100.0 * (avg_est - avg_true).abs() / avg_true
    );

    // (3) GROUP BY region shares.
    let share = |samples: Rows<'_>, region: u64| -> f64 {
        samples.iter().filter(|s| s[3] == region).count() as f64 / samples.len() as f64
    };
    println!("\nregion shares (estimate vs exact):");
    for region in 0..3u64 {
        println!(
            "  region {region}: {:.3} vs {:.3}",
            share(rj.samples(), region),
            share(exact.samples(), region)
        );
    }
    println!(
        "\nall from {k} samples of a {true_count:.0}-row join, maintained \
         in one streaming pass."
    );
    assert!((est_count - true_count).abs() / true_count < 0.05);
    assert!((avg_est - avg_true).abs() / avg_true < 0.02);
}
