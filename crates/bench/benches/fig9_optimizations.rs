//! Table "Fig. 9": effect of the optimizations on QZ over TPC-DS.
//!
//! Paper setup (sf = 10, k = 1,000,000): count executions of the
//! propagation loop (Algorithm 7 lines 9–11) and total runtime for
//! (a) no optimizations, (b) foreign-key combination, (c) foreign-key +
//! grouping. Paper numbers: 172,010,370 loops / 678.9 s → 132,175,648 /
//! 204.6 s → 597,557 / 68.0 s (~10× end-to-end).
//!
//! Expected shape here: each optimization strictly reduces both the loop
//! count and the runtime, with grouping delivering the large drop in loop
//! executions.

use rsj_bench::*;
use rsj_core::{FkReservoirJoin, JoinSampler, ReservoirJoin};
use rsj_datagen::TpcdsLite;
use rsj_index::IndexOptions;
use rsj_queries::qz;

fn main() {
    banner("Table (Fig. 9)", "optimizations on QZ over tpcds-lite");
    let tpcds = TpcdsLite::generate(scaled(2), 7);
    let w = qz(&tpcds, 2);
    let k = scaled(50_000);

    let run_plain = |grouping: bool| -> (Outcome, u64) {
        let mut rj =
            ReservoirJoin::with_options(w.query.clone(), k, 1, IndexOptions { grouping }).unwrap();
        for t in &w.preload {
            rj.process(t.relation, &t.values);
        }
        let out = timed_stream(&w, run_cap(), |rel, t| {
            rj.process(rel, t);
        });
        (out, rj.index_stats().propagation_loops)
    };
    let run_fk = |grouping: bool| -> (Outcome, u64) {
        let opts = IndexOptions { grouping };
        let mut fk = FkReservoirJoin::with_options(&w.query, &w.fks, k, 1, opts).unwrap();
        for t in &w.preload {
            fk.process(t.relation, &t.values);
        }
        let out = timed_stream(&w, run_cap(), |rel, t| fk.process(rel, t));
        (out, fk.inner().index_stats().propagation_loops)
    };

    let (t_none, l_none) = run_plain(false);
    let (t_fk, l_fk) = run_fk(false);
    let (t_both, l_both) = run_fk(true);

    println!(
        "\n{:<26} {:>14} {:>12}",
        "optimizations", "#executions", "run-time"
    );
    println!("{:<26} {:>14} {:>12}", "N/A", l_none, t_none);
    println!("{:<26} {:>14} {:>12}", "Foreign-key", l_fk, t_fk);
    println!(
        "{:<26} {:>14} {:>12}",
        "Foreign-key + Grouping", l_both, t_both
    );
    if t_none.secs().is_finite() && t_both.secs().is_finite() {
        println!(
            "\nshape check: full optimizations give {:.1}x speedup \
             (paper: ~10x) and cut propagation loops by {:.0}x (paper: ~288x)",
            t_none.secs() / t_both.secs(),
            l_none as f64 / l_both.max(1) as f64
        );
    }
}
