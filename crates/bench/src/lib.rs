//! Shared harness utilities for the figure-reproduction benches.
//!
//! Every bench target prints the same rows/series its figure or table in
//! the paper reports. Absolute numbers differ from the paper's C++/Xeon
//! setup; the *shape* (who wins, by what factor, where crossovers fall) is
//! the reproduction target — see EXPERIMENTS.md.
//!
//! All harnesses honour the `RSJ_SCALE` environment variable (default `1`,
//! laptop-scale). `RSJ_SCALE=4` quadruples input sizes; per-run soft
//! timeouts stand in for the paper's 12-hour cap.
//!
//! # Machine-readable output
//!
//! When `RSJ_BENCH_JSON=<path>` is set, every figure run appends one JSON
//! line to `<path>` — `{"fig", "query", "engine", "n", "wall_ns",
//! "samples_per_s", "timed_out"?}` — so perf trajectories can be tracked
//! across commits (`BENCH_insert.json` at the repo root holds the insert
//! baselines). Runs driven through [`run_engine`] record automatically;
//! custom harnesses call [`record_json`] themselves.

use rsj_core::JoinSampler;
use rsj_queries::Workload;
pub use rsjoin::engine::workload_opts;
use rsjoin::engine::Engine;
use std::io::Write;
use std::time::{Duration, Instant};

/// Global size multiplier from `RSJ_SCALE`.
pub fn scale() -> f64 {
    std::env::var("RSJ_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1.0)
}

/// Scales an integer size.
pub fn scaled(base: usize) -> usize {
    ((base as f64) * scale()).round().max(1.0) as usize
}

/// Per-run soft timeout (the paper used 12 hours; we use seconds).
pub fn run_cap() -> Duration {
    let secs: f64 = std::env::var("RSJ_CAP_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(20.0);
    Duration::from_secs_f64(secs)
}

/// Outcome of one timed run.
#[derive(Clone, Copy, Debug)]
pub enum Outcome {
    /// Finished the whole stream in the given time.
    Finished(Duration),
    /// Hit the cap after processing `frac` of the stream.
    TimedOut { frac: f64 },
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Outcome::Finished(d) => format!("{d:.2?}"),
            Outcome::TimedOut { frac } => format!(">cap({:.0}%)", frac * 100.0),
        };
        f.pad(&s)
    }
}

impl Outcome {
    /// Seconds if finished, `f64::INFINITY` otherwise.
    pub fn secs(&self) -> f64 {
        match self {
            Outcome::Finished(d) => d.as_secs_f64(),
            Outcome::TimedOut { .. } => f64::INFINITY,
        }
    }
}

/// Drives `process` over the workload stream with the soft cap; preload is
/// applied by the caller (untimed).
pub fn timed_stream(
    w: &Workload,
    cap: Duration,
    mut process: impl FnMut(usize, &[u64]),
) -> Outcome {
    let start = Instant::now();
    let n = w.stream.len();
    for (i, t) in w.stream.iter().enumerate() {
        process(t.relation, &t.values);
        if i % 4096 == 0 && start.elapsed() > cap {
            return Outcome::TimedOut {
                frac: i as f64 / n as f64,
            };
        }
    }
    Outcome::Finished(start.elapsed())
}

/// Applies the untimed preload, then drives the timed stream through the
/// executor trait — the single driver loop every figure harness shares.
pub fn run_sampler(w: &Workload, sampler: &mut dyn JoinSampler) -> Outcome {
    for t in &w.preload {
        sampler.process(t.relation, &t.values);
    }
    timed_stream(w, run_cap(), |rel, t| sampler.process(rel, t))
}

/// Builds `engine` for the workload and runs preload + timed stream.
/// Engine-agnostic: figures sweep `Engine` values instead of calling one
/// runner per algorithm. Appends a JSON record when `RSJ_BENCH_JSON` is
/// set.
pub fn run_engine(
    w: &Workload,
    engine: &Engine,
    k: usize,
    seed: u64,
) -> (Outcome, Box<dyn JoinSampler + Send>) {
    let mut sampler = engine
        .build(&w.query, k, seed, &workload_opts(w))
        .unwrap_or_else(|e| panic!("{}: {engine}: {e}", w.name));
    let out = run_sampler(w, sampler.as_mut());
    let n = w.stream.len();
    let st = sampler.stats();
    let ops = st.inserts.map(|i| (i, st.deletes.unwrap_or(0)));
    let fault = fault_counters(&st);
    match out {
        Outcome::Finished(d) => {
            let per_s = n as f64 / d.as_secs_f64().max(f64::MIN_POSITIVE);
            record_json(
                &fig_name(),
                &w.name,
                engine.name(),
                n,
                d.as_nanos(),
                Some(per_s),
                ops,
                fault,
                false,
            );
        }
        Outcome::TimedOut { frac } => {
            let cap = run_cap();
            let per_s = (n as f64 * frac) / cap.as_secs_f64().max(f64::MIN_POSITIVE);
            record_json(
                &fig_name(),
                &w.name,
                engine.name(),
                (n as f64 * frac) as usize,
                cap.as_nanos(),
                Some(per_s),
                ops,
                fault,
                true,
            );
        }
    }
    (out, sampler)
}

/// Drives a turnstile op stream through the executor trait with the soft
/// cap — the fully-dynamic counterpart of [`run_sampler`].
pub fn run_sampler_ops(ops: &rsj_storage::OpStream, sampler: &mut dyn JoinSampler) -> Outcome {
    let start = Instant::now();
    let cap = run_cap();
    let n = ops.len();
    for (i, op) in ops.iter().enumerate() {
        sampler
            .process_op(op)
            .expect("generated ops fit the engine's schema");
        if i % 4096 == 0 && start.elapsed() > cap {
            return Outcome::TimedOut {
                frac: i as f64 / n as f64,
            };
        }
    }
    Outcome::Finished(start.elapsed())
}

/// The running figure's name: the bench binary's file stem.
pub fn fig_name() -> String {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        // cargo bench appends a `-<hash>` suffix to the binary name.
        .map(|s| match s.rfind('-') {
            Some(i) if s[i + 1..].chars().all(|c| c.is_ascii_hexdigit()) => s[..i].to_string(),
            _ => s,
        })
        .unwrap_or_else(|| "bench".to_string())
}

/// The `(retries, degraded)` pair for [`record_json`]'s `fault` field,
/// derived from an engine's stats: `Some` as soon as either durability
/// counter is reported, so durable runs are distinguishable from engines
/// that do not track them at all.
pub fn fault_counters(st: &rsj_core::SamplerStats) -> Option<(u64, u64)> {
    if st.retries.is_none() && st.degraded.is_none() {
        return None;
    }
    Some((st.retries.unwrap_or(0), st.degraded.unwrap_or(0)))
}

/// Appends one JSON line describing a figure run to the file named by
/// `RSJ_BENCH_JSON` (no-op when the variable is unset). `samples_per_s`
/// is throughput in the figure's unit of work — tuples for stream runs,
/// inserts for `fig6_update_time`, iterations for `micro`. `ops` carries
/// the engine's accepted `(inserts, deletes)` counters when the engine
/// tracks them — `n` alone conflates stream length with accepted tuples
/// on turnstile streams, so the two are recorded separately. `fault`
/// carries `(retries, degraded)` from durable runs (see
/// [`fault_counters`]), so recovery-cost figures can tell a run that
/// absorbed I/O faults from an unfaulted one.
#[allow(clippy::too_many_arguments)]
pub fn record_json(
    fig: &str,
    query: &str,
    engine: &str,
    n: usize,
    wall_ns: u128,
    samples_per_s: Option<f64>,
    ops: Option<(u64, u64)>,
    fault: Option<(u64, u64)>,
    timed_out: bool,
) {
    let Some(path) = std::env::var_os("RSJ_BENCH_JSON") else {
        return;
    };
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let mut line = format!(
        "{{\"fig\":\"{}\",\"query\":\"{}\",\"engine\":\"{}\",\"n\":{n},\"wall_ns\":{wall_ns}",
        esc(fig),
        esc(query),
        esc(engine),
    );
    if let Some(p) = samples_per_s {
        line.push_str(&format!(",\"samples_per_s\":{p:.1}"));
    }
    if let Some((ins, del)) = ops {
        line.push_str(&format!(",\"inserts\":{ins},\"deletes\":{del}"));
    }
    if let Some((retries, degraded)) = fault {
        line.push_str(&format!(",\"retries\":{retries},\"degraded\":{degraded}"));
    }
    if timed_out {
        line.push_str(",\"timed_out\":true");
    }
    line.push_str("}\n");
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
    {
        Ok(mut f) => {
            let _ = f.write_all(line.as_bytes());
        }
        Err(e) => eprintln!("RSJ_BENCH_JSON: cannot append to {path:?}: {e}"),
    }
}

/// Prints a figure banner.
pub fn banner(fig: &str, what: &str) {
    println!("\n================================================================");
    println!("{fig} — {what}");
    println!("(RSJ_SCALE={}, cap {:?}/run)", scale(), run_cap());
    println!("================================================================");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_json_emits_fault_counters() {
        let path = std::env::temp_dir().join(format!("rsj-bench-json-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        std::env::set_var("RSJ_BENCH_JSON", &path);
        record_json("figX", "q", "E", 10, 123, None, None, Some((5, 1)), false);
        record_json("figX", "q", "E", 10, 456, None, None, None, false);
        std::env::remove_var("RSJ_BENCH_JSON");
        let body = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let mut lines = body.lines();
        let faulted = lines.next().unwrap();
        assert!(
            faulted.contains("\"retries\":5") && faulted.contains("\"degraded\":1"),
            "fault counters missing: {faulted}"
        );
        let clean = lines.next().unwrap();
        assert!(
            !clean.contains("retries"),
            "unfaulted records must omit the counters: {clean}"
        );
    }

    #[test]
    fn fault_counters_distinguish_tracking_from_zero() {
        let mut st = rsj_core::SamplerStats::default();
        assert_eq!(fault_counters(&st), None);
        st.retries = Some(0);
        assert_eq!(fault_counters(&st), Some((0, 0)));
        st.retries = Some(7);
        st.degraded = Some(1);
        assert_eq!(fault_counters(&st), Some((7, 1)));
    }
}
