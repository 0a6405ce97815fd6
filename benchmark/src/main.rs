//! The repo benchmark. One invocation runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload line4_insert --seed 42 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` runs the layer
//! ladder and prints the per-layer metrics; `BENCHMARK.json` declares
//! both lists and `README.md` explains them. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod alloc;
mod check;
mod run;
mod stats;
mod trace;
mod workloads;

use run::{Checks, EngineSut, Episode, ServiceSut, Sut};
use stats::median;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::Inputs;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups timed per run (`setup_s` is their median).
const SETUPS: usize = 7;

pub struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workloads::NAMES,
            args.workload
        ));
    }
    Ok(args)
}

/// This run's private directory for WAL segments and checkpoints: beside
/// the executable (inside the cargo target directory, so inside the
/// checkout and git-ignored), keyed by pid and workload, removed on drop.
pub struct Scratch(PathBuf);

impl Scratch {
    fn new(workload: &str) -> Scratch {
        let exe = std::env::current_exe().expect("the executable has a path");
        let dir = exe
            .parent()
            .expect("the executable sits in a directory")
            .join(format!("bench-scratch-{}-{workload}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("target directory is writable");
        Scratch(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

impl Args {
    /// Generates the workload's inputs from the seed.
    pub fn inputs(&self) -> Inputs {
        let div = if self.smoke {
            workloads::SMOKE_DIVISOR
        } else {
            1
        };
        workloads::generate(&self.workload, self.seed, div).expect("name was validated")
    }
}

/// Generates the inputs and builds the system under test, as set-up does;
/// returns the live heap just before the build as well.
fn set_up<S: Sut>(args: &Args, scratch: &Path) -> (Inputs, usize, S) {
    let inp = args.inputs();
    let base_live = alloc::live_bytes();
    let sut = S::build(&inp, args.seed, scratch);
    (inp, base_live, sut)
}

/// The untraced run: set-up [`SETUPS`] times, then timed episodes on
/// freshly built state until `--seconds` have passed, then the restores.
/// Every episode replays the same stream, so each end-to-end metric is
/// the median over episodes and nothing inside an episode is discarded.
fn run_untraced<S: Sut>(args: &Args, checks: &mut Checks) -> Vec<Metric> {
    let scratch = Scratch::new(&args.workload);
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let t = Instant::now();
        built = Some(set_up::<S>(args, scratch.path()));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (inp, mut base_live, mut sut) = built.expect("SETUPS > 0");

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut episodes: Vec<Episode> = Vec::new();
    loop {
        episodes.push(sut.episode(&inp, base_live, checks));
        if Instant::now() >= deadline {
            break;
        }
        drop(sut);
        base_live = alloc::live_bytes();
        sut = S::build(&inp, args.seed, scratch.path());
    }
    let peak_heap = alloc::peak_bytes();
    let (restore_s, durable_bytes) = sut.restore(&inp, args.seed, checks);

    let digest = episodes[0].digest;
    checks.ensure(
        "samples_digest",
        episodes.iter().all(|e| e.digest == digest),
        "episodes of one seed ended in different samples",
    );
    for (i, e) in episodes.iter().enumerate() {
        println!(
            "episode {i}: {:.0} ops/s, ingest p50 {:.3} us p99 {:.3} us, read p50 {:.3} us",
            e.ops_per_s(),
            e.ingest_p50_us,
            e.ingest_p99_us,
            e.read_p50_us
        );
    }
    let over = |f: fn(&Episode) -> f64| median(&episodes.iter().map(f).collect::<Vec<_>>());
    let e = &episodes[0];
    println!(
        "workload {} seed {} episodes {} ops/episode {} ingest-latency samples/episode {} \
         reads/episode {} threads {} samples_digest {digest:016x}",
        inp.name,
        args.seed,
        episodes.len(),
        e.ops,
        e.ops,
        e.reads,
        if workloads::is_service(inp.name) {
            2
        } else {
            1
        },
    );
    vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("ingest_ops_per_s", over(Episode::ops_per_s), "1/s"),
        metric("ingest_p50_us", over(|e| e.ingest_p50_us), "us"),
        metric("ingest_p99_us", over(|e| e.ingest_p99_us), "us"),
        metric("read_p50_us", over(|e| e.read_p50_us), "us"),
        metric("restore_s", median(&restore_s), "s"),
        metric(
            "durable_bytes_per_tuple",
            durable_bytes as f64 / e.live_tuples.max(1) as f64,
            "B",
        ),
        metric(
            "heap_bytes_per_tuple",
            over(|e| e.heap_bytes_per_tuple),
            "B",
        ),
        metric("peak_heap_mb", peak_heap as f64 / 1e6, "MB"),
        metric("allocs_per_op", over(|e| e.allocs_per_op), "count"),
    ]
}

fn report(checks: &Checks, metrics: &[Metric]) {
    for m in metrics {
        println!("{:<44} {:>18.4} {}", m.name, m.value, m.unit);
    }
    for message in &checks.messages {
        println!("FAILED CHECK {message}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} is not a finite number", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let mut checks = Checks::default();
    let service = workloads::is_service(&args.workload);
    let metrics = match (args.trace, service) {
        (false, false) => run_untraced::<EngineSut>(&args, &mut checks),
        (false, true) => run_untraced::<ServiceSut>(&args, &mut checks),
        (true, false) => trace::run::<EngineSut>(&args, &mut checks),
        (true, true) => trace::run::<ServiceSut>(&args, &mut checks),
    };
    report(&checks, &metrics);
    if checks.failed > 0 {
        std::process::exit(1);
    }
}
