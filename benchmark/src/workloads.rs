//! The four named workloads: what each one feeds the library and how the
//! untraced driver runs it. `README.md` records why each exists.

use rsjoin::datagen::turnstile::VictimPolicy;
use rsjoin::datagen::{GraphConfig, TpcdsLite, TurnstileConfig};
use rsjoin::engine::{workload_opts, Engine, EngineOpts};
use rsjoin::prelude::*;
use rsjoin::queries::{line_k, qz, star_k, Workload};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = [
    "line4_insert",
    "qz_fk_insert",
    "svc_churn_durable",
    "star4_bigk_reads",
];

/// `--smoke` divides every input size by this.
pub const SMOKE_DIVISOR: usize = 20;

/// Registrations on the service workload (one shared index group).
const SERVICE_MEMBERS: usize = 8;
/// Service publish cadence, in ops.
pub const PUBLISH_EVERY: u64 = 1024;
/// The service reader thread takes one snapshot per this many microseconds.
pub const READER_PERIOD_US: u64 = 200;

/// One workload's generated inputs and how the drivers run it. The
/// library only ever sees `query`, `opts`, `preload` and `ops`.
pub struct Inputs {
    pub name: &'static str,
    pub query: Query,
    /// Engine options (the FK schema on `qz_fk_insert`, defaults elsewhere).
    pub opts: EngineOpts,
    /// Rows loaded during set-up, before the first timed op.
    pub preload: Vec<StreamOp>,
    /// The timed op stream.
    pub ops: Vec<StreamOp>,
    /// Reservoir capacity per query.
    pub k: usize,
    /// The boxed engine: what the untraced run drives on the engine
    /// workloads, and the ladder's engine rung everywhere (on the service
    /// workload: one member's query, standalone).
    pub engine: Engine,
    /// Engine workloads call `samples()` on the ingest thread every this
    /// many ops; the service workload reads from its own thread instead.
    pub read_every: usize,
    /// Registrations sharing the service's one index group: eight on the
    /// service workload, one on the ladder's service rungs elsewhere.
    pub members: usize,
    /// Seconds the generator calls took (`datagen.generate_s`).
    pub generate_s: f64,
}

/// `CheckpointPolicy::EveryOps` of a durable wrapper about to ingest
/// `ops` ops: every two sevenths of the stream, so three checkpoints land
/// inside it and the last seventh is the WAL suffix a restore replays.
pub fn checkpoint_every(ops: usize) -> u64 {
    (ops as u64 * 2 / 7).max(1)
}

/// Whether `name` is driven through the durable service (two threads)
/// rather than a boxed engine (one).
pub fn is_service(name: &str) -> bool {
    name == "svc_churn_durable"
}

fn graph(nodes: usize, edges: usize, div: usize, seed: u64) -> Vec<(Value, Value)> {
    GraphConfig {
        nodes: nodes / div,
        edges: edges / div,
        zipf: 1.0,
        seed,
    }
    .generate()
}

fn insert_ops(tuples: &[InputTuple]) -> Vec<StreamOp> {
    tuples.iter().cloned().map(StreamOp::Insert).collect()
}

/// Generates `name`'s inputs from `seed`; `div` divides every size
/// (1 = full, [`SMOKE_DIVISOR`] = smoke).
pub fn generate(name: &str, seed: u64, div: usize) -> Option<Inputs> {
    let start = std::time::Instant::now();
    let (w, k, engine, read_every): (Workload, usize, Engine, usize) = match name {
        "line4_insert" => (
            line_k(4, &graph(20_000, 100_000, div, seed), seed ^ 1),
            1_000 / div,
            Engine::Reservoir,
            8192,
        ),
        "qz_fk_insert" => (
            qz(&TpcdsLite::generate(100 / div, seed), seed ^ 1),
            50_000 / div,
            Engine::FkReservoir,
            16384,
        ),
        "svc_churn_durable" => (
            line_k(3, &graph(1_000, 5_000, div, seed), seed ^ 1),
            256,
            Engine::Reservoir,
            usize::MAX,
        ),
        "star4_bigk_reads" => {
            let w = star_k(4, &graph(1_500, 7_500, div, seed), seed ^ 1);
            // Four times the stream: the paper's `k > N` regime (Fig. 8).
            let k = 4 * w.stream.len();
            (w, k, Engine::Reservoir, 2048)
        }
        _ => return None,
    };
    let ops = if is_service(name) {
        TurnstileConfig {
            delete_ratio: 0.2,
            policy: VictimPolicy::Uniform,
            seed: seed ^ 2,
        }
        .weave(&w.stream)
        .ops()
        .to_vec()
    } else {
        insert_ops(w.stream.tuples())
    };
    let generate_s = start.elapsed().as_secs_f64();
    let name = NAMES.iter().find(|n| **n == name).expect("matched above");
    Some(Inputs {
        name,
        opts: workload_opts(&w),
        preload: insert_ops(&w.preload),
        query: w.query,
        members: if is_service(name) { SERVICE_MEMBERS } else { 1 },
        ops,
        k,
        engine,
        read_every,
        generate_s,
    })
}
