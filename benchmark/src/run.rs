//! The untraced closed-loop drivers: one for the boxed engines, one for
//! the durable service. Both build the system under test from generated
//! inputs, push the op stream through the public API one call at a time,
//! read the way a consumer would, check every output, and rebuild the
//! end-of-stream state from its durable form.

use crate::alloc::{self, Untracked};
use crate::check::{digest, expected_rows, mid_stream_subset, Oracle};
use crate::stats::percentile;
use crate::workloads::{checkpoint_every, Inputs, PUBLISH_EVERY, READER_PERIOD_US};
use rsjoin::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Restores timed per run (`restore_s` is their median).
pub const RESTORES: usize = 5;

/// Tally of output checks: every ingest call, read and restore is one
/// attempt; a failed check keeps its first few messages for the report.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(format!("{what}: {e}"));
            }
        }
    }

    /// Records a check that either holds or fails with `message`.
    pub fn ensure(&mut self, what: &str, holds: bool, message: &str) {
        self.record(what, holds.then_some(()).ok_or_else(|| message.to_string()));
    }

    /// Records one engine restore: it succeeded and `fresh` now returns
    /// exactly the samples the original did.
    pub fn restored(
        &mut self,
        what: &str,
        outcome: Result<(), rsjoin::common::CodecError>,
        fresh: &dyn JoinSampler,
        want: &[Vec<Value>],
    ) {
        match outcome {
            Err(e) => self.record(what, Err(e.to_string())),
            Ok(()) => self.ensure(what, fresh.samples() == want, "restored samples differ"),
        }
    }

    /// `n` ingest calls of which `errs` returned `Err`.
    fn record_calls(&mut self, n: usize, errs: u64) {
        self.attempted += n as u64;
        if errs > 0 {
            self.failed += errs;
            self.messages
                .push(format!("{errs} ingest calls returned Err"));
        }
    }
}

/// What one pass over the timed stream measured.
pub struct Episode {
    pub ops: usize,
    /// Timed region: ingest calls + scheduled reads + the final sync.
    pub wall_ns: u64,
    /// Ingest calls alone (what the ladder's top rung is compared with).
    pub ingest_ns: u64,
    pub ingest_p50_us: f64,
    pub ingest_p99_us: f64,
    pub reads: usize,
    pub read_p50_us: f64,
    pub heap_bytes_per_tuple: f64,
    /// Live input tuples at end of stream.
    pub live_tuples: usize,
    pub allocs_per_op: f64,
    pub digest: u64,
}

impl Episode {
    /// Ops ÷ wall of the timed region.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.wall_ns as f64 / 1e9)
    }
}

/// A system under test the episode loop can build, run and restore.
pub trait Sut: Sized {
    /// Builds the sampler stack and preloads it: everything set-up does
    /// after the inputs exist. `scratch` is this run's private directory.
    fn build(inp: &Inputs, seed: u64, scratch: &Path) -> Self;
    /// One timed pass over `inp.ops` on freshly built state.
    /// `base_live` is the live heap just before `build`.
    fn episode(&mut self, inp: &Inputs, base_live: usize, checks: &mut Checks) -> Episode;
    /// Rebuilds the end-of-stream state from its durable form
    /// [`RESTORES`] times, checking each against the original; returns
    /// the seconds each took and the durable form's size in bytes.
    fn restore(self, inp: &Inputs, seed: u64, checks: &mut Checks) -> (Vec<f64>, u64);
}

/// Applies `ops` one call at a time with one clock read per op
/// (inter-completion latency), appending to `lat`. Returns how many calls
/// reported failure. Allocator calls are counted for the duration.
pub fn timed_ingest(
    ops: &[StreamOp],
    lat: &mut Vec<u32>,
    mut apply: impl FnMut(&StreamOp) -> bool,
) -> u64 {
    assert!(
        lat.capacity() - lat.len() >= ops.len(),
        "latency buffer is preallocated"
    );
    let mut errs = 0;
    alloc::count_calls(true);
    let mut prev = Instant::now();
    for op in ops {
        errs += u64::from(!apply(op));
        let now = Instant::now();
        lat.push((now - prev).as_nanos() as u32);
        prev = now;
    }
    alloc::count_calls(false);
    errs
}

/// Bytes of every file under `dir`.
pub fn tree_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => tree_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

fn micros(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Sorts the latencies in place and fills the episode's summary.
/// `other_wall_ns` is what the timed region holds besides ingest calls:
/// the `samples()` reads on the engines (they run on the ingest thread),
/// the final sync on the service (its reader runs beside ingest).
#[allow(clippy::too_many_arguments)]
fn summarize(
    inp: &Inputs,
    lat: &mut [u32],
    reads_ns: &mut [u64],
    other_wall_ns: u64,
    allocs: u64,
    heap_bytes: usize,
    live_tuples: usize,
    digest: u64,
) -> Episode {
    let ingest_ns: u64 = lat.iter().map(|&l| u64::from(l)).sum();
    lat.sort_unstable();
    reads_ns.sort_unstable();
    Episode {
        ops: inp.ops.len(),
        wall_ns: ingest_ns + other_wall_ns,
        ingest_ns,
        ingest_p50_us: micros(u64::from(percentile(lat, 50.0))),
        ingest_p99_us: micros(u64::from(percentile(lat, 99.0))),
        reads: reads_ns.len(),
        read_p50_us: micros(percentile(reads_ns, 50.0)),
        heap_bytes_per_tuple: heap_bytes as f64 / live_tuples.max(1) as f64,
        live_tuples,
        allocs_per_op: allocs as f64 / inp.ops.len() as f64,
        digest,
    }
}

// ---------------------------------------------------------------------
// Boxed engines
// ---------------------------------------------------------------------

pub struct EngineSut {
    sampler: Box<dyn JoinSampler + Send>,
}

/// Builds the workload's boxed engine and preloads it.
pub fn build_engine(inp: &Inputs, seed: u64) -> Box<dyn JoinSampler + Send> {
    let mut s = inp
        .engine
        .build(&inp.query, inp.k, seed, &inp.opts)
        .expect("the workload's engine supports its query");
    for op in &inp.preload {
        s.process_op(op).expect("preload is insert-only");
    }
    s
}

impl Sut for EngineSut {
    fn build(inp: &Inputs, seed: u64, _scratch: &Path) -> EngineSut {
        EngineSut {
            sampler: build_engine(inp, seed),
        }
    }

    fn episode(&mut self, inp: &Inputs, base_live: usize, checks: &mut Checks) -> Episode {
        let n = inp.ops.len();
        let mut lat = Untracked::new(|| Vec::with_capacity(n));
        let mut reads_ns = Untracked::new(Vec::new);
        // (ops ingested, rows read): checked after the timed region, so
        // that only a bounded copy happens between two timed chunks.
        let mut kept: Untracked<Vec<(usize, Vec<Vec<Value>>)>> = Untracked::new(Vec::new);
        let calls_before = alloc::calls();
        let mut errs = 0;
        let s = &mut self.sampler;
        for (c, chunk) in inp.ops.chunks(inp.read_every).enumerate() {
            errs += timed_ingest(chunk, &mut lat, |op| s.process_op(op).is_ok());
            let done = c * inp.read_every + chunk.len();
            alloc::count_calls(true);
            let t = Instant::now();
            let rows = s.samples();
            let read_ns = t.elapsed().as_nanos() as u64;
            alloc::count_calls(false);
            reads_ns.with(|r| r.push(read_ns));
            kept.with(|k| {
                let subset = if done == n {
                    rows.clone()
                } else {
                    mid_stream_subset(&rows)
                };
                k.push((done, subset));
            });
        }
        checks.record_calls(n, errs);
        let allocs = alloc::calls() - calls_before;
        let heap_bytes = alloc::live_bytes().saturating_sub(base_live);

        let mut oracle = Untracked::new(|| Oracle::new(&inp.query, &inp.preload));
        for (done, rows) in kept.iter() {
            let outcome = oracle.with(|o| {
                o.advance(&inp.ops, *done);
                let expect = (*done == n).then(|| expected_rows(inp.k, o.exact_count()));
                o.check(s.output_query(), rows, inp.k, expect)
            });
            checks.record("read", outcome);
        }
        let read_total = reads_ns.iter().sum();
        let final_rows = kept
            .last()
            .map(|(_, rows)| rows.as_slice())
            .unwrap_or_default();
        let d = digest(&[final_rows]);
        summarize(
            inp,
            &mut lat,
            &mut reads_ns,
            read_total,
            allocs,
            heap_bytes,
            oracle.live_tuples(),
            d,
        )
    }

    fn restore(self, inp: &Inputs, seed: u64, checks: &mut Checks) -> (Vec<f64>, u64) {
        let bytes = self
            .sampler
            .snapshot_state()
            .expect("the RSJoin family snapshots");
        let want = self.sampler.samples();
        let secs = (0..RESTORES)
            .map(|_| {
                let t = Instant::now();
                let mut fresh = inp
                    .engine
                    .build(&inp.query, inp.k, seed, &inp.opts)
                    .expect("built once already");
                let restored = fresh.restore_state(&bytes);
                let secs = t.elapsed().as_secs_f64();
                checks.restored("restore", restored, &*fresh, &want);
                secs
            })
            .collect();
        (secs, bytes.len() as u64)
    }
}

// ---------------------------------------------------------------------
// Durable service
// ---------------------------------------------------------------------

pub struct ServiceSut {
    service: PersistentService,
    handles: Vec<QueryHandle>,
    dir: PathBuf,
}

/// A fresh service (no registrations) over the workload's query with the
/// benchmark's publish cadence.
pub fn new_service(inp: &Inputs) -> SamplerService {
    SamplerService::with_opts(
        inp.query.clone(),
        ServiceOpts {
            publish_every: PUBLISH_EVERY,
        },
    )
}

/// Registers the workload's members over one shared index (seeds offset
/// by member index).
pub fn register_members(svc: &mut SamplerService, inp: &Inputs, seed: u64) -> Vec<QueryHandle> {
    let handles: Vec<QueryHandle> = (0..inp.members)
        .map(|i| {
            svc.register(
                &inp.query,
                &QueryOpts::new(inp.k, seed.wrapping_add(i as u64)),
            )
            .expect("the workload's query is acyclic")
        })
        .collect();
    assert_eq!(svc.num_groups(), 1, "members share one index group");
    handles
}

/// Opens the durable wrapper at `dir` (no boxed members to rebuild).
pub fn open_durable(inp: &Inputs, dir: &Path, checkpoint_every: u64) -> PersistentService {
    PersistentService::open(
        new_service(inp),
        dir,
        CheckpointPolicy::EveryOps(checkpoint_every),
        &mut |_: &str, _: usize| None,
    )
    .expect("scratch directory is writable")
}

/// A fresh durable service at an emptied `dir`: registered, preloaded and
/// checkpointed, so the registrations are durable before the first op.
pub fn build_durable(
    inp: &Inputs,
    seed: u64,
    dir: &Path,
    checkpoint_every: u64,
) -> (PersistentService, Vec<QueryHandle>) {
    let _ = std::fs::remove_dir_all(dir);
    let mut service = open_durable(inp, dir, checkpoint_every);
    let handles = register_members(service.service_mut(), inp, seed);
    for op in &inp.preload {
        service.process_op(op).expect("preload is valid");
    }
    service.checkpoint().expect("checkpoint to scratch");
    (service, handles)
}

/// What the reader thread saw.
#[derive(Default)]
pub struct ReaderLog {
    pub snapshot_ns: Vec<u64>,
    /// One snapshot per distinct epoch, for checking after the join.
    pub kept: Vec<SampleSnapshot>,
    /// First attempts (`try_snapshot`) that met a publish in flight.
    pub retries: u64,
    /// Ingest progress minus the snapshot's LSN (traced runs only).
    pub staleness_ops: Vec<u64>,
}

/// The consumer: one snapshot per [`READER_PERIOD_US`] until `stop`.
/// `progress` is the harness-side count of ops handed to ingest.
///
/// Between snapshots the thread spins instead of sleeping. A sleeping
/// reader runs 5 % of the time, so the scheduler leaves it wherever it
/// was spawned — on the ingest thread's CPU in some runs (snapshots hit a
/// warm cache, ingest loses the CPU every period) and on the other CPU in
/// others, which made every service metric bimodal between runs. A busy
/// reader is always balanced onto its own CPU (threads = `nproc` = 2).
pub fn reader_loop(
    reader: &SampleReader,
    stop: &AtomicBool,
    progress: Option<&AtomicU64>,
) -> Untracked<ReaderLog> {
    let mut log = Untracked::new(ReaderLog::default);
    let mut last_epoch = u64::MAX;
    let mut due = Instant::now();
    loop {
        let t = Instant::now();
        let first = reader.try_snapshot();
        let retried = first.is_none();
        let snap = first.unwrap_or_else(|| reader.snapshot());
        let ns = t.elapsed().as_nanos() as u64;
        let behind = progress.map(|p| p.load(Ordering::Relaxed).saturating_sub(snap.lsn));
        log.with(|l| {
            l.snapshot_ns.push(ns);
            l.retries += u64::from(retried);
            l.staleness_ops.extend(behind);
            if snap.epoch != last_epoch {
                l.kept.push(snap.clone());
            }
        });
        last_epoch = snap.epoch;
        drop(snap);
        due = (due + Duration::from_micros(READER_PERIOD_US)).max(Instant::now());
        // Relaxed: `stop` and `progress` publish no other data.
        while Instant::now() < due && !stop.load(Ordering::Relaxed) {
            std::hint::spin_loop();
        }
        if stop.load(Ordering::Relaxed) {
            return log;
        }
    }
}

/// Checks every kept snapshot against the oracle state at its own LSN.
pub fn check_snapshots(inp: &Inputs, kept: &[SampleSnapshot], checks: &mut Checks) {
    let mut oracle = Untracked::new(|| Oracle::new(&inp.query, &inp.preload));
    for snap in kept {
        let outcome = oracle.with(|o| {
            let at = (snap.lsn as usize).saturating_sub(inp.preload.len());
            if at > inp.ops.len() {
                return Err(format!("snapshot lsn {} beyond the stream", snap.lsn));
            }
            o.advance(&inp.ops, at);
            let expect = expected_rows(inp.k, snap.population);
            o.check(&inp.query, &snap.samples, inp.k, Some(expect))
        });
        checks.record("reader snapshot", outcome);
    }
}

fn member_samples(svc: &SamplerService, handles: &[QueryHandle]) -> Vec<Vec<Vec<Value>>> {
    handles
        .iter()
        .map(|&h| svc.samples(h).expect("registered handle"))
        .collect()
}

impl Sut for ServiceSut {
    fn build(inp: &Inputs, seed: u64, scratch: &Path) -> ServiceSut {
        let dir = scratch.join("durable");
        let (service, handles) = build_durable(inp, seed, &dir, checkpoint_every(inp.ops.len()));
        ServiceSut {
            service,
            handles,
            dir,
        }
    }

    fn episode(&mut self, inp: &Inputs, base_live: usize, checks: &mut Checks) -> Episode {
        let n = inp.ops.len();
        let mut lat = Untracked::new(|| Vec::with_capacity(n));
        let reader = self
            .service
            .service()
            .reader(self.handles[0])
            .expect("registered handle");
        let stop = AtomicBool::new(false);
        let calls_before = alloc::calls();
        let service = &mut self.service;
        let (errs, sync_ns, synced, mut log) = std::thread::scope(|scope| {
            let consumer = scope.spawn(|| reader_loop(&reader, &stop, None));
            let errs = timed_ingest(&inp.ops, &mut lat, |op| service.process_op(op).is_ok());
            alloc::count_calls(true);
            let t = Instant::now();
            let synced = service.sync();
            let sync_ns = t.elapsed().as_nanos() as u64;
            alloc::count_calls(false);
            stop.store(true, Ordering::Relaxed);
            let log = consumer.join().expect("reader thread panicked");
            (errs, sync_ns, synced, log)
        });
        checks.record_calls(n, errs);
        checks.record("sync", synced.map_err(|e| e.to_string()));
        let allocs = alloc::calls() - calls_before;
        // Heap is read only now that the reader thread is joined.
        let heap_bytes = alloc::live_bytes().saturating_sub(base_live);

        check_snapshots(inp, &log.kept, checks);
        // End of stream: every member against the full oracle.
        let svc = self.service.service();
        let finals = Untracked::new(|| member_samples(svc, &self.handles));
        let mut oracle = Untracked::new(|| Oracle::new(&inp.query, &inp.preload));
        for (&h, rows) in self.handles.iter().zip(finals.iter()) {
            let outcome = oracle.with(|o| {
                o.advance(&inp.ops, n);
                let count = svc.exact_count(h).map_err(|e| e.to_string())?;
                if count != o.exact_count() {
                    return Err(format!("exact_count {count} disagrees with the oracle"));
                }
                o.check(&inp.query, rows, inp.k, Some(expected_rows(inp.k, count)))
            });
            checks.record("member samples", outcome);
        }
        let d = digest(&finals);
        summarize(
            inp,
            &mut lat,
            &mut log.snapshot_ns,
            sync_ns,
            allocs,
            heap_bytes,
            oracle.live_tuples(),
            d,
        )
    }

    fn restore(self, inp: &Inputs, _seed: u64, checks: &mut Checks) -> (Vec<f64>, u64) {
        let want = member_samples(self.service.service(), &self.handles);
        let ServiceSut {
            service,
            handles,
            dir,
        } = self;
        // Dropping the wrapper flushes the log: the directory now holds
        // the last checkpoint and the WAL suffix, all a restore reads.
        drop(service);
        let durable_bytes = tree_bytes(&dir);
        let secs = (0..RESTORES)
            .map(|_| {
                let t = Instant::now();
                let reopened = open_durable(inp, &dir, checkpoint_every(inp.ops.len()));
                let secs = t.elapsed().as_secs_f64();
                let svc = reopened.service();
                let same = svc.handles() == handles && member_samples(svc, &handles) == want;
                checks.ensure("restore", same, "reopened service differs");
                secs
            })
            .collect();
        (secs, durable_bytes)
    }
}
