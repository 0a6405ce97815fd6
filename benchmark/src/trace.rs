//! The traced run: a layer **ladder** plus direct probes.
//!
//! The workload's exact op stream is replayed from fresh state through
//! successively taller stacks — storage, index, boxed engine, service,
//! durable service — each timed from here, around the layer's public entry
//! point, one [`Span`] per rung. A layer's self time is its rung minus the
//! rung it stands on. Every rung goes through the same loop as the
//! untraced run (one clock read per op), so that cost cancels in every
//! self time except the bottom rung's. Direct probes then time side calls
//! (retrieve, full-sample draws, reads, snapshots, publishes, checkpoints,
//! hashing, …) on each rung's end-of-stream state with seeded inputs.
//!
//! All five rungs and every probe run on every workload. A workload's
//! *chain* is the rungs under what its untraced run drives (the engine on
//! the three engine workloads, the durable service on the service one).
//! The rungs outside the chain are side readings: on the engine workloads
//! the two service rungs replay only the first [`SIDE_OPS`] ops (a publish
//! point costs an `O(N)` exact count, so the whole stream would take
//! minutes), and their self time is taken against the same prefix of the
//! rung they stand on.

use crate::alloc::Untracked;
use crate::run::{
    build_durable, build_engine, new_service, reader_loop, register_members, timed_ingest,
    tree_bytes, Checks, ReaderLog, Sut,
};
use crate::stats::{median, percentile, self_ns, Span};
use crate::workloads::{self, Inputs};
use crate::{metric, Args, Metric, Scratch};
use rsjoin::common::hash::fx_hash_columns;
use rsjoin::common::{EpochCell, Key, KeyMap};
use rsjoin::prelude::*;
use rsjoin::storage::SharedStore;
use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Seeded positions / draws per direct probe.
const PROBE_CALLS: usize = 10_000;
/// Repetitions of the slower end-state probes (median reported).
const PROBE_REPS: usize = 5;
/// Deletes timed after the service rung when the stream itself has none.
const TAIL_DELETES: usize = 128;
/// Ops the off-chain service rungs replay on the engine workloads.
const SIDE_OPS: usize = 16_384;

// Rung order; `Span::below` indexes into it.
const STORAGE: usize = 0;
const INDEX: usize = 1;
const ENGINE: usize = 2;
const SERVICE: usize = 3;
const PERSIST: usize = 4;

/// One ladder pass: its spans and every raw reading taken on the way.
struct Pass {
    spans: Vec<Span>,
    readings: Vec<Metric>,
}

struct Ladder<'a> {
    inp: &'a Inputs,
    /// What the two service rungs replay: the whole stream where the
    /// service is the workload, its first [`SIDE_OPS`] ops elsewhere.
    service_ops: &'a [StreamOp],
    seed: u64,
    scratch: &'a Path,
    origin: Instant,
    lat: Untracked<Vec<u32>>,
    spans: Vec<Span>,
    /// Per rung: nanoseconds its first `service_ops.len()` ops took.
    prefix_ns: Vec<u64>,
    readings: Vec<Metric>,
}

fn ns_since(origin: Instant) -> u64 {
    origin.elapsed().as_nanos() as u64
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn us(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e6
}

/// The storage layer alone: the query's relations with the preload in.
fn preloaded_database(inp: &Inputs) -> Database {
    let mut db = Database::new();
    for r in inp.query.relations() {
        db.add_relation(r.name.clone(), r.attrs.len());
    }
    for op in &inp.preload {
        store(&mut db, op);
    }
    db
}

/// Applies one op to the stored relation. Set semantics: a duplicate
/// insert or an absent delete is `None` and still a successful call.
fn store(db: &mut Database, op: &StreamOp) -> Option<TupleId> {
    let t = op.tuple();
    let rel = db.relation_mut(t.relation);
    match op {
        StreamOp::Insert(_) => rel.insert(&t.values),
        StreamOp::Delete(_) => rel.remove(&t.values),
    }
}

/// Live input tuples after the preload and `ops`.
fn live_tuples(inp: &Inputs, ops: &[StreamOp]) -> usize {
    let mut db = preloaded_database(inp);
    for op in ops {
        store(&mut db, op);
    }
    db.total_tuples()
}

impl Ladder<'_> {
    fn read(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.readings.push(metric(name, value, unit));
    }

    fn per_op(&self, ns: f64) -> f64 {
        ns / self.inp.ops.len() as f64
    }

    /// Replays `ops` (the stream or a prefix of it) through `apply` as one
    /// rung standing on `below`.
    fn rung(
        &mut self,
        name: &'static str,
        below: Option<usize>,
        ops: &[StreamOp],
        checks: &mut Checks,
        apply: impl FnMut(&StreamOp) -> bool,
    ) {
        self.lat.clear();
        let start_ns = ns_since(self.origin);
        let errs = timed_ingest(ops, &mut self.lat, apply);
        let end_ns = ns_since(self.origin);
        let prefix = self.service_ops.len();
        self.prefix_ns.push(if prefix >= ops.len() {
            end_ns - start_ns
        } else {
            self.lat[..prefix].iter().map(|&l| u64::from(l)).sum()
        });
        checks.ensure(name, errs == 0, &format!("{errs} calls failed"));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            below,
        });
    }

    fn rung_ns_per_op(&self, rung: usize) -> f64 {
        self.per_op(self.spans[rung].duration_ns() as f64)
    }

    fn self_ns_per_op(&self, rung: usize) -> f64 {
        self.per_op(self_ns(&self.spans, rung) as f64)
    }

    /// The same two for the service rungs, over the ops they replayed.
    fn service_ns_per_op(&self, rung: usize) -> f64 {
        self.spans[rung].duration_ns() as f64 / self.service_ops.len() as f64
    }

    fn service_self_ns_per_op(&self, rung: usize) -> f64 {
        let below = self.spans[rung].below.expect("service rungs stand on one");
        (self.spans[rung].duration_ns() as f64 - self.prefix_ns[below] as f64)
            / self.service_ops.len() as f64
    }

    // -- rung 0: storage -------------------------------------------------

    fn storage(&mut self, checks: &mut Checks) {
        let inp = self.inp;
        let mut db = preloaded_database(inp);
        self.rung("storage.relation", None, &inp.ops, checks, |op| {
            black_box(store(&mut db, op));
            true
        });
        self.read(
            "storage.relation.ns_per_op",
            self.rung_ns_per_op(STORAGE),
            "ns",
        );
    }

    // -- rung 1: dynamic index -------------------------------------------

    fn index(&mut self, checks: &mut Checks) {
        let inp = self.inp;
        // The same plan and options the engine rung's RSJoin core starts
        // from.
        let plan = Plan::canonical(&inp.query).expect("workload queries are acyclic");
        let mut idx = DynamicIndex::with_tree(inp.query.clone(), &plan.tree, inp.opts.index)
            .expect("the canonical tree is a join tree");
        for op in &inp.preload {
            idx.insert(op.tuple().relation, &op.tuple().values);
        }
        let before = idx.stats();
        self.rung("index.dynamic", Some(STORAGE), &inp.ops, checks, |op| {
            let t = op.tuple();
            black_box(match op {
                StreamOp::Insert(_) => idx.insert(t.relation, &t.values),
                StreamOp::Delete(_) => idx.delete(t.relation, &t.values),
            });
            true
        });
        let after = idx.stats();
        self.read("index.dynamic.ns_per_op", self.rung_ns_per_op(INDEX), "ns");
        self.read(
            "index.dynamic.self_ns_per_op",
            self.self_ns_per_op(INDEX),
            "ns",
        );
        self.read(
            "index.dynamic.propagation_loops_per_op",
            self.per_op((after.propagation_loops - before.propagation_loops) as f64),
            "count",
        );
        self.read(
            "index.dynamic.tilde_changes_per_op",
            self.per_op((after.tilde_changes - before.tilde_changes) as f64),
            "count",
        );

        // Positional retrieve at seeded positions of seeded live tuples'
        // delta batches.
        let mut rng = RsjRng::seed_from_u64(self.seed ^ 3);
        let db = idx.database();
        let mut targets = Vec::with_capacity(PROBE_CALLS);
        for _ in 0..50 * PROBE_CALLS {
            if targets.len() == PROBE_CALLS {
                break;
            }
            let rel = rng.index(db.len());
            let slots = db.relation(rel).num_slots();
            if slots == 0 {
                continue;
            }
            let tid = rng.index(slots) as TupleId;
            if !db.relation(rel).is_live(tid) {
                continue;
            }
            let size = idx.delta_batch(rel, tid).size();
            if size > 0 {
                targets.push((rel, tid, rng.below_u128(size)));
            }
        }
        let t = Instant::now();
        for &(rel, tid, z) in &targets {
            black_box(idx.delta_batch(rel, tid).retrieve(z));
        }
        self.read(
            "index.retrieve.ns_per_call",
            t.elapsed().as_nanos() as f64 / targets.len().max(1) as f64,
            "ns",
        );

        // Full-result sampling: the draw the delete repair backfills with.
        let sampler = FullSampler::default();
        let t = Instant::now();
        for _ in 0..PROBE_CALLS {
            black_box(sampler.sample(&idx, &mut rng));
        }
        self.read(
            "index.sampler.ns_per_sample",
            t.elapsed().as_nanos() as f64 / PROBE_CALLS as f64,
            "ns",
        );
        let hits = (0..PROBE_CALLS)
            .filter(|_| sampler.try_sample(&idx, &mut rng).is_some())
            .count();
        self.read(
            "index.sampler.accept_ratio",
            hits as f64 / PROBE_CALLS as f64,
            "ratio",
        );
    }

    // -- rung 2: boxed engine --------------------------------------------

    fn engine(&mut self, checks: &mut Checks) {
        let inp = self.inp;
        let live_tuples = live_tuples(inp, &inp.ops);
        let builds: Vec<f64> = (0..PROBE_REPS)
            .map(|_| {
                let t = Instant::now();
                black_box(
                    inp.engine
                        .build(&inp.query, inp.k, self.seed, &inp.opts)
                        .is_ok(),
                );
                us(t)
            })
            .collect();
        self.read("query.plan.build_us", median(&builds), "us");

        let mut s = build_engine(inp, self.seed);
        // On `qz_fk_insert` the engine indexes the foreign-key rewrite,
        // not the query the index rung ran: it stands on storage there.
        let below = if inp.engine == Engine::FkReservoir {
            STORAGE
        } else {
            INDEX
        };
        self.rung("core.engine", Some(below), &inp.ops, checks, |op| {
            s.process_op(op).is_ok()
        });
        self.read("core.engine.ns_per_op", self.rung_ns_per_op(ENGINE), "ns");
        self.read(
            "core.engine.self_ns_per_op",
            self.self_ns_per_op(ENGINE),
            "ns",
        );
        let stops = s.stats().reservoir_stops.unwrap_or(0);
        self.read(
            "stream.reservoir.stops_per_op",
            self.per_op(stops as f64),
            "count",
        );

        let reads: Vec<f64> = (0..2 * PROBE_REPS)
            .map(|_| {
                let t = Instant::now();
                black_box(s.samples());
                us(t)
            })
            .collect();
        self.read("core.engine.read_samples_us", median(&reads), "us");

        let t = Instant::now();
        let bytes = s.snapshot_state().expect("the RSJoin family snapshots");
        self.read("core.engine.snapshot_ms", ms(t), "ms");
        self.read(
            "core.engine.snapshot_bytes_per_tuple",
            bytes.len() as f64 / live_tuples.max(1) as f64,
            "B",
        );
        let mut fresh = inp
            .engine
            .build(&inp.query, inp.k, self.seed, &inp.opts)
            .expect("built above");
        let t = Instant::now();
        let restored = fresh.restore_state(&bytes);
        self.read("core.engine.restore_ms", ms(t), "ms");
        checks.restored("core.engine restore", restored, &*fresh, &s.samples());
    }

    // -- rungs 3 and 4: service, durable service ---------------------------

    /// Runs `ingest` beside a reader thread on `reader`, as the untraced
    /// service run does; `progress` is the harness-side op counter the
    /// reader measures staleness against.
    fn beside_reader(
        reader: &SampleReader,
        progress: &AtomicU64,
        ingest: impl FnOnce(),
    ) -> Untracked<ReaderLog> {
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let consumer = scope.spawn(|| reader_loop(reader, &stop, Some(progress)));
            ingest();
            stop.store(true, Ordering::Relaxed);
            consumer.join().expect("reader thread panicked")
        })
    }

    fn service(&mut self, checks: &mut Checks) {
        let inp = self.inp;
        let mut svc = new_service(inp);
        let handles = register_members(&mut svc, inp, self.seed);
        for op in &inp.preload {
            svc.process_op(op).expect("preload is valid");
        }
        let reader = svc.reader(handles[0]).expect("registered handle");
        let progress = AtomicU64::new(0);
        let ops = self.service_ops;
        let mut log = Self::beside_reader(&reader, &progress, || {
            self.rung("core.service", Some(INDEX), ops, checks, |op| {
                // Relaxed: a statistic, publishes nothing.
                progress.fetch_add(1, Ordering::Relaxed);
                svc.process_op(op).is_ok()
            });
        });
        self.read(
            "core.service.ns_per_op",
            self.service_ns_per_op(SERVICE),
            "ns",
        );
        self.read(
            "core.service.self_ns_per_op",
            self.service_self_ns_per_op(SERVICE),
            "ns",
        );

        // Per-op-type split of the rung. A stream without deletes gets
        // its delete latencies from retracting its last inserts instead.
        let (mut inserts, mut deletes) = (Vec::new(), Vec::new());
        for (op, &ns) in ops.iter().zip(self.lat.iter()) {
            if op.is_delete() {
                &mut deletes
            } else {
                &mut inserts
            }
            .push(ns);
        }
        if deletes.is_empty() {
            for op in ops.iter().rev().take(TAIL_DELETES) {
                let retract = StreamOp::Delete(op.tuple().clone());
                let t = Instant::now();
                let ok = svc.process_op(&retract).is_ok();
                deletes.push(t.elapsed().as_nanos() as u32);
                checks.ensure("core.service tail delete", ok, "process_op returned Err");
            }
        }
        inserts.sort_unstable();
        deletes.sort_unstable();
        let p = |v: &[u32], q: f64| f64::from(percentile(v, q)) / 1e3;
        self.read("core.service.insert_p50_us", p(&inserts, 50.0), "us");
        self.read("core.service.delete_p50_us", p(&deletes, 50.0), "us");
        self.read("core.service.delete_p99_us", p(&deletes, 99.0), "us");

        let publishes: Vec<f64> = (0..PROBE_REPS)
            .map(|_| {
                let t = Instant::now();
                svc.publish();
                us(t)
            })
            .collect();
        self.read("core.service.publish_us", median(&publishes), "us");

        log.with(|l| {
            l.snapshot_ns.sort_unstable();
            l.staleness_ops.sort_unstable();
        });
        self.read(
            "core.service.reader_snapshot_ns",
            percentile(&log.snapshot_ns, 50.0) as f64,
            "ns",
        );
        self.read(
            "core.service.reader_retry_ratio",
            log.retries as f64 / log.snapshot_ns.len() as f64,
            "ratio",
        );
        self.read(
            "core.service.reader_staleness_ops_p50",
            percentile(&log.staleness_ops, 50.0) as f64,
            "ops",
        );

        // The seqlock cell alone, at the member cell's capacity.
        let words = vec![7u64; 4 + inp.k * inp.query.num_attrs()];
        let cell = EpochCell::new(words.len());
        let reps = ((1 << 22) / words.len()).clamp(8, 4096);
        let t = Instant::now();
        for _ in 0..reps {
            cell.publish(black_box(&words));
        }
        self.read(
            "common.epoch.publish_ns",
            t.elapsed().as_nanos() as f64 / reps as f64,
            "ns",
        );
        let mut out = Vec::with_capacity(words.len());
        let t = Instant::now();
        for _ in 0..reps {
            black_box(cell.read_into(&mut out));
        }
        self.read(
            "common.epoch.read_ns",
            t.elapsed().as_nanos() as f64 / reps as f64,
            "ns",
        );
    }

    fn persist(&mut self, checks: &mut Checks) {
        let inp = self.inp;
        let ops = self.service_ops;
        let live_tuples = live_tuples(inp, ops);
        let dir = self.scratch.join("ladder-durable");
        let cadence = workloads::checkpoint_every(ops.len());
        let (mut service, handles) = build_durable(inp, self.seed, &dir, cadence);
        let reader = service
            .service()
            .reader(handles[0])
            .expect("registered handle");
        let progress = AtomicU64::new(0);
        Self::beside_reader(&reader, &progress, || {
            self.rung("persist", Some(SERVICE), ops, checks, |op| {
                progress.fetch_add(1, Ordering::Relaxed);
                service.process_op(op).is_ok()
            });
        });
        self.read("persist.ns_per_op", self.service_ns_per_op(PERSIST), "ns");
        self.read(
            "persist.self_ns_per_op",
            self.service_self_ns_per_op(PERSIST),
            "ns",
        );

        let checkpoints: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                let done = service.checkpoint();
                let took = ms(t);
                checks.record("persist.checkpoint", done.map_err(|e| e.to_string()));
                took
            })
            .collect();
        self.read("persist.checkpoint_ms", median(&checkpoints), "ms");
        let file = dir.join(rsjoin::persist::CHECKPOINT_FILE);
        let bytes = std::fs::metadata(&file).map(|m| m.len()).unwrap_or(0);
        self.read(
            "persist.checkpoint_bytes_per_tuple",
            bytes as f64 / live_tuples.max(1) as f64,
            "B",
        );
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -- direct probes on the stream itself ---------------------------------

    fn stream_probes(&mut self, checks: &mut Checks) {
        let inp = self.inp;
        let n = inp.ops.len() as f64;

        // Retention: the service's history append, by move.
        let schema = inp
            .query
            .relations()
            .iter()
            .map(|r| (r.name.clone(), r.attrs.len()))
            .collect();
        let mut store = SharedStore::new(schema);
        let owned = inp.ops.clone();
        let t = Instant::now();
        for op in owned {
            black_box(store.append_owned(op).is_ok());
        }
        self.read(
            "storage.shared.append_ns_per_op",
            t.elapsed().as_nanos() as f64 / n,
            "ns",
        );
        drop(store);

        // The bare log: default options (64 KiB user-space buffer, no
        // per-op fsync), one sync at the end.
        let dir = self.scratch.join("ladder-wal");
        let _ = std::fs::remove_dir_all(&dir);
        let mut wal = Wal::open(&dir).expect("scratch directory is writable");
        let t = Instant::now();
        let errs = inp.ops.iter().filter(|op| wal.append(op).is_err()).count();
        self.read(
            "storage.wal.append_ns_per_op",
            t.elapsed().as_nanos() as f64 / n,
            "ns",
        );
        let t = Instant::now();
        let synced = wal.sync();
        self.read("storage.wal.sync_ms", ms(t), "ms");
        checks.record("storage.wal sync", synced.map_err(|e| e.to_string()));
        checks.ensure(
            "storage.wal append",
            errs == 0,
            &format!("{errs} appends failed"),
        );
        self.read("storage.wal.bytes_per_op", tree_bytes(&dir) as f64 / n, "B");
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);

        // Hashing and probing the stream's join keys: each op's tuple
        // projected onto the attributes its relation shares with another.
        let key_positions: Vec<Vec<usize>> = inp
            .query
            .relations()
            .iter()
            .map(|r| {
                (0..r.attrs.len())
                    .filter(|&p| inp.query.relations_with_attr(r.attrs[p]).len() > 1)
                    .take(rsjoin::common::value::MAX_KEY_ARITY)
                    .collect()
            })
            .collect();
        let mut keys = 0usize;
        let mut hash_ns = 0u128;
        let mut probe_ns = 0u128;
        for (rel, positions) in key_positions.iter().enumerate() {
            if positions.is_empty() {
                continue;
            }
            let flat: Vec<Value> = inp
                .ops
                .iter()
                .map(StreamOp::tuple)
                .filter(|t| t.relation == rel)
                .flat_map(|t| positions.iter().map(|&p| t.values[p]))
                .collect();
            let arity = positions.len();
            let mut hashes = Vec::with_capacity(flat.len() / arity);
            let t = Instant::now();
            fx_hash_columns(arity as u64, arity, black_box(&flat), &mut hashes);
            hash_ns += t.elapsed().as_nanos();
            keys += hashes.len();

            let mut map: KeyMap<u32> = KeyMap::default();
            for (row, &h) in flat.chunks_exact(arity).zip(&hashes) {
                map.get_or_insert_with(h, Key::from_slice(row), || 0);
            }
            let t = Instant::now();
            for (row, &h) in flat.chunks_exact(arity).zip(&hashes) {
                black_box(map.get(h, &Key::from_slice(row)));
            }
            probe_ns += t.elapsed().as_nanos();
        }
        self.read(
            "common.hash.ns_per_key",
            hash_ns as f64 / keys.max(1) as f64,
            "ns",
        );
        self.read(
            "common.keymap.probe_ns",
            probe_ns as f64 / keys.max(1) as f64,
            "ns",
        );
    }
}

fn ladder_pass(
    inp: &Inputs,
    seed: u64,
    scratch: &Path,
    origin: Instant,
    checks: &mut Checks,
) -> Pass {
    let side = if workloads::is_service(inp.name) {
        inp.ops.len()
    } else {
        SIDE_OPS
    };
    let mut ladder = Ladder {
        inp,
        service_ops: &inp.ops[..side.min(inp.ops.len())],
        seed,
        scratch,
        origin,
        lat: Untracked::new(|| Vec::with_capacity(inp.ops.len())),
        spans: Vec::new(),
        prefix_ns: Vec::new(),
        readings: Vec::new(),
    };
    ladder.storage(checks);
    ladder.index(checks);
    ladder.engine(checks);
    ladder.service(checks);
    ladder.persist(checks);
    ladder.stream_probes(checks);
    Pass {
        spans: ladder.spans,
        readings: ladder.readings,
    }
}

/// The traced run: ladder passes until `--seconds` have passed, each
/// followed by one untraced episode in the same warm process (the
/// denominator of `trace.overhead_ratio`); every per-layer metric is the
/// median over passes.
pub fn run<S: Sut>(args: &Args, checks: &mut Checks) -> Vec<Metric> {
    let scratch = Scratch::new(&args.workload);
    let inp = args.inputs();
    let top = if workloads::is_service(inp.name) {
        PERSIST
    } else {
        ENGINE
    };
    let n = inp.ops.len() as f64;

    let origin = Instant::now();
    let mut passes = Vec::new();
    let mut overheads = Vec::new();
    loop {
        let pass = ladder_pass(&inp, args.seed, scratch.path(), origin, checks);
        let base_live = crate::alloc::live_bytes();
        let mut sut = S::build(&inp, args.seed, scratch.path());
        let untraced = sut.episode(&inp, base_live, checks);
        drop(sut);
        let (traced_ns, untraced_ns) = (pass.spans[top].duration_ns(), untraced.ingest_ns);
        println!(
            "pass {} top rung {} {:.1} ns/op, untraced {:.1} ns/op",
            passes.len(),
            pass.spans[top].name,
            traced_ns as f64 / n,
            untraced_ns as f64 / n
        );
        overheads.push(traced_ns as f64 / untraced_ns as f64);
        passes.push(pass);
        if origin.elapsed().as_secs() >= args.seconds {
            break;
        }
    }

    // Spans stay in memory until here.
    for (i, pass) in passes.iter().enumerate() {
        for s in &pass.spans {
            println!(
                "span pass {i} {} start_ns {} end_ns {} below {}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.below.map_or("-", |b| pass.spans[b].name)
            );
        }
        // The chain's self times telescope to its top rung.
        let mut chain = 0i64;
        let mut rung = Some(top);
        while let Some(r) = rung {
            let own = self_ns(&pass.spans, r);
            println!(
                "self pass {i} {} raw_ns_per_op {:.1} clamped_ns_per_op {:.1}",
                pass.spans[r].name,
                own as f64 / n,
                own.max(0) as f64 / n
            );
            chain += own;
            rung = pass.spans[r].below;
        }
        assert_eq!(
            chain as u64,
            pass.spans[top].duration_ns(),
            "chain self times sum to the top rung"
        );
    }

    let mut metrics: Vec<Metric> = passes[0]
        .readings
        .iter()
        .enumerate()
        .map(|(j, first)| {
            let values: Vec<f64> = passes.iter().map(|p| p.readings[j].value).collect();
            metric(first.name, median(&values), first.unit)
        })
        .collect();
    metrics.push(metric("datagen.generate_s", inp.generate_s, "s"));
    let overhead = median(&overheads);
    if !(0.9..=1.1).contains(&overhead) {
        println!(
            "WARNING trace.overhead_ratio {overhead:.3} is outside 0.9-1.1: \
             the ladder is not trustworthy"
        );
    }
    metrics.push(metric("trace.overhead_ratio", overhead, "ratio"));
    println!(
        "workload {} seed {} passes {}",
        inp.name,
        args.seed,
        passes.len()
    );
    metrics
}
