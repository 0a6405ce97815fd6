#![warn(missing_docs)]

//! Shared statistical test harness for the engine matrix.
//!
//! The integration suites (`tests/uniformity.rs`, `tests/deletions.rs`,
//! the planner conformance tests) all need the same machinery: run an
//! engine many times over a fixed instance, count per-result inclusion
//! frequencies, compare against the uniform distribution with a chi-square
//! test, and brute-force the true result set to validate support. This
//! crate is that machinery, written once — together with the fixtures the
//! suites share: the `line3`/`two_table` queries, the turnstile stream
//! generator, the FNV sample digest the golden suite pins, and a
//! self-cleaning [`Scratch`] directory.
//!
//! # Alpha levels and Bonferroni correction
//!
//! Every uniformity check tests at the family-wise significance level
//! [`BASE_ALPHA`] = `1e-4`: under a *fixed seed* the test statistic is
//! deterministic, so the level only describes how extreme a draw the
//! committed seed would have to be for the suite to have been born red —
//! one in ten thousand keeps accidental borderline seeds out while still
//! detecting real skew, which in practice sends the statistic orders of
//! magnitude past any critical value.
//!
//! A suite that runs the *same* check across `m` engines (or workloads)
//! performs `m` comparisons; to keep the family-wise level at
//! [`BASE_ALPHA`], [`bonferroni`] divides the per-comparison alpha by `m`
//! and [`rsj_common::stats::chi_square_critical`] rounds the corrected
//! level down to the next tabulated decade (conservative: the true
//! family-wise rate stays below the requested one). Use
//! [`UniformityCheck::across`] and the correction is applied for you.

pub mod fault;
pub mod schedule;

pub use fault::{FaultFs, FaultHandle, FaultPlan, FsOp, IoFault, TestSleeper};
pub use schedule::{Schedule, Step, StepMix};

use rsj_common::stats::{chi_square_critical, chi_square_uniform};
use rsj_common::{FxHashMap, FxHashSet, Value};
use rsj_storage::{OpStream, StreamOp, TupleStream};
use rsjoin::engine::{Engine, EngineOpts};
use rsjoin::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Family-wise significance level of every uniformity assertion: `1e-4`.
pub const BASE_ALPHA: f64 = 1e-4;

/// The per-comparison alpha keeping a family of `comparisons` checks at
/// family-wise level `alpha` (Bonferroni).
pub fn bonferroni(alpha: f64, comparisons: usize) -> f64 {
    alpha / comparisons.max(1) as f64
}

/// An engine-independent sample row: sorted `(attribute name, value)`
/// pairs, as produced by `JoinSampler::samples_named`.
pub type NamedSample = Vec<(String, Value)>;

/// A chi-square uniformity assertion at a documented family-wise level.
///
/// ```
/// use rsj_testutil::UniformityCheck;
/// // One comparison at the base level:
/// let check = UniformityCheck::single();
/// // Five engines sharing one family-wise budget:
/// let corrected = UniformityCheck::across(5);
/// assert!(corrected.alpha() < check.alpha());
/// ```
#[derive(Clone, Copy, Debug)]
pub struct UniformityCheck {
    alpha: f64,
}

impl UniformityCheck {
    /// One comparison at [`BASE_ALPHA`].
    pub fn single() -> UniformityCheck {
        UniformityCheck { alpha: BASE_ALPHA }
    }

    /// A family of `comparisons` checks sharing the [`BASE_ALPHA`] budget
    /// (Bonferroni-corrected per-comparison level).
    pub fn across(comparisons: usize) -> UniformityCheck {
        UniformityCheck {
            alpha: bonferroni(BASE_ALPHA, comparisons),
        }
    }

    /// The per-comparison significance level in force.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Asserts that `counts` covers exactly `expected_support` outcomes
    /// and is consistent with the uniform distribution at this check's
    /// level.
    ///
    /// # Panics
    /// Panics (test-failure style) on support mismatch or chi-square
    /// excess.
    pub fn assert_uniform<K: std::fmt::Debug>(
        &self,
        counts: &FxHashMap<K, u64>,
        expected_support: usize,
        label: &str,
    ) {
        assert_eq!(
            counts.len(),
            expected_support,
            "{label}: support {} != expected {expected_support}",
            counts.len()
        );
        let obs: Vec<u64> = counts.values().copied().collect();
        let (stat, df) = chi_square_uniform(&obs);
        let crit = chi_square_critical(df, self.alpha);
        assert!(
            stat < crit,
            "{label}: chi2={stat:.1} > crit={crit:.1} (df={df}, alpha={})",
            self.alpha
        );
    }
}

/// Streams `stream` through a fresh `engine` instance per seed and counts
/// how often each (normalized) result lands in the reservoir. With
/// `expect_full`, asserts every run fills all `k` slots.
pub fn inclusion_counts(
    engine: &Engine,
    q: &Query,
    opts: &EngineOpts,
    stream: &TupleStream,
    k: usize,
    seeds: std::ops::Range<u64>,
    expect_full: bool,
) -> FxHashMap<NamedSample, u64> {
    let mut counts: FxHashMap<NamedSample, u64> = FxHashMap::default();
    for seed in seeds {
        let mut s = engine
            .build(q, k, seed, opts)
            .unwrap_or_else(|e| panic!("{engine}: {e}"));
        s.process_batch(stream.tuples());
        let named = s.samples_named();
        if expect_full {
            assert_eq!(named.len(), k, "{engine} seed {seed}");
        }
        for sample in named {
            *counts.entry(sample).or_default() += 1;
        }
    }
    counts
}

/// The turnstile counterpart of [`inclusion_counts`]: drives an op stream
/// (inserts + deletes) per seed, asserting every sample is in `expect`
/// (the live result set) and every run holds `min(k, |expect|)` samples.
pub fn op_inclusion_counts(
    engine: &Engine,
    q: &Query,
    opts: &EngineOpts,
    ops: &OpStream,
    expect: &FxHashSet<NamedSample>,
    k: usize,
    seeds: std::ops::Range<u64>,
) -> FxHashMap<NamedSample, u64> {
    let mut counts: FxHashMap<NamedSample, u64> = FxHashMap::default();
    for seed in seeds {
        let mut s = engine
            .build(q, k, seed, opts)
            .unwrap_or_else(|e| panic!("{engine}: {e}"));
        s.process_op_batch(ops.ops())
            .unwrap_or_else(|e| panic!("{engine}: {e}"));
        let named = s.samples_named();
        assert_eq!(named.len(), k.min(expect.len()), "{engine} seed {seed}");
        for sample in named {
            assert!(expect.contains(&sample), "{engine}: dead sample {sample:?}");
            *counts.entry(sample).or_default() += 1;
        }
    }
    counts
}

/// Replays an op stream into per-relation live tuple sets (the reference
/// model of set-semantics turnstile state).
pub fn live_sets(query: &Query, ops: &OpStream) -> Vec<FxHashSet<Vec<Value>>> {
    let mut live = vec![FxHashSet::default(); query.num_relations()];
    for op in ops.iter() {
        let t = op.tuple();
        match op {
            StreamOp::Insert(_) => {
                live[t.relation].insert(t.values.clone());
            }
            StreamOp::Delete(_) => {
                live[t.relation].remove(&t.values);
            }
        }
    }
    live
}

/// Live tuple sets of an insert-only stream.
pub fn live_sets_of_stream(query: &Query, stream: &TupleStream) -> Vec<FxHashSet<Vec<Value>>> {
    let mut live = vec![FxHashSet::default(); query.num_relations()];
    for t in stream.iter() {
        live[t.relation].insert(t.values.clone());
    }
    live
}

/// Brute-force join over live tuple sets, as engine-independent
/// [`NamedSample`] rows — the ground truth every engine's `samples_named`
/// is compared against.
pub fn brute_join_named(query: &Query, live: &[FxHashSet<Vec<Value>>]) -> FxHashSet<NamedSample> {
    let mut out = FxHashSet::default();
    let mut partial: Vec<Option<Value>> = vec![None; query.num_attrs()];
    fn recurse(
        query: &Query,
        live: &[FxHashSet<Vec<Value>>],
        rel: usize,
        partial: &mut Vec<Option<Value>>,
        out: &mut FxHashSet<NamedSample>,
    ) {
        if rel == query.num_relations() {
            let mut kv: Vec<(String, Value)> = query
                .attr_names()
                .iter()
                .cloned()
                .zip(partial.iter().map(|v| v.expect("bound")))
                .collect();
            kv.sort();
            out.insert(kv);
            return;
        }
        let schema = &query.relation(rel).attrs;
        'tuples: for t in &live[rel] {
            let mut bound = Vec::new();
            for (pos, &attr) in schema.iter().enumerate() {
                match partial[attr] {
                    Some(v) if v != t[pos] => {
                        for &a in &bound {
                            partial[a] = None;
                        }
                        continue 'tuples;
                    }
                    Some(_) => {}
                    None => {
                        partial[attr] = Some(t[pos]);
                        bound.push(attr);
                    }
                }
            }
            recurse(query, live, rel + 1, partial, out);
            for &a in &bound {
                partial[a] = None;
            }
        }
    }
    recurse(query, live, 0, &mut partial, &mut out);
    out
}

/// A seeded random binary-relation stream over `query`'s relations with
/// values in `0..dom` — the shared fixture generator.
pub fn random_stream(query: &Query, n: usize, dom: u64, seed: u64) -> TupleStream {
    let mut rng = rsj_common::rng::RsjRng::seed_from_u64(seed);
    let mut s = TupleStream::new();
    let rels = query.num_relations();
    for _ in 0..n {
        s.push(
            rng.index(rels),
            vec![rng.below_u64(dom), rng.below_u64(dom)],
        );
    }
    s
}

/// The binary join `R(X, Y) ⋈ S(Y, Z)`.
pub fn two_table() -> Query {
    let mut qb = QueryBuilder::new();
    qb.relation("R", &["X", "Y"]);
    qb.relation("S", &["Y", "Z"]);
    qb.build().unwrap()
}

/// The line-3 path join `G1(A, B) ⋈ G2(B, C) ⋈ G3(C, D)`.
pub fn line3() -> Query {
    let mut qb = QueryBuilder::new();
    qb.relation("G1", &["A", "B"]);
    qb.relation("G2", &["B", "C"]);
    qb.relation("G3", &["C", "D"]);
    qb.build().unwrap()
}

/// Mixed insert/delete turnstile stream over `query`: every op either
/// inserts a random tuple with values in `0..domain` or (1 in 4) deletes a
/// currently-live one, so replay exercises the repair paths, not just
/// appends.
pub fn turnstile_ops(query: &Query, n_ops: usize, domain: u64, seed: u64) -> Vec<StreamOp> {
    let mut rng = rsj_common::rng::RsjRng::seed_from_u64(seed);
    let nrels = query.num_relations();
    let mut live: Vec<(usize, Vec<Value>)> = Vec::new();
    let mut live_set: FxHashSet<(usize, Vec<Value>)> = Default::default();
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        if !live.is_empty() && rng.below_u64(4) == 0 {
            let j = rng.index(live.len());
            let (rel, t) = live.swap_remove(j);
            live_set.remove(&(rel, t.clone()));
            ops.push(StreamOp::delete(rel, t));
        } else {
            let rel = rng.index(nrels);
            let arity = query.relation(rel).attrs.len();
            let t: Vec<Value> = (0..arity).map(|_| rng.below_u64(domain)).collect();
            if live_set.insert((rel, t.clone())) {
                live.push((rel, t.clone()));
            }
            ops.push(StreamOp::insert(rel, t));
        }
    }
    ops
}

/// FNV-1a over the sample matrix, in reservoir order — the digest the
/// golden-determinism suite pins, so "equal digests" means "identical
/// reservoir bytes".
pub fn digest(samples: &[Vec<Value>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(samples.len() as u64);
    for s in samples {
        eat(s.len() as u64);
        for &v in s {
            eat(v);
        }
    }
    h
}

/// Self-cleaning scratch directory under the system temp dir (no
/// tempfile dependency).
pub struct Scratch(PathBuf);

impl Scratch {
    /// A fresh, empty directory whose name carries `tag`, the process id
    /// and a per-process counter.
    pub fn new(tag: &str) -> Scratch {
        static SCRATCH_ID: AtomicU64 = AtomicU64::new(0);
        let id = SCRATCH_ID.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("rsj-{tag}-{}-{id}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The newest WAL segment under a durability directory `dir` — where a
/// torn tail lands.
pub fn final_segment(dir: &Path) -> PathBuf {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "log"))
        .collect();
    segs.sort();
    segs.pop().expect("wal has at least one segment")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bonferroni_divides() {
        assert_eq!(bonferroni(1e-4, 5), 2e-5);
        assert_eq!(bonferroni(1e-4, 0), 1e-4);
        assert!(UniformityCheck::across(5).alpha() < UniformityCheck::single().alpha());
    }

    #[test]
    fn brute_join_matches_hand_count() {
        let q = two_table();
        let mut stream = TupleStream::new();
        stream.push(0, vec![1, 2]);
        stream.push(0, vec![3, 2]);
        stream.push(1, vec![2, 9]);
        let live = live_sets_of_stream(&q, &stream);
        let results = brute_join_named(&q, &live);
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn uniform_counts_pass_and_skewed_fail() {
        let check = UniformityCheck::single();
        let mut counts: FxHashMap<u32, u64> = FxHashMap::default();
        for i in 0..10u32 {
            counts.insert(i, 1000 + u64::from(i % 3));
        }
        check.assert_uniform(&counts, 10, "uniform");
        let skewed: FxHashMap<u32, u64> = [(0u32, 4000u64), (1, 1), (2, 1), (3, 1)]
            .into_iter()
            .collect();
        let r = std::panic::catch_unwind(|| {
            UniformityCheck::single().assert_uniform(&skewed, 4, "skewed")
        });
        assert!(r.is_err(), "skewed counts must fail");
    }

    #[test]
    fn inclusion_counts_drives_an_engine() {
        let q = two_table();
        let mut stream = TupleStream::new();
        stream.push(0, vec![1, 2]);
        stream.push(1, vec![2, 3]);
        stream.push(1, vec![2, 4]);
        let counts = inclusion_counts(
            &Engine::Reservoir,
            &q,
            &EngineOpts::default(),
            &stream,
            1,
            0..200,
            true,
        );
        assert_eq!(counts.len(), 2);
        assert_eq!(counts.values().sum::<u64>(), 200);
    }
}
