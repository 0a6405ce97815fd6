//! The engine registry: every join-sampling engine in the workspace,
//! constructible behind one factory.
//!
//! [`Engine`] names the seven engines the paper's evaluation compares
//! (§6.1), and [`Engine::build`] constructs any of them as a
//! `Box<dyn JoinSampler + Send>`, so multi-engine tests, benches and
//! examples are written once against the trait instead of once per engine:
//!
//! ```
//! use rsjoin::engine::{Engine, EngineOpts};
//! use rsjoin::prelude::*;
//!
//! let mut qb = QueryBuilder::new();
//! qb.relation("R", &["X", "Y"]);
//! qb.relation("S", &["Y", "Z"]);
//! let query = qb.build().unwrap();
//!
//! let mut ops = OpStream::new();
//! ops.push_insert(0, vec![1, 2]);
//! ops.push_insert(1, vec![2, 3]);
//!
//! for engine in Engine::ALL {
//!     if !engine.supports(&query) {
//!         continue;
//!     }
//!     let mut s = engine.build(&query, 10, 7, &EngineOpts::default()).unwrap();
//!     s.apply_ops(ops.ops()).unwrap();
//!     assert_eq!(s.samples_named().len(), 1, "{engine}");
//! }
//! ```

use rsj_baselines::{NaiveRebuild, SJoin, SJoinOpt, SymmetricSampler};
use rsj_core::{CyclicReservoirJoin, FkReservoirJoin, JoinSampler, ReservoirJoin};
use rsj_index::IndexOptions;
use rsj_queries::Workload;
use rsj_query::{FkSchema, JoinTree, Plan, Query};

/// Per-build options shared by all engines.
///
/// `k` and `seed` are positional in [`Engine::build`] because every engine
/// needs them; everything here is engine-specific and optional.
#[derive(Clone, Debug, Default)]
pub struct EngineOpts {
    /// Primary-key metadata for the `_opt` engines' foreign-key
    /// combination rewrite. `None` means no keys are declared, making the
    /// rewrite the identity — `RSJoin_opt` and `SJoin_opt` then behave
    /// like their plain counterparts.
    pub fks: Option<FkSchema>,
    /// Dynamic-index tuning for the `RSJoin` family (grouping on/off).
    pub index: IndexOptions,
    /// Explicit execution plan (join-tree orientation, sampling root) —
    /// the explicit-rooting override. `None` runs each engine on the
    /// canonical plan. Either way the plan is fixed at build time.
    ///
    /// Honoured by `Engine::Reservoir` (the plan's query is the indexed
    /// query). Engines that index a *rewritten* query (`RSJoin_opt`, the
    /// cyclic GHD driver) or have no plan choice (the baselines) reject an
    /// explicit plan with [`EngineError::Build`] rather than silently
    /// ignoring it.
    pub plan: Option<Plan>,
}

/// Why an engine could not be constructed for a query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The engine does not support this query shape (e.g. `SJoin` on a
    /// cyclic query, `SymmetricHashJoin` on more than two relations).
    Unsupported(String),
    /// Construction failed for an engine-specific reason.
    Build(String),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Unsupported(m) => write!(f, "unsupported query shape: {m}"),
            EngineError::Build(m) => write!(f, "engine construction failed: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

/// The seven join-sampling engines of the paper's evaluation.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Engine {
    /// `RSJoin` (Algorithm 6): the paper's near-linear engine for acyclic
    /// joins — dynamic index with power-of-two-rounded counts feeding a
    /// skip-based predicate reservoir.
    Reservoir,
    /// `RSJoin_opt` (§4.4): `RSJoin` over the foreign-key combination
    /// rewrite; dimension joins resolve in the streaming combiner.
    FkReservoir,
    /// The GHD driver of §5: bag sub-joins materialized by worst-case
    /// optimal delta enumeration feed an acyclic `RSJoin` over the
    /// bag-level query. Handles cyclic (and any) queries.
    Cyclic,
    /// Rebuild-and-redraw strawman (§1): recompute the full join and
    /// redraw after every insert. Ground truth for tests.
    Naive,
    /// `SJoin` (Zhao et al., SIGMOD'20): exact-count index, `O(N)` worst
    /// case per update — the state of the art the paper beats.
    SJoin,
    /// `SJoin_opt`: `SJoin` behind the foreign-key combination rewrite.
    SJoinOpt,
    /// Symmetric hash join + classic reservoir: the streaming two-table
    /// baseline.
    Symmetric,
}

impl Engine {
    /// Every engine, in the order the paper's tables list them.
    pub const ALL: [Engine; 7] = [
        Engine::Reservoir,
        Engine::FkReservoir,
        Engine::Cyclic,
        Engine::Naive,
        Engine::SJoin,
        Engine::SJoinOpt,
        Engine::Symmetric,
    ];

    /// The engine's display name, matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Reservoir => "RSJoin",
            Engine::FkReservoir => "RSJoin_opt",
            Engine::Cyclic => "RSJoin_cyclic",
            Engine::Naive => "NaiveRebuild",
            Engine::SJoin => "SJoin",
            Engine::SJoinOpt => "SJoin_opt",
            Engine::Symmetric => "SymmetricHashJoin",
        }
    }

    /// Whether this engine can run the query at all: the `RSJoin`/`SJoin`
    /// families need an acyclic query, the symmetric hash join needs
    /// exactly two relations, and `Cyclic`/`Naive` take anything.
    ///
    /// ```
    /// use rsjoin::engine::Engine;
    /// use rsjoin::prelude::*;
    ///
    /// let mut qb = QueryBuilder::new();
    /// qb.relation("R1", &["X", "Y"]);
    /// qb.relation("R2", &["Y", "Z"]);
    /// qb.relation("R3", &["Z", "X"]);
    /// let triangle = qb.build().unwrap();
    ///
    /// let runs: Vec<&str> = Engine::ALL
    ///     .iter()
    ///     .filter(|e| e.supports(&triangle))
    ///     .map(|e| e.name())
    ///     .collect();
    /// assert_eq!(runs, ["RSJoin_cyclic", "NaiveRebuild"]);
    /// ```
    pub fn supports(&self, query: &Query) -> bool {
        match self {
            Engine::Cyclic | Engine::Naive => true,
            Engine::Symmetric => query.num_relations() == 2,
            Engine::Reservoir | Engine::FkReservoir | Engine::SJoin | Engine::SJoinOpt => {
                JoinTree::build(query).is_some()
            }
        }
    }

    /// Constructs the engine for `query`, maintaining `k` uniform samples,
    /// seeded with `seed`.
    pub fn build(
        &self,
        query: &Query,
        k: usize,
        seed: u64,
        opts: &EngineOpts,
    ) -> Result<Box<dyn JoinSampler + Send>, EngineError> {
        if !self.supports(query) {
            return Err(EngineError::Unsupported(format!(
                "{} cannot run {}-relation {} query",
                self.name(),
                query.num_relations(),
                if JoinTree::build(query).is_some() {
                    "acyclic"
                } else {
                    "cyclic"
                }
            )));
        }
        let fks = || {
            opts.fks
                .clone()
                .unwrap_or_else(|| FkSchema::none(query.num_relations()))
        };
        // Engines with no plan choice (or whose indexed query is a rewrite
        // of `query`) cannot honour an explicit plan; failing loudly beats
        // silently running a different orientation than the caller asked
        // for.
        let reject_plan = || -> Result<(), EngineError> {
            match &opts.plan {
                Some(_) => Err(EngineError::Build(format!(
                    "{} cannot honour an explicit plan (no plan choice, or it \
                     indexes a rewritten query); leave EngineOpts::plan unset",
                    self.name()
                ))),
                None => Ok(()),
            }
        };
        match self {
            Engine::Reservoir => match &opts.plan {
                Some(plan) => {
                    ReservoirJoin::with_plan(query.clone(), k, seed, opts.index, plan.clone())
                }
                None => ReservoirJoin::with_options(query.clone(), k, seed, opts.index),
            }
            .map(|e| Box::new(e) as Box<dyn JoinSampler + Send>)
            .map_err(|e| EngineError::Build(e.to_string())),
            Engine::FkReservoir => {
                reject_plan()?;
                FkReservoirJoin::with_options(query, &fks(), k, seed, opts.index)
                    .map(|e| Box::new(e) as Box<dyn JoinSampler + Send>)
                    .map_err(|e| EngineError::Build(e.to_string()))
            }
            Engine::Cyclic => {
                reject_plan()?;
                CyclicReservoirJoin::with_options(query.clone(), k, seed, opts.index)
                    .map(|e| Box::new(e) as Box<dyn JoinSampler + Send>)
                    .map_err(|e| EngineError::Build(e.to_string()))
            }
            Engine::Naive => {
                reject_plan()?;
                Ok(Box::new(NaiveRebuild::new(query.clone(), k, seed)))
            }
            Engine::SJoin => {
                reject_plan()?;
                SJoin::new(query.clone(), k, seed)
                    .map(|e| Box::new(e) as Box<dyn JoinSampler + Send>)
                    .map_err(EngineError::Build)
            }
            Engine::SJoinOpt => {
                reject_plan()?;
                SJoinOpt::combined(self.name(), query, &fks(), |q| SJoin::new(q, k, seed))
                    .map(|e| Box::new(e) as Box<dyn JoinSampler + Send>)
                    .map_err(|e| EngineError::Build(e.to_string()))
            }
            Engine::Symmetric => {
                reject_plan()?;
                SymmetricSampler::new(query.clone(), k, seed)
                    .map(|e| Box::new(e) as Box<dyn JoinSampler + Send>)
                    .map_err(EngineError::Build)
            }
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The per-workload engine options: the workload's FK metadata with
/// default index tuning.
pub fn workload_opts(w: &Workload) -> EngineOpts {
    EngineOpts {
        fks: Some(w.fks.clone()),
        ..EngineOpts::default()
    }
}

/// Builds `engine` for a packaged [`Workload`] and streams its preload
/// then its input stream through the trait — the one driver loop tests
/// and examples share (`rsj-bench` layers its timing cap on top of the
/// same primitives).
pub fn run_workload(
    w: &Workload,
    engine: &Engine,
    k: usize,
    seed: u64,
) -> Result<Box<dyn JoinSampler + Send>, EngineError> {
    let mut s = engine.build(&w.query, k, seed, &workload_opts(w))?;
    for t in w.preload.iter().chain(w.stream.tuples()) {
        s.process(t.relation, &t.values);
    }
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_core::SamplerExt;
    use rsj_storage::{OpStream, TupleStream};

    fn two_table() -> Query {
        let mut qb = rsj_query::QueryBuilder::new();
        qb.relation("R", &["X", "Y"]);
        qb.relation("S", &["Y", "Z"]);
        qb.build().unwrap()
    }

    fn line3() -> Query {
        let mut qb = rsj_query::QueryBuilder::new();
        qb.relation("G1", &["A", "B"]);
        qb.relation("G2", &["B", "C"]);
        qb.relation("G3", &["C", "D"]);
        qb.build().unwrap()
    }

    fn triangle() -> Query {
        let mut qb = rsj_query::QueryBuilder::new();
        qb.relation("R1", &["X", "Y"]);
        qb.relation("R2", &["Y", "Z"]);
        qb.relation("R3", &["Z", "X"]);
        qb.build().unwrap()
    }

    #[test]
    fn all_engines_build_on_two_table() {
        for engine in Engine::ALL {
            let s = engine
                .build(&two_table(), 10, 1, &EngineOpts::default())
                .unwrap_or_else(|e| panic!("{engine}: {e}"));
            assert_eq!(s.k(), 10, "{engine}");
        }
    }

    #[test]
    fn cyclic_queries_reject_acyclic_only_engines() {
        let q = triangle();
        for engine in [Engine::Reservoir, Engine::FkReservoir, Engine::SJoin] {
            assert!(!engine.supports(&q));
            assert!(matches!(
                engine.build(&q, 10, 1, &EngineOpts::default()),
                Err(EngineError::Unsupported(_))
            ));
        }
        assert!(Engine::Cyclic.supports(&q));
        assert!(Engine::Naive.supports(&q));
        assert!(!Engine::Symmetric.supports(&q), "3 relations");
    }

    #[test]
    fn engine_names_are_distinct() {
        let names: std::collections::BTreeSet<&str> =
            Engine::ALL.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), Engine::ALL.len());
    }

    #[test]
    fn index_options_reach_every_rsjoin_family_engine() {
        // Regression: the factory must route `opts.index` into the inner
        // acyclic driver of *all* RSJoin-family engines, not just the
        // plain one. Grouping on/off never changes results, so with
        // k >= |Q(R)| both configurations collect the identical set.
        let q = two_table();
        let mut stream = TupleStream::new();
        let mut rng = rsj_common::rng::RsjRng::seed_from_u64(5);
        for _ in 0..120 {
            stream.push(rng.index(2), vec![rng.below_u64(4), rng.below_u64(4)]);
        }
        for engine in [Engine::Reservoir, Engine::FkReservoir, Engine::Cyclic] {
            let run = |grouping: bool| {
                let opts = EngineOpts {
                    index: IndexOptions { grouping },
                    ..EngineOpts::default()
                };
                let mut s = engine.build(&q, 1 << 20, 1, &opts).unwrap();
                s.apply_ops(OpStream::from(&stream).ops()).unwrap();
                s.samples_named()
                    .into_iter()
                    .collect::<std::collections::BTreeSet<_>>()
            };
            let with = run(true);
            assert!(!with.is_empty(), "{engine}");
            assert_eq!(with, run(false), "{engine}");
        }
    }

    #[test]
    fn explicit_plans_are_refused_where_they_cannot_be_honoured() {
        let q = two_table();
        let opts = EngineOpts {
            plan: Plan::canonical(&q),
            ..EngineOpts::default()
        };
        for engine in Engine::ALL {
            match engine.build(&q, 10, 1, &opts) {
                Ok(_) => assert_eq!(engine, Engine::Reservoir, "{engine} took a plan"),
                Err(EngineError::Build(m)) => {
                    assert_ne!(engine, Engine::Reservoir, "{m}");
                    assert!(m.contains(engine.name()), "{engine}: {m}");
                }
                Err(e) => panic!("{engine}: {e}"),
            }
        }
    }

    #[test]
    fn a_plan_over_another_relation_count_is_a_build_error() {
        let mut far_root = Plan::canonical(&two_table()).unwrap();
        far_root.root = 7;
        for (query, plan, expect) in [
            (
                line3(),
                Plan::canonical(&two_table()).unwrap(),
                "spans 2 relations but the query has 3",
            ),
            (
                two_table(),
                far_root,
                "plan root 7 is not one of the query's 2 relations",
            ),
        ] {
            let opts = EngineOpts {
                plan: Some(plan),
                ..EngineOpts::default()
            };
            match Engine::Reservoir.build(&query, 10, 1, &opts) {
                Err(EngineError::Build(m)) => assert!(m.contains(expect), "{m}"),
                other => panic!("expected a build error, got {:?}", other.err()),
            }
        }
    }

    #[test]
    fn explicit_reservoir_roots_keep_the_result_set() {
        // Re-rooting the plan changes how samples are drawn, never which
        // results exist: with k >= |Q(R)| every root collects the default
        // plan's full result set.
        let q = line3();
        let mut stream = TupleStream::new();
        let mut rng = rsj_common::rng::RsjRng::seed_from_u64(8);
        for _ in 0..150 {
            stream.push(rng.index(3), vec![rng.below_u64(5), rng.below_u64(5)]);
        }
        let run = |opts: &EngineOpts| {
            let mut s = Engine::Reservoir.build(&q, 1 << 20, 1, opts).unwrap();
            s.apply_ops(OpStream::from(&stream).ops()).unwrap();
            s.samples_named()
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
        };
        let expect = run(&EngineOpts::default());
        assert!(!expect.is_empty());
        for root in 0..q.num_relations() {
            let mut plan = Plan::canonical(&q).unwrap();
            plan.root = root;
            let opts = EngineOpts {
                plan: Some(plan),
                ..EngineOpts::default()
            };
            assert_eq!(run(&opts), expect, "root {root}");
        }
    }

    /// `run_workload` streams the preload, then the stream, one tuple at a
    /// time: for every engine it lands on the state of the same arrivals
    /// fed through `process`. The order matters on QY, whose dimension
    /// preload binds the keys the foreign-key engines check facts against.
    #[test]
    fn run_workload_feeds_the_preload_then_the_stream() {
        let data = rsj_datagen::TpcdsLite::generate(1, 5);
        let w = rsj_queries::qy(&data, 3);
        assert!(!w.preload.is_empty() && !w.stream.is_empty());
        for engine in [Engine::Reservoir, Engine::FkReservoir, Engine::SJoinOpt] {
            let ran = run_workload(&w, &engine, 16, 9).unwrap();
            let mut fed = engine.build(&w.query, 16, 9, &workload_opts(&w)).unwrap();
            for t in w.preload.iter().chain(w.stream.iter()) {
                fed.process(t.relation, &t.values);
            }
            assert_eq!(ran.snapshot_state(), fed.snapshot_state(), "{engine}");
            assert_eq!(ran.samples(), fed.samples(), "{engine}");
        }
    }
}
