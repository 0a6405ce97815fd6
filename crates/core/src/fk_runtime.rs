//! Foreign-key combination runtime (§4.4) — the `_opt` variants.
//!
//! The static rewrite ([`rsj_query::CombinePlan`]) decides which relations
//! merge; this module executes it on the stream. Each combined relation is
//! a fact plus an ordered list of dimension joins, every one on the
//! dimension's primary key (at most one match). A fact tuple walks the
//! dimension chain, parking in a waiting list at the first missing
//! dimension; a dimension arrival releases its waiters. Every combined
//! tuple is emitted exactly once, as soon as its last constituent arrives —
//! matching the paper: "when a tuple t_j is inserted into R_j, we need to
//! identify all tuples in R_i that can join with t_j".
//!
//! The combiner is a *signed* delta pipeline: [`FkCombiner::process`]
//! emits `+1` combined tuples, [`FkCombiner::retract`] the `-1` mirror (a
//! deleted dimension tuple withdraws every combined tuple routed through
//! it and re-parks those facts), so an engine fed both sides sees the
//! rewritten query over the live database.
//!
//! Each fact is stored once, in a fixed-stride [`Relation`]; each
//! dimension step's tuples in another, behind a primary-key [`IdTable`].
//! A fact's accumulated tuple and park step are re-derived by *walking*
//! the chain (one PK probe per step) into one reused row, the slice the
//! caller's sink receives. A fact sits in at most one registry list per
//! step, so the lists are intrusive — a `[prev, next]` pair per fact and
//! step — and keep their order, which fixes emission order.

use rsj_common::codec::{CodecError, Decoder, Encoder};
use rsj_common::{fx_hash_one, FxHashMap, HeapSize, IdTable, Key, Value};
use rsj_query::foreign_key::{CombinePlan, CombinedRelation, DimJoin, Routing};
use rsj_query::Query;
use rsj_storage::{Relation, SharedStoreError, StreamOp};
use rsj_stream::Rows;

/// The end of a list, and both ends of an empty one.
const NIL: u32 = u32::MAX;

/// Where a restored fact parks, among dimension tuple ids.
const WAITS: u32 = NIL - 1;

/// One dimension step's tuples, addressed by primary key.
#[derive(Clone, Debug)]
struct Dim {
    tuples: Relation,
    /// PK value -> live tuple id, compared against `tuples`.
    pk: IdTable,
}

impl Dim {
    /// The live tuple whose primary key is `pk`.
    fn find(&self, d: &DimJoin, pk: &Key) -> Option<u32> {
        self.pk.find(fx_hash_one(pk), |id| {
            Key::project(self.tuples.tuple(id), &d.pk_positions_in_dim) == *pk
        })
    }
}

/// One dimension step's registry lists, each a `[head, tail]`.
#[derive(Clone, Debug, Default)]
struct Registry {
    /// Per dimension tuple id: the facts that consumed it, in the order
    /// they did — the reverse index a dimension delete walks.
    passed: Vec<[u32; 2]>,
    /// Per FK value without a live dimension tuple: the facts parked on
    /// it, in arrival order.
    waiting: FxHashMap<Key, [u32; 2]>,
    /// Per fact id: `[prev, next]` in the one list of this step holding it.
    links: Vec<[u32; 2]>,
}

impl Registry {
    /// Links fact `f` in at the tail of its list at this step — the
    /// `passed` list of dimension tuple `dim`, or the waiting list of `fk`
    /// when there is none — or unlinks it from there.
    fn apply(&mut self, link: bool, fk: Key, dim: Option<u32>, f: u32) {
        let ends = match dim {
            Some(d) => &mut self.passed[d as usize],
            None => self.waiting.entry(fk).or_insert([NIL; 2]),
        };
        // Linking puts `f` between the tail and the end; unlinking points
        // its neighbours at each other.
        let old = self.links[f as usize];
        let [prev, next] = if link { [ends[1], NIL] } else { old };
        let (to_next, to_prev) = if link { (f, f) } else { (next, prev) };
        self.links[f as usize] = [prev, next];
        match prev {
            NIL => ends[0] = to_next,
            p => self.links[p as usize][1] = to_next,
        }
        match next {
            NIL => ends[1] = to_prev,
            n => self.links[n as usize][0] = to_prev,
        }
        if ends[0] == NIL && dim.is_none() {
            self.waiting.remove(&fk);
        }
    }
}

/// Per-combined-relation streaming state.
#[derive(Clone, Debug)]
struct CombinedState {
    /// The live facts (set semantics); their ids index every `links`.
    facts: Relation,
    dims: Vec<Dim>,
    regs: Vec<Registry>,
}

/// Re-derives fact `f`'s accumulated tuple into `row`, one PK probe per
/// step of `dims`, reporting each step reached to `visit(step, fk,
/// dimension tuple)`. Returns the step it parks at, or `dims.len()`.
fn walk(
    c: &CombinedRelation,
    facts: &Relation,
    dims: &[Dim],
    f: u32,
    row: &mut Vec<Value>,
    mut visit: impl FnMut(usize, Key, Option<u32>),
) -> usize {
    row.clear();
    row.extend_from_slice(facts.tuple(f));
    for (s, (d, dim)) in c.dims.iter().zip(dims).enumerate() {
        let fk = Key::project(row, &d.fk_positions_in_acc);
        let found = dim.find(d, &fk);
        visit(s, fk, found);
        let Some(id) = found else { return s };
        let t = dim.tuples.tuple(id);
        row.extend(d.append_positions.iter().map(|&p| t[p]));
    }
    dims.len()
}

impl CombinedState {
    fn new(c: &CombinedRelation) -> CombinedState {
        let appended: usize = c.dims.iter().map(|d| d.append_positions.len()).sum();
        let dim = |d: &DimJoin| Dim {
            tuples: Relation::new(
                &c.name,
                d.pk_positions_in_dim.len() + d.append_positions.len(),
            ),
            pk: IdTable::default(),
        };
        CombinedState {
            facts: Relation::new(&c.name, c.schema_attrs.len() - appended),
            dims: c.dims.iter().map(dim).collect(),
            regs: vec![Registry::default(); c.dims.len()],
        }
    }

    /// Walks `first` and the facts after it in its list at `list_step`
    /// (just `first` if `None`), linking each into (`link`) or unlinking it
    /// from every step past `list_step`; emits each that is complete.
    fn rewalk(
        &mut self,
        c: &CombinedRelation,
        first: u32,
        list_step: Option<usize>,
        link: bool,
        row: &mut Vec<Value>,
        emit: &mut impl FnMut(&[Value]),
    ) {
        let mut f = first;
        while f != NIL {
            let next = list_step.map_or(NIL, |s| self.regs[s].links[f as usize][1]);
            let regs = &mut self.regs;
            let park = walk(c, &self.facts, &self.dims, f, row, |s, fk, dim| {
                if list_step.is_none_or(|l| s > l) {
                    regs[s].apply(link, fk, dim, f);
                }
            });
            if park == c.dims.len() {
                emit(row);
            }
            f = next;
        }
    }

    /// Fills this fresh state from what [`FkCombiner::snapshot_to`] wrote
    /// (a rejected image leaves it half-filled), checking it whole:
    /// relation arities, one live dimension tuple per PK, and per step
    /// every live fact that walks that far listed exactly once, in the list
    /// its walk puts it in, and nothing else, the lists whole and in the
    /// order `snapshot_to` writes them.
    fn restore(&mut self, dec: &mut Decoder, c: &CombinedRelation) -> Result<(), CodecError> {
        let relation = |dec: &mut Decoder, like: &Relation| match Relation::restore_from(dec)? {
            r if r.arity() == like.arity() => Ok(r),
            _ => Err(CodecError::Corrupt("combiner relation of the wrong arity")),
        };
        self.facts = relation(dec, &self.facts)?;
        for (d, Dim { tuples, pk }) in c.dims.iter().zip(&mut self.dims) {
            *tuples = relation(dec, tuples)?;
            *pk = IdTable::with_capacity(tuples.len());
            for (id, t) in tuples.iter() {
                let key = Key::project(t, &d.pk_positions_in_dim);
                let same = |o| Key::project(tuples.tuple(o), &d.pk_positions_in_dim) == key;
                if pk.insert_if_absent(fx_hash_one(&key), id, same).is_some() {
                    return Err(CodecError::Corrupt("two live dimension tuples share a PK"));
                }
            }
        }
        // One walk per live fact finds the list it sits in at each step it
        // reaches: the consumed dimension tuple's, or a waiting list.
        let (facts, dims, slots) = (&self.facts, &self.dims, self.facts.num_slots());
        let (mut owner, mut row) = (vec![vec![NIL; slots]; dims.len()], Vec::new());
        for (f, _) in facts.iter() {
            walk(c, facts, dims, f, &mut row, |s, _, dim| {
                owner[s][f as usize] = dim.unwrap_or(WAITS);
            });
        }
        for (s, (reg, owner)) in self.regs.iter_mut().zip(&mut owner).enumerate() {
            reg.passed.resize(dims[s].tuples.num_slots(), [NIL; 2]);
            reg.links.resize(slots, [NIL; 2]);
            let mut last = (0, Key::EMPTY);
            loop {
                let f = dec.u32()?;
                if f == NIL {
                    break;
                }
                let list = match owner.get(f as usize).copied() {
                    Some(WAITS) => {
                        let mut fk = Key::EMPTY;
                        walk(c, facts, &dims[..=s], f, &mut row, |_, key, _| fk = key);
                        (WAITS, fk)
                    }
                    Some(id) if id != NIL => (id, Key::EMPTY),
                    _ => return Err(CodecError::Corrupt("combiner lists a fact off its walk")),
                };
                // Each list whole, passed lists by tuple id, then by key.
                if (list.0, list.1.as_slice()) < (last.0, last.1.as_slice()) {
                    return Err(CodecError::Corrupt("combiner lists out of order"));
                }
                owner[f as usize] = NIL;
                reg.apply(true, list.1, (list.0 != WAITS).then_some(list.0), f);
                last = list;
            }
            if owner.iter().any(|&o| o != NIL) {
                return Err(CodecError::Corrupt("combiner misses a live fact"));
            }
        }
        Ok(())
    }
}

/// Executes a [`CombinePlan`] over the input stream, emitting signed
/// tuples of the rewritten query's relations.
#[derive(Clone, Debug)]
pub struct FkCombiner {
    plan: CombinePlan,
    states: Vec<CombinedState>,
    /// The one row every accumulated tuple is re-derived into.
    row: Vec<Value>,
    inserts: u64,
    deletes: u64,
}

impl FkCombiner {
    /// Creates a combiner for a plan.
    pub fn new(plan: CombinePlan) -> FkCombiner {
        FkCombiner {
            states: plan.combined.iter().map(CombinedState::new).collect(),
            plan,
            row: Vec::new(),
            inserts: 0,
            deletes: 0,
        }
    }

    /// The static plan.
    pub fn plan(&self) -> &CombinePlan {
        &self.plan
    }

    /// The rewritten query the emitted tuples belong to.
    pub fn rewritten_query(&self) -> &Query {
        &self.plan.rewritten
    }

    /// Original-stream tuples accepted so far (set semantics — duplicate
    /// facts and idempotent dimension re-inserts are not counted).
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// Original-stream tuples deleted so far (present at deletion time).
    pub fn deletes(&self) -> u64 {
        self.deletes
    }

    /// Checks `ops` in order against `query`, the original query, and the
    /// primary keys: a dimension insert whose PK the live state or an
    /// earlier op binds to another tuple is a
    /// [`SharedStoreError::PrimaryKeyConflict`].
    pub fn check_ops(&self, query: &Query, ops: &[StreamOp]) -> Result<(), SharedStoreError> {
        // Bindings made or freed by the ops checked so far.
        let mut pending: FxHashMap<(usize, Key), Option<&[Value]>> = FxHashMap::default();
        for (i, op) in ops.iter().enumerate() {
            let t = op.tuple();
            let arity = query.relations().get(t.relation).map(|r| r.attrs.len());
            SharedStoreError::check(t.relation, arity, t.values.len())?;
            let Routing::Dim { combined, step } = self.plan.routing[t.relation] else {
                continue;
            };
            let d = &self.plan.combined[combined].dims[step];
            let pk = Key::project(&t.values, &d.pk_positions_in_dim);
            let dim = &self.states[combined].dims[step];
            let bound = match pending.get(&(t.relation, pk)) {
                Some(&b) => b,
                None => dim.find(d, &pk).map(|id| dim.tuples.tuple(id)),
            };
            let now = match (op.is_delete(), bound) {
                (false, Some(b)) if b != t.values => {
                    return Err(SharedStoreError::PrimaryKeyConflict(t.relation))
                }
                (false, _) => Some(t.values.as_slice()),
                (true, b) => b.filter(|&b| b != t.values),
            };
            if i + 1 < ops.len() {
                pending.insert((t.relation, pk), now);
            }
        }
        Ok(())
    }

    /// Processes one original-stream insert, handing every combined tuple
    /// it completes (none, one or many) to `emit(rewritten_relation,
    /// tuple)`; the slice is the combiner's scratch row.
    ///
    /// # Panics
    /// On a dimension tuple whose primary key is bound to a different live
    /// tuple — the FK contract, which [`check_ops`](Self::check_ops)
    /// checks up front.
    pub fn process(&mut self, orig_rel: usize, tuple: &[Value], emit: impl FnMut(usize, &[Value])) {
        self.apply(true, orig_rel, tuple, emit);
    }

    /// Retracts one original-stream tuple, handing every combined tuple it
    /// withdraws to `emit` — the `-1` side of the pipeline. Deleting an
    /// absent tuple is a no-op. A retraction never emits on the `+` side:
    /// removing input can only un-complete combined tuples.
    pub fn retract(&mut self, orig_rel: usize, tuple: &[Value], emit: impl FnMut(usize, &[Value])) {
        self.apply(false, orig_rel, tuple, emit);
    }

    fn apply(
        &mut self,
        insert: bool,
        orig_rel: usize,
        tuple: &[Value],
        mut emit: impl FnMut(usize, &[Value]),
    ) {
        let (combined, step) = match self.plan.routing[orig_rel] {
            Routing::Fact { combined } => (combined, None),
            Routing::Dim { combined, step } => (combined, Some(step)),
        };
        let (c, st) = (&self.plan.combined[combined], &mut self.states[combined]);
        let (row, emit) = (&mut self.row, &mut |t: &[Value]| emit(combined, t));
        let Some(step) = step else {
            let id = match insert {
                true => st.facts.insert(tuple),
                false => st.facts.remove(tuple),
            };
            let Some(id) = id else { return }; // set semantics: a no-op
            if insert {
                self.inserts += 1;
                st.regs.iter_mut().for_each(|r| r.links.push([NIL; 2]));
            } else {
                self.deletes += 1;
            }
            return st.rewalk(c, id, None, insert, row, emit);
        };
        let d = &c.dims[step];
        let pk = Key::project(tuple, &d.pk_positions_in_dim);
        let dim = &mut st.dims[step];
        match (insert, dim.find(d, &pk)) {
            (true, Some(id)) => assert!(
                dim.tuples.tuple(id) == tuple, // else an idempotent re-insert
                "duplicate primary key {pk} in dimension {}",
                c.name
            ),
            (true, None) => {
                let id = dim.tuples.insert(tuple).expect("no live tuple has its PK");
                dim.pk.insert_if_absent(fx_hash_one(&pk), id, |_| false);
                self.inserts += 1;
                // Its waiters consume it in the order they parked: their
                // waiting list becomes its `passed` list as it stands.
                let reg = &mut st.regs[step];
                let ends = reg.waiting.remove(&pk).unwrap_or([NIL; 2]);
                reg.passed.push(ends);
                st.rewalk(c, ends[0], Some(step), true, row, emit);
            }
            (false, Some(id)) if dim.tuples.tuple(id) == tuple => {
                self.deletes += 1;
                // Its consumers withdraw their emissions and leave every
                // later step while it is still live to walk through...
                let ends = std::mem::replace(&mut st.regs[step].passed[id as usize], [NIL; 2]);
                st.rewalk(c, ends[0], Some(step), false, row, emit);
                let dim = &mut st.dims[step];
                dim.pk.remove(fx_hash_one(&pk), |o| o == id);
                dim.tuples.remove(tuple);
                // ...then park on its key, in the order they consumed it.
                if ends[0] != NIL {
                    st.regs[step].waiting.insert(pk, ends);
                }
            }
            (false, _) => {} // absent (or a different tuple): a no-op
        }
    }

    /// Serializes the combiner's dynamic state: the op counters, then per
    /// combined relation the fact relation, every dimension relation, and
    /// per step its registry lists' fact ids end to end, ended by
    /// `u32::MAX` — the `passed` list of each live dimension tuple in id
    /// order, then the waiting lists in key order. The lists name facts by
    /// id, so the relations are written whole, tombstones included.
    pub fn snapshot_to(&self, enc: &mut Encoder) {
        enc.put_u64(self.inserts);
        enc.put_u64(self.deletes);
        for st in &self.states {
            st.facts.snapshot_to(enc);
            st.dims.iter().for_each(|d| d.tuples.snapshot_to(enc));
            for (dim, reg) in st.dims.iter().zip(&st.regs) {
                let mut waiting: Vec<_> = reg.waiting.iter().collect();
                waiting.sort_unstable_by(|a, b| a.0.as_slice().cmp(b.0.as_slice()));
                let passed = dim.tuples.iter().map(|(id, _)| reg.passed[id as usize]);
                for [mut f, _] in passed.chain(waiting.into_iter().map(|(_, &ends)| ends)) {
                    while f != NIL {
                        enc.put_u32(f);
                        f = reg.links[f as usize][1];
                    }
                }
                enc.put_u32(NIL);
            }
        }
    }

    /// A combiner for `plan` restored from a
    /// [`snapshot_to`](Self::snapshot_to) image, which is checked whole
    /// (see `CombinedState::restore`).
    pub fn restore_from(plan: CombinePlan, dec: &mut Decoder) -> Result<FkCombiner, CodecError> {
        let mut c = FkCombiner::new(plan);
        c.inserts = dec.u64()?;
        c.deletes = dec.u64()?;
        for (st, p) in c.states.iter_mut().zip(&c.plan.combined) {
            st.restore(dec, p)?;
        }
        Ok(c)
    }

    /// Heap bytes of the combiner state: the fact and dimension relations,
    /// the PK tables, the registries and the scratch row.
    pub fn heap_size(&self) -> usize {
        let mut bytes = self.row.heap_size();
        for st in &self.states {
            bytes += st.facts.heap_size();
            for (d, r) in st.dims.iter().zip(&st.regs) {
                bytes += d.tuples.heap_size() + d.pk.heap_size() + r.passed.heap_size();
                bytes += r.waiting.heap_size() + r.links.heap_size();
            }
        }
        bytes
    }
}

/// How building an [`FkReservoirJoin`] can fail: the static rewrite
/// rejected the schema, or the inner acyclic driver rejected the rewritten
/// query.
#[derive(Debug)]
pub enum FkBuildError {
    /// The foreign-key rewrite failed (see [`rsj_query::CombineError`]).
    Rewrite(rsj_query::CombineError),
    /// The inner dynamic index rejected the rewritten query.
    Index(rsj_index::dynamic::IndexError),
}

impl std::fmt::Display for FkBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FkBuildError::Rewrite(e) => write!(f, "{e}"),
            FkBuildError::Index(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FkBuildError {}

impl From<rsj_query::CombineError> for FkBuildError {
    fn from(e: rsj_query::CombineError) -> FkBuildError {
        FkBuildError::Rewrite(e)
    }
}

impl From<rsj_index::dynamic::IndexError> for FkBuildError {
    fn from(e: rsj_index::dynamic::IndexError) -> FkBuildError {
        FkBuildError::Index(e)
    }
}

/// `RSJoin_opt`: a [`super::ReservoirJoin`] over the FK-rewritten query,
/// fed through an [`FkCombiner`].
pub struct FkReservoirJoin {
    /// The original query, whose relations the input stream addresses.
    pub(crate) query: Query,
    combiner: FkCombiner,
    inner: super::ReservoirJoin,
}

impl FkReservoirJoin {
    /// Builds the optimized driver from the original query, its FK schema,
    /// and reservoir parameters, with the default index options.
    pub fn new(
        query: &Query,
        fks: &rsj_query::FkSchema,
        k: usize,
        seed: u64,
    ) -> Result<FkReservoirJoin, FkBuildError> {
        Self::with_options(query, fks, k, seed, rsj_index::IndexOptions::default())
    }

    /// Builds the optimized driver with explicit index options for the
    /// inner acyclic driver.
    pub fn with_options(
        query: &Query,
        fks: &rsj_query::FkSchema,
        k: usize,
        seed: u64,
        options: rsj_index::IndexOptions,
    ) -> Result<FkReservoirJoin, FkBuildError> {
        let plan = CombinePlan::build(query, fks)?;
        let inner = super::ReservoirJoin::with_options(plan.rewritten.clone(), k, seed, options)?;
        Ok(FkReservoirJoin {
            query: query.clone(),
            combiner: FkCombiner::new(plan),
            inner,
        })
    }

    /// Processes one original-stream tuple.
    pub fn process(&mut self, orig_rel: usize, tuple: &[Value]) {
        let inner = &mut self.inner;
        self.combiner.process(orig_rel, tuple, |rel, t| {
            inner.process(rel, t);
        });
    }

    /// Deletes one original-stream tuple: the combiner's `-1` deltas route
    /// to the inner driver's delete path, which repairs its reservoir by
    /// eviction-and-backfill against the exact live count.
    pub fn delete(&mut self, orig_rel: usize, tuple: &[Value]) {
        let inner = &mut self.inner;
        self.combiner.retract(orig_rel, tuple, |rel, t| {
            inner.delete(rel, t);
        });
    }

    /// Current samples, as value tuples of the *rewritten* query (attribute
    /// names are preserved; use [`Self::rewritten_query`] to interpret).
    pub fn samples(&self) -> Rows<'_> {
        self.inner.samples()
    }

    /// The rewritten query.
    pub fn rewritten_query(&self) -> &Query {
        self.combiner.rewritten_query()
    }

    /// The streaming combiner.
    pub fn combiner(&self) -> &FkCombiner {
        &self.combiner
    }

    /// The inner acyclic driver.
    pub fn inner(&self) -> &super::ReservoirJoin {
        &self.inner
    }

    /// Mutable access to the inner acyclic driver (re-planning the
    /// rewritten-query orientation).
    pub fn inner_mut(&mut self) -> &mut super::ReservoirJoin {
        &mut self.inner
    }

    /// Exact live `|Q(R)|`: the inner driver's memoized index count
    /// (one `O(N)` pass after each change, shared with the delete repair).
    pub fn exact_result_count(&self) -> u128 {
        self.inner.exact_count()
    }

    /// Serializes the full dynamic state: combiner registries, then the
    /// inner driver's snapshot.
    pub fn snapshot_to(&self, enc: &mut Encoder) {
        self.combiner.snapshot_to(enc);
        self.inner.snapshot_to(enc);
    }

    /// Restores from a [`FkReservoirJoin::snapshot_to`] image taken by a
    /// driver built with the same `(query, fks, k, seed, options)`. On
    /// error — in the combiner's image or the inner driver's — the
    /// receiver is unchanged.
    pub fn restore_from_snapshot(&mut self, dec: &mut Decoder) -> Result<(), CodecError> {
        let combiner = FkCombiner::restore_from(self.combiner.plan().clone(), dec)?;
        self.inner.restore_from_snapshot(dec)?;
        self.combiner = combiner;
        Ok(())
    }

    /// Estimated heap bytes (combiner state + inner driver).
    pub fn heap_size(&self) -> usize {
        self.combiner.heap_size() + self.inner.heap_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsj_common::rng::RsjRng;
    use rsj_common::FxHashSet;
    use rsj_query::{FkSchema, QueryBuilder};

    type Emitted = Vec<(usize, Vec<u64>)>;

    /// [`FkCombiner::process`], collecting what it emits.
    fn ins(c: &mut FkCombiner, rel: usize, t: &[u64]) -> Emitted {
        let mut out = Vec::new();
        c.process(rel, t, |r, t| out.push((r, t.to_vec())));
        out
    }

    /// [`FkCombiner::retract`], collecting what it withdraws.
    fn ret(c: &mut FkCombiner, rel: usize, t: &[u64]) -> Emitted {
        let mut out = Vec::new();
        c.retract(rel, t, |r, t| out.push((r, t.to_vec())));
        out
    }

    fn simple_query() -> Query {
        let mut qb = QueryBuilder::new();
        qb.relation("fact", &["K", "M"]);
        qb.relation("dim", &["K", "D"]);
        qb.build().unwrap()
    }

    /// fact(K, M) ⋈ dim(K, D), PK(dim) = K.
    fn simple_plan() -> CombinePlan {
        let fks = FkSchema::none(2).with_pk(1, vec![0]);
        CombinePlan::build(&simple_query(), &fks).unwrap()
    }

    #[test]
    fn fact_after_dim_emits_immediately() {
        let mut c = FkCombiner::new(simple_plan());
        assert!(ins(&mut c, 1, &[7, 100]).is_empty());
        assert_eq!(ins(&mut c, 0, &[7, 1]), vec![(0, vec![7, 1, 100])]);
    }

    #[test]
    fn fact_before_dim_waits_then_flushes() {
        let mut c = FkCombiner::new(simple_plan());
        assert!(ins(&mut c, 0, &[7, 2]).is_empty());
        assert!(ins(&mut c, 0, &[7, 1]).is_empty());
        assert_eq!(
            ins(&mut c, 1, &[7, 100]),
            vec![(0, vec![7, 2, 100]), (0, vec![7, 1, 100])]
        );
    }

    #[test]
    fn unmatched_fact_never_emits() {
        let mut c = FkCombiner::new(simple_plan());
        assert!(ins(&mut c, 0, &[9, 1]).is_empty());
        assert!(ins(&mut c, 1, &[7, 100]).is_empty());
    }

    #[test]
    fn pk_conflicts_are_checked_in_op_order() {
        let q = simple_query();
        let mut c = FkCombiner::new(simple_plan());
        ins(&mut c, 1, &[7, 100]);
        let conflict = Err(SharedStoreError::PrimaryKeyConflict(1));
        // An identical re-insert is an idempotent no-op, not a conflict.
        assert_eq!(
            c.check_ops(&q, &[StreamOp::insert(1, vec![7, 100])]),
            Ok(())
        );
        assert_eq!(
            c.check_ops(&q, &[StreamOp::insert(1, vec![7, 200])]),
            conflict
        );
        // Freed earlier in the same batch: fine. Bound earlier in it: not.
        let rebind = [
            StreamOp::delete(1, vec![7, 100]),
            StreamOp::insert(1, vec![7, 200]),
        ];
        assert_eq!(c.check_ops(&q, &rebind), Ok(()));
        let twice = [
            StreamOp::insert(1, vec![8, 1]),
            StreamOp::insert(0, vec![8, 5]),
            StreamOp::insert(1, vec![8, 2]),
        ];
        assert_eq!(c.check_ops(&q, &twice), conflict);
        // Deleting another tuple under the key frees nothing.
        let miss = [
            StreamOp::delete(1, vec![7, 300]),
            StreamOp::insert(1, vec![7, 200]),
        ];
        assert_eq!(c.check_ops(&q, &miss), conflict);
        assert_eq!(
            c.check_ops(&q, &[StreamOp::insert(2, vec![1])]),
            Err(SharedStoreError::UnknownRelation(2))
        );
    }

    #[test]
    fn retracting_a_fact_withdraws_its_emission() {
        let mut c = FkCombiner::new(simple_plan());
        ins(&mut c, 1, &[7, 100]);
        assert_eq!(ins(&mut c, 0, &[7, 1]), vec![(0, vec![7, 1, 100])]);
        assert_eq!(ret(&mut c, 0, &[7, 1]), vec![(0, vec![7, 1, 100])]);
        // Gone: retracting again (or the dim) withdraws nothing further.
        assert!(ret(&mut c, 0, &[7, 1]).is_empty());
        assert!(ret(&mut c, 1, &[7, 100]).is_empty());
        assert_eq!(c.inserts(), 2);
        assert_eq!(c.deletes(), 2);
    }

    #[test]
    fn retracting_a_parked_fact_is_silent() {
        let mut c = FkCombiner::new(simple_plan());
        assert!(ins(&mut c, 0, &[7, 1]).is_empty()); // parked at the dim
        assert!(ret(&mut c, 0, &[7, 1]).is_empty());
        // The dim arriving later releases nothing.
        assert!(ins(&mut c, 1, &[7, 100]).is_empty());
    }

    #[test]
    fn retracting_a_dim_reparks_its_consumers() {
        let mut c = FkCombiner::new(simple_plan());
        ins(&mut c, 1, &[7, 100]);
        assert_eq!(ins(&mut c, 0, &[7, 1]), vec![(0, vec![7, 1, 100])]);
        assert!(ins(&mut c, 0, &[8, 2]).is_empty()); // different key, parked
                                                     // Withdraw the dim: the emitted combined tuple comes back signed -1.
        assert_eq!(ret(&mut c, 1, &[7, 100]), vec![(0, vec![7, 1, 100])]);
        // The fact is parked again: re-inserting the dim re-emits it.
        assert_eq!(ins(&mut c, 1, &[7, 100]), vec![(0, vec![7, 1, 100])]);
        // And the unrelated parked fact is still waiting for its own key.
        assert_eq!(ins(&mut c, 1, &[8, 50]), vec![(0, vec![8, 2, 50])]);
    }

    /// Chain: fact(K,M) ⋈ d1(K,L) ⋈ d2(L,W); PKs d1.K, d2.L.
    fn chain_plan() -> CombinePlan {
        let mut qb = QueryBuilder::new();
        qb.relation("fact", &["K", "M"]);
        qb.relation("d1", &["K", "L"]);
        qb.relation("d2", &["L", "W"]);
        let q = qb.build().unwrap();
        let fks = FkSchema::none(3).with_pk(1, vec![0]).with_pk(2, vec![2]);
        CombinePlan::build(&q, &fks).unwrap()
    }

    #[test]
    fn chain_resolves_in_any_arrival_order() {
        // All 6 arrival orders of {fact, d1, d2} must emit the same single
        // combined tuple.
        let events: [(usize, Vec<u64>); 3] = [(0, vec![7, 1]), (1, vec![7, 3]), (2, vec![3, 9])];
        let orders: Vec<Vec<usize>> = vec![
            vec![0, 1, 2],
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ];
        for order in orders {
            let mut c = FkCombiner::new(chain_plan());
            let mut emitted = Vec::new();
            for &i in &order {
                let (rel, t) = &events[i];
                emitted.extend(ins(&mut c, *rel, t));
            }
            assert_eq!(emitted, vec![(0, vec![7, 1, 3, 9])], "order {order:?}");
        }
    }

    #[test]
    fn mid_chain_dim_retraction_rewinds_to_that_step() {
        // Retracting d1 must also unregister the fact from d2's registries;
        // its accumulated tuple is re-derived from the fact alone.
        let mut c = FkCombiner::new(chain_plan());
        ins(&mut c, 1, &[7, 3]); // d1: K=7 -> L=3
        ins(&mut c, 2, &[3, 9]); // d2: L=3 -> W=9
        assert_eq!(ins(&mut c, 0, &[7, 1]), vec![(0, vec![7, 1, 3, 9])]);
        assert_eq!(ret(&mut c, 1, &[7, 3]), vec![(0, vec![7, 1, 3, 9])]);
        // Retracting d2 now withdraws nothing (the fact rewound past it).
        assert!(ret(&mut c, 2, &[3, 9]).is_empty());
        // A different d1 binding re-routes the fact through a fresh chain.
        ins(&mut c, 2, &[4, 11]);
        assert_eq!(ins(&mut c, 1, &[7, 4]), vec![(0, vec![7, 1, 4, 11])]);
    }

    /// Turnstile equivalence: a shuffled insert/delete history must leave
    /// the combiner emitting exactly the live combined tuples — checked by
    /// maintaining the signed multiset of emissions against a brute-force
    /// recomputation over the live input.
    #[test]
    fn signed_emissions_track_the_live_combined_relation() {
        let mut rng = RsjRng::seed_from_u64(97);
        let mut c = FkCombiner::new(chain_plan());
        let mut live: [FxHashSet<Vec<u64>>; 3] = Default::default();
        let mut emitted: FxHashSet<Vec<u64>> = FxHashSet::default();
        for step in 0..4000 {
            let rel = rng.index(3);
            let t = match rel {
                0 => vec![rng.below_u64(6), rng.below_u64(4)],
                1 => vec![rng.below_u64(6), rng.below_u64(6)],
                _ => vec![rng.below_u64(6), rng.below_u64(8)],
            };
            // Dims: one tuple per PK (the FkSchema contract). Delete the
            // old binding before inserting a conflicting one.
            let dim_pk_conflict = (rel == 1 || rel == 2)
                && live[rel].iter().any(|u| u[0] == t[0] && u.as_slice() != t);
            if dim_pk_conflict || (rng.below_u64(4) == 0 && live[rel].contains(&t)) {
                let victim = if dim_pk_conflict {
                    live[rel].iter().find(|u| u[0] == t[0]).unwrap().clone()
                } else {
                    t.clone()
                };
                live[rel].remove(&victim);
                for (_, gone) in ret(&mut c, rel, &victim) {
                    assert!(emitted.remove(&gone), "step {step}: unknown retraction");
                }
                if !dim_pk_conflict {
                    continue;
                }
            }
            if live[rel].insert(t.clone()) {
                for (_, new) in ins(&mut c, rel, &t) {
                    assert!(emitted.insert(new), "step {step}: duplicate emission");
                }
            }
        }
        // Brute-force the live combined relation: fact ⋈ d1 ⋈ d2.
        let mut expect: FxHashSet<Vec<u64>> = FxHashSet::default();
        for f in &live[0] {
            for d1 in live[1].iter().filter(|d| d[0] == f[0]) {
                for d2 in live[2].iter().filter(|d| d[0] == d1[1]) {
                    expect.insert(vec![f[0], f[1], d1[1], d2[1]]);
                }
            }
        }
        assert_eq!(emitted, expect);
        assert!(c.inserts() > 0 && c.deletes() > 0);
    }

    #[test]
    fn combiner_snapshot_round_trips_mid_history() {
        let mut rng = RsjRng::seed_from_u64(131);
        let mut c = FkCombiner::new(chain_plan());
        let mut live: [FxHashSet<Vec<u64>>; 3] = Default::default();
        let mut history: Vec<(bool, usize, Vec<u64>)> = Vec::new();
        for _ in 0..600 {
            let rel = rng.index(3);
            let t = vec![rng.below_u64(5), rng.below_u64(5)];
            if rel != 0 && live[rel].iter().any(|u| u[0] == t[0] && u.as_slice() != t) {
                continue; // would violate the PK contract
            }
            if rng.below_u64(4) == 0 && live[rel].contains(&t) {
                live[rel].remove(&t);
                history.push((false, rel, t));
            } else if live[rel].insert(t.clone()) {
                history.push((true, rel, t));
            }
        }
        let split = history.len() * 2 / 3;
        for (insert, rel, t) in &history[..split] {
            if *insert {
                ins(&mut c, *rel, t);
            } else {
                ret(&mut c, *rel, t);
            }
        }
        let snap = |c: &FkCombiner| {
            let mut enc = Encoder::new();
            c.snapshot_to(&mut enc);
            enc.into_bytes()
        };
        let bytes = snap(&c);
        let mut restored =
            FkCombiner::restore_from(chain_plan(), &mut Decoder::new(&bytes)).unwrap();
        assert_eq!(snap(&restored), bytes, "re-serialization drifted");
        // Identical emissions (and order) on the rest of the history.
        for (insert, rel, t) in &history[split..] {
            let (a, b) = if *insert {
                (ins(&mut c, *rel, t), ins(&mut restored, *rel, t))
            } else {
                (ret(&mut c, *rel, t), ret(&mut restored, *rel, t))
            };
            assert_eq!(a, b);
        }
        assert_eq!(c.inserts(), restored.inserts());
        assert_eq!(c.deletes(), restored.deletes());
        // Truncated images are rejected, not mis-restored.
        let half = &bytes[..bytes.len() / 2];
        assert!(FkCombiner::restore_from(chain_plan(), &mut Decoder::new(half)).is_err());
    }

    #[test]
    fn fk_reservoir_matches_plain_reservoir_results() {
        // QY-like query; with k >= results, RSJoin and RSJoin_opt must
        // collect the same set of value assignments.
        let build_query = || {
            let mut qb = QueryBuilder::new();
            qb.relation("ss", &["CK", "M"]);
            qb.relation("c1", &["CK", "HD1"]);
            qb.relation("d1", &["HD1", "IB"]);
            qb.relation("d2", &["HD2", "IB"]);
            qb.relation("c2", &["HD2", "M2"]);
            qb.build().unwrap()
        };
        let q = build_query();
        let fks = FkSchema::none(5)
            .with_pk(1, vec![0])
            .with_pk(2, vec![2])
            .with_pk(3, vec![4]);
        let mut rng = RsjRng::seed_from_u64(21);
        // Dimensions with unique PKs; facts with random FKs.
        let mut stream: Vec<(usize, Vec<u64>)> = Vec::new();
        for ck in 0..10u64 {
            stream.push((1, vec![ck, ck % 4]));
        }
        for hd in 0..4u64 {
            stream.push((2, vec![hd, hd % 2]));
            stream.push((3, vec![hd, hd % 2]));
        }
        for _ in 0..30 {
            stream.push((0, vec![rng.below_u64(10), rng.below_u64(100)]));
            stream.push((4, vec![rng.below_u64(4), rng.below_u64(100)]));
        }
        let mut s = stream.clone();
        let mut shuffle_rng = RsjRng::seed_from_u64(33);
        for i in (1..s.len()).rev() {
            let j = shuffle_rng.index(i + 1);
            s.swap(i, j);
        }
        // Plain driver over the original query.
        let mut plain = super::super::ReservoirJoin::new(q.clone(), 100_000, 1).unwrap();
        // Optimized driver.
        let mut opt = FkReservoirJoin::new(&q, &fks, 100_000, 2).unwrap();
        for (rel, t) in &s {
            plain.process(*rel, t);
            opt.process(*rel, t);
        }
        // Compare as sets of (attr name -> value) maps, since the rewritten
        // query orders attributes differently.
        let project = |samples: Rows<'_>, query: &Query| -> FxHashSet<Vec<(String, u64)>> {
            samples
                .iter()
                .map(|s| {
                    let mut kv: Vec<(String, u64)> = query
                        .attr_names()
                        .iter()
                        .cloned()
                        .zip(s.iter().copied())
                        .collect();
                    kv.sort();
                    kv
                })
                .collect()
        };
        let a = project(plain.samples(), &q);
        let b = project(opt.samples(), opt.rewritten_query());
        assert!(!a.is_empty(), "test instance produced no results");
        assert_eq!(a, b);
    }

    #[test]
    fn fk_reservoir_deletes_match_plain_reservoir_deletes() {
        // Same QY-like instance, now with a turnstile tail: both engines
        // must converge on the live result set after deletes hit facts and
        // dimensions alike.
        let mut qb = QueryBuilder::new();
        qb.relation("ss", &["CK", "M"]);
        qb.relation("c1", &["CK", "HD1"]);
        qb.relation("d1", &["HD1", "IB"]);
        let q = qb.build().unwrap();
        let fks = FkSchema::none(3).with_pk(1, vec![0]).with_pk(2, vec![2]);
        let mut plain = super::super::ReservoirJoin::new(q.clone(), 100_000, 1).unwrap();
        let mut opt = FkReservoirJoin::new(&q, &fks, 100_000, 2).unwrap();
        let mut apply = |ins: bool, rel: usize, t: &[u64]| {
            if ins {
                plain.process(rel, t);
                opt.process(rel, t);
            } else {
                plain.delete(rel, t);
                opt.delete(rel, t);
            }
        };
        for ck in 0..6u64 {
            apply(true, 1, &[ck, ck % 3]);
        }
        for hd in 0..3u64 {
            apply(true, 2, &[hd, hd * 10]);
        }
        for i in 0..24u64 {
            apply(true, 0, &[i % 6, i]);
        }
        // Delete a dimension tuple (kills every chain through CK=2), two
        // facts, and a second-level dimension tuple.
        apply(false, 1, &[2, 2]);
        apply(false, 0, &[0, 0]);
        apply(false, 0, &[3, 3]);
        apply(false, 2, &[1, 10]);
        let project = |samples: Rows<'_>, query: &Query| -> FxHashSet<Vec<(String, u64)>> {
            samples
                .iter()
                .map(|s| {
                    let mut kv: Vec<(String, u64)> = query
                        .attr_names()
                        .iter()
                        .cloned()
                        .zip(s.iter().copied())
                        .collect();
                    kv.sort();
                    kv
                })
                .collect()
        };
        let a = project(plain.samples(), &q);
        let b = project(opt.samples(), opt.rewritten_query());
        assert!(!a.is_empty(), "deletes emptied the test instance");
        assert_eq!(a, b);
        assert_eq!(opt.exact_result_count(), a.len() as u128);
    }
}
