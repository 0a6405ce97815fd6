//! Exact `|Q(R)|` served by the index (the count the turnstile repair and
//! the sampler service's publish points recalibrate against), and exact
//! *changes* of it.
//!
//! The index maintains *rounded* sub-join counts (`cnt`, `cnt~`) — upper
//! bounds that make updates logarithmic. Exact counts come from two
//! kernels over structures the index already has (dense group and item
//! arrays, posting lists, child indexes), neither of which changes the
//! index or allocates:
//!
//! * [`exact_count`](DynamicIndex::exact_count) — one children-first pass
//!   over every group of one rooted view: the whole `|Q(R)|`, stateless.
//! * the *rooted walk* — one tuple's neighbourhood in the view rooted at
//!   its own relation: leaf groups count their posting lists, inner items
//!   multiply the exact counts of their child groups, grouped items weigh
//!   `feq`. It counts the results a tuple joins
//!   ([`count_joining`](DynamicIndex::count_joining)), and summed over
//!   the tuples inserted since a watermark, how much `|Q(R)|` grew
//!   ([`count_since`](DynamicIndex::count_since)) — a delta join applied
//!   to a count: the change is the join of the changed tuples with the
//!   current state, not a recount of the state. Walks are budgeted in
//!   visited items and groups, so a caller can fall back to the pass when
//!   a neighbourhood is heavier than the whole view
//!   ([`count_pass_cost`](DynamicIndex::count_pass_cost)).

use crate::dynamic::DynamicIndex;
use crate::state::GroupId;
use rsj_common::postings::{ListId, PostingArena};
use rsj_common::{fx_hash_one, Key, TupleId, Value};

/// The tuples a rooted walk leaves out: those of relations `from..` whose
/// ids are at or past their relation's watermark.
#[derive(Clone, Copy)]
struct Mask<'a> {
    from: usize,
    watermarks: &'a [TupleId],
}

impl Mask<'_> {
    /// Leaves nothing out.
    const NONE: Mask<'static> = Mask {
        from: usize::MAX,
        watermarks: &[],
    };

    #[inline]
    fn hides(&self, rel: usize, id: TupleId) -> bool {
        rel >= self.from && id >= self.watermarks[rel]
    }

    /// How many trailing ids of `list` (tuples of `rel`) the mask hides.
    /// Tuples inserted since a watermark were appended after every older
    /// one and nothing was removed since, so in a leaf bucket or a grouped
    /// base list the hidden ids are the tail.
    fn hidden_tail(
        &self,
        postings: &PostingArena,
        list: ListId,
        rel: usize,
        budget: &mut u64,
    ) -> Option<usize> {
        if rel < self.from {
            return Some(0);
        }
        let len = postings.len(list);
        let mut hidden = 0;
        while hidden < len && postings.get(list, (len - 1 - hidden) as u32) >= self.watermarks[rel]
        {
            spend(budget)?;
            hidden += 1;
        }
        Some(hidden)
    }
}

/// Takes one visit from `budget`; `None` once it is spent.
#[inline]
fn spend(budget: &mut u64) -> Option<()> {
    *budget = budget.checked_sub(1)?;
    Some(())
}

impl DynamicIndex {
    /// Exact live `|Q(R)|`, counted over the index's own groups.
    ///
    /// One children-first pass over the configurations of the view rooted
    /// at relation 0, along the `child_cfgs` edges fixed at construction.
    /// A configuration's message is the exact sub-join count of each of
    /// its `key(e)` groups; a parent folds a child's message in by walking
    /// the child's groups and probing its own child index once per child
    /// *group* — the posting list found there is exactly the set of parent
    /// items joining that group — so no tuple is projected, hashed or
    /// copied. Leaf messages are posting-list lengths, grouped (§4.4)
    /// items weigh their exact `feq`, and zero-list items are skipped: an
    /// item's rounded weight is zero exactly when its exact weight is.
    ///
    /// `O(items + groups)` of the view, no change to the index. The
    /// scratch (one `u128` per group, plus one per item of a configuration
    /// with two or more children) is allocated per call and dropped, so a
    /// resident index carries nothing for it.
    ///
    /// The arithmetic saturates, so the value is `min(|Q(R)|, u128::MAX)`
    /// whatever the order of evaluation. The index's own rounded counts
    /// are `u128`s bounding the exact ones from above, so a count over an
    /// index whose counters have not overflowed never reaches the cap; the
    /// `Database` pass in `rsj-core` (`exact_result_count`) has no such
    /// bound and reports `u128::MAX` for anything larger.
    pub fn exact_count(&self) -> u128 {
        // The root configuration has the single group of the empty key.
        self.exact_group_counts(self.trees[0].cfg[0])
            .iter()
            .fold(0, |a, &s| a.saturating_add(s))
    }

    /// What one [`exact_count`](DynamicIndex::exact_count) pass visits:
    /// the groups and items of the view it walks. The budget unit of the
    /// rooted walks — a caller that would spend more than this on walks
    /// is better served by the pass.
    pub fn count_pass_cost(&self) -> u64 {
        self.trees[0]
            .cfg
            .iter()
            .map(|&c| {
                let ns = &self.configs[c as usize];
                (ns.arena.len() + ns.item_pos.len()) as u64
            })
            .sum()
    }

    /// Exact number of live results the tuple `tuple` of `rel` (stored or
    /// hypothetical) joins with, counting only partner tuples below
    /// `below` — each relation's watermark; an empty slice bounds nothing.
    /// The walk reads only the view rooted at `rel`, which holds no tuple
    /// of `rel` itself, so the count is the same before and after `tuple`
    /// is inserted or deleted.
    ///
    /// `None` when the walk would visit more items and groups than
    /// `budget` holds (what was visited is taken from it either way).
    pub fn count_joining(
        &self,
        rel: usize,
        tuple: &[Value],
        below: &[TupleId],
        budget: &mut u64,
    ) -> Option<u128> {
        let mask = match below {
            [] => Mask::NONE,
            _ => Mask {
                from: 0,
                watermarks: below,
            },
        };
        self.walk_tuple(rel, tuple, mask, budget)
    }

    /// By how much `|Q(R)|` exceeds its value when each relation's next
    /// tuple id was `watermarks[rel]`, provided nothing has been deleted
    /// since: the exact number of live results holding at least one tuple
    /// at or past its watermark.
    ///
    /// Each such result is counted once, by the walk from its
    /// `(relation, id)`-greatest new tuple: the walk from a new tuple of
    /// `rel` leaves out the new tuples of every relation after `rel`.
    /// `None` when the walks would visit more than `budget` (taken from
    /// either way).
    pub fn count_since(&self, watermarks: &[TupleId], budget: &mut u64) -> Option<u128> {
        let mut sum = 0u128;
        for (rel, &watermark) in watermarks.iter().enumerate() {
            let r = self.database().relation(rel);
            let mask = Mask {
                from: rel + 1,
                watermarks,
            };
            for tid in watermark..r.num_slots() as TupleId {
                debug_assert!(r.is_live(tid), "a tuple died since the watermark");
                spend(budget)?;
                sum = sum.saturating_add(self.walk_tuple(rel, r.tuple(tid), mask, budget)?);
            }
        }
        Some(sum)
    }

    /// The rooted walk from `tuple` of `root`: the product, over `root`'s
    /// children in the view rooted at it, of the exact count of the child
    /// group `tuple` joins.
    fn walk_tuple(
        &self,
        root: usize,
        tuple: &[Value],
        mask: Mask<'_>,
        budget: &mut u64,
    ) -> Option<u128> {
        let cfg = self.trees[root].cfg[root];
        let positions = &self.infos[cfg as usize].child_key_positions;
        self.walk_children(cfg, tuple, positions, mask, budget)
    }

    /// The product, over configuration `cfg`'s children, of the exact
    /// count of the child group `values` projects onto (through each
    /// child's key `positions`).
    fn walk_children(
        &self,
        cfg: u32,
        values: &[Value],
        positions: &[Vec<usize>],
        mask: Mask<'_>,
        budget: &mut u64,
    ) -> Option<u128> {
        let mut product = 1u128;
        for (&d, positions) in self.child_cfgs[cfg as usize].iter().zip(positions) {
            let key = Key::project(values, positions);
            let Some(g) = self.configs[d as usize].group_id(fx_hash_one(&key), &key) else {
                return Some(0);
            };
            match self.walk_group(d, g, mask, budget)? {
                0 => return Some(0),
                x => product = product.saturating_mul(x),
            }
        }
        Some(product)
    }

    /// The exact count of results below group `g` of configuration `c`,
    /// over the tuples `mask` keeps.
    fn walk_group(&self, c: u32, g: GroupId, mask: Mask<'_>, budget: &mut u64) -> Option<u128> {
        spend(budget)?;
        let ns = &self.configs[c as usize];
        let info = &self.infos[c as usize];
        let rel = info.relation;
        let leaf = self.child_cfgs[c as usize].is_empty();
        let mut sum = 0u128;
        // Zero-list items are skipped: an item's rounded weight is zero
        // exactly when its exact weight is.
        for b in &ns.group(g).buckets {
            if leaf {
                let kept = ns.postings.len(b.list)
                    - mask.hidden_tail(&ns.postings, b.list, rel, budget)?;
                sum = sum.saturating_add(kept as u128);
                continue;
            }
            for item in ns.postings.iter(b.list) {
                spend(budget)?;
                let (values, positions, weight) = if ns.grouped {
                    let base = ns.grouped_data.base[item as usize];
                    let feq = ns.grouped_data.feq[item as usize] as usize
                        - mask.hidden_tail(&ns.postings, base, rel, budget)?;
                    let ebar = ns.grouped_data.ebar_vals[item as usize].as_slice();
                    (ebar, &info.child_key_positions_in_ebar, feq as u128)
                } else if mask.hides(rel, item) {
                    continue;
                } else {
                    (
                        self.database().relation(rel).tuple(item),
                        &info.child_key_positions,
                        1,
                    )
                };
                if weight > 0 {
                    let below = self.walk_children(c, values, positions, mask, budget)?;
                    sum = sum.saturating_add(below.saturating_mul(weight));
                }
            }
        }
        Some(sum)
    }

    /// The exact sub-join count below each group of configuration `c`,
    /// indexed by [`GroupId`](crate::state::GroupId).
    fn exact_group_counts(&self, c: u32) -> Vec<u128> {
        let ns = &self.configs[c as usize];
        let kids = &self.child_cfgs[c as usize];
        let mut sums = vec![0u128; ns.arena.len()];
        if kids.is_empty() {
            debug_assert!(!ns.grouped, "only internal nodes are grouped");
            for (sum, group) in sums.iter_mut().zip(&ns.arena) {
                *sum = group.bucketed_len(&ns.postings) as u128;
            }
            return sums;
        }
        // Every child but the last multiplies into a per-item scratch; the
        // last folds the finished product into the item's group, so a
        // single-child configuration needs no per-item scratch at all.
        let mut weights = match kids.len() {
            1 => Vec::new(),
            _ => vec![1u128; ns.item_pos.len()],
        };
        for (ci, &d) in kids.iter().enumerate() {
            let last = ci + 1 == kids.len();
            let child_sums = self.exact_group_counts(d);
            for (key, &g) in self.configs[d as usize].groups.iter() {
                let x = child_sums[g as usize];
                if x == 0 {
                    continue;
                }
                let Some(&list) = ns.child_indexes[ci].get(fx_hash_one(&key), &key) else {
                    continue;
                };
                // Posting lists hold live items only (deletes unlink), so
                // every `item_pos` read here is current.
                for item in ns.postings.iter(list) {
                    let pos = ns.item_pos[item as usize];
                    if pos.level().is_none() {
                        continue;
                    }
                    if !last {
                        let w = &mut weights[item as usize];
                        *w = w.saturating_mul(x);
                        continue;
                    }
                    let mut w = x;
                    if ns.grouped {
                        w = w.saturating_mul(ns.grouped_data.feq[item as usize] as u128);
                    }
                    if kids.len() > 1 {
                        w = w.saturating_mul(weights[item as usize]);
                    }
                    let sum = &mut sums[pos.group as usize];
                    *sum = sum.saturating_add(w);
                }
            }
        }
        debug_assert!(
            sums.iter()
                .zip(&ns.arena)
                .all(|(&s, g)| s <= g.cnt && (s == 0) == (g.cnt == 0)),
            "an exact count sits under cnt and vanishes with it"
        );
        sums
    }
}

#[cfg(test)]
mod tests {
    use crate::dynamic::{DynamicIndex, IndexOptions};
    use rsj_common::rng::RsjRng;
    use rsj_common::TupleId;
    use rsj_query::QueryBuilder;

    fn line3() -> DynamicIndex {
        let mut qb = QueryBuilder::new();
        qb.relation("G1", &["A", "B"]);
        qb.relation("G2", &["B", "C"]);
        qb.relation("G3", &["C", "D"]);
        DynamicIndex::new(qb.build().unwrap(), IndexOptions::default()).unwrap()
    }

    fn unbounded() -> u64 {
        u64::MAX
    }

    fn next_ids(idx: &DynamicIndex) -> Vec<TupleId> {
        idx.database()
            .iter()
            .map(|r| r.num_slots() as TupleId)
            .collect()
    }

    #[test]
    fn walks_count_what_the_pass_counts() {
        let mut rng = RsjRng::seed_from_u64(3);
        let mut idx = line3();
        let mut anchor = (idx.exact_count(), next_ids(&idx));
        for step in 0..400 {
            let (rel, t) = (rng.index(3), [rng.below_u64(6), rng.below_u64(6)]);
            let joins = idx.count_joining(rel, &t, &[], &mut unbounded());
            idx.insert(rel, &t);
            // A tuple's own walk does not see its relation.
            assert_eq!(idx.count_joining(rel, &t, &[], &mut unbounded()), joins);
            let grown = idx.count_since(&anchor.1, &mut unbounded()).unwrap();
            assert_eq!(anchor.0 + grown, idx.exact_count(), "step {step}");
            if step % 7 == 0 {
                anchor = (idx.exact_count(), next_ids(&idx));
            }
        }
    }

    #[test]
    fn no_walk_spends_more_than_its_budget() {
        // A hub: one G2 tuple per C value on B = 0, then a burst of G1
        // tuples on B = 0, each of whose walks visits every hub item.
        let mut idx = line3();
        for c in 0..300 {
            idx.insert(1, &[0, c]);
            idx.insert(2, &[c, 0]);
        }
        let anchor = (idx.exact_count(), next_ids(&idx));
        for a in 0..40 {
            idx.insert(0, &[a, 0]);
        }
        let pass = idx.count_pass_cost();
        let mut budget = pass;
        assert_eq!(
            idx.count_since(&anchor.1, &mut budget),
            None,
            "the burst outweighs a pass"
        );
        assert_eq!(budget, 0, "a dropped settle stops at its budget");
        let mut budget = u64::MAX;
        let grown = idx.count_since(&anchor.1, &mut budget).unwrap();
        assert!(
            u64::MAX - budget > pass,
            "the unbounded settle visits more than a pass"
        );
        assert_eq!(anchor.0 + grown, idx.exact_count());
        // A walk within budget reports exactly what it spent.
        let mut budget = pass;
        let one = idx.count_joining(0, &[99, 0], &[], &mut budget).unwrap();
        assert_eq!(one, 300);
        assert!(budget < pass && pass - budget <= 2 * 300 + 2);
    }
}
