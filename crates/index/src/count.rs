//! Exact `|Q(R)|` served by the index (the count the turnstile repair and
//! the sampler service's publish points recalibrate against).
//!
//! The index maintains *rounded* sub-join counts (`cnt`, `cnt~`) — upper
//! bounds that make updates logarithmic. The exact count is not maintained
//! incrementally (an exact per-op delta is a neighbourhood walk on every
//! insert and polynomial under skew — the cost the rounding exists to
//! avoid); it is computed on demand by one pass over structures the index
//! already has: dense group and item arrays, posting lists, child indexes.

use crate::dynamic::DynamicIndex;
use rsj_common::fx_hash_one;

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
