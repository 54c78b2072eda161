//! Ranked union: merge several ranked streams into one global ranked
//! stream — the glue of the union-of-trees technique (§3: submodular
//! width "decomposes a cyclic query into a union of multiple trees,
//! each one receiving a subset of the input") and of every union the
//! engine serves: base-⊎-delta terms, or the parts of a hash
//! partition.
//!
//! Because the cases (or terms, or parts) partition the output, no
//! de-duplication is needed; the merge is a k-way **tournament tree**
//! (loser tree) with O(log #streams) delay overhead. It is a shell
//! until the first `next()`, which pulls one head per stream. Two tie
//! policies share the same merge body:
//!
//! * [`RankedUnion`] — arrival order: equal-cost answers keep the order
//!   in which they were pulled from the inputs. This is the historical
//!   union-of-trees behaviour.
//! * [`RankedMerge`] — canonical order: equal-cost answers are emitted
//!   sorted by output tuple (`Vec<Value>` has a total order), then by
//!   stream index. It wraps every input in [`CanonicalOrder`], which
//!   makes the merged stream byte-identical regardless of how answers
//!   were partitioned across the inputs — the contract delta-backed
//!   serving relies on.

use crate::answer::{AnyK, RankedAnswer};
use anyk_storage::Value;
use std::collections::VecDeque;
use std::fmt::Debug;

/// An index-based tournament ("loser") tree over `k` leaves.
///
/// The tree stores only leaf *indices*; the caller owns the heads and
/// supplies a strict `beats(a, b)` comparator per operation (`true` iff
/// leaf `a`'s head must surface before leaf `b`'s). The comparator must
/// be tie-free — break ties by sequence number or leaf index.
///
/// After any leaf's head changes, [`replay`](Self::replay) restores the
/// winner in O(log k) comparisons; [`rebuild`](Self::rebuild) recomputes
/// the whole tree in O(k) when many heads changed at once.
#[derive(Debug, Clone)]
pub struct TournamentTree {
    /// `tree[0]` is the overall winner; `tree[1..k]` hold the loser of
    /// each internal match. Leaves live at virtual nodes `k..2k-1`.
    tree: Vec<usize>,
    k: usize,
}

impl TournamentTree {
    /// A tree over `k` leaves. Call [`rebuild`](Self::rebuild) before
    /// reading the winner.
    pub fn new(k: usize) -> Self {
        TournamentTree {
            tree: vec![0; k.max(1)],
            k,
        }
    }

    /// Number of leaves.
    pub fn len(&self) -> usize {
        self.k
    }

    /// True when the tree has no leaves (and thus no winner).
    pub fn is_empty(&self) -> bool {
        self.k == 0
    }

    /// The current winning leaf, if any.
    pub fn winner(&self) -> Option<usize> {
        if self.k == 0 {
            None
        } else {
            Some(self.tree[0])
        }
    }

    /// Recompute every match bottom-up. O(k) comparisons.
    pub fn rebuild(&mut self, mut beats: impl FnMut(usize, usize) -> bool) {
        let k = self.k;
        if k == 0 {
            return;
        }
        if k == 1 {
            self.tree[0] = 0;
            return;
        }
        // winners[j] = winning leaf of the subtree rooted at internal
        // node j; children of j are nodes 2j and 2j+1, where a node
        // x >= k is leaf x - k.
        let mut winners = vec![0usize; k];
        for j in (1..k).rev() {
            let resolve = |x: usize, w: &[usize]| if x >= k { x - k } else { w[x] };
            let a = resolve(2 * j, &winners);
            let b = resolve(2 * j + 1, &winners);
            let (win, lose) = if beats(a, b) { (a, b) } else { (b, a) };
            winners[j] = win;
            self.tree[j] = lose;
        }
        self.tree[0] = winners[1];
    }

    /// Re-run the matches on the path from `leaf` to the root after its
    /// head changed. O(log k) comparisons.
    pub fn replay(&mut self, leaf: usize, mut beats: impl FnMut(usize, usize) -> bool) {
        debug_assert!(leaf < self.k);
        let mut s = leaf;
        let mut t = (self.k + leaf) / 2;
        while t >= 1 {
            if beats(self.tree[t], s) {
                std::mem::swap(&mut self.tree[t], &mut s);
            }
            t /= 2;
        }
        self.tree[0] = s;
    }
}

/// Adapts a ranked stream to the *canonical* tie order: within each
/// maximal run of equal-cost answers, answers are re-emitted sorted by
/// output tuple (`Value` and therefore `Vec<Value>` are totally
/// ordered). Costs are untouched, so the any-k invariant is preserved.
///
/// The lookahead is bounded by the largest tie group in the stream —
/// the "bounded lookahead" of the canonical merge: an input never
/// buffers past the first answer whose cost strictly increases.
pub struct CanonicalOrder<C, I> {
    inner: I,
    /// The current equal-cost run, sorted by tuple, ready to emit.
    run: VecDeque<RankedAnswer<C>>,
    /// First answer of the *next* run (its cost broke the current tie).
    lookahead: Option<RankedAnswer<C>>,
}

impl<C: Clone + Ord, I: Iterator<Item = RankedAnswer<C>>> CanonicalOrder<C, I> {
    /// Wrap `inner`, which must already yield non-decreasing costs.
    pub fn new(inner: I) -> Self {
        CanonicalOrder {
            inner,
            run: VecDeque::new(),
            lookahead: None,
        }
    }

    fn fill_run(&mut self) {
        let first = match self.lookahead.take().or_else(|| self.inner.next()) {
            Some(a) => a,
            None => return,
        };
        let cost = first.cost.clone();
        // Refill the (drained) run buffer in place, so a tie-free
        // stream costs no allocation per answer; `clear` rewinds the
        // ring to its start, which keeps `make_contiguous` free.
        self.run.clear();
        self.run.push_back(first);
        for a in self.inner.by_ref() {
            if a.cost == cost {
                self.run.push_back(a);
            } else {
                self.lookahead = Some(a);
                break;
            }
        }
        self.run
            .make_contiguous()
            .sort_by(|a, b| a.values.cmp(&b.values));
    }
}

impl<C: Clone + Ord, I: Iterator<Item = RankedAnswer<C>>> Iterator for CanonicalOrder<C, I> {
    type Item = RankedAnswer<C>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.run.is_empty() {
            self.fill_run();
        }
        self.run.pop_front()
    }
}

impl<I: AnyK> AnyK for CanonicalOrder<I::Cost, I> {
    type Cost = I::Cost;
}

/// How a [`Merge`] breaks ties between equal-cost heads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TiePolicy {
    /// First pulled wins (global sequence number).
    Arrival,
    /// Smaller output tuple wins; equal tuples fall back to the lower
    /// stream index.
    Canonical,
}

struct HeadEntry<C> {
    cost: C,
    seq: u64,
    values: Vec<Value>,
}

/// Shared k-way merge body: one buffered head per stream plus a
/// tournament tree over them.
struct Merge<I: AnyK> {
    streams: Vec<I>,
    /// Empty until the first pull primes it; one slot per stream after.
    heads: Vec<Option<HeadEntry<I::Cost>>>,
    tree: TournamentTree,
    seq: u64,
    policy: TiePolicy,
}

/// Strict comparator over head slots: a live head beats an exhausted
/// one; otherwise (cost, tie policy) decides; exhausted slots order by
/// index so the relation stays total.
fn beats<C: Ord>(heads: &[Option<HeadEntry<C>>], policy: TiePolicy, a: usize, b: usize) -> bool {
    match (&heads[a], &heads[b]) {
        (Some(x), Some(y)) => x
            .cost
            .cmp(&y.cost)
            .then_with(|| match policy {
                TiePolicy::Arrival => x.seq.cmp(&y.seq),
                TiePolicy::Canonical => x.values.cmp(&y.values).then_with(|| a.cmp(&b)),
            })
            .is_lt(),
        (Some(_), None) => true,
        (None, Some(_)) => false,
        (None, None) => a < b,
    }
}

impl<I: AnyK> Merge<I> {
    /// A shell only: no stream is pulled until [`prime`](Self::prime).
    fn new(streams: Vec<I>, policy: TiePolicy) -> Self {
        let n = streams.len();
        Merge {
            streams,
            heads: Vec::with_capacity(n),
            tree: TournamentTree::new(n),
            seq: 0,
            policy,
        }
    }

    /// Pull the first head of every stream and build the tree. Runs
    /// once, on the first pull; later calls return immediately.
    fn prime(&mut self) {
        if self.heads.len() == self.streams.len() {
            return;
        }
        for i in 0..self.streams.len() {
            let head = self.pull(i);
            self.heads.push(head);
        }
        let (heads, policy) = (&self.heads, self.policy);
        self.tree.rebuild(|a, b| beats(heads, policy, a, b));
    }

    fn pull(&mut self, i: usize) -> Option<HeadEntry<I::Cost>> {
        self.streams[i].next().map(|a| {
            self.seq += 1;
            HeadEntry {
                cost: a.cost,
                seq: self.seq,
                values: a.values,
            }
        })
    }

    fn next_answer(&mut self) -> Option<RankedAnswer<I::Cost>> {
        self.prime();
        let w = self.tree.winner()?;
        let head = self.heads[w].take()?;
        self.heads[w] = self.pull(w);
        let (heads, policy) = (&self.heads, self.policy);
        self.tree.replay(w, |a, b| beats(heads, policy, a, b));
        Some(RankedAnswer {
            cost: head.cost,
            values: head.values,
        })
    }
}

/// A k-way merge of ranked streams (all yielding the same cost type),
/// breaking cost ties in arrival order — the union-of-trees merger.
pub struct RankedUnion<I: AnyK> {
    inner: Merge<I>,
}

impl<I: AnyK> RankedUnion<I> {
    /// Merge `streams`. Nothing is pulled until the first `next()`,
    /// which takes one head answer from each.
    pub fn new(streams: Vec<I>) -> Self {
        RankedUnion {
            inner: Merge::new(streams, TiePolicy::Arrival),
        }
    }
}

impl<I: AnyK> Iterator for RankedUnion<I>
where
    I::Cost: Debug,
{
    type Item = RankedAnswer<I::Cost>;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next_answer()
    }
}

impl<I: AnyK> AnyK for RankedUnion<I>
where
    I::Cost: Debug,
{
    type Cost = I::Cost;
}

/// A k-way merge of ranked streams with the *canonical* deterministic
/// tie-break: (cost, output tuple, stream index). When every input is
/// wrapped in [`CanonicalOrder`], the merged stream is the globally
/// canonical ranked stream — identical no matter how the answer set was
/// partitioned across the inputs. This is the tie-break contract of
/// delta-backed serving.
pub struct RankedMerge<I: AnyK> {
    inner: Merge<CanonicalOrder<I::Cost, I>>,
}

impl<I: AnyK> RankedMerge<I> {
    /// Merge `streams`, canonicalizing each input's tie groups first.
    /// Nothing is pulled until the first `next()` (or
    /// [`prime`](Self::prime)).
    pub fn new(streams: Vec<I>) -> Self {
        RankedMerge {
            inner: Merge::new(
                streams.into_iter().map(CanonicalOrder::new).collect(),
                TiePolicy::Canonical,
            ),
        }
    }

    /// Do the first pull's set-up now — one head (and its tie run) per
    /// input, then the tree build — so a caller can time it apart from
    /// enumeration. Idempotent; `next()` calls it anyway.
    pub fn prime(&mut self) {
        self.inner.prime();
    }
}

impl<I: AnyK> Iterator for RankedMerge<I>
where
    I::Cost: Debug,
{
    type Item = RankedAnswer<I::Cost>;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next_answer()
    }
}

impl<I: AnyK> AnyK for RankedMerge<I>
where
    I::Cost: Debug,
{
    type Cost = I::Cost;
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_storage::{Value, Weight};

    /// A canned ranked stream for testing.
    struct Canned {
        items: std::vec::IntoIter<f64>,
    }
    impl Iterator for Canned {
        type Item = RankedAnswer<Weight>;
        fn next(&mut self) -> Option<Self::Item> {
            self.items.next().map(|c| RankedAnswer {
                cost: Weight::new(c),
                values: vec![Value::Int((c * 10.0) as i64)],
            })
        }
    }
    impl AnyK for Canned {
        type Cost = Weight;
    }

    fn canned(items: Vec<f64>) -> Canned {
        Canned {
            items: items.into_iter(),
        }
    }

    /// A canned stream with explicit (cost, tuple) pairs.
    struct Pairs {
        items: std::vec::IntoIter<(f64, Vec<i64>)>,
    }
    impl Iterator for Pairs {
        type Item = RankedAnswer<Weight>;
        fn next(&mut self) -> Option<Self::Item> {
            self.items.next().map(|(c, vs)| RankedAnswer {
                cost: Weight::new(c),
                values: vs.into_iter().map(Value::Int).collect(),
            })
        }
    }
    impl AnyK for Pairs {
        type Cost = Weight;
    }

    fn pairs(items: Vec<(f64, Vec<i64>)>) -> Pairs {
        Pairs {
            items: items.into_iter(),
        }
    }

    #[test]
    fn merges_in_order() {
        let a = canned(vec![0.1, 0.5, 0.9]);
        let b = canned(vec![0.2, 0.3, 1.5]);
        let c = canned(vec![]);
        let merged: Vec<f64> = RankedUnion::new(vec![a, b, c])
            .map(|x| x.cost.get())
            .collect();
        assert_eq!(merged, vec![0.1, 0.2, 0.3, 0.5, 0.9, 1.5]);
    }

    #[test]
    fn empty_union() {
        let merged: Vec<f64> = RankedUnion::new(Vec::<Canned>::new())
            .map(|x| x.cost.get())
            .collect();
        assert!(merged.is_empty());
    }

    #[test]
    fn arrival_order_breaks_ties_by_pull_sequence() {
        // Both streams open with cost 1.0; stream 0's head was pulled
        // first, so it must surface first.
        let a = pairs(vec![(1.0, vec![9]), (2.0, vec![1])]);
        let b = pairs(vec![(1.0, vec![0]), (3.0, vec![2])]);
        let merged: Vec<Vec<Value>> = RankedUnion::new(vec![a, b]).map(|x| x.values).collect();
        assert_eq!(
            merged,
            vec![
                vec![Value::Int(9)],
                vec![Value::Int(0)],
                vec![Value::Int(1)],
                vec![Value::Int(2)],
            ]
        );
    }

    #[test]
    fn tournament_tree_single_leaf_and_empty() {
        let mut t = TournamentTree::new(0);
        t.rebuild(|_, _| unreachable!());
        assert_eq!(t.winner(), None);
        assert!(t.is_empty());

        let mut t = TournamentTree::new(1);
        t.rebuild(|_, _| unreachable!());
        assert_eq!(t.winner(), Some(0));
        t.replay(0, |_, _| unreachable!());
        assert_eq!(t.winner(), Some(0));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn tournament_tree_replay_tracks_changing_heads() {
        // Heads are plain integers; smaller beats larger, index breaks
        // ties strictly.
        let mut heads = [5u64, 3, 8, 1, 9, 2, 7];
        let mut t = TournamentTree::new(heads.len());
        let cmp = |h: &[u64; 7], a: usize, b: usize| (h[a], a) < (h[b], b);
        t.rebuild(|a, b| cmp(&heads, a, b));
        // Drain by repeatedly bumping the winner's head, exactly as a
        // merge does, and check the pop order is globally sorted.
        let mut order = Vec::new();
        for step in 0..heads.len() {
            let w = t.winner().unwrap();
            order.push(heads[w]);
            heads[w] = u64::MAX - step as u64; // exhausted marker, still unique
            t.replay(w, |a, b| cmp(&heads, a, b));
        }
        assert_eq!(order, vec![1, 2, 3, 5, 7, 8, 9]);
    }

    #[test]
    fn canonical_order_sorts_within_tie_groups_only() {
        let s = pairs(vec![
            (1.0, vec![3]),
            (1.0, vec![1]),
            (1.0, vec![2]),
            (2.0, vec![9]),
            (3.0, vec![5]),
            (3.0, vec![4]),
        ]);
        let out: Vec<(f64, i64)> = CanonicalOrder::new(s)
            .map(|a| {
                let v = match a.values[0] {
                    Value::Int(i) => i,
                    _ => unreachable!(),
                };
                (a.cost.get(), v)
            })
            .collect();
        assert_eq!(
            out,
            vec![(1.0, 1), (1.0, 2), (1.0, 3), (2.0, 9), (3.0, 4), (3.0, 5)]
        );
    }

    #[test]
    fn ranked_merge_is_partition_invariant() {
        // The same six answers split two different ways across streams
        // must merge to the identical canonical sequence.
        let all = [
            (1.0, vec![1, 7]),
            (1.0, vec![2, 0]),
            (1.0, vec![2, 4]),
            (2.0, vec![0, 0]),
            (2.0, vec![9, 9]),
            (5.0, vec![3, 3]),
        ];
        let split_a = vec![
            pairs(vec![all[1].clone(), all[2].clone(), all[5].clone()]),
            pairs(vec![all[0].clone(), all[3].clone(), all[4].clone()]),
        ];
        let split_b = vec![
            pairs(vec![all[4].clone()]),
            pairs(vec![all[2].clone(), all[3].clone()]),
            pairs(vec![all[0].clone(), all[1].clone(), all[5].clone()]),
        ];
        let run = |streams: Vec<Pairs>| -> Vec<(String, Vec<Value>)> {
            RankedMerge::new(streams)
                .map(|a| (format!("{:?}", a.cost), a.values))
                .collect()
        };
        let a = run(split_a);
        let b = run(split_b);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6);
        // And the canonical order equals the (cost, tuple) sort of the set.
        let tuples: Vec<Vec<i64>> = a
            .iter()
            .map(|(_, vs)| {
                vs.iter()
                    .map(|v| match v {
                        Value::Int(i) => *i,
                        _ => unreachable!(),
                    })
                    .collect()
            })
            .collect();
        assert_eq!(
            tuples,
            vec![
                vec![1, 7],
                vec![2, 0],
                vec![2, 4],
                vec![0, 0],
                vec![9, 9],
                vec![3, 3]
            ]
        );
    }
}
