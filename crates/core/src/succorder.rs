//! Successor orders over join-key groups — the five ANYK-PART variants.
//!
//! Lawler–Murty deviations replace one tuple with the "next" tuple in
//! its group. How each group organizes its members determines the
//! preprocessing/enumeration trade-off (the companion paper's variants):
//!
//! * [`SuccessorKind::Eager`]  — fully sort each group; successor = next
//!   in sorted order (one successor per pop).
//! * [`SuccessorKind::All`]    — no order at all: the minimum's successors
//!   are *all* other members (cheap build, floods the queue).
//! * [`SuccessorKind::Take2`]  — binary min-heap layout: each member's
//!   successors are its ≤ 2 heap children (cheap build, two per pop).
//! * [`SuccessorKind::Lazy`]   — incremental heapsort: a sorted prefix is
//!   materialized on demand from a heap (successor = next rank).
//! * [`SuccessorKind::Quick`]  — incremental quicksort (IQS): ranks are
//!   materialized by lazily partitioning.
//!
//! **Where an order lives.** Eager's sorted order depends only on the
//! prepared subcosts, so it is kept in the shared
//! [`TdpInstance`](crate::tdp::TdpInstance): row ids only, sorted by
//! `(subcost, row)` the first time any stream touches the group, then
//! read by every stream and thread of the prepared query. A stream
//! under Eager therefore owns no per-group state and spawns in `O(1)`.
//! The other four kinds are the paper-variant reference: each
//! stream builds its own [`GroupOrder`] per touched group, as the
//! companion paper's single-stream cost model has it. Eager, Lazy and
//! Quick all walk the same `(cost, row)` chain, so their answer
//! sequences are identical.
//!
//! Correctness requirement (Lawler): every member must be reachable from
//! the group minimum through a successor chain with non-decreasing
//! costs. All five satisfy it; property tests below check both
//! reachability and monotonicity.

use anyk_storage::RowId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Which successor organization to use (the ANYK-PART variant).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuccessorKind {
    /// Sort each group once, in the shared prepared instance.
    Eager,
    /// Star from the minimum to everything else.
    All,
    /// Binary-heap children.
    Take2,
    /// Incremental heapsort.
    Lazy,
    /// Incremental quicksort.
    Quick,
}

impl SuccessorKind {
    /// All variants, for experiments and tests.
    pub const ALL_KINDS: [SuccessorKind; 5] = [
        SuccessorKind::Eager,
        SuccessorKind::All,
        SuccessorKind::Take2,
        SuccessorKind::Lazy,
        SuccessorKind::Quick,
    ];

    /// Display name used in experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            SuccessorKind::Eager => "Eager",
            SuccessorKind::All => "All",
            SuccessorKind::Take2 => "Take2",
            SuccessorKind::Lazy => "Lazy",
            SuccessorKind::Quick => "Quick",
        }
    }
}

/// A member reference within a group order. Its meaning is
/// variant-specific (rank for Eager/Lazy/Quick, array index for
/// All/Take2); treat as opaque.
pub type MemberRef = u32;

/// The member ref of index `i` in a group's members. A group is a
/// subset of one relation, and a relation holds at most `MAX_ROWS`
/// rows, each named by a 32-bit `RowId`, so every index fits.
fn member_ref(i: usize) -> MemberRef {
    MemberRef::try_from(i).expect("a group has at most MAX_ROWS members")
}

/// A group's members organized for successor queries by one stream —
/// the four per-stream kinds. (Eager has no arm here: its order is the
/// shared one in the prepared instance.)
#[derive(Debug)]
pub enum GroupOrder<C> {
    /// Unsorted; `best` is the argmin, whose successors are all others.
    All {
        /// The members, in group order.
        items: Vec<(C, RowId)>,
        /// Index of the minimum.
        best: u32,
    },
    /// A binary min-heap array; successors are the ≤ 2 heap children.
    Take2(Vec<(C, RowId)>),
    /// Incremental heapsort: `sorted` holds the ranks materialized so
    /// far, the rest wait in `heap`.
    Lazy {
        /// Ranks `0..sorted.len()`, final.
        sorted: Vec<(C, RowId)>,
        /// Members not yet ranked.
        heap: BinaryHeap<Reverse<(C, RowId)>>,
    },
    /// Incremental quicksort: `items[..done]` are final ranks.
    Quick {
        /// The members, partially sorted.
        items: Vec<(C, RowId)>,
        /// How many leading ranks are final.
        done: usize,
        /// Exclusive ends of the pending segments (top = current).
        stack: Vec<usize>,
    },
}

impl<C: Clone + Ord> GroupOrder<C> {
    /// Organize `members` under `kind`. `members` must be non-empty
    /// (the full reducer guarantees non-empty groups).
    ///
    /// # Panics
    ///
    /// On [`SuccessorKind::Eager`], which keeps no per-stream order.
    pub fn build(kind: SuccessorKind, mut members: Vec<(C, RowId)>) -> Self {
        assert!(!members.is_empty(), "groups are non-empty after reduction");
        match kind {
            SuccessorKind::Eager => {
                panic!("Eager reads the prepared instance's shared order")
            }
            SuccessorKind::All => GroupOrder::All {
                best: member_ref(argmin(&members)),
                items: members,
            },
            SuccessorKind::Take2 => {
                heapify_by(&mut members, |a, b| a < b);
                GroupOrder::Take2(members)
            }
            SuccessorKind::Lazy => GroupOrder::Lazy {
                sorted: Vec::new(),
                heap: members.into_iter().map(Reverse).collect(),
            },
            SuccessorKind::Quick => GroupOrder::Quick {
                stack: vec![members.len()],
                items: members,
                done: 0,
            },
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        match self {
            GroupOrder::All { items, .. }
            | GroupOrder::Take2(items)
            | GroupOrder::Quick { items, .. } => items.len(),
            GroupOrder::Lazy { sorted, heap } => sorted.len() + heap.len(),
        }
    }

    /// True iff no members (cannot happen for built groups).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The minimum member.
    pub fn best(&mut self) -> MemberRef {
        match self {
            GroupOrder::All { best, .. } => *best,
            GroupOrder::Take2(_) => 0,
            GroupOrder::Lazy { .. } | GroupOrder::Quick { .. } => {
                self.ensure_rank(0);
                0
            }
        }
    }

    /// Hand `m`'s successors to `emit` as `(ref, cost)`.
    pub fn successors(&mut self, m: MemberRef, mut emit: impl FnMut(MemberRef, &C)) {
        match self {
            GroupOrder::All { items, best } => {
                if m == *best {
                    for (i, (c, _)) in (0u32..).zip(items.iter()) {
                        if i != *best {
                            emit(i, c);
                        }
                    }
                }
            }
            GroupOrder::Take2(items) => {
                for child in [2 * m as usize + 1, 2 * m as usize + 2] {
                    if let Some((c, _)) = items.get(child) {
                        emit(member_ref(child), c);
                    }
                }
            }
            GroupOrder::Lazy { .. } | GroupOrder::Quick { .. } => {
                let next = m as usize + 1;
                if next < self.len() {
                    self.ensure_rank(next);
                    let next = member_ref(next);
                    emit(next, self.member(next).0);
                }
            }
        }
    }

    /// The member behind `m` (must have been yielded by `best` or
    /// `successors` already).
    pub fn member(&self, m: MemberRef) -> (&C, RowId) {
        let (c, r) = match self {
            GroupOrder::All { items, .. }
            | GroupOrder::Take2(items)
            | GroupOrder::Quick { items, .. } => &items[m as usize],
            GroupOrder::Lazy { sorted, .. } => &sorted[m as usize],
        };
        (c, *r)
    }

    /// Materialize ranks up to `rank` (Lazy and Quick only).
    fn ensure_rank(&mut self, rank: usize) {
        match self {
            GroupOrder::Lazy { sorted, heap } => {
                while sorted.len() <= rank {
                    let Reverse(item) = heap.pop().expect("rank in bounds");
                    sorted.push(item);
                }
            }
            GroupOrder::Quick { items, done, stack } => {
                // Incremental quicksort: refine segments until
                // items[..=rank] is final.
                while *done <= rank {
                    // Drop completed segments.
                    while stack.last() == Some(done) {
                        stack.pop();
                    }
                    let end = *stack.last().expect("rank in bounds");
                    let start = *done;
                    debug_assert!(start < end);
                    if end - start <= 12 {
                        items[start..end].sort();
                        *done = end;
                        stack.pop();
                    } else {
                        let p = partition(items, start, end);
                        if p == start {
                            // Pivot is the segment minimum: final.
                            *done += 1;
                        } else {
                            stack.push(p);
                        }
                    }
                }
            }
            GroupOrder::All { .. } | GroupOrder::Take2(_) => {}
        }
    }
}

/// Index of the minimum element.
fn argmin<C: Ord>(items: &[(C, RowId)]) -> usize {
    let mut best = 0;
    for i in 1..items.len() {
        if items[i] < items[best] {
            best = i;
        }
    }
    best
}

/// In-place binary min-heapify under `less` (sift-down from the last
/// parent). Shared with the materialized-answer id heap
/// ([`crate::slab::SlabHeap`]), whose elements compare through a slab.
pub(crate) fn heapify_by<T>(items: &mut [T], less: impl Fn(&T, &T) -> bool + Copy) {
    let n = items.len();
    for i in (0..n / 2).rev() {
        sift_down_by(items, i, less);
    }
}

pub(crate) fn sift_down_by<T>(items: &mut [T], mut i: usize, less: impl Fn(&T, &T) -> bool) {
    let n = items.len();
    loop {
        let (l, r) = (2 * i + 1, 2 * i + 2);
        let mut small = i;
        if l < n && less(&items[l], &items[small]) {
            small = l;
        }
        if r < n && less(&items[r], &items[small]) {
            small = r;
        }
        if small == i {
            return;
        }
        items.swap(i, small);
        i = small;
    }
}

/// Hoare-style partition with middle pivot; returns the pivot's final
/// index. `[start, p)` < pivot <= `[p, end)` with pivot at `p`.
fn partition<C: Ord>(items: &mut [(C, RowId)], start: usize, end: usize) -> usize {
    let mid = start + (end - start) / 2;
    items.swap(mid, end - 1);
    let mut store = start;
    for i in start..end - 1 {
        if items[i] < items[end - 1] {
            items.swap(i, store);
            store += 1;
        }
    }
    items.swap(store, end - 1);
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn build(kind: SuccessorKind, xs: &[i64]) -> GroupOrder<i64> {
        GroupOrder::build(kind, xs.iter().copied().zip(0..).collect())
    }

    /// Walk the successor DAG from the minimum, checking that no
    /// successor is cheaper than its predecessor; costs in visit order.
    fn walk(g: &mut GroupOrder<i64>) -> Vec<i64> {
        let mut out = Vec::new();
        let mut frontier = vec![g.best()];
        while let Some(m) = frontier.pop() {
            let c = *g.member(m).0;
            out.push(c);
            g.successors(m, |s, &sc| {
                assert!(sc >= c, "successor cost decreased");
                frontier.push(s);
            });
        }
        out
    }

    #[test]
    fn lazy_is_sorted_chain() {
        let got = walk(&mut build(SuccessorKind::Lazy, &[5, 1, 4, 2, 3]));
        assert_eq!(got, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn quick_is_sorted_chain() {
        let xs = [5, 1, 4, 2, 3, 9, 0, 7, 8, 6];
        let got = walk(&mut build(SuccessorKind::Quick, &xs));
        assert_eq!(got, vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn all_star_reaches_everything() {
        let mut got = walk(&mut build(SuccessorKind::All, &[5, 1, 4]));
        got.sort();
        assert_eq!(got, vec![1, 4, 5]);
    }

    #[test]
    fn take2_heap_property() {
        let mut g = build(SuccessorKind::Take2, &[9, 3, 7, 1, 8, 2, 6]);
        // `walk` checks that children are >= their parent.
        assert_eq!(walk(&mut g)[0], 1);
    }

    #[test]
    fn singleton_group() {
        for kind in &SuccessorKind::ALL_KINDS[1..] {
            assert_eq!(walk(&mut build(*kind, &[42])), vec![42], "{kind:?}");
        }
    }

    #[test]
    #[should_panic(expected = "shared order")]
    fn eager_has_no_per_stream_order() {
        build(SuccessorKind::Eager, &[1]);
    }

    proptest! {
        /// Every per-stream variant enumerates exactly the multiset of
        /// members, reachable from the minimum, with monotone successor
        /// chains.
        #[test]
        fn reachability_and_monotonicity(
            kind_idx in 1usize..5,
            xs in prop::collection::vec(-1000i64..1000, 1..60),
        ) {
            let mut g = build(SuccessorKind::ALL_KINDS[kind_idx], &xs);
            let best = g.best();
            prop_assert_eq!(*g.member(best).0, *xs.iter().min().unwrap());
            let mut seen = walk(&mut g);
            let mut expect = xs.clone();
            expect.sort();
            seen.sort();
            prop_assert_eq!(seen, expect);
        }
    }
}
