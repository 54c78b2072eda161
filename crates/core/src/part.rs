//! ANYK-PART: ranked enumeration via the Lawler–Murty procedure over the
//! serialized T-DP (Part 3 of the paper).
//!
//! The solution space is partitioned by *deviation position*: popping the
//! current best solution `S` (deviating at slot `d`) spawns
//!
//! * a **sibling** — same prefix, the successor(s) of `S`'s member at
//!   slot `d` within its join-key group, and
//! * **expansions** — for every later slot `j > d`, the successor(s) of
//!   the group-best member at `j`, with `S`'s rows before `j` frozen.
//!
//! Every child's cost is computed in O(1) without cost subtraction:
//! with pre-order serialization a subtree occupies `[j, end(j))`, so
//!
//! ```text
//! cost(child at j) = prefixW(j-1) ⊗ subcost(successor) ⊗ suffixW(end(j))
//! ```
//!
//! where `prefixW`/`suffixW` are the running aggregates of the popped
//! solution's tuple weights. This works for any monotone dioid —
//! including `max`, which has no inverse (the reason subtraction-based
//! shortcuts are off the table). Only the pop that writes a solution's
//! aggregates reads them, so a stream keeps one pair, rewritten by
//! every pop; what it keeps per popped solution is its row per slot.
//! The five successor orders ([`SuccessorKind`]) realize the Eager /
//! All / Take2 / Lazy / Quick variants of the companion paper.
//!
//! **Cost contract.** [`TdpInstance::prepare`] is `Õ(n)`. Under
//! [`SuccessorKind::Eager`] — the engine's default — a stream holds no
//! per-group state: [`AnyKPart::new`] is `O(1)`, the first stream to
//! deviate through a group sorts it once for all streams, and each
//! answer costs `O(log k)` heap work, `m` row ids in the arena and one
//! allocation: the `values` vector the caller receives; none through
//! [`next_into`](crate::AnyK::next_into), which writes a row the caller
//! already owns. That holds under every scalar ranking and under
//! [`LexCost`](crate::LexCost) up to four atoms, whose costs live
//! inline; past four, every lexicographic cost built is a vector of
//! its own. (The engine's erased cost adds a vector per lexicographic
//! answer at its boundary.) The arena and the candidate heap double,
//! so their growth is amortized. The other four kinds organize their
//! groups per stream, root group included, at spawn and on first
//! touch.

use crate::answer::RankedAnswer;
use crate::ranking::RankingFunction;
use crate::succorder::{GroupOrder, MemberRef, SuccessorKind};
use crate::tdp::TdpInstance;
use anyk_storage::{FxHashMap, RowId, Value};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::num::NonZeroU32;
use std::sync::Arc;

/// Id of a materialized solution: its 1-based emission rank, so "no
/// parent" is `None` at no extra space and needs no reserved value.
#[derive(Clone, Copy)]
struct SolId(NonZeroU32);

impl SolId {
    /// The id of the solution emitted after `emitted` others; `None`
    /// once 32-bit ids run out.
    fn after(emitted: u64) -> Option<SolId> {
        let rank = u32::try_from(emitted).ok()?.checked_add(1)?;
        NonZeroU32::new(rank).map(SolId)
    }

    /// Position in the arena.
    fn index(self) -> usize {
        (self.0.get() - 1) as usize
    }
}

/// A candidate: a not-yet-materialized solution identified by its parent
/// solution plus one deviation.
struct Candidate<C> {
    cost: C,
    /// Tie-break for deterministic order (insertion sequence).
    seq: u64,
    /// The solution this one deviates from; `None` for the initial top-1
    /// candidate, which deviates from nothing.
    parent: Option<SolId>,
    /// Deviation slot.
    dev_slot: u32,
    /// Group id at `dev_slot` (fixed by the parent's prefix).
    group: u32,
    /// Member ref within that group's successor order.
    member: MemberRef,
}

impl<C: Ord> PartialEq for Candidate<C> {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost && self.seq == other.seq
    }
}
impl<C: Ord> Eq for Candidate<C> {}
impl<C: Ord> PartialOrd for Candidate<C> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<C: Ord> Ord for Candidate<C> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want min-cost first.
        other
            .cost
            .cmp(&self.cost)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Ranked enumeration over a prepared [`TdpInstance`] using the
/// Lawler–Murty partitioning scheme with a chosen successor order.
///
/// Implements [`Iterator`]; each `next()` returns the next-cheapest
/// answer — the *anytime top-k* contract: no `k` fixed in advance.
///
/// ```
/// use anyk_core::{AnyKPart, SuccessorKind, SumCost, TdpInstance};
/// use anyk_query::cq::path_query;
/// use anyk_query::gyo::{gyo_reduce, GyoResult};
/// use anyk_storage::{RelationBuilder, Schema};
///
/// let q = path_query(2);
/// let tree = match gyo_reduce(&q) { GyoResult::Acyclic(t) => t, _ => unreachable!() };
/// let mut r = RelationBuilder::new(Schema::new(["a", "b"]));
/// r.push_ints(&[1, 2], 0.25);
/// let mut s = RelationBuilder::new(Schema::new(["b", "c"]));
/// s.push_ints(&[2, 3], 0.5);
/// s.push_ints(&[2, 4], 0.125);
/// let inst = TdpInstance::<SumCost>::prepare(&q, &tree, vec![r.finish(), s.finish()]).unwrap();
/// let costs: Vec<f64> = AnyKPart::new(inst, SuccessorKind::Take2)
///     .map(|a| a.cost.get())
///     .collect();
/// assert_eq!(costs, vec![0.375, 0.75]); // cheapest first
/// ```
pub struct AnyKPart<R: RankingFunction> {
    /// The shared prepared instance: many enumerators (on any thread)
    /// can run over one preprocessing pass.
    inst: Arc<TdpInstance<R>>,
    kind: SuccessorKind,
    /// slot -> group id -> this stream's successor order, built on first
    /// touch — the four per-stream kinds only. Under Eager the orders
    /// are the instance's shared ones and this stays empty.
    orders: Vec<FxHashMap<u32, GroupOrder<R::Cost>>>,
    heap: BinaryHeap<Candidate<R::Cost>>,
    /// The arena of popped solutions, one flat slab indexed by
    /// [`SolId`]: solution `i` owns `rows[i·m..][..m]`, its row per
    /// slot, which its children copy their frozen slots from.
    rows: Vec<RowId>,
    /// The last popped solution's aggregates, rewritten by every pop:
    /// `prefix[j]` is the ⊗ of its tuple weights of slots `< j`,
    /// `suffix[j]` of slots `>= j` — what its children's O(1) costs
    /// read while [`Self::push_children`] queues them.
    prefix: Vec<R::Cost>,
    suffix: Vec<R::Cost>,
    seq: u64,
    /// Answers emitted so far (diagnostics).
    emitted: u64,
    /// Largest candidate-queue size observed (diagnostics; exposes the
    /// All variant's queue flooding).
    peak_pending: usize,
}

impl<R: RankingFunction> AnyKPart<R> {
    /// Build the enumerator: seed the candidate queue with the top-1
    /// answer. Under [`SuccessorKind::Eager`] that is all — `O(1)`, no
    /// order is built or copied. The per-stream kinds also organize the
    /// root group here (Take2/Lazy heapify, All scans for the minimum,
    /// Quick only copies).
    ///
    /// Accepts either an owned [`TdpInstance`] (single-stream use) or an
    /// `Arc<TdpInstance>` — the prepare-once/enumerate-many path, where
    /// every stream reads the *same* reduced relations, groups and
    /// (under Eager) successor orders.
    pub fn new(inst: impl Into<Arc<TdpInstance<R>>>, kind: SuccessorKind) -> Self {
        let inst = inst.into();
        let mut this = AnyKPart {
            orders: match kind {
                SuccessorKind::Eager => Vec::new(),
                _ => (0..inst.num_slots())
                    .map(|_| FxHashMap::default())
                    .collect(),
            },
            inst,
            kind,
            heap: BinaryHeap::new(),
            rows: Vec::new(),
            prefix: Vec::new(),
            suffix: Vec::new(),
            seq: 1,
            emitted: 0,
            peak_pending: 0,
        };
        if let Some(cost) = this.inst.top1_cost() {
            // The top-1 candidate: the root group's best member.
            let member = match kind {
                SuccessorKind::Eager => 0,
                _ => per_stream_order(&mut this.orders, &this.inst, kind, 0, 0).best(),
            };
            this.heap.push(Candidate {
                cost,
                seq: this.seq,
                parent: None,
                dev_slot: 0,
                group: 0,
                member,
            });
        }
        this
    }

    /// The successor-order variant in use.
    pub fn kind(&self) -> SuccessorKind {
        self.kind
    }

    /// Access the underlying instance (diagnostics and assembly).
    pub fn instance(&self) -> &TdpInstance<R> {
        &self.inst
    }

    /// Answers emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Current number of pending candidates.
    pub fn pending_candidates(&self) -> usize {
        self.heap.len()
    }

    /// Number of join-key groups whose successor order has been built
    /// so far — by this stream for the per-stream kinds, by any stream
    /// of the shared instance under Eager
    /// ([`TdpInstance::built_orders`]). Laziness diagnostic: orders are
    /// created on first touch, so this stays `o(n)` for small-`k`
    /// enumerations.
    pub fn touched_groups(&self) -> usize {
        match self.kind {
            SuccessorKind::Eager => self.inst.built_orders(),
            _ => self.orders.iter().map(FxHashMap::len).sum(),
        }
    }

    /// Largest candidate-queue size observed so far (memory diagnostic;
    /// the All variant's queue-flooding shows up here).
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    /// Materialize a popped candidate at the end of the arena: fix the
    /// prefix from its parent, apply the deviation, complete the rest
    /// optimally. (`#[inline]` here, on [`Self::push_children`] and on
    /// [`Self::advance`]: `next` and `next_into` both end up calling
    /// them, and with two callers and no hint they are left out of
    /// line — a scalar deep drain then reads 4 % slower.)
    #[inline]
    fn materialize(&mut self, cand: &Candidate<R::Cost>) {
        let AnyKPart {
            inst,
            kind,
            orders,
            rows,
            prefix,
            suffix,
            ..
        } = self;
        let inst = &**inst;
        let m = inst.num_slots();
        let dev = cand.dev_slot as usize;
        let dev_row = match kind {
            SuccessorKind::Eager => inst.order(dev, cand.group)[cand.member as usize],
            // The member ref was handed out by this group's order, so
            // the order exists already.
            _ => orders[dev][&cand.group].member(cand.member).1,
        };

        let at = rows.len();
        match cand.parent {
            Some(parent) => {
                let from = parent.index() * m;
                rows.extend_from_within(from..from + m);
            }
            None => rows.resize(at + m, 0),
        }
        // Slots before `dev` and from `end` on keep the parent's rows
        // (the tail is still optimal given the unchanged prefix: its
        // ancestors lie outside `[dev, end)` by pre-order contiguity);
        // the rest of the deviated subtree follows best-pointers.
        let rows = &mut rows[at..];
        rows[dev] = dev_row;
        inst.complete_optimally(rows, dev + 1, inst.subtree_end[dev]);

        // Prefix/suffix weight aggregates for O(1) child costs, written
        // over the previous pop's: `prefix[0]` and `suffix[m]` stay the
        // identity, every other entry is rewritten.
        if prefix.is_empty() {
            prefix.resize(m + 1, R::identity());
            suffix.resize(m + 1, R::identity());
        }
        for (j, &row) in rows.iter().enumerate() {
            prefix[j + 1] = R::combine(&prefix[j], &inst.slot_weight(j, row));
        }
        for (j, &row) in rows.iter().enumerate().rev() {
            suffix[j] = R::combine(&inst.slot_weight(j, row), &suffix[j + 1]);
        }
    }

    /// Push all Lawler children of solution `sol` (which was produced by
    /// deviating at `dev` in `group` from `member`).
    #[inline]
    fn push_children(&mut self, sol: SolId, dev: u32, group: u32, member: MemberRef) {
        let AnyKPart {
            inst,
            kind,
            orders,
            heap,
            seq,
            ..
        } = self;
        let m = inst.num_slots();
        let rows = &self.rows[sol.index() * m..][..m];
        let (prefix, suffix) = (&self.prefix, &self.suffix);
        // `prepare` checked that the slot count fits the id width.
        for (j, slot) in (dev as usize..m).zip(dev..) {
            // The sibling continues from `member`; an expansion starts
            // from its group's best.
            let (gj, from) = if slot == dev {
                (group, Some(member))
            } else {
                (inst.group_at(j, rows), None)
            };
            let (before, after) = (&prefix[j], &suffix[inst.subtree_end[j]]);
            let mut emit = |member: MemberRef, subcost: &R::Cost| {
                *seq += 1;
                heap.push(Candidate {
                    cost: R::combine(&R::combine(before, subcost), after),
                    seq: *seq,
                    parent: Some(sol),
                    dev_slot: slot,
                    group: gj,
                    member,
                });
            };
            match *kind {
                SuccessorKind::Eager => {
                    let next = from.map_or(1, |rank| rank + 1);
                    if let Some(&row) = inst.order(j, gj).get(next as usize) {
                        emit(next, &inst.subcost[j][row as usize]);
                    }
                }
                _ => {
                    let order = per_stream_order(orders, inst, *kind, j, gj);
                    let from = from.unwrap_or_else(|| order.best());
                    order.successors(from, emit);
                }
            }
        }
        self.peak_pending = self.peak_pending.max(self.heap.len());
    }
}

/// This stream's successor order of `group` at `slot`, built on first
/// touch (the per-stream kinds pay their per-group organization cost
/// here: Take2/Lazy heapify, All scans for the minimum, Quick only
/// copies).
fn per_stream_order<'a, R: RankingFunction>(
    orders: &'a mut [FxHashMap<u32, GroupOrder<R::Cost>>],
    inst: &TdpInstance<R>,
    kind: SuccessorKind,
    slot: usize,
    group: u32,
) -> &'a mut GroupOrder<R::Cost> {
    orders[slot].entry(group).or_insert_with(|| {
        let items = (inst.group(slot, group).iter())
            .map(|r| (inst.subcost[slot][r as usize].clone(), r))
            .collect();
        GroupOrder::build(kind, items)
    })
}

/// Answers a page-serving stream takes arena room for up front: a
/// served page is ten answers by default, one more of lookahead.
const FIRST_PAGE: usize = 16;

impl<R: RankingFunction> AnyKPart<R> {
    /// Room for `answers` more answers in the arena and for the
    /// candidates they leave pending, taken once instead of by
    /// doubling from empty.
    fn reserve(&mut self, answers: usize) {
        let m = self.inst.num_slots();
        self.rows.reserve(answers * m);
        self.heap.reserve(answers * m);
    }

    /// Pop the next-cheapest candidate, materialize it and queue its
    /// children: its cost, and where its row per slot sits in `rows`.
    #[inline]
    fn advance(&mut self) -> Option<(R::Cost, std::ops::Range<usize>)> {
        // A stream that has materialized 2³² solutions holds over a
        // hundred GiB of arena; it ends there rather than wrap an id.
        let sol = SolId::after(self.emitted)?;
        let cand = self.heap.pop()?;
        self.materialize(&cand);
        self.push_children(sol, cand.dev_slot, cand.group, cand.member);
        self.emitted += 1;
        let m = self.inst.num_slots();
        Some((cand.cost, sol.index() * m..(sol.index() + 1) * m))
    }
}

impl<R: RankingFunction> Iterator for AnyKPart<R> {
    type Item = RankedAnswer<R::Cost>;

    fn next(&mut self) -> Option<Self::Item> {
        let (cost, at) = self.advance()?;
        let values = self.inst.assemble(&self.rows[at]);
        Some(RankedAnswer { cost, values })
    }
}

impl<R: RankingFunction> crate::answer::AnyK for AnyKPart<R> {
    type Cost = R::Cost;

    /// A stream asked for rows is serving pages: its arena starts with
    /// room for one (`FIRST_PAGE`) instead of doubling up to it. A
    /// stream read through `next` — a union's members, most of which
    /// emit an answer or two, and a deep drain, whose first answer
    /// would wait for the larger blocks — starts empty as before.
    fn next_into(&mut self, row: &mut [Value]) -> Option<R::Cost> {
        if self.rows.capacity() == 0 {
            self.reserve(FIRST_PAGE);
        }
        let (cost, at) = self.advance()?;
        self.inst.assemble_into(&self.rows[at], row);
        Some(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::{MaxCost, SumCost};
    use anyk_query::cq::{path_query, star_query, ConjunctiveQuery};
    use anyk_query::gyo::{gyo_reduce, GyoResult};
    use anyk_query::join_tree::JoinTree;
    use anyk_storage::{Relation, RelationBuilder, Schema};

    fn edge_rel(cols: [&str; 2], rows: &[(i64, i64, f64)]) -> Relation {
        let mut b = RelationBuilder::new(Schema::new(cols));
        for &(x, y, w) in rows {
            b.push_ints(&[x, y], w);
        }
        b.finish()
    }

    fn tree_of(q: &ConjunctiveQuery) -> JoinTree {
        match gyo_reduce(q) {
            GyoResult::Acyclic(t) => t,
            _ => panic!(),
        }
    }

    fn two_path_instance() -> (ConjunctiveQuery, JoinTree, Vec<Relation>) {
        let q = path_query(2);
        let tree = tree_of(&q);
        let rels = vec![
            edge_rel(
                ["a", "b"],
                &[(1, 2, 1.0), (1, 3, 0.5), (4, 2, 0.25), (9, 9, 7.0)],
            ),
            edge_rel(
                ["b", "c"],
                &[(2, 5, 1.0), (2, 6, 0.125), (3, 7, 2.0), (8, 8, 1.0)],
            ),
        ];
        (q, tree, rels)
    }

    fn enumerate_all(kind: SuccessorKind) -> Vec<(f64, Vec<i64>)> {
        let (q, tree, rels) = two_path_instance();
        let inst = TdpInstance::<SumCost>::prepare(&q, &tree, rels).unwrap();
        let anyk = AnyKPart::new(inst, kind);
        anyk.map(|a| {
            (
                a.cost.get(),
                a.values.iter().map(|v| v.int()).collect::<Vec<_>>(),
            )
        })
        .collect()
    }

    #[test]
    fn all_variants_enumerate_in_order() {
        // Join answers (a,b,c) and sum costs:
        // (1,2,5)=2.0 (1,2,6)=1.125 (1,3,7)=2.5 (4,2,5)=1.25 (4,2,6)=0.375
        let expected = vec![
            (0.375, vec![4, 2, 6]),
            (1.125, vec![1, 2, 6]),
            (1.25, vec![4, 2, 5]),
            (2.0, vec![1, 2, 5]),
            (2.5, vec![1, 3, 7]),
        ];
        for kind in SuccessorKind::ALL_KINDS {
            let got = enumerate_all(kind);
            assert_eq!(got, expected, "variant {kind:?}");
        }
    }

    #[test]
    fn eager_streams_share_the_instance_orders() {
        let (q, tree, rels) = two_path_instance();
        let inst = Arc::new(TdpInstance::<SumCost>::prepare(&q, &tree, rels).unwrap());
        let first = AnyKPart::new(Arc::clone(&inst), SuccessorKind::Eager);
        assert_eq!(inst.built_orders(), 0, "spawn builds no order");
        let all: Vec<_> = first.collect();
        let built = inst.built_orders();
        assert!(built > 0);
        // The second stream reads the orders the first one built.
        let again: Vec<_> = AnyKPart::new(Arc::clone(&inst), SuccessorKind::Eager).collect();
        assert_eq!(again, all);
        assert_eq!(inst.built_orders(), built);
        // Same chain as Lazy, so the same sequence, tuples included.
        let lazy: Vec<_> = AnyKPart::new(inst, SuccessorKind::Lazy).collect();
        assert_eq!(lazy, all);
    }

    #[test]
    fn solution_ids_end_at_the_32_bit_boundary() {
        let last = u64::from(u32::MAX) - 1;
        assert_eq!(SolId::after(0).map(SolId::index), Some(0));
        assert_eq!(SolId::after(last).map(SolId::index), Some(last as usize));
        // One more would need the id 2³²: refused, not wrapped.
        assert!(SolId::after(last + 1).is_none());
    }

    #[test]
    fn empty_instance_yields_nothing() {
        let q = path_query(2);
        let tree = tree_of(&q);
        let rels = vec![
            edge_rel(["a", "b"], &[(1, 2, 0.0)]),
            edge_rel(["b", "c"], &[(9, 1, 0.0)]),
        ];
        let inst = TdpInstance::<SumCost>::prepare(&q, &tree, rels).unwrap();
        let mut anyk = AnyKPart::new(inst, SuccessorKind::Lazy);
        assert!(anyk.next().is_none());
    }

    #[test]
    fn star_query_enumeration() {
        let q = star_query(2);
        let tree = tree_of(&q);
        let rels = vec![
            edge_rel(["o", "p"], &[(1, 10, 1.0), (1, 11, 2.0)]),
            edge_rel(["o", "q"], &[(1, 20, 4.0), (1, 21, 8.0)]),
        ];
        let inst = TdpInstance::<SumCost>::prepare(&q, &tree, rels).unwrap();
        let costs: Vec<f64> = AnyKPart::new(inst, SuccessorKind::Take2)
            .map(|a| a.cost.get())
            .collect();
        assert_eq!(costs, vec![5.0, 6.0, 9.0, 10.0]);
    }

    #[test]
    fn max_ranking_enumeration() {
        let (q, tree, rels) = two_path_instance();
        let inst = TdpInstance::<MaxCost>::prepare(&q, &tree, rels).unwrap();
        let costs: Vec<f64> = AnyKPart::new(inst, SuccessorKind::Eager)
            .map(|a| a.cost.get())
            .collect();
        // max-costs of the five answers: (1,2,5)=1, (1,2,6)=1, (1,3,7)=2,
        // (4,2,5)=1, (4,2,6)=0.25 -> sorted: .25, 1, 1, 1, 2.
        assert_eq!(costs, vec![0.25, 1.0, 1.0, 1.0, 2.0]);
    }

    #[test]
    fn ties_are_enumerated_exactly_once() {
        // All weights equal: every answer has the same cost; make sure
        // no duplicates and no misses (tie-break correctness).
        let q = path_query(2);
        let tree = tree_of(&q);
        let rels = vec![
            edge_rel(["a", "b"], &[(1, 2, 1.0), (3, 2, 1.0), (4, 2, 1.0)]),
            edge_rel(["b", "c"], &[(2, 5, 1.0), (2, 6, 1.0), (2, 7, 1.0)]),
        ];
        for kind in SuccessorKind::ALL_KINDS {
            let inst = TdpInstance::<SumCost>::prepare(&q, &tree, rels.clone()).unwrap();
            let mut seen: Vec<Vec<i64>> = AnyKPart::new(inst, kind)
                .map(|a| a.values.iter().map(|v| v.int()).collect())
                .collect();
            assert_eq!(seen.len(), 9, "variant {kind:?}");
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), 9, "duplicates under {kind:?}");
        }
    }

    #[test]
    fn prefix_stability() {
        // The first k answers must not depend on how far we enumerate.
        let (q, tree, rels) = two_path_instance();
        let inst = TdpInstance::<SumCost>::prepare(&q, &tree, rels.clone()).unwrap();
        let full: Vec<f64> = AnyKPart::new(inst, SuccessorKind::Quick)
            .map(|a| a.cost.get())
            .collect();
        for k in 1..=full.len() {
            let inst = TdpInstance::<SumCost>::prepare(&q, &tree, rels.clone()).unwrap();
            let partial: Vec<f64> = AnyKPart::new(inst, SuccessorKind::Quick)
                .take(k)
                .map(|a| a.cost.get())
                .collect();
            assert_eq!(partial, full[..k]);
        }
    }
}
