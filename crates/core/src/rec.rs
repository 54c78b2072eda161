//! ANYK-REC: ranked enumeration by *recursive enumeration* with
//! memoization — the second major technique of Part 3, rooted in the
//! k-shortest-path line of work (Hoffman–Pavley, Dreyfus, Bellman–
//! Kalaba, Jiménez–Marzal) and rediscovered for conjunctive queries.
//!
//! Every (node, join-key group) owns a lazily extended, memoized,
//! ranked **stream** of the solutions of its subtree:
//!
//! * a *group stream* merges the streams of its member tuples (a lazy
//!   k-way merge seeded with the members' optimal subtree costs);
//! * a *tuple stream* enumerates combinations of its children's group
//!   streams in rank order (a lazy product enumeration with the classic
//!   "increment coordinate `i` only if all earlier coordinates are 0"
//!   de-duplication rule).
//!
//! Because streams are keyed by (slot, group), **suffix solutions are
//! shared across all parent tuples with the same join key** — the
//! memoization that makes REC asymptotically superior for large `k`
//! (TT(last)), while ANYK-PART tends to win time-to-first. Neither
//! dominates (§4 of the paper); `tests/paper_claims.rs` (E09) counts
//! the crossover.
//!
//! Stream shells are allocated **lazily on first touch** (an
//! `FxHashMap` per slot, like [`AnyKPart`](crate::part::AnyKPart)'s
//! on-demand successor orders): spawning an enumerator over a shared
//! prepared [`TdpInstance`] costs `O(slots)`, and enumeration only ever
//! materializes the (slot, group) / (slot, tuple) streams its answers
//! actually recurse through. A group stream, though, is seeded on first
//! touch with every member of its group, one heap entry each, and the
//! root slot is one group of every reduced root tuple: a prepared
//! stream's first answer costs `O(|root|)`, not the answers pulled
//! (`tests/spawn_cost.rs` counts it growing with `n`, where PART's
//! stays flat). It is still a small fraction of a cold plan, whose
//! preprocessing reads every relation.

use crate::answer::RankedAnswer;
use crate::ranking::RankingFunction;
use crate::tdp::TdpInstance;
use anyk_storage::{FxHashMap, RowId, Value};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Frontier entry of a group stream: the next unconsumed rank of one
/// member's tuple stream.
struct GroupCand<C> {
    cost: C,
    seq: u64,
    row: RowId,
    rank: u32,
}

/// Frontier entry of a tuple stream: a combination of child ranks.
struct TupleCand<C> {
    cost: C,
    seq: u64,
    ranks: Box<[u32]>,
}

macro_rules! impl_min_heap_ord {
    ($t:ident) => {
        impl<C: Ord> PartialEq for $t<C> {
            fn eq(&self, other: &Self) -> bool {
                self.cost == other.cost && self.seq == other.seq
            }
        }
        impl<C: Ord> Eq for $t<C> {}
        impl<C: Ord> PartialOrd for $t<C> {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl<C: Ord> Ord for $t<C> {
            fn cmp(&self, other: &Self) -> Ordering {
                other
                    .cost
                    .cmp(&self.cost)
                    .then_with(|| other.seq.cmp(&self.seq))
            }
        }
    };
}
impl_min_heap_ord!(GroupCand);
impl_min_heap_ord!(TupleCand);

/// Memoized ranked stream of one join-key group's subtree solutions.
/// Created (and its frontier seeded with every member at rank 0) on
/// first touch.
struct GroupStream<C> {
    /// `(cost, member row, rank within that member's tuple stream)`.
    mat: Vec<(C, RowId, u32)>,
    frontier: BinaryHeap<GroupCand<C>>,
}

/// Memoized ranked stream of one tuple's subtree solutions. Created
/// (and its frontier seeded with the all-zeros child combination) on
/// first touch.
struct TupleStream<C> {
    /// `(cost, child ranks)` — one rank per child slot.
    mat: Vec<(C, Box<[u32]>)>,
    frontier: BinaryHeap<TupleCand<C>>,
}

/// Ranked enumeration over a prepared [`TdpInstance`] via recursive
/// enumeration with memoization. Implements [`Iterator`].
///
/// ```
/// use anyk_core::{AnyKRec, SumCost, TdpInstance};
/// use anyk_query::cq::path_query;
/// use anyk_query::gyo::{gyo_reduce, GyoResult};
/// use anyk_storage::{RelationBuilder, Schema};
///
/// let q = path_query(2);
/// let tree = match gyo_reduce(&q) { GyoResult::Acyclic(t) => t, _ => unreachable!() };
/// let mut r = RelationBuilder::new(Schema::new(["a", "b"]));
/// r.push_ints(&[1, 2], 1.0);
/// let mut s = RelationBuilder::new(Schema::new(["b", "c"]));
/// s.push_ints(&[2, 3], 2.0);
/// s.push_ints(&[2, 4], 0.5);
/// let inst = TdpInstance::<SumCost>::prepare(&q, &tree, vec![r.finish(), s.finish()]).unwrap();
/// let costs: Vec<f64> = AnyKRec::new(inst).map(|a| a.cost.get()).collect();
/// assert_eq!(costs, vec![1.5, 3.0]);
/// ```
pub struct AnyKRec<R: RankingFunction> {
    /// The shared prepared instance (see [`AnyKPart`](crate::part::AnyKPart)).
    inst: Arc<TdpInstance<R>>,
    /// slot -> group id -> group stream, **created lazily on first
    /// touch**: spawning the enumerator allocates only the per-slot
    /// maps, so a prepared stream's spawn cost is `O(slots)` — the
    /// streams an enumeration never recurses through are never built.
    gstreams: Vec<FxHashMap<u32, GroupStream<R::Cost>>>,
    /// slot -> row id -> tuple stream, created lazily on first touch.
    tstreams: Vec<FxHashMap<RowId, TupleStream<R::Cost>>>,
    next_rank: usize,
    seq: u64,
    /// The row per slot of the answer being emitted (scratch).
    rows: Vec<RowId>,
}

impl<R: RankingFunction> AnyKRec<R> {
    /// Build the enumerator — `O(slots)` work, independent of the
    /// instance's tuple count (stream shells are created on first
    /// touch during enumeration; the first answer seeds the root
    /// group's stream with all `O(|root|)` of its members). Accepts an
    /// owned [`TdpInstance`] or a shared `Arc<TdpInstance>` (the
    /// prepare-once/enumerate-many path).
    pub fn new(inst: impl Into<Arc<TdpInstance<R>>>) -> Self {
        let inst = inst.into();
        let m = inst.num_slots();
        AnyKRec {
            inst,
            gstreams: std::iter::repeat_with(FxHashMap::default).take(m).collect(),
            tstreams: std::iter::repeat_with(FxHashMap::default).take(m).collect(),
            next_rank: 0,
            seq: 0,
            rows: vec![0; m],
        }
    }

    /// Access the underlying instance.
    pub fn instance(&self) -> &TdpInstance<R> {
        &self.inst
    }

    /// Number of group streams materialized so far (laziness
    /// diagnostic: stays `o(n)` for small-`k` enumerations).
    pub fn allocated_group_streams(&self) -> usize {
        self.gstreams.iter().map(FxHashMap::len).sum()
    }

    /// Number of tuple streams materialized so far (laziness
    /// diagnostic).
    pub fn allocated_tuple_streams(&self) -> usize {
        self.tstreams.iter().map(FxHashMap::len).sum()
    }

    fn bump(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    /// The cost of rank `r` of the stream of `group` at `slot`,
    /// extending lazily.
    fn group_cost(&mut self, slot: usize, group: u32, r: usize) -> Option<R::Cost> {
        self.ensure_group(slot, group);
        loop {
            let gs = self.gstreams[slot].get_mut(&group).expect("just ensured");
            if let Some((c, _, _)) = gs.mat.get(r) {
                return Some(c.clone());
            }
            let cand = gs.frontier.pop()?;
            let (row, rank) = (cand.row, cand.rank);
            gs.mat.push((cand.cost, row, rank));
            // Schedule the same member's next rank.
            if let Some(nc) = self.tuple_cost(slot, row, rank as usize + 1) {
                let seq = self.bump();
                self.gstreams[slot]
                    .get_mut(&group)
                    .expect("just ensured")
                    .frontier
                    .push(GroupCand {
                        cost: nc,
                        seq,
                        row,
                        rank: rank + 1,
                    });
            }
        }
    }

    /// The cost of rank `r` of the tuple stream for `row` at `slot`.
    fn tuple_cost(&mut self, slot: usize, row: RowId, r: usize) -> Option<R::Cost> {
        self.ensure_tuple(slot, row);
        loop {
            let ts = self.tstreams[slot].get_mut(&row).expect("just ensured");
            if let Some((c, _)) = ts.mat.get(r) {
                return Some(c.clone());
            }
            let cand = ts.frontier.pop()?;
            let ranks = cand.ranks.clone();
            ts.mat.push((cand.cost, cand.ranks));
            // Children combos: increment coordinate i only if all
            // earlier coordinates are 0 (unique-predecessor rule).
            let inst = Arc::clone(&self.inst);
            let child_slots = &inst.child_slots[slot];
            for i in 0..ranks.len() {
                if ranks[..i].iter().any(|&x| x != 0) {
                    break;
                }
                let mut nr = ranks.clone();
                nr[i] += 1;
                // Cost = w(row) ⊗ child costs in serialization order.
                let ci = child_slots[i];
                let ci_group = self.child_group(row, ci);
                if self.group_cost(ci, ci_group, nr[i] as usize).is_none() {
                    continue; // child stream exhausted at this rank
                }
                let mut cost = inst.slot_weight(slot, row);
                let mut ok = true;
                for (j, &cs) in child_slots.iter().enumerate() {
                    let gj = self.child_group(row, cs);
                    match self.group_cost(cs, gj, nr[j] as usize) {
                        Some(c) => cost = R::combine(&cost, &c),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    let seq = self.bump();
                    self.tstreams[slot]
                        .get_mut(&row)
                        .expect("just ensured")
                        .frontier
                        .push(TupleCand {
                            cost,
                            seq,
                            ranks: nr,
                        });
                }
            }
        }
    }

    /// Group id of the stream of child slot `cs` under parent `row`.
    #[inline]
    fn child_group(&self, row: RowId, cs: usize) -> u32 {
        self.inst.group_of_parent_row[cs][row as usize]
    }

    /// Create the stream of `group` at `slot` on first touch, seeding
    /// the frontier with every member at rank 0 (rank-0 cost of a
    /// tuple stream is exactly the DP subcost — no recursion needed).
    fn ensure_group(&mut self, slot: usize, group: u32) {
        if self.gstreams[slot].contains_key(&group) {
            return;
        }
        let inst = Arc::clone(&self.inst);
        let members = inst.group(slot, group);
        let mut gs = GroupStream {
            mat: Vec::new(),
            frontier: BinaryHeap::with_capacity(members.len()),
        };
        for row in members.iter() {
            let cost = inst.subcost[slot][row as usize].clone();
            let seq = self.bump();
            gs.frontier.push(GroupCand {
                cost,
                seq,
                row,
                rank: 0,
            });
        }
        self.gstreams[slot].insert(group, gs);
    }

    /// Create the tuple stream of `row` at `slot` on first touch,
    /// seeding it with the tuple itself (leaf) or the all-zeros child
    /// combination.
    fn ensure_tuple(&mut self, slot: usize, row: RowId) {
        if self.tstreams[slot].contains_key(&row) {
            return;
        }
        let inst = Arc::clone(&self.inst);
        let child_slots = &inst.child_slots[slot];
        let mut ts = TupleStream {
            mat: Vec::new(),
            frontier: BinaryHeap::new(),
        };
        if child_slots.is_empty() {
            // Leaf: single solution = the tuple itself.
            ts.mat.push((inst.slot_weight(slot, row), Box::from([])));
        } else {
            // Initial combo (0, ..., 0): w(row) ⊗ each child group's best.
            let mut cost = inst.slot_weight(slot, row);
            for &cs in child_slots {
                let g = inst.group_of_parent_row[cs][row as usize] as usize;
                cost = R::combine(&cost, &inst.best(cs, g).0);
            }
            let seq = self.bump();
            let ranks: Box<[u32]> = vec![0u32; child_slots.len()].into_boxed_slice();
            ts.frontier.push(TupleCand { cost, seq, ranks });
        }
        self.tstreams[slot].insert(row, ts);
    }

    /// Collect the chosen row per slot for rank `rank` of the stream of
    /// `group` at `slot` (all required entries are already
    /// materialized).
    fn assemble_rows(&self, slot: usize, group: u32, rank: usize, rows: &mut [RowId]) {
        let (_, row, trank) = self.gstreams[slot][&group].mat[rank];
        rows[slot] = row;
        let (_, ref child_ranks) = self.tstreams[slot][&row].mat[trank as usize];
        for (i, &cs) in self.inst.child_slots[slot].iter().enumerate() {
            let cgroup = self.child_group(row, cs);
            self.assemble_rows(cs, cgroup, child_ranks[i] as usize, rows);
        }
    }
}

impl<R: RankingFunction> AnyKRec<R> {
    /// Extend the root stream by one rank: its cost, its row per slot
    /// left in `self.rows`.
    fn advance(&mut self) -> Option<R::Cost> {
        if self.inst.is_empty() {
            return None;
        }
        let r = self.next_rank;
        let cost = self.group_cost(0, 0, r)?; // root = slot 0, group 0
        self.next_rank += 1;
        let mut rows = std::mem::take(&mut self.rows);
        self.assemble_rows(0, 0, r, &mut rows);
        self.rows = rows;
        Some(cost)
    }
}

impl<R: RankingFunction> Iterator for AnyKRec<R> {
    type Item = RankedAnswer<R::Cost>;

    fn next(&mut self) -> Option<Self::Item> {
        let cost = self.advance()?;
        let values = self.inst.assemble(&self.rows);
        Some(RankedAnswer { cost, values })
    }
}

impl<R: RankingFunction> crate::answer::AnyK for AnyKRec<R> {
    type Cost = R::Cost;

    fn next_into(&mut self, row: &mut [Value]) -> Option<R::Cost> {
        let cost = self.advance()?;
        self.inst.assemble_into(&self.rows, row);
        Some(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::part::AnyKPart;
    use crate::ranking::{MaxCost, SumCost};
    use crate::succorder::SuccessorKind;
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

    #[test]
    fn matches_part_on_path() {
        let q = path_query(3);
        let tree = tree_of(&q);
        let rels = vec![
            edge_rel(["a", "b"], &[(1, 2, 1.0), (1, 3, 0.5), (2, 2, 0.75)]),
            edge_rel(["b", "c"], &[(2, 5, 1.0), (2, 6, 0.125), (3, 5, 2.0)]),
            edge_rel(["c", "d"], &[(5, 8, 0.25), (6, 8, 1.5), (5, 9, 0.5)]),
        ];
        let inst1 = TdpInstance::<SumCost>::prepare(&q, &tree, rels.clone()).unwrap();
        let inst2 = TdpInstance::<SumCost>::prepare(&q, &tree, rels).unwrap();
        let part: Vec<_> = AnyKPart::new(inst1, SuccessorKind::Lazy)
            .map(|a| (a.cost, a.values))
            .collect();
        let rec: Vec<_> = AnyKRec::new(inst2).map(|a| (a.cost, a.values)).collect();
        assert_eq!(part.len(), rec.len());
        // Costs must agree position-wise; values may differ among ties.
        for (p, r) in part.iter().zip(&rec) {
            assert_eq!(p.0, r.0);
        }
        // As sets, identical.
        let mut pv: Vec<_> = part.into_iter().map(|x| x.1).collect();
        let mut rv: Vec<_> = rec.into_iter().map(|x| x.1).collect();
        pv.sort();
        rv.sort();
        assert_eq!(pv, rv);
    }

    #[test]
    fn matches_part_on_star_with_max() {
        let q = star_query(3);
        let tree = tree_of(&q);
        let rels = vec![
            edge_rel(["o", "a"], &[(1, 10, 1.0), (1, 11, 3.0), (2, 12, 2.0)]),
            edge_rel(["o", "b"], &[(1, 20, 5.0), (1, 21, 0.5), (2, 22, 2.5)]),
            edge_rel(["o", "c"], &[(1, 30, 4.0), (2, 31, 1.0), (2, 32, 6.0)]),
        ];
        let inst1 = TdpInstance::<MaxCost>::prepare(&q, &tree, rels.clone()).unwrap();
        let inst2 = TdpInstance::<MaxCost>::prepare(&q, &tree, rels).unwrap();
        let part: Vec<f64> = AnyKPart::new(inst1, SuccessorKind::Eager)
            .map(|a| a.cost.get())
            .collect();
        let rec: Vec<f64> = AnyKRec::new(inst2).map(|a| a.cost.get()).collect();
        assert_eq!(part, rec);
        assert!(!part.is_empty());
    }

    #[test]
    fn empty_instance() {
        let q = path_query(2);
        let tree = tree_of(&q);
        let rels = vec![
            edge_rel(["a", "b"], &[(1, 2, 0.0)]),
            edge_rel(["b", "c"], &[(7, 1, 0.0)]),
        ];
        let inst = TdpInstance::<SumCost>::prepare(&q, &tree, rels).unwrap();
        let mut rec = AnyKRec::new(inst);
        assert!(rec.next().is_none());
        assert_eq!(rec.allocated_group_streams(), 0);
        assert_eq!(rec.allocated_tuple_streams(), 0);
    }

    #[test]
    fn single_atom() {
        let q = anyk_query::cq::QueryBuilder::new()
            .atom("R", &["a", "b"])
            .build();
        let tree = tree_of(&q);
        let rels = vec![edge_rel(
            ["a", "b"],
            &[(1, 2, 2.0), (3, 4, 1.0), (5, 6, 3.0)],
        )];
        let inst = TdpInstance::<SumCost>::prepare(&q, &tree, rels).unwrap();
        let costs: Vec<f64> = AnyKRec::new(inst).map(|a| a.cost.get()).collect();
        assert_eq!(costs, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn spawn_is_lazy_and_k1_touches_few_streams() {
        // A wide 2-path: many rows, but the top-1 pull must only ever
        // materialize the streams its recursion touches — the spawn
        // itself allocates no per-row state at all.
        let rows1: Vec<(i64, i64, f64)> = (0..500).map(|i| (1, i, 1.0 + i as f64)).collect();
        let rows2: Vec<(i64, i64, f64)> = (0..500)
            .flat_map(|i| [(i, 1000 + i, 1.0), (i, 2000 + i, 2.0)])
            .collect();
        let q = path_query(2);
        let tree = tree_of(&q);
        let rels = vec![edge_rel(["a", "b"], &rows1), edge_rel(["b", "c"], &rows2)];
        let inst = Arc::new(TdpInstance::<SumCost>::prepare(&q, &tree, rels).unwrap());
        let n = inst.reduced_input_size();
        assert!(n >= 1000, "instance must be large enough to be telling");

        let mut rec = AnyKRec::new(Arc::clone(&inst));
        assert_eq!(rec.allocated_group_streams(), 0, "spawn allocates nothing");
        assert_eq!(rec.allocated_tuple_streams(), 0);

        let first = rec.next().expect("instance has answers");
        assert_eq!(first.cost.get(), 2.0); // row (1,0) + edge (0,1000+0)
                                           // k=1 touches the root group, the winning root tuple's stream,
                                           // and that tuple's child group/tuple streams — a handful, not n.
        assert!(
            rec.allocated_group_streams() + rec.allocated_tuple_streams() <= 8,
            "k=1 must touch O(1) streams, got {} + {}",
            rec.allocated_group_streams(),
            rec.allocated_tuple_streams()
        );
    }
}
