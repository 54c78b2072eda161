//! Batch baselines: materialize the full join, then rank.
//!
//! These are what any-k competes against (Part 3): the join itself is
//! optimal (Yannakakis, O~(n + r)), but *all* r answers must be produced
//! and ordered before the first one can be emitted — TTF is Θ(n + r)
//! instead of O~(n).
//!
//! Two flavors:
//! * [`BatchSorted`] — full sort after the join (what `ORDER BY ...
//!   LIMIT k` does without a top-k optimization);
//! * [`BatchHeap`] — heapify after the join, pop lazily (slightly
//!   cheaper when enumeration stops early, but has already paid Θ(r)).

use crate::answer::{AnyK, RankedAnswer};
use crate::ranking::RankingFunction;
use crate::slab::{AnswerSlab, SlabHeap};
use anyk_join::yannakakis::yannakakis_for_each;
use anyk_query::cq::ConjunctiveQuery;
use anyk_query::join_tree::JoinTree;
use anyk_storage::{Relation, Value};

/// Compute all answers with their ranking-function costs. Costs combine
/// tuple weights in the join tree's serialization (pre-order) order, so
/// results are comparable with T-DP-based enumerators even for
/// non-commutative rankings (lexicographic). Public so the serving
/// layer can build a shared sorted-answer artifact
/// ([`crate::cyclic::SortedAnswers`]) for prepared batch plans.
pub fn materialize_ranked<R: RankingFunction>(
    q: &ConjunctiveQuery,
    tree: &JoinTree,
    rels: Vec<Relation>,
) -> AnswerSlab<R::Cost> {
    let preorder = tree.preorder();
    let mut out = AnswerSlab::new(q.num_vars());
    let mut values = vec![Value::Int(0); q.num_vars()];
    yannakakis_for_each(q, tree, rels, |rels, by_node| {
        let mut cost = R::identity();
        for &node in &preorder {
            let atom_idx = tree.node(node).atom;
            let rid = by_node[node];
            let rel = &rels[atom_idx];
            cost = R::combine(&cost, &R::lift(rel.weight(rid)));
            let tuple = rel.row(rid);
            for (pos, &v) in q.atom(atom_idx).vars.iter().enumerate() {
                values[v] = tuple[pos];
            }
        }
        out.push(cost, &values);
    });
    out
}

/// Join-then-sort baseline.
pub struct BatchSorted<R: RankingFunction> {
    slab: AnswerSlab<R::Cost>,
    /// Row indexes by cost; cost ties stay in materialization order.
    order: std::vec::IntoIter<usize>,
}

impl<R: RankingFunction> BatchSorted<R> {
    /// Run the full join and sort all answers by cost.
    pub fn new(q: &ConjunctiveQuery, tree: &JoinTree, rels: Vec<Relation>) -> Self {
        let slab = materialize_ranked::<R>(q, tree, rels);
        let mut order: Vec<usize> = (0..slab.len()).collect();
        order.sort_by(|&x, &y| slab.costs()[x].cmp(&slab.costs()[y]));
        BatchSorted {
            slab,
            order: order.into_iter(),
        }
    }
}

impl<R: RankingFunction> Iterator for BatchSorted<R> {
    type Item = RankedAnswer<R::Cost>;

    fn next(&mut self) -> Option<Self::Item> {
        self.order.next().map(|row| self.slab.answer(row))
    }
}

impl<R: RankingFunction> AnyK for BatchSorted<R> {
    type Cost = R::Cost;
}

/// Join-then-heapify baseline: pops lazily.
pub struct BatchHeap<R: RankingFunction> {
    slab: AnswerSlab<R::Cost>,
    heap: SlabHeap,
}

impl<R: RankingFunction> BatchHeap<R> {
    /// Run the full join and heapify all answers (O(r)).
    ///
    /// # Panics
    ///
    /// If the join has more than 2³² answers (the heap orders 32-bit
    /// row ids); this baseline is for experiments, which stay far
    /// below that.
    pub fn new(q: &ConjunctiveQuery, tree: &JoinTree, rels: Vec<Relation>) -> Self
    where
        R::Cost: Ord,
    {
        let slab = materialize_ranked::<R>(q, tree, rels);
        let ids = (slab.row_ids()).expect("a batch baseline's answers fit 32-bit row ids");
        BatchHeap {
            heap: SlabHeap::new(&slab, ids),
            slab,
        }
    }
}

impl<R: RankingFunction> Iterator for BatchHeap<R> {
    type Item = RankedAnswer<R::Cost>;

    fn next(&mut self) -> Option<Self::Item> {
        let row = self.heap.pop(&self.slab)?;
        Some(self.slab.answer(row as usize))
    }
}

impl<R: RankingFunction> AnyK for BatchHeap<R> {
    type Cost = R::Cost;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::SumCost;
    use anyk_query::cq::path_query;
    use anyk_query::gyo::{gyo_reduce, GyoResult};
    use anyk_storage::{RelationBuilder, Schema};

    fn rels() -> Vec<Relation> {
        let mk = |rows: &[(i64, i64, f64)], cols: [&str; 2]| {
            let mut b = RelationBuilder::new(Schema::new(cols));
            for &(x, y, w) in rows {
                b.push_ints(&[x, y], w);
            }
            b.finish()
        };
        vec![
            mk(&[(1, 2, 1.0), (1, 3, 0.5)], ["a", "b"]),
            mk(&[(2, 5, 1.0), (3, 6, 0.25), (2, 6, 0.125)], ["b", "c"]),
        ]
    }

    #[test]
    fn sorted_and_heap_agree() {
        let q = path_query(2);
        let tree = match gyo_reduce(&q) {
            GyoResult::Acyclic(t) => t,
            _ => panic!(),
        };
        let s: Vec<f64> = BatchSorted::<SumCost>::new(&q, &tree, rels())
            .map(|a| a.cost.get())
            .collect();
        let h: Vec<f64> = BatchHeap::<SumCost>::new(&q, &tree, rels())
            .map(|a| a.cost.get())
            .collect();
        assert_eq!(s, h);
        assert_eq!(s, vec![0.75, 1.125, 2.0]);
    }
}
