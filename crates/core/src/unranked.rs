//! Constant-delay **unranked** enumeration — the §4 connection: "if an
//! algorithm returns join results with constant delay after spending
//! time `t_prep` on pre-processing, then it guarantees join time
//! O~(t_prep + r)". Ranked enumeration is exactly this plus "a little
//! more" preprocessing to emit in order.
//!
//! After the full reducer, every partial binding extends to an answer,
//! so a plain odometer over the join-key groups visits each answer
//! exactly once with O(1) work between answers — no priority queue, no
//! order. This is the fair baseline for measuring what *ranking* costs
//! on top of *enumeration*.

use crate::answer::RankedAnswer;
use crate::ranking::RankingFunction;
use crate::tdp::{Members, TdpInstance};
use anyk_storage::RowId;

/// Unordered constant-delay enumeration over a prepared
/// [`TdpInstance`]. Yields [`RankedAnswer`]s whose `cost` is computed
/// per answer (so downstream code can re-rank or filter), but **arrival
/// order is arbitrary**.
pub struct UnrankedEnum<R: RankingFunction> {
    inst: TdpInstance<R>,
    /// Current member index within each slot's active group.
    pos: Vec<usize>,
    /// Current row per slot.
    rows: Vec<RowId>,
    state: State,
}

#[derive(PartialEq)]
enum State {
    Fresh,
    Running,
    Done,
}

impl<R: RankingFunction> UnrankedEnum<R> {
    /// Wrap a prepared instance.
    pub fn new(inst: TdpInstance<R>) -> Self {
        let m = inst.num_slots();
        let state = if inst.is_empty() {
            State::Done
        } else {
            State::Fresh
        };
        UnrankedEnum {
            inst,
            pos: vec![0; m],
            rows: vec![0; m],
            state,
        }
    }

    /// Group members of `slot` under the current prefix.
    fn group(&self, slot: usize) -> Members<'_> {
        let gid = match slot {
            0 => 0,
            _ => self.inst.group_at(slot, &self.rows),
        };
        self.inst.group(slot, gid)
    }

    /// Reset slots `from..m` to the first member of their groups.
    fn reset_from(&mut self, from: usize) {
        let m = self.inst.num_slots();
        for s in from..m {
            self.pos[s] = 0;
            self.rows[s] = self.group(s).get(0).expect("groups are non-empty");
        }
    }

    fn assemble(&self) -> RankedAnswer<R::Cost> {
        let mut cost = R::identity();
        for (s, &row) in self.rows.iter().enumerate() {
            cost = R::combine(&cost, &self.inst.slot_weight(s, row));
        }
        let values = self.inst.assemble(&self.rows);
        RankedAnswer { cost, values }
    }
}

impl<R: RankingFunction> Iterator for UnrankedEnum<R> {
    type Item = RankedAnswer<R::Cost>;

    fn next(&mut self) -> Option<Self::Item> {
        let m = self.inst.num_slots();
        match self.state {
            State::Done => return None,
            State::Fresh => {
                self.reset_from(0);
                self.state = State::Running;
                return Some(self.assemble());
            }
            State::Running => {}
        }
        // Odometer: advance the deepest slot with a next member; all
        // groups are non-empty post-reduction, so resets always land on
        // valid rows.
        let mut s = m;
        loop {
            if s == 0 {
                self.state = State::Done;
                return None;
            }
            s -= 1;
            let (glen, next_row) = {
                let g = self.group(s);
                let p = self.pos[s] + 1;
                (g.len(), g.get(p))
            };
            if self.pos[s] + 1 < glen {
                self.pos[s] += 1;
                self.rows[s] = next_row.expect("bounds checked");
                self.reset_from(s + 1);
                return Some(self.assemble());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchSorted;
    use crate::ranking::SumCost;
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

    fn check_same_multiset(q: &ConjunctiveQuery, rels: Vec<Relation>) {
        let tree = tree_of(q);
        let inst = TdpInstance::<SumCost>::prepare(q, &tree, rels.clone()).unwrap();
        let mut unranked: Vec<(Vec<i64>, f64)> = UnrankedEnum::new(inst)
            .map(|a| (a.values.iter().map(|v| v.int()).collect(), a.cost.get()))
            .collect();
        let mut ranked: Vec<(Vec<i64>, f64)> = BatchSorted::<SumCost>::new(q, &tree, rels)
            .map(|a| (a.values.iter().map(|v| v.int()).collect(), a.cost.get()))
            .collect();
        unranked.sort_by(|a, b| a.0.cmp(&b.0));
        ranked.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(unranked.len(), ranked.len());
        for ((uv, uc), (rv, rc)) in unranked.iter().zip(&ranked) {
            assert_eq!(uv, rv);
            assert!((uc - rc).abs() < 1e-9);
        }
    }

    #[test]
    fn path_multiset_matches_batch() {
        let rels = vec![
            edge_rel(
                ["a", "b"],
                &[(1, 2, 0.5), (1, 3, 1.0), (4, 2, 0.25), (9, 9, 8.0)],
            ),
            edge_rel(["b", "c"], &[(2, 5, 2.0), (2, 6, 0.125), (3, 5, 0.0625)]),
        ];
        check_same_multiset(&path_query(2), rels);
    }

    #[test]
    fn star_multiset_matches_batch() {
        let rels = vec![
            edge_rel(["o", "a"], &[(1, 10, 0.5), (1, 11, 1.0), (2, 12, 0.25)]),
            edge_rel(["o", "b"], &[(1, 20, 2.0), (2, 21, 0.125)]),
            edge_rel(["o", "c"], &[(1, 30, 4.0), (2, 31, 0.0625), (2, 32, 8.0)]),
        ];
        check_same_multiset(&star_query(3), rels);
    }

    #[test]
    fn empty_result() {
        let q = path_query(2);
        let tree = tree_of(&q);
        let rels = vec![
            edge_rel(["a", "b"], &[(1, 2, 0.0)]),
            edge_rel(["b", "c"], &[(9, 5, 0.0)]),
        ];
        let inst = TdpInstance::<SumCost>::prepare(&q, &tree, rels).unwrap();
        assert_eq!(UnrankedEnum::new(inst).count(), 0);
    }

    #[test]
    fn single_answer() {
        let q = path_query(2);
        let tree = tree_of(&q);
        let rels = vec![
            edge_rel(["a", "b"], &[(1, 2, 0.25)]),
            edge_rel(["b", "c"], &[(2, 3, 0.5)]),
        ];
        let inst = TdpInstance::<SumCost>::prepare(&q, &tree, rels).unwrap();
        let all: Vec<_> = UnrankedEnum::new(inst).collect();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].cost.get(), 0.75);
    }
}
