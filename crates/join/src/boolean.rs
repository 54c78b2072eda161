//! Boolean query evaluation — "is there any answer?" — with early exit.
//!
//! §1 of the paper: the Boolean 4-cycle can be answered in O~(n^1.5),
//! far below the worst-case output bound O(n²) a WCO join pays, and the
//! same case-split machinery then powers ranked enumeration: for small
//! `k`, finding the k lightest 4-cycles costs about as much as the
//! Boolean query.

use anyk_query::cq::ConjunctiveQuery;
use anyk_query::join_tree::JoinTree;
use anyk_storage::Relation;
use std::ops::ControlFlow;

use crate::cases::cases_exist;
use crate::cycle::cycle_cases;
use crate::semijoin::full_reducer;

/// Boolean evaluation of an *acyclic* query: run the full reducer; the
/// query has an answer iff every relation retains at least one tuple.
pub fn boolean_acyclic(q: &ConjunctiveQuery, tree: &JoinTree, mut rels: Vec<Relation>) -> bool {
    full_reducer(q, tree, &mut rels);
    rels.iter().all(|r| !r.is_empty())
}

/// Boolean evaluation via Generic-Join with early exit (works for any
/// query, cost up to the AGM bound).
pub fn boolean_generic_join(q: &ConjunctiveQuery, rels: &[Relation]) -> bool {
    let mut found = false;
    crate::generic_join::generic_join(q, rels, None, &mut |_, _| {
        found = true;
        ControlFlow::Break(())
    });
    found
}

/// Boolean ℓ-cycle detection through the union-of-trees plan, in
/// O~(n^(2−1/⌈ℓ/2⌉)) — §1's "Is there any 4-cycle?" in O(n^1.5).
pub fn cycle_exists(rels: &[Relation], threshold: usize) -> bool {
    cases_exist(cycle_cases(rels, threshold))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_query::cq::{cycle_query, path_query, triangle_query};
    use anyk_query::gyo::{gyo_reduce, GyoResult};
    use anyk_storage::{RelationBuilder, Schema};

    fn edge_rel(edges: &[(i64, i64)]) -> Relation {
        let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
        for &(x, y) in edges {
            b.push_ints(&[x, y], 0.0);
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
    fn acyclic_boolean() {
        let q = path_query(2);
        let tree = tree_of(&q);
        let yes = vec![edge_rel(&[(1, 2)]), edge_rel(&[(2, 3)])];
        let no = vec![edge_rel(&[(1, 2)]), edge_rel(&[(9, 3)])];
        assert!(boolean_acyclic(&q, &tree, yes));
        assert!(!boolean_acyclic(&q, &tree, no));
    }

    #[test]
    fn triangle_boolean_gj() {
        let q = triangle_query();
        let e = edge_rel(&[(1, 2), (2, 3), (3, 1)]);
        assert!(boolean_generic_join(&q, &[e.clone(), e.clone(), e.clone()]));
        let e2 = edge_rel(&[(1, 2), (2, 3)]);
        assert!(!boolean_generic_join(
            &q,
            &[e2.clone(), e2.clone(), e2.clone()]
        ));
    }

    #[test]
    fn c4_detection_agrees_with_gj() {
        let q = cycle_query(4);
        let instances: Vec<Vec<(i64, i64)>> = vec![
            vec![(1, 2), (2, 3), (3, 4), (4, 1)],
            vec![(1, 2), (2, 3), (3, 4)], // open path, no cycle
            vec![(1, 1)],                 // self loop: 1,1,1,1 cycle!
            vec![(1, 2), (2, 1)],         // 2-cycle doubles as 4-cycle
            vec![(5, 6), (7, 8)],
        ];
        for edges in instances {
            let e = edge_rel(&edges);
            let rels = vec![e.clone(), e.clone(), e.clone(), e];
            let expect = boolean_generic_join(&q, &rels);
            for thr in [0usize, 1, 2, 100] {
                assert_eq!(
                    cycle_exists(&rels, thr),
                    expect,
                    "edges {edges:?} threshold {thr}"
                );
            }
        }
    }
}
