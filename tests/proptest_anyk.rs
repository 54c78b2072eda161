//! Property-based end-to-end tests: random relations, random shapes,
//! random weights — every engine must produce a sorted stream equal to
//! the batch oracle.

use anyk::core::{AnyKPart, AnyKRec, BatchSorted, SuccessorKind, SumCost, TdpInstance};
use anyk::join::nested_loop::nested_loop_join;
use anyk::query::cq::{path_query, star_query, ConjunctiveQuery};
use anyk::query::gyo::{gyo_reduce, GyoResult};
use anyk::query::join_tree::JoinTree;
use anyk::storage::{Relation, RelationBuilder, Schema};
use proptest::prelude::*;

/// Random binary relation over a small domain with dyadic weights
/// (exact float arithmetic keeps cost comparisons bitwise).
fn arb_relation(max_rows: usize, domain: i64) -> impl Strategy<Value = Relation> {
    prop::collection::vec((0..domain, 0..domain, 0i32..64), 1..=max_rows).prop_map(|rows| {
        let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
        for (x, y, w) in rows {
            b.push_ints(&[x, y], w as f64 / 4.0);
        }
        b.finish()
    })
}

fn tree_of(q: &ConjunctiveQuery) -> JoinTree {
    match gyo_reduce(q) {
        GyoResult::Acyclic(t) => t,
        _ => panic!("acyclic expected"),
    }
}

fn check_all_engines(q: &ConjunctiveQuery, tree: &JoinTree, rels: Vec<Relation>) {
    let oracle: Vec<(f64, Vec<i64>)> = BatchSorted::<SumCost>::new(q, tree, rels.clone())
        .map(|a| (a.cost.get(), a.values.iter().map(|v| v.int()).collect()))
        .collect();
    let mut eager = None;
    for kind in SuccessorKind::ALL_KINDS {
        let inst = TdpInstance::<SumCost>::prepare(q, tree, rels.clone()).unwrap();
        let got: Vec<(f64, Vec<i64>)> = AnyKPart::new(inst, kind)
            .map(|a| (a.cost.get(), a.values.iter().map(|v| v.int()).collect()))
            .collect();
        // The engine's default (Eager, over the instance's shared
        // orders, first in `ALL_KINDS`) walks the same (cost, row) chain
        // as Lazy and Quick: the same answers in the same order, ties
        // included.
        match kind {
            SuccessorKind::Eager => eager = Some(got.clone()),
            SuccessorKind::Lazy | SuccessorKind::Quick => {
                assert_eq!(
                    Some(&got),
                    eager.as_ref(),
                    "{kind:?} vs Eager: exact sequence"
                )
            }
            _ => {}
        }
        assert_eq!(got.len(), oracle.len(), "{kind:?} cardinality");
        for (i, ((gc, _), (oc, _))) in got.iter().zip(&oracle).enumerate() {
            assert_eq!(gc, oc, "{kind:?} cost at {i}");
        }
        let mut gv: Vec<_> = got.into_iter().map(|g| g.1).collect();
        let mut ov: Vec<_> = oracle.iter().map(|o| o.1.clone()).collect();
        gv.sort();
        ov.sort();
        assert_eq!(gv, ov, "{kind:?} multiset");
    }
    let inst = TdpInstance::<SumCost>::prepare(q, tree, rels.clone()).unwrap();
    let rec: Vec<f64> = AnyKRec::new(inst).map(|a| a.cost.get()).collect();
    assert_eq!(rec.len(), oracle.len(), "rec cardinality");
    for (i, (gc, (oc, _))) in rec.iter().zip(&oracle).enumerate() {
        assert_eq!(gc, oc, "rec cost at {i}");
    }
    // Nested-loop cross-check on cardinality (cheap guard against a
    // wrong batch oracle).
    let nl = nested_loop_join(q, &rels);
    assert_eq!(nl.len(), oracle.len(), "nested-loop cardinality");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn path2_engines_agree(
        r1 in arb_relation(20, 5),
        r2 in arb_relation(20, 5),
    ) {
        let q = path_query(2);
        let tree = tree_of(&q);
        check_all_engines(&q, &tree, vec![r1, r2]);
    }

    #[test]
    fn path3_engines_agree(
        r1 in arb_relation(12, 4),
        r2 in arb_relation(12, 4),
        r3 in arb_relation(12, 4),
    ) {
        let q = path_query(3);
        let tree = tree_of(&q);
        check_all_engines(&q, &tree, vec![r1, r2, r3]);
    }

    #[test]
    fn star3_engines_agree(
        r1 in arb_relation(10, 4),
        r2 in arb_relation(10, 4),
        r3 in arb_relation(10, 4),
    ) {
        let q = star_query(3);
        let tree = tree_of(&q);
        check_all_engines(&q, &tree, vec![r1, r2, r3]);
    }

    #[test]
    fn self_join_path_engines_agree(r in arb_relation(15, 4)) {
        // Path with the same relation at every atom (graph pattern).
        let q = path_query(3);
        let tree = tree_of(&q);
        check_all_engines(&q, &tree, vec![r.clone(), r.clone(), r]);
    }
}
