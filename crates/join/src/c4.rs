//! The 4-cycle as the ℓ = 4 instance of [`crate::cycle`]: split
//! attributes `x1` and `x3`, Δ = ⌈√n⌉, cases A (`heavy-x1`), B
//! (`light-x1,heavy-x3`) and C (`light-light`).

use crate::cases::TreeCase;
use crate::cycle::cycle_cases_provider;
use anyk_storage::{IndexProvider, Relation, Weight};

/// [`cycle_cases_provider`] on exactly four relations.
pub fn c4_cases_provider(
    rels: &[Relation],
    threshold: usize,
    merge: impl Fn(Weight, Weight) -> Weight,
    indexes: &dyn IndexProvider,
) -> Vec<TreeCase> {
    assert_eq!(rels.len(), 4, "4-cycle needs exactly 4 relations");
    cycle_cases_provider(rels, threshold, merge, indexes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycle::{cycle_cases_with, cycle_join};
    use anyk_query::cq::cycle_query;
    use anyk_query::cycles::heavy_threshold;
    use anyk_storage::{RelationBuilder, Schema};

    fn edge_rel(edges: &[(i64, i64)]) -> Relation {
        let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
        for (i, &(x, y)) in edges.iter().enumerate() {
            b.push_ints(&[x, y], 0.5 + i as f64);
        }
        b.finish()
    }

    fn check_against_generic_join(rels: &[Relation], threshold: usize) {
        let q = cycle_query(4);
        let (gj, _) = crate::generic_join::generic_join_materialize(&q, rels, None);
        let c4 = cycle_join(rels, threshold);
        crate::nested_loop::assert_same_result(&gj, &c4);
    }

    #[test]
    fn simple_cycle_instance() {
        let e = edge_rel(&[(1, 2), (2, 3), (3, 4), (4, 1)]);
        let rels = vec![e.clone(), e.clone(), e.clone(), e];
        check_against_generic_join(&rels, 2);
    }

    #[test]
    fn star_heavy_instance() {
        // Hub node 1 has high degree -> exercises heavy cases.
        let mut edges = vec![];
        for i in 2..12 {
            edges.push((1, i));
            edges.push((i, 1));
        }
        let e = edge_rel(&edges);
        let rels = vec![e.clone(), e.clone(), e.clone(), e];
        check_against_generic_join(&rels, heavy_threshold(edges.len()));
    }

    #[test]
    fn threshold_extremes_agree() {
        let e = edge_rel(&[(1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2)]);
        let rels = vec![e.clone(), e.clone(), e.clone(), e];
        // All-heavy (threshold 0) and all-light (huge threshold) must
        // both still produce the same full result.
        check_against_generic_join(&rels, 0);
        check_against_generic_join(&rels, 1_000_000);
        check_against_generic_join(&rels, 1);
    }

    #[test]
    fn distinct_relations() {
        let rels = vec![
            edge_rel(&[(1, 2), (1, 3)]),
            edge_rel(&[(2, 5), (3, 5), (3, 6)]),
            edge_rel(&[(5, 7), (6, 7), (5, 8)]),
            edge_rel(&[(7, 1), (8, 1), (8, 2)]),
        ];
        check_against_generic_join(&rels, 1);
    }

    #[test]
    fn empty_input() {
        let rels = vec![
            edge_rel(&[]),
            edge_rel(&[(1, 2)]),
            edge_rel(&[(2, 3)]),
            edge_rel(&[(3, 1)]),
        ];
        let res = cycle_join(&rels, 1);
        assert!(res.is_empty());
    }

    #[test]
    fn provider_cases_match_private_builds() {
        use anyk_storage::IndexCatalog;
        // Hub node exercises heavy x1/x3 (residuals + lazy R2 trie);
        // the light tail exercises the bag joins.
        let mut edges = vec![(20, 21), (21, 22), (22, 20)];
        for i in 2..10 {
            edges.push((1, i));
            edges.push((i, 1));
        }
        let e = edge_rel(&edges);
        let rels = vec![e.clone(), e.clone(), e.clone(), e];
        let threshold = 2;
        let merge = |a: Weight, b: Weight| Weight::new(a.get() + b.get());
        let catalog = IndexCatalog::default();
        let base = cycle_cases_with(&rels, threshold, merge);
        let shared = c4_cases_provider(&rels, threshold, merge, &catalog);
        assert_eq!(base.len(), shared.len());
        for (b, s) in base.iter().zip(&shared) {
            assert_eq!(b.label, s.label);
            assert_eq!(b.out, s.out);
            assert_eq!(b.relations.len(), s.relations.len());
            for (br, sr) in b.relations.iter().zip(&s.relations) {
                assert_eq!(br.len(), sr.len(), "case {}", b.label);
                for i in 0..br.len() as u32 {
                    assert_eq!(br.row(i), sr.row(i), "case {}", b.label);
                    assert_eq!(br.weight(i), sr.weight(i), "case {}", b.label);
                }
            }
        }
        // One payload, two canonical orders ([0,1] and [1,0]): two
        // builds total, and a second construction is all hits.
        assert_eq!(catalog.stats().builds, 2);
        c4_cases_provider(&rels, threshold, merge, &catalog);
        assert_eq!(catalog.stats().builds, 2);
    }

    #[test]
    fn weights_sum_all_four_edges() {
        let rels = vec![
            edge_rel(&[(1, 2)]), // w = 0.5
            edge_rel(&[(2, 3)]), // w = 0.5
            edge_rel(&[(3, 4)]), // w = 0.5
            edge_rel(&[(4, 1)]), // w = 0.5
        ];
        let res = cycle_join(&rels, 10);
        assert_eq!(res.len(), 1);
        assert!((res.weight(0).get() - 2.0).abs() < 1e-9);
    }
}
