//! Cross-crate integration tests for cyclic queries: the C4
//! union-of-trees plan and the triangle materialize-then-rank pipeline
//! against Generic-Join oracles, across thresholds, skew, and engines.

use anyk::core::cyclic::{cycle_trees, triangle_ranked};
use anyk::core::{SuccessorKind, SumCost};
use anyk::join::boolean::{boolean_generic_join, cycle_exists};
use anyk::join::cycle::cycle_join;
use anyk::join::generic_join::generic_join_materialize;
use anyk::join::nested_loop::assert_same_result;
use anyk::query::cq::{cycle_query, triangle_query};
use anyk::query::cycles::heavy_threshold;
use anyk::storage::{BuildEachTime, Relation};
use anyk::workloads::graphs::{random_edge_relation, WeightDist};

/// Sorted (cost, tuple) oracle via Generic-Join.
fn c4_oracle(rels: &[Relation]) -> Vec<(f64, Vec<i64>)> {
    let q = cycle_query(4);
    let (res, _) = generic_join_materialize(&q, rels, None);
    let mut out: Vec<(f64, Vec<i64>)> = (0..res.len() as u32)
        .map(|i| {
            (
                res.weight(i).get(),
                res.row(i).iter().map(|v| v.int()).collect(),
            )
        })
        .collect();
    out.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    out
}

fn check_c4(rels: &[Relation]) {
    let oracle = c4_oracle(rels);
    let n = rels.iter().map(Relation::len).max().unwrap_or(0);
    for thr in [0usize, heavy_threshold(n), usize::MAX / 2] {
        // Batch plan agrees with Generic-Join.
        let batch = cycle_join(rels, thr);
        let (gj, _) = generic_join_materialize(&cycle_query(4), rels, None);
        assert_same_result(&batch, &gj);
        // Ranked plans emit the same costs in order.
        let trees = cycle_trees::<SumCost>(rels, thr, &BuildEachTime).unwrap();
        for engine in ["part", "rec"] {
            let got: Vec<f64> = match engine {
                "part" => (trees.part(SuccessorKind::Lazy))
                    .map(|a| a.cost.get())
                    .collect(),
                _ => trees.rec().map(|a| a.cost.get()).collect(),
            };
            assert_eq!(got.len(), oracle.len(), "{engine} thr {thr}");
            assert!(got.windows(2).all(|w| w[0] <= w[1]), "{engine}: order");
            for (i, (g, (o, _))) in got.iter().zip(&oracle).enumerate() {
                assert!(
                    (g - o).abs() < 1e-9,
                    "{engine} thr {thr}: cost {i}: {g} vs {o}"
                );
            }
        }
        // Boolean detection consistent with output emptiness.
        assert_eq!(cycle_exists(rels, thr), !oracle.is_empty(), "thr {thr}");
    }
}

#[test]
fn c4_self_join_random_graphs() {
    for seed in [1u64, 2] {
        let e = random_edge_relation(60, 10, WeightDist::Uniform, None, seed);
        let rels = vec![e.clone(), e.clone(), e.clone(), e];
        check_c4(&rels);
    }
}

#[test]
fn c4_skewed_graph() {
    let e = random_edge_relation(80, 12, WeightDist::Uniform, Some(1.5), 3);
    let rels = vec![e.clone(), e.clone(), e.clone(), e];
    check_c4(&rels);
}

#[test]
fn c4_distinct_relations() {
    let rels: Vec<Relation> = (0..4)
        .map(|i| random_edge_relation(40, 8, WeightDist::Uniform, None, 100 + i))
        .collect();
    check_c4(&rels);
}

#[test]
fn c4_empty_output() {
    // Bipartite-incompatible relations: no cycles close.
    let rels: Vec<Relation> = (0..4)
        .map(|i| {
            // Relation i maps range [100i, 100i+10) -> [100(i+1), ...):
            // the last cannot close back to the first.
            let mut b =
                anyk::storage::RelationBuilder::new(anyk::storage::Schema::new(["src", "dst"]));
            for k in 0..10i64 {
                b.push_ints(&[100 * i + k, 100 * (i + 1) + k], 0.5);
            }
            b.finish()
        })
        .collect();
    check_c4(&rels);
}

#[test]
fn triangle_ranked_pipeline() {
    for seed in [7u64, 8] {
        let e = random_edge_relation(80, 10, WeightDist::Uniform, None, seed);
        let rels = vec![e.clone(), e.clone(), e];
        let q = triangle_query();
        let (all, _) = generic_join_materialize(&q, &rels, None);
        let mut expect: Vec<f64> = (0..all.len() as u32).map(|i| all.weight(i).get()).collect();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let got: Vec<f64> = triangle_ranked::<SumCost>(&rels)
            .map(|a| a.cost.get())
            .collect();
        assert_eq!(got.len(), expect.len(), "seed {seed}");
        for (g, e) in got.iter().zip(&expect) {
            assert!((g - e).abs() < 1e-9);
        }
        assert_eq!(
            boolean_generic_join(&q, &rels),
            !expect.is_empty(),
            "seed {seed}"
        );
    }
}

#[test]
fn c4_prefix_stability() {
    let e = random_edge_relation(70, 9, WeightDist::Uniform, None, 55);
    let rels = vec![e.clone(), e.clone(), e.clone(), e];
    let thr = heavy_threshold(70);
    let trees = cycle_trees::<SumCost>(&rels, thr, &BuildEachTime).unwrap();
    let full: Vec<f64> = (trees.part(SuccessorKind::Take2))
        .map(|a| a.cost.get())
        .collect();
    for k in [1usize, 3, 10, full.len()] {
        let partial: Vec<f64> = (trees.part(SuccessorKind::Take2))
            .take(k)
            .map(|a| a.cost.get())
            .collect();
        assert_eq!(partial.len(), k.min(full.len()));
        for (p, f) in partial.iter().zip(&full) {
            assert_eq!(p, f);
        }
    }
}
