//! Integration suite for the unified `Engine`: the planner must pick
//! the documented route for each query shape, and the routed stream
//! must agree — order and multiset — with the hand-wired engines it
//! routes to, under rankings chosen at runtime.

use anyk::core::{
    cycle_trees, ghd_trees, triangle_ranked, AnyKPart, MaxCost, RankingFunction, SuccessorKind,
    SumCost, TdpInstance, Trees,
};
use anyk::prelude::*;
use anyk::query::cycles::{cycle_heavy_threshold, heavy_threshold};
use anyk::query::decompose::fhw_exact;
use anyk::query::hypergraph::Hypergraph;
use anyk::storage::BuildEachTime;

fn edge_rel(rows: &[(i64, i64, f64)]) -> Relation {
    let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
    for &(x, y, w) in rows {
        b.push_ints(&[x, y], w);
    }
    b.finish()
}

/// A well-mixed weighted edge set with dyadic weights (exact float
/// arithmetic keeps cost comparisons bitwise across plans).
fn dense_edges(n: i64) -> Relation {
    let mut rows = Vec::new();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                let w = ((i * 7 + j * 13) % 32) as f64 / 8.0;
                rows.push((i, j, w));
            }
        }
    }
    edge_rel(&rows)
}

/// Engine answers as (scalar cost, tuple) pairs.
fn run_engine(
    q: &ConjunctiveQueryAlias,
    rels: Vec<Relation>,
    rank: RankSpec,
) -> Vec<(f64, Vec<i64>)> {
    let engine = Engine::from_query_bindings(q, rels);
    engine
        .query(q.clone())
        .rank_by(rank)
        .plan()
        .expect("plannable")
        .map(|a| (a.cost.scalar().expect("scalar rank"), a.ints()))
        .collect()
}

type ConjunctiveQueryAlias = anyk::query::cq::ConjunctiveQuery;

/// Hand-wired acyclic reference: GYO + T-DP + ANYK-PART(Lazy).
fn run_handwired_acyclic<R: RankingFunction>(
    q: &ConjunctiveQueryAlias,
    rels: Vec<Relation>,
) -> Vec<(R::Cost, Vec<i64>)> {
    let tree = match gyo_reduce(q) {
        GyoResult::Acyclic(t) => t,
        _ => panic!("acyclic expected"),
    };
    let inst = TdpInstance::<R>::prepare(q, &tree, rels).unwrap();
    AnyKPart::new(inst, SuccessorKind::Lazy)
        .map(|a| (a.cost, a.values.iter().map(|v| v.int()).collect()))
        .collect()
}

fn assert_same_ranked(got: &[(f64, Vec<i64>)], want: &[(f64, Vec<i64>)], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: cardinality");
    assert!(
        got.windows(2).all(|w| w[0].0 <= w[1].0),
        "{label}: engine stream not sorted"
    );
    for (i, ((gc, _), (wc, _))) in got.iter().zip(want).enumerate() {
        assert_eq!(gc, wc, "{label}: cost at rank {i}");
    }
    let mut gv: Vec<_> = got.iter().map(|g| g.1.clone()).collect();
    let mut wv: Vec<_> = want.iter().map(|w| w.1.clone()).collect();
    gv.sort();
    wv.sort();
    assert_eq!(gv, wv, "{label}: answer multiset");
}

#[test]
fn acyclic_path_routes_and_agrees() {
    let q = path_query(3);
    let rels = vec![
        edge_rel(&[(1, 2, 0.5), (1, 3, 0.25), (2, 2, 1.0), (3, 2, 0.125)]),
        edge_rel(&[(2, 5, 0.5), (2, 6, 2.0), (3, 5, 0.0625)]),
        edge_rel(&[(5, 7, 1.0), (5, 8, 0.25), (6, 7, 0.5)]),
    ];
    let engine = Engine::from_query_bindings(&q, rels.clone());
    let plan = engine.query(q.clone()).explain().unwrap();
    assert!(matches!(plan.route, Route::Acyclic { .. }), "{plan:?}");

    for rank in [RankSpec::Sum, RankSpec::Max] {
        let got = run_engine(&q, rels.clone(), rank);
        let want: Vec<(f64, Vec<i64>)> = match rank {
            RankSpec::Sum => run_handwired_acyclic::<SumCost>(&q, rels.clone())
                .into_iter()
                .map(|(c, v)| (c.get(), v))
                .collect(),
            _ => run_handwired_acyclic::<MaxCost>(&q, rels.clone())
                .into_iter()
                .map(|(c, v)| (c.get(), v))
                .collect(),
        };
        assert_same_ranked(&got, &want, &format!("path3/{rank}"));
    }
}

#[test]
fn acyclic_path_lex_agrees() {
    let q = path_query(3);
    let rels = vec![
        edge_rel(&[(1, 2, 0.5), (1, 3, 0.25), (3, 2, 0.125)]),
        edge_rel(&[(2, 5, 0.5), (2, 6, 2.0), (3, 5, 0.0625)]),
        edge_rel(&[(5, 7, 1.0), (5, 8, 0.25), (6, 7, 0.5)]),
    ];
    let engine = Engine::from_query_bindings(&q, rels.clone());
    let got: Vec<(Vec<Weight>, Vec<i64>)> = engine
        .query(q.clone())
        .rank_by(RankSpec::Lex)
        .plan()
        .unwrap()
        .map(|a| (a.cost.lex().unwrap().to_vec(), a.ints()))
        .collect();
    let want = run_handwired_acyclic::<LexCost>(&q, rels);
    assert_eq!(got.len(), want.len(), "lex cardinality");
    for (i, ((gc, gv), (wc, wv))) in got.iter().zip(&want).enumerate() {
        assert_eq!(gc, wc.as_slice(), "lex cost at rank {i}");
        assert_eq!(gv, wv, "lex tuple at rank {i}");
    }
}

#[test]
fn acyclic_star_routes_and_agrees() {
    let q = star_query(3);
    let rels = vec![
        edge_rel(&[(1, 2, 0.5), (1, 3, 0.25), (2, 4, 1.0)]),
        edge_rel(&[(1, 5, 0.5), (2, 6, 0.125)]),
        edge_rel(&[(1, 7, 2.0), (1, 8, 0.0625), (2, 9, 0.5)]),
    ];
    let engine = Engine::from_query_bindings(&q, rels.clone());
    let plan = engine.query(q.clone()).explain().unwrap();
    assert!(matches!(plan.route, Route::Acyclic { .. }));

    let got = run_engine(&q, rels.clone(), RankSpec::Sum);
    let want: Vec<(f64, Vec<i64>)> = run_handwired_acyclic::<SumCost>(&q, rels)
        .into_iter()
        .map(|(c, v)| (c.get(), v))
        .collect();
    assert_same_ranked(&got, &want, "star3/sum");
}

#[test]
fn triangle_routes_and_agrees() {
    let q = triangle_query();
    let e = dense_edges(6);
    let rels = vec![e.clone(), e.clone(), e.clone()];
    let engine = Engine::from_query_bindings(&q, rels.clone());
    let plan = engine.query(q.clone()).explain().unwrap();
    assert!(matches!(plan.route, Route::Triangle), "{plan:?}");
    assert!((plan.width - 1.5).abs() < 1e-12);

    for rank in [RankSpec::Sum, RankSpec::Max] {
        let got = run_engine(&q, rels.clone(), rank);
        let mut want: Vec<(f64, Vec<i64>)> = match rank {
            RankSpec::Sum => triangle_ranked::<SumCost>(&rels)
                .map(|a| (a.cost.get(), a.values.iter().map(|v| v.int()).collect()))
                .collect(),
            _ => triangle_ranked::<MaxCost>(&rels)
                .map(|a| (a.cost.get(), a.values.iter().map(|v| v.int()).collect()))
                .collect(),
        };
        want.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        let mut got_sorted = got.clone();
        got_sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        assert!(
            got.windows(2).all(|w| w[0].0 <= w[1].0),
            "triangle/{rank}: not sorted"
        );
        assert_eq!(got_sorted, want, "triangle/{rank}");
        assert!(!got.is_empty(), "triangle/{rank}: instance has answers");
    }
}

/// The hand-wired stream of a prepared union of trees: PART(Lazy).
fn lazy_part<R>(trees: Result<Trees<R>, anyk::core::TdpError>) -> Vec<(f64, Vec<i64>)>
where
    R: RankingFunction<Cost = Weight>,
{
    (trees
        .expect("scalar rankings collapse")
        .part(SuccessorKind::Lazy))
    .map(|a| (a.cost.get(), a.values.iter().map(|v| v.int()).collect()))
    .collect()
}

#[test]
fn four_cycle_routes_and_agrees() {
    let q = cycle_query(4);
    let e = dense_edges(6);
    let rels = vec![e.clone(), e.clone(), e.clone(), e.clone()];
    let engine = Engine::from_query_bindings(&q, rels.clone());
    let plan = engine.query(q.clone()).explain().unwrap();
    let threshold = match plan.route {
        Route::Cycle { len: 4, threshold } => threshold,
        ref r => panic!("expected the cycle route at length 4, got {}", r.label()),
    };
    assert_eq!(threshold, heavy_threshold(e.len()));

    for rank in [RankSpec::Sum, RankSpec::Max] {
        let got = run_engine(&q, rels.clone(), rank);
        let want = match rank {
            RankSpec::Sum => lazy_part(cycle_trees::<SumCost>(&rels, threshold, &BuildEachTime)),
            _ => lazy_part(cycle_trees::<MaxCost>(&rels, threshold, &BuildEachTime)),
        };
        assert_same_ranked(&got, &want, &format!("c4/{rank}"));
    }
}

#[test]
fn five_cycle_routes_and_agrees() {
    let q = cycle_query(5);
    let e = dense_edges(5);
    let rels = vec![e.clone(); 5];
    let engine = Engine::from_query_bindings(&q, rels.clone());
    let plan = engine.query(q.clone()).explain().unwrap();
    let threshold = match plan.route {
        Route::Cycle { len: 5, threshold } => threshold,
        ref r => panic!("expected the cycle route at length 5, got {}", r.label()),
    };
    assert_eq!(threshold, cycle_heavy_threshold(e.len(), 5));
    assert!((plan.width - 5.0 / 3.0).abs() < 1e-9);

    for rank in [RankSpec::Sum, RankSpec::Max] {
        let got = run_engine(&q, rels.clone(), rank);
        let want = match rank {
            RankSpec::Sum => lazy_part(cycle_trees::<SumCost>(&rels, threshold, &BuildEachTime)),
            _ => lazy_part(cycle_trees::<MaxCost>(&rels, threshold, &BuildEachTime)),
        };
        assert_same_ranked(&got, &want, &format!("c5/{rank}"));
    }
}

#[test]
fn generic_cyclic_routes_and_agrees() {
    // A chorded 5-cycle: cyclic, not a simple cycle — must take the
    // decomposition route.
    let q = chorded_cycle_query(5);
    let e = dense_edges(5);
    let rels: Vec<Relation> = (0..6).map(|_| e.clone()).collect();
    let engine = Engine::from_query_bindings(&q, rels.clone());
    let plan = engine.query(q.clone()).explain().unwrap();
    let decomp = match &plan.route {
        Route::Decomposed { decomp } => decomp.clone(),
        r => panic!("expected decomposed route, got {}", r.label()),
    };
    // The auto decomposition for a 5-variable query is the exact fhw.
    let exact = fhw_exact(&Hypergraph::of_query(&q));
    assert!((plan.width - exact.width).abs() < 1e-9);

    for rank in [RankSpec::Sum, RankSpec::Max] {
        let got = run_engine(&q, rels.clone(), rank);
        let want = match rank {
            RankSpec::Sum => lazy_part(ghd_trees::<SumCost>(&q, &rels, &decomp, &BuildEachTime)),
            _ => lazy_part(ghd_trees::<MaxCost>(&q, &rels, &decomp, &BuildEachTime)),
        };
        assert_same_ranked(&got, &want, &format!("chorded c5/{rank}"));
    }
}

#[test]
fn lex_runs_on_every_cyclic_shape_in_canonical_atom_order() {
    // Lex on cyclic routes serves the materialized answer set with
    // weights serialized in canonical atom order — cross-check the
    // full ranked order against WCO materialization sorted the same
    // way, on every cyclic shape (triangle / cycle / GHD).
    use anyk::core::LexCost;
    let shapes = [3usize, 4, 5].map(|l| (l, cycle_query(l)));
    for (l, q) in shapes.into_iter().chain([(6, chorded_cycle_query(5))]) {
        let e = dense_edges(4);
        let rels: Vec<Relation> = (0..q.num_atoms()).map(|_| e.clone()).collect();
        let mut want: Vec<(Vec<Weight>, Vec<Value>)> =
            anyk::core::cyclic::wco_ranked_materialize::<LexCost>(&q, &rels)
                .iter()
                .map(|(c, v)| (c.as_slice().to_vec(), v.to_vec()))
                .collect();
        want.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let engine = Engine::from_query_bindings(&q, rels);
        let plan = engine
            .query(q.clone())
            .rank_by(RankSpec::Lex)
            .explain()
            .unwrap();
        assert_eq!(plan.variant, None, "cycle({l}): single-artifact plan");
        let got: Vec<(Vec<Weight>, Vec<Value>)> = engine
            .query(q)
            .rank_by(RankSpec::Lex)
            .plan()
            .expect("lex is served on cyclic queries via materialization")
            .map(|a| (a.cost.lex().expect("lex cost").to_vec(), a.values))
            .collect();
        assert_eq!(got, want, "cycle({l}): lex total order");
    }
}

#[test]
fn prod_ranking_runs_on_all_routes() {
    // Prod is commutative: valid everywhere, including cyclic routes.
    for (label, q, m) in [
        ("path", path_query(2), 2usize),
        ("triangle", triangle_query(), 3),
        ("c4", cycle_query(4), 4),
        ("c5", cycle_query(5), 5),
        ("chorded c5", chorded_cycle_query(5), 6),
    ] {
        let e = dense_edges(4);
        let rels: Vec<Relation> = (0..m).map(|_| e.clone()).collect();
        let engine = Engine::from_query_bindings(&q, rels);
        let answers: Vec<_> = engine
            .query(q)
            .rank_by(RankSpec::Prod)
            .plan()
            .unwrap_or_else(|e| panic!("{label}: {e}"))
            .collect();
        assert!(
            answers.windows(2).all(|w| w[0].cost <= w[1].cost),
            "{label}: prod stream sorted"
        );
    }
}

#[test]
fn engine_variants_agree_on_four_cycle() {
    let q = cycle_query(4);
    let e = dense_edges(5);
    let rels: Vec<Relation> = (0..4).map(|_| e.clone()).collect();
    let engine = Engine::from_query_bindings(&q, rels);
    let costs = |variant| -> Vec<f64> {
        engine
            .query(q.clone())
            .with_variant(variant)
            .plan()
            .unwrap()
            .map(|a| a.cost.scalar().unwrap())
            .collect()
    };
    let part = costs(AnyKVariant::Part(SuccessorKind::Lazy));
    let rec = costs(AnyKVariant::Rec);
    assert_eq!(part, rec, "PART and REC agree on cost sequence");
}
