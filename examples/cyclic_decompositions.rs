//! General cyclic queries through tree decompositions: the full §3
//! pipeline on a 6-cycle, and on the chorded 6-cycle the engine's
//! planner sends down that route on its own.
//!
//! Shows: width analysis (ρ*, fhw, subw), GHD materialization, and
//! ranked enumeration over the bag tree; plus the moral of §3's
//! submodular width (union of trees vs single tree) on the 6-cycle — which the planner routes to
//! the cycle plan — and on the 4-cycle.
//!
//! Run with: `cargo run --release --example cyclic_decompositions`

use anyk::core::cyclic::cycle_trees;
use anyk::core::decomposed::{auto_decomposition, ghd_trees};
use anyk::core::{SuccessorKind, SumCost};
use anyk::engine::{Engine, RankSpec};
use anyk::query::agm::fractional_edge_cover;
use anyk::query::cq::{chorded_cycle_query, cycle_query};
use anyk::query::cycles::{cycle_submodular_width, heavy_threshold};
use anyk::query::decompose::fhw_exact;
use anyk::query::hypergraph::{iter_vars, Hypergraph};
use anyk::storage::BuildEachTime;
use anyk::workloads::graphs::{random_edge_relation, WeightDist};
use std::time::Instant;

fn main() {
    // --- A 6-cycle pattern over a random weighted graph. ---
    let q = cycle_query(6);
    let h = Hypergraph::of_query(&q);
    println!("query: {q}");
    let rho = fractional_edge_cover(&h, h.all_vars()).unwrap().value;
    let decomp = fhw_exact(&h);
    println!(
        "widths: rho* = {rho} (AGM exponent), fhw = {} (single tree), subw = {:.3} (union of trees)",
        decomp.width,
        cycle_submodular_width(6)
    );
    println!("chosen decomposition bags:");
    for (i, bag) in decomp.bags.iter().enumerate() {
        let vars: Vec<String> = iter_vars(bag.vars)
            .map(|v| q.var_name(v).to_string())
            .collect();
        println!(
            "  bag {i}: {{{}}} cover={:?} cost={:.2} parent={:?}",
            vars.join(","),
            bag.cover,
            bag.cost,
            bag.parent
        );
    }

    // Dedup: decomposition-based execution uses set semantics, so keep
    // the inputs duplicate-free (Zipf graphs repeat hub pairs).
    let mut edges = random_edge_relation(3000, 250, WeightDist::Uniform, Some(1.05), 7);
    edges.dedup();
    let rels = vec![edges; 6];
    let k = 5;
    let t0 = Instant::now();
    let top: Vec<_> = (ghd_trees::<SumCost>(&q, &rels, &decomp, &BuildEachTime)
        .expect("sum collapses"))
    .part(SuccessorKind::Lazy)
    .take(k)
    .collect();
    println!(
        "\ntop-{k} lightest 6-cycles via the fhw-2 decomposition ({:?}):",
        t0.elapsed()
    );
    for (i, a) in top.iter().enumerate() {
        let cyc: Vec<String> = a.values.iter().map(|v| v.to_string()).collect();
        println!(
            "  #{} weight {:.4}  {}",
            i + 1,
            a.cost.get(),
            cyc.join(" -> ")
        );
    }

    // `auto_decomposition` picks the decomposition for you.
    let t0 = Instant::now();
    let auto = auto_decomposition(&q);
    let same: Vec<_> = (ghd_trees::<SumCost>(&q, &rels, &auto, &BuildEachTime)
        .expect("sum collapses"))
    .part(SuccessorKind::Lazy)
    .take(k)
    .collect();
    assert_eq!(top.len(), same.len());
    for (a, b) in top.iter().zip(&same) {
        assert!((a.cost.get() - b.cost.get()).abs() < 1e-9);
    }
    println!("auto_decomposition agrees ({:?})", t0.elapsed());

    // The unified Engine does better on a simple cycle: its planner
    // takes the union-of-trees plan (subw 5/3 instead of fhw 2) and
    // reaches the same answers.
    let engine = Engine::from_query_bindings(&q, rels.clone());
    let t0 = Instant::now();
    let stream = engine
        .query(q.clone())
        .rank_by(RankSpec::Sum)
        .plan()
        .expect("plannable");
    let route = stream.plan().route.label();
    let via_engine = stream.take(k).collect::<Vec<_>>();
    assert_eq!(top.len(), via_engine.len());
    for (a, b) in top.iter().zip(&via_engine) {
        assert!((a.cost.get() - b.cost.scalar().unwrap()).abs() < 1e-9);
    }
    println!("Engine (route = {route}) agrees ({:?})", t0.elapsed());

    // With the chord R7(x1,x3) the query is cyclic but no longer a
    // simple cycle, and the planner picks the decomposition route on
    // its own.
    let chorded = chorded_cycle_query(6);
    let mut chorded_rels = rels.clone();
    chorded_rels.push(rels[0].clone());
    let engine = Engine::from_query_bindings(&chorded, chorded_rels);
    let t0 = Instant::now();
    let stream = engine
        .query(chorded)
        .rank_by(RankSpec::Sum)
        .plan()
        .expect("plannable");
    let (route, width) = (stream.plan().route.label(), stream.plan().width);
    let found = stream.take(k).count();
    println!(
        "chorded 6-cycle: Engine (route = {route}, width {width}) finds its top-{found} ({:?})",
        t0.elapsed()
    );

    // --- Union of trees vs single tree on the 4-cycle. ---
    let q4 = cycle_query(4);
    let h4 = Hypergraph::of_query(&q4);
    let d4 = fhw_exact(&h4);
    let mut e4 = random_edge_relation(4000, 320, WeightDist::Uniform, Some(1.05), 11);
    e4.dedup();
    let rels4 = vec![e4; 4];
    let thr = heavy_threshold(4000);

    let t0 = Instant::now();
    let a: Vec<f64> = (cycle_trees::<SumCost>(&rels4, thr, &BuildEachTime).expect("sum collapses"))
        .part(SuccessorKind::Lazy)
        .take(100)
        .map(|x| x.cost.get())
        .collect();
    let t_subw = t0.elapsed();
    let t0 = Instant::now();
    let b: Vec<f64> = (ghd_trees::<SumCost>(&q4, &rels4, &d4, &BuildEachTime)
        .expect("sum collapses"))
    .part(SuccessorKind::Lazy)
    .take(100)
    .map(|x| x.cost.get())
    .collect();
    let t_fhw = t0.elapsed();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert!((x - y).abs() < 1e-9);
    }
    println!(
        "\n4-cycle top-100: union-of-trees (subw 1.5) {t_subw:?} vs single tree (fhw 2) {t_fhw:?} \
         — identical answers, {}x faster",
        (t_fhw.as_secs_f64() / t_subw.as_secs_f64()).round()
    );
}
