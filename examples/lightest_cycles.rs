//! The paper's §1 motivating problem: **top-k lightest 4-cycles** in a
//! weighted graph, expressed as a self-join of the edge relation.
//!
//! Demonstrates the full cyclic pipeline: the submodular-width
//! union-of-trees plan (heavy/light case split), per-case T-DP, and the
//! global ranked merge — TT(k) close to the Boolean query for small k,
//! far below the full worst-case-optimal join.
//!
//! Run with: `cargo run --release --example lightest_cycles`

use anyk::join::boolean::cycle_exists;
use anyk::join::generic_join::generic_join_with;
use anyk::prelude::*;
use anyk::query::cycles::heavy_threshold;
use anyk::storage::BuildEachTime;
use anyk::workloads::graphs::random_edge_relation;
use std::ops::ControlFlow;
use std::time::Instant;

fn main() {
    // A weighted directed graph with a Zipf-skewed degree distribution
    // (hubs!) — the regime where the heavy/light split matters.
    let num_edges = 20_000;
    let num_nodes = 2_000;
    let edges = random_edge_relation(num_edges, num_nodes, WeightDist::Uniform, Some(1.1), 42);
    println!("graph: {num_edges} weighted edges over {num_nodes} nodes (Zipf-skewed, seed 42)");

    // The 4-cycle pattern is a self-join: all four atoms read the same
    // edge relation.
    let q = cycle_query(4);
    let rels = vec![edges.clone(), edges.clone(), edges.clone(), edges];
    let threshold = heavy_threshold(num_edges);
    println!("heavy-degree threshold Δ = {threshold}");

    // Boolean floor: "is there any 4-cycle?" — O~(n^1.5).
    let t0 = Instant::now();
    let any = cycle_exists(&rels, threshold);
    let t_bool = t0.elapsed();
    println!("boolean 4-cycle detection: {any} in {t_bool:?}");

    // Ranked enumeration through the unified Engine: the planner
    // recognizes the 4-cycle and picks the submodular-width
    // union-of-trees plan on its own.
    let engine = Engine::from_query_bindings(&q, rels.clone());
    let plan = engine.query(q.clone()).explain().expect("plannable");
    println!(
        "planner route: {} (width {:.2})",
        plan.route.label(),
        plan.width
    );

    // k lightest 4-cycles, no k fixed in advance.
    let k = 10;
    let t0 = Instant::now();
    let mut stream = engine
        .query(q.clone())
        .rank_by(RankSpec::Sum)
        .plan()
        .expect("plannable");
    let top = stream.top_k(k);
    let t_topk = t0.elapsed();
    println!("\ntop-{k} lightest 4-cycles (TT({k}) = {t_topk:?}):");
    for (i, a) in top.iter().enumerate() {
        let cyc: Vec<String> = a.values.iter().map(|v| v.to_string()).collect();
        println!(
            "  #{:<2} weight {}  cycle {}",
            i + 1,
            a.cost,
            cyc.join(" -> ")
        );
    }

    // Ceiling: the full worst-case-optimal join (then you'd still
    // sort). The hub's parallel edges make this graph's 4-cycle count
    // explode, so the join only counts, and stops at a cap.
    const CAP: u64 = 100_000_000;
    let t0 = Instant::now();
    let mut cycles = 0u64;
    generic_join_with(&q, &rels, None, &BuildEachTime, &mut |_, _| {
        cycles += 1;
        if cycles < CAP {
            ControlFlow::Continue(())
        } else {
            ControlFlow::Break(())
        }
    });
    let t_full = t0.elapsed();
    if cycles < CAP {
        println!(
            "\nfull WCO join: {cycles} 4-cycles in {t_full:?} — ranked enumeration \
             returned the top {k} {}x faster",
            (t_full.as_secs_f64() / t_topk.as_secs_f64()).round()
        );
    } else {
        println!(
            "\nfull WCO join: ≥ {CAP} 4-cycles in {t_full:?}, counting only and stopped at \
             the cap — the top {k} took {t_topk:?}"
        );
    }
}
