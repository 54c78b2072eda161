//! E14 — the unified `Engine` as a serving surface: one entry point,
//! planner-chosen route per query shape, runtime ranking.
//!
//! Two claims measured:
//!
//! 1. **Routing is free at enumeration time** — on an acyclic path the
//!    Engine's erased stream pays only a boxed-iterator dispatch over
//!    the hand-wired `AnyKPart` (same algorithm underneath).
//! 2. **Every shape gets its specialized plan** — the triangle and
//!    every longer simple cycle take their submodular-width plans
//!    (asserted: `cycle` for ℓ ∈ {4, 5, 6}), a chorded 5-cycle falls
//!    back to a GHD, all through the same four lines of caller code.

use crate::util::{banner, fmt_secs, time, Table};
use anyk_core::part::AnyKPart;
use anyk_core::ranking::SumCost;
use anyk_core::succorder::SuccessorKind;
use anyk_core::tdp::TdpInstance;
use anyk_engine::{Engine, RankSpec};
use anyk_query::cq::{chorded_cycle_query, ConjunctiveQuery};
use anyk_storage::Relation;
use anyk_workloads::graphs::WeightDist;
use anyk_workloads::patterns::{cycle_instance, path_instance};

fn engine_row(
    t: &mut Table,
    (label, route): (&str, &str),
    q: &ConjunctiveQuery,
    rels: Vec<Relation>,
    k: usize,
) {
    let engine = Engine::from_query_bindings(q, rels);
    let plan = engine.query(q.clone()).explain().expect("plannable");
    assert_eq!(plan.route.label(), route, "{label}: planner route");
    let (mut stream, prep) = time(|| {
        engine
            .query(q.clone())
            .rank_by(RankSpec::Sum)
            .plan()
            .expect("plannable")
    });
    let (n, run) = time(|| stream.by_ref().take(k).count());
    t.row([
        label.to_string(),
        plan.route.label().to_string(),
        format!("{:.2}", plan.width),
        fmt_secs(prep),
        fmt_secs(run),
        n.to_string(),
    ]);
}

pub fn run(scale: f64) {
    banner(
        "E14: unified Engine — planner-routed ranked enumeration",
        "one contract (\"ranked order, any k, optimal TT(k)\") for every query shape (§1)",
    );
    let k = 1_000;
    let edges = (10_000.0 * scale).max(400.0) as usize;
    let nodes = (edges / 10).max(10) as u64;

    let mut t = Table::new(["workload", "route", "width", "prep", "TT(1k)", "answers"]);
    let path = path_instance(3, edges, nodes, WeightDist::Uniform, 23);
    engine_row(
        &mut t,
        ("path-3", "acyclic"),
        &path.query,
        path.relations_clone(),
        k,
    );

    // Cyclic shapes run on a sparser graph: their preprocessing is
    // O~(n^subw) / O~(n^fhw).
    let cyc_edges = (edges / 10).max(200);
    let cyc_nodes = ((cyc_edges / 5).max(10)) as u64;
    let cycle = |len| cycle_instance(len, cyc_edges, cyc_nodes, WeightDist::Uniform, None, 29);
    for (label, route, len) in [
        ("triangle", "triangle", 3usize),
        ("cycle-4", "cycle", 4),
        ("cycle-5", "cycle", 5),
        ("cycle-6", "cycle", 6),
    ] {
        let (q, rels) = cycle(len);
        engine_row(&mut t, (label, route), &q, rels, k);
    }
    // Not a simple cycle: the 5-cycle with the chord R6(x1,x3), all six
    // atoms over the one edge set.
    let row = ("chorded cycle-5", "decomposed");
    engine_row(&mut t, row, &chorded_cycle_query(5), cycle(6).1, k);
    t.print();

    // Dispatch overhead: Engine vs hand-wired AnyKPart on the same
    // acyclic instance (identical algorithm, erased vs concrete).
    let engine = Engine::from_query_bindings(&path.query, path.relations_clone());
    let (ne, te) = time(|| {
        let stream = engine
            .query(path.query.clone())
            .rank_by(RankSpec::Sum)
            .plan()
            .expect("plannable");
        stream.take(k).count()
    });
    let (nh, th) = time(|| {
        let inst =
            TdpInstance::<SumCost>::prepare(&path.query, &path.join_tree, path.relations_clone())
                .expect("tree matches");
        AnyKPart::new(inst, SuccessorKind::Lazy).take(k).count()
    });
    assert_eq!(ne, nh, "engine and hand-wired agree on answer count");
    println!(
        "dispatch overhead on path-3 (prep+TT({k})): engine {} vs hand-wired {} ({:.2}x)",
        fmt_secs(te),
        fmt_secs(th),
        te / th.max(1e-12),
    );
    println!(
        "expected shape: same route costs as the hand-wired engines; \
         boxed dispatch within a small constant of direct calls"
    );
}
