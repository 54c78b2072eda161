//! E12 — the width numbers the paper quotes, computed by our own
//! solvers: fractional edge cover rho* (AGM exponent), fractional
//! hypertree width (single-tree decompositions), and submodular width
//! (union of trees) for the tutorial's example queries, beside the
//! route the engine's planner sends each shape down.
//!
//! Paper quotes: acyclic queries have width 1 (§3); triangle rho* = 1.5
//! (§3's O(n^1.5)); the 4-cycle has fhw = 2 but subw = 1.5 (§3).

use crate::util::{banner, Table};
use anyk_engine::Engine;
use anyk_query::agm::{agm_bound, fractional_edge_cover, integral_edge_cover};
use anyk_query::cq::{
    chorded_cycle_query, cycle_query, path_query, star_query, triangle_query, ConjunctiveQuery,
};
use anyk_query::cycles::{cycle_length, cycle_submodular_width};
use anyk_query::decompose::fhw_exact;
use anyk_query::gyo::is_acyclic;
use anyk_query::hypergraph::Hypergraph;
use anyk_storage::{RelationBuilder, Schema};

/// The planner's route for `q` (routing reads the query's shape; the
/// one-row relations are only there to bind its atoms).
fn planned_route(q: &ConjunctiveQuery) -> &'static str {
    let rels = (q.atoms().iter())
        .map(|a| {
            let schema = Schema::new((0..a.vars.len()).map(|i| format!("c{i}")));
            let mut b = RelationBuilder::new(schema);
            b.push_ints(&vec![0; a.vars.len()], 0.0);
            b.finish()
        })
        .collect();
    let engine = Engine::from_query_bindings(q, rels);
    let plan = engine.query(q.clone()).explain().expect("plannable");
    plan.route.label()
}

fn describe(name: &str, q: &ConjunctiveQuery, t: &mut Table) {
    let h = Hypergraph::of_query(q);
    let rho = fractional_edge_cover(&h, h.all_vars())
        .map(|c| c.value)
        .unwrap_or(f64::NAN);
    let rho_int = integral_edge_cover(&h, h.all_vars())
        .map(|c| c as f64)
        .unwrap_or(f64::NAN);
    let fhw = fhw_exact(&h).width;
    let subw = if is_acyclic(q) {
        1.0
    } else if let Some(l) = cycle_length(q) {
        cycle_submodular_width(l)
    } else {
        fhw // generic fallback: subw <= fhw
    };
    let n = 1_000usize;
    let agm = agm_bound(&h, &vec![n; q.num_atoms()]).unwrap_or(f64::NAN);
    t.row([
        name.to_string(),
        if is_acyclic(q) { "yes" } else { "no" }.to_string(),
        format!("{rho:.3}"),
        format!("{rho_int:.0}"),
        format!("{fhw:.3}"),
        format!("{subw:.3}"),
        format!("{agm:.3e}"),
        planned_route(q).to_string(),
    ]);
}

pub fn run(_scale: f64) {
    banner(
        "E12: width parameters and AGM bounds of the example queries",
        "acyclic d = 1; triangle rho* = 1.5; 4-cycle fhw = 2 vs subw = 1.5; \
         l-cycle subw = 2 - 1/ceil(l/2) (§3)",
    );
    let mut t = Table::new([
        "query",
        "acyclic",
        "rho*",
        "rho_int",
        "fhw",
        "subw",
        "AGM(n=1e3)",
        "route",
    ]);
    describe("2-path", &path_query(2), &mut t);
    describe("4-path", &path_query(4), &mut t);
    describe("3-star", &star_query(3), &mut t);
    describe("triangle", &triangle_query(), &mut t);
    describe("4-cycle", &cycle_query(4), &mut t);
    describe("5-cycle", &cycle_query(5), &mut t);
    describe("6-cycle", &cycle_query(6), &mut t);
    describe("chorded 5-cycle", &chorded_cycle_query(5), &mut t);
    t.print();
    println!("paper-quoted checks: triangle rho* = fhw = 1.5; 4-cycle fhw = 2, subw = 1.5; acyclic fhw = 1");
}
