//! E13 (ablation) — §3: "submodular width \[decomposes\] a cyclic query
//! into a union of multiple trees ... This enables lower widths
//! compared to decompositions to a single tree. For example, on the
//! 4-cycle ... the fractional hypertree width \[is\] d = 2. In contrast,
//! submodular width is 1.5."
//!
//! For ℓ = 4, 5, 6 we run ranked ℓ-cycle enumeration twice — through
//! the single-tree fhw = 2 decomposition (`ghd_trees`) and through the
//! union-of-trees subw = 2 − 1/⌈ℓ/2⌉ plan (`cycle_trees`) — and compare
//! preprocessing + TT(k) scaling on hub-skewed inputs, where the gap
//! is asymptotic, not just constant, and on inputs of degree n^(1/h),
//! where the union of trees pays its full exponent. Two claims are
//! asserted per ℓ and input, on medians of five runs: the
//! union-of-trees log-log slope stays within 0.25 of the submodular
//! width, and the union of trees is the faster plan at the largest n.
//!
//! A closing row runs ℓ = 3 through the same case split against the
//! triangle route's worst-case-optimal materialization (both have
//! exponent 1.5): the number ROADMAP direction 2's "does the triangle
//! become the ℓ = 3 instance" decision is made from. Routing does not
//! change here.

use crate::util::{banner, fmt_secs, loglog_slope, median_mad, time, Table};
use anyk_core::cyclic::{cycle_trees, prepare_triangle};
use anyk_core::decomposed::ghd_trees;
use anyk_core::ranking::SumCost;
use anyk_core::succorder::SuccessorKind;
use anyk_query::cq::cycle_query;
use anyk_query::cycles::{cycle_heavy_threshold, cycle_submodular_width};
use anyk_query::decompose::fhw_exact;
use anyk_query::hypergraph::Hypergraph;
use anyk_storage::{BuildEachTime, Relation, RelationBuilder, Schema};
use anyk_workloads::adversarial::worst_case_triangle;
use anyk_workloads::graphs::{random_edge_relation, WeightDist};

const K: usize = 100;
const REPEATS: usize = 5;

/// `(median, MAD)` seconds of `run` over [`REPEATS`] runs, and the
/// costs of the last one.
fn timed(mut run: impl FnMut() -> Vec<f64>) -> ((f64, f64), Vec<f64>) {
    let mut costs = Vec::new();
    let mut samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let (c, t) = time(&mut run);
            costs = c;
            t
        })
        .collect();
    (median_mad(&mut samples), costs)
}

/// Cold prepare + top-[`K`] through the union-of-trees plan.
fn union_of_trees(rels: &[Relation]) -> Vec<f64> {
    let thr = cycle_heavy_threshold(rels[0].len(), rels.len());
    (cycle_trees::<SumCost>(rels, thr, &BuildEachTime).expect("sum collapses"))
        .part(SuccessorKind::Lazy)
        .take(K)
        .map(|a| a.cost.get())
        .collect()
}

fn assert_same_costs(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (a, b) in a.iter().zip(b) {
        assert!((a - b).abs() < 1e-9, "plans disagree: {a} vs {b}");
    }
}

/// The §3 worst-case star: one hub of degree n/2 — a single heavy
/// value per split attribute and an empty light remainder.
fn hub(n: usize, _l: usize) -> Relation {
    worst_case_triangle(n, 13).swap_remove(0)
}

/// n distinct uniform edges over n^(1−1/h) nodes, h = ⌈ℓ/2⌉: mean
/// degree n^(1/h) = Δ, so the values just over it are heavy and the
/// light bags sit near their n·Δ^(h−1) bound — the instance on which
/// the plan's exponent is actually paid. (Distinct, because the GHD
/// plan it is compared with keeps one answer per binding.)
fn critical_degree(n: usize, l: usize) -> Relation {
    let h = l.div_ceil(2) as f64;
    let nodes = (n as f64).powf(1.0 - 1.0 / h).ceil() as u64 + 1;
    let mut b = RelationBuilder::with_capacity(Schema::new(["src", "dst"]), n);
    let mut seen = std::collections::HashSet::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    while seen.len() < n {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let (u, v) = ((x % nodes) as i64, ((x >> 20) % nodes) as i64);
        if seen.insert((u, v)) {
            b.push_ints(&[u, v], (x >> 40) as f64 / (1u64 << 24) as f64);
        }
    }
    b.finish()
}

/// One ℓ block: both plans over `instance(n, ℓ)` on every atom, at
/// `sizes` × `scale` (never below a quarter of the base size, so a
/// smoke run keeps the 1 : 2 : 4 : 8 ladder the slope is fitted on).
fn block(l: usize, (name, instance): (&str, fn(usize, usize) -> Relation), scale: f64) {
    let sizes = [100, 200, 400, 800].map(|b| if l == 4 { 2 * b } else { b });
    let q = cycle_query(l);
    let ghd = fhw_exact(&Hypergraph::of_query(&q));
    let subw = cycle_submodular_width(l);
    println!(
        "{l}-cycle, {name}: single-tree decomposition width (fhw) {:.2}; union-of-trees plan \
         width (subw) {subw:.2}",
        ghd.width
    );
    let mut t = Table::new(["n", "subw_TT(100)", "MAD", "fhw_TT(100)", "MAD", "speedup"]);
    let (mut pts_subw, mut pts_fhw) = (Vec::new(), Vec::new());
    for b in sizes {
        let n = ((b as f64 * scale) as usize).max(b / 4);
        let rels = vec![instance(n, l); l];
        let ((t_subw, mad_subw), subw_costs) = timed(|| union_of_trees(&rels));
        let ((t_fhw, mad_fhw), fhw_costs) = timed(|| {
            (ghd_trees::<SumCost>(&q, &rels, &ghd, &BuildEachTime).expect("sum collapses"))
                .part(SuccessorKind::Lazy)
                .take(K)
                .map(|a| a.cost.get())
                .collect()
        });
        // The two plans must agree on the ranked costs.
        assert_same_costs(&subw_costs, &fhw_costs);
        pts_subw.push((n as f64, t_subw));
        pts_fhw.push((n as f64, t_fhw));
        t.row([
            n.to_string(),
            fmt_secs(t_subw),
            fmt_secs(mad_subw),
            fmt_secs(t_fhw),
            fmt_secs(mad_fhw),
            format!("{:.1}x", t_fhw / t_subw),
        ]);
    }
    t.print();
    let (slope_subw, slope_fhw) = (loglog_slope(&pts_subw), loglog_slope(&pts_fhw));
    println!(
        "fitted exponent: union-of-trees ~ n^{slope_subw:.2} (paper: {subw:.2}), single tree ~ \
         n^{slope_fhw:.2} (paper: 2)"
    );
    assert!(
        slope_subw <= subw + 0.25,
        "{l}-cycle, {name}: union-of-trees TT({K}) grows as n^{slope_subw:.2}, over \
         n^{subw:.2} by more than 0.25"
    );
    let ((_, last_subw), (_, last_fhw)) = (pts_subw[3], pts_fhw[3]);
    assert!(
        last_subw < last_fhw,
        "{l}-cycle, {name}, at the largest n: union of trees {last_subw:.6}s, single tree \
         {last_fhw:.6}s"
    );
}

/// ℓ = 3 through the case split against the triangle route's plan.
fn triangle_row(scale: f64) {
    let n = ((8_000.0 * scale) as usize).max(2_000);
    let uniform = |seed| random_edge_relation(n, (n / 20) as u64, WeightDist::Uniform, None, seed);
    let mut t = Table::new([
        "triangle instance",
        "n",
        "cases_TT(100)",
        "MAD",
        "wco_TT(100)",
        "MAD",
        "cases/wco",
    ]);
    for (name, rels) in [
        ("hub (worst case)", worst_case_triangle(n, 13)),
        ("uniform, degree 20", (31..34).map(uniform).collect()),
    ] {
        let ((t_cases, mad_cases), cases_costs) = timed(|| union_of_trees(&rels));
        let ((t_wco, mad_wco), wco_costs) = timed(|| {
            (prepare_triangle::<SumCost>(&rels).expect("fits"))
                .stream()
                .take(K)
                .map(|a| a.cost.get())
                .collect()
        });
        assert_same_costs(&cases_costs, &wco_costs);
        t.row([
            name.to_string(),
            n.to_string(),
            fmt_secs(t_cases),
            fmt_secs(mad_cases),
            fmt_secs(t_wco),
            fmt_secs(mad_wco),
            format!("{:.2}x", t_cases / t_wco),
        ]);
    }
    t.print();
}

pub fn run(scale: f64) {
    banner(
        "E13 (ablation): l-cycle ranked — union-of-trees (subw 2 - 1/ceil(l/2)) vs single tree \
         (fhw 2)",
        "\"submodular width is 1.5 and hence algorithms like PANDA that rely \
         on decompositions into multiple trees achieve complexity O~(n^1.5 + r)\" (§3)",
    );
    for l in [4, 5, 6] {
        block(l, ("hub", hub), scale);
        block(l, ("degree n^(1/h)", critical_degree), scale);
    }
    println!(
        "l = 3 through the same case split vs the triangle route (worst-case-optimal \
         materialization + lazy heap); both plans have exponent 1.5"
    );
    triangle_row(scale);
}
