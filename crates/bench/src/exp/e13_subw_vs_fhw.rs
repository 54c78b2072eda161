//! E13 (ablation) — §3: "submodular width \[decomposes\] a cyclic query
//! into a union of multiple trees ... This enables lower widths
//! compared to decompositions to a single tree. For example, on the
//! 4-cycle ... the fractional hypertree width \[is\] d = 2. In contrast,
//! submodular width is 1.5."
//!
//! We run ranked 4-cycle enumeration twice — through the single-tree
//! fhw = 2 decomposition (`ghd_trees`) and through the
//! union-of-trees subw = 1.5 plan (`c4_trees`) — and compare
//! preprocessing + TT(k) scaling on hub-skewed inputs where the gap is
//! asymptotic, not just constant.

use crate::util::{banner, fmt_secs, loglog_slope, time, Table};
use anyk_core::cyclic::c4_trees;
use anyk_core::decomposed::ghd_trees;
use anyk_core::ranking::SumCost;
use anyk_core::succorder::SuccessorKind;
use anyk_query::cq::cycle_query;
use anyk_query::cycles::heavy_threshold;
use anyk_query::decompose::fhw_exact;
use anyk_query::hypergraph::Hypergraph;
use anyk_storage::BuildEachTime;
use anyk_workloads::adversarial::worst_case_triangle;

pub fn run(scale: f64) {
    banner(
        "E13 (ablation): 4-cycle ranked — union-of-trees (subw 1.5) vs single tree (fhw 2)",
        "\"submodular width is 1.5 and hence algorithms like PANDA that rely \
         on decompositions into multiple trees achieve complexity O~(n^1.5 + r)\" (§3)",
    );
    let q = cycle_query(4);
    let h = Hypergraph::of_query(&q);
    let ghd = fhw_exact(&h);
    println!(
        "single-tree decomposition width (fhw): {:.2}; union-of-trees plan width (subw): 1.50",
        ghd.width
    );

    let k = 100usize;
    let mut t = Table::new(["n", "subw_TT(100)", "fhw_TT(100)", "speedup"]);
    let mut pts_subw = Vec::new();
    let mut pts_fhw = Vec::new();
    for &b in &[200usize, 400, 800, 1600] {
        let n = (b as f64 * scale).max(50.0) as usize;
        let tri = worst_case_triangle(n, 13);
        let e = tri[0].clone();
        let rels = vec![e.clone(), e.clone(), e.clone(), e];
        let thr = heavy_threshold(rels[0].len());

        let (subw_costs, t_subw) = time(|| {
            (c4_trees::<SumCost>(&rels, thr, &BuildEachTime).expect("sum collapses"))
                .part(SuccessorKind::Lazy)
                .take(k)
                .map(|a| a.cost.get())
                .collect::<Vec<_>>()
        });
        let (fhw_costs, t_fhw) = time(|| {
            (ghd_trees::<SumCost>(&q, &rels, &ghd, &BuildEachTime).expect("sum collapses"))
                .part(SuccessorKind::Lazy)
                .take(k)
                .map(|a| a.cost.get())
                .collect::<Vec<_>>()
        });
        // The two plans must agree on the ranked costs.
        assert_eq!(subw_costs.len(), fhw_costs.len());
        for (a, b) in subw_costs.iter().zip(&fhw_costs) {
            assert!((a - b).abs() < 1e-9, "plans disagree: {a} vs {b}");
        }
        pts_subw.push((n as f64, t_subw));
        pts_fhw.push((n as f64, t_fhw));
        t.row([
            n.to_string(),
            fmt_secs(t_subw),
            fmt_secs(t_fhw),
            format!("{:.1}x", t_fhw / t_subw),
        ]);
    }
    t.print();
    println!(
        "fitted exponent: union-of-trees ~ n^{:.2} (paper: 1.5), single tree ~ n^{:.2} (paper: 2)",
        loglog_slope(&pts_subw),
        loglog_slope(&pts_fhw)
    );
}
