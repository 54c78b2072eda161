//! E4 — §1: "It is tempting to assume that for small k, finding the k
//! lightest cycles will have complexity close to the Boolean query, and
//! ... this turns out to be correct."
//!
//! We measure TT(k) of ranked 4-cycle enumeration through the
//! submodular-width plan against (a) Boolean detection time (the floor)
//! and (b) full-join-then-sort (the ceiling).

use crate::util::{banner, fmt_secs, time, Table};
use anyk_core::cyclic::cycle_trees;
use anyk_core::ranking::SumCost;
use anyk_core::succorder::SuccessorKind;
use anyk_join::boolean::cycle_exists;
use anyk_join::generic_join::generic_join_materialize;
use anyk_query::cq::cycle_query;
use anyk_query::cycles::heavy_threshold;
use anyk_storage::BuildEachTime;
use anyk_workloads::adversarial::worst_case_triangle;

pub fn run(scale: f64) {
    banner(
        "E4: top-k lightest 4-cycles — TT(k) vs Boolean floor vs batch ceiling",
        "\"for small k, finding the k lightest cycles will have complexity \
         close to the Boolean query\" (§1)",
    );
    let q = cycle_query(4);
    let n = (800.0 * scale).max(100.0) as usize;
    let tri = worst_case_triangle(n, 11);
    let e = tri[0].clone();
    let rels = vec![e.clone(), e.clone(), e.clone(), e];
    let thr = heavy_threshold(rels[0].len());

    let (_, t_bool) = time(|| cycle_exists(&rels, thr));
    let (sorted_all, t_batch) = time(|| {
        let (res, _) = generic_join_materialize(&q, &rels, None);
        let mut ws: Vec<f64> = (0..res.len() as u32).map(|i| res.weight(i).get()).collect();
        ws.sort_by(|a, b| a.partial_cmp(b).unwrap());
        ws
    });

    let mut t = Table::new(["k", "anyk_TT(k)", "vs_boolean", "vs_batch_full"]);
    for &k in &[1usize, 10, 100, 1000] {
        let (got, t_k) = time(|| {
            (cycle_trees::<SumCost>(&rels, thr, &BuildEachTime).expect("sum collapses"))
                .part(SuccessorKind::Lazy)
                .take(k)
                .map(|a| a.cost.get())
                .collect::<Vec<f64>>()
        });
        // Cross-check against the batch oracle.
        let upto = got.len().min(sorted_all.len());
        for i in 0..upto {
            assert!(
                (got[i] - sorted_all[i]).abs() < 1e-6,
                "rank {i}: {} vs {}",
                got[i],
                sorted_all[i]
            );
        }
        t.row([
            k.to_string(),
            fmt_secs(t_k),
            format!("{:.1}x", t_k / t_bool),
            format!("{:.2}x", t_k / t_batch),
        ]);
    }
    t.print();
    println!(
        "boolean detection: {}; batch full join+sort: {} ({} answers, n = {n})",
        fmt_secs(t_bool),
        fmt_secs(t_batch),
        sorted_all.len()
    );
    println!("expected shape: TT(small k) within a small factor of boolean, far below batch");
}
