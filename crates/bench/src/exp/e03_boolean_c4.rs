//! E3 — §1: "the corresponding Boolean query ('Is there any 4-cycle?')
//! can be answered in O(n^1.5)", while a WCO join enumerating the full
//! output pays up to Θ(n²) on instances whose output is that large.
//!
//! Instance: hub graph {(i,1)} ∪ {(1,j)} — it has Θ(n²) 4-cycles of the
//! form (i,1,j,1), so full enumeration is quadratic, while the
//! union-of-trees detection stays near n^1.5.

use crate::util::{banner, fmt_secs, loglog_slope, time, Table};
use anyk_join::boolean::cycle_exists;
use anyk_join::generic_join::generic_join_materialize;
use anyk_query::cq::cycle_query;
use anyk_query::cycles::heavy_threshold;
use anyk_workloads::adversarial::worst_case_triangle;

pub fn run(scale: f64) {
    banner(
        "E3: Boolean 4-cycle O(n^1.5) vs full WCO enumeration O(n^2)",
        "\"it has been shown that the corresponding Boolean query (\\\"Is \
         there any 4-cycle?\\\") can be answered in O(n^1.5)\" (§1)",
    );
    let q = cycle_query(4);
    let mut t = Table::new(["n", "c4_detect", "gj_full", "num_4cycles"]);
    let mut pts_detect = Vec::new();
    let mut pts_full = Vec::new();
    for &b in &[200usize, 400, 800, 1600] {
        let n = (b as f64 * scale).max(50.0) as usize;
        // Reuse the hub-shaped instance (same edge set for all atoms).
        let tri = worst_case_triangle(n, 7);
        let e = tri[0].clone();
        let rels = vec![e.clone(), e.clone(), e.clone(), e];
        let thr = heavy_threshold(rels[0].len());
        let (found, t_detect) = time(|| cycle_exists(&rels, thr));
        assert!(found, "hub instance always has 4-cycles");
        let ((res, _), t_full) = time(|| generic_join_materialize(&q, &rels, None));
        pts_detect.push((n as f64, t_detect));
        pts_full.push((n as f64, t_full));
        t.row([
            n.to_string(),
            fmt_secs(t_detect),
            fmt_secs(t_full),
            res.len().to_string(),
        ]);
    }
    t.print();
    println!(
        "fitted exponent: detection ~ n^{:.2} (paper: 1.5), full enumeration ~ n^{:.2} (paper: 2)",
        loglog_slope(&pts_detect),
        loglog_slope(&pts_full)
    );
}
