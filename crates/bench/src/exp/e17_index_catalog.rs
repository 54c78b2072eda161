//! E17 — what a cold cyclic prepare pays beside its index builds.
//!
//! Every cyclic route starts by building sorted tries over its input
//! relations; the catalog keeps them resident, so a warm prepare is an
//! index lookup (pinned by the engine's
//! `warm_index_catalog_makes_prepare_a_lookup` and
//! `explain_reports_index_cached_after_warmup` tests; timed by
//! `anykbench`'s `cold_cyclic` workload and `storage.index_*` lines).
//! Two claims about the rest of the cold side, asserted at every scale:
//!
//! 1. **Kernel** — on a dense triangle over warm shared tries,
//!    count-only Generic-Join is no slower than the Leapfrog Triejoin
//!    reference walking the same tries (median of 21 interleaved
//!    repeats).
//! 2. **T-DP prepare is its sorts** — on the 4-cycle's light-light
//!    case (two pre-joined bags on a two-column key), the whole cold
//!    `TdpInstance::prepare` — reducer, compaction, grouping, subtree
//!    costs — takes at most twice as long as building the two join-key
//!    tries it sorts over the same rows (median of 21 interleaved
//!    repeats).

use crate::util::{banner, fmt_secs, median_mad, time, Table};
use anyk_core::{SumCost, TdpInstance};
use anyk_join::c4::c4_cases_provider;
use anyk_join::generic_join::generic_join_with;
use anyk_join::leapfrog::leapfrog_triejoin_with;
use anyk_join::semijoin::join_key_positions;
use anyk_query::cq::triangle_query;
use anyk_query::cycles::heavy_threshold;
use anyk_storage::{BuildEachTime, IndexCatalog, Relation, Trie, Weight};
use anyk_workloads::graphs::{random_edge_relation, WeightDist};
use std::ops::ControlFlow;

pub fn run(scale: f64) {
    banner(
        "E17: cold cyclic prepare — the kernel and the T-DP beside the index builds",
        "generic join is no slower than LFTJ on the same tries; a T-DP prepare costs at \
         most twice its key-trie sorts",
    );
    kernel_claim(scale);
    tdp_prepare_claim(scale);
}

/// Timed repeats per kernel figure.
const KERNEL_REPEATS: usize = 21;

/// Three independent edge relations of mean out-degree 20: a triangle
/// instance whose cost is seek/intersect work, not index builds.
fn dense_triangle(edges: usize, seed: u64) -> Vec<Relation> {
    let nodes = (edges / 20).max(2) as u64;
    (0..3)
        .map(|i| random_edge_relation(edges, nodes, WeightDist::Uniform, None, seed + i))
        .collect()
}

/// Claim 1 (see the module docs): the two worst-case-optimal walks over
/// the same warm tries.
fn kernel_claim(scale: f64) {
    let q = triangle_query();
    let edges = (20_000.0 * scale).max(2_000.0) as usize;
    let rels = dense_triangle(edges, 1709);
    let indexes = IndexCatalog::default();
    let count = |lftj: bool| {
        let mut n = 0u64;
        let mut each = |_: &[_], _: &[_]| {
            n += 1;
            ControlFlow::Continue(())
        };
        let ((), t) = time(|| {
            if lftj {
                leapfrog_triejoin_with(&q, &rels, None, &indexes, &mut each);
            } else {
                generic_join_with(&q, &rels, None, &indexes, &mut each);
            }
        });
        (n, t)
    };
    // Warm the shared tries (and the caches) outside the timed repeats.
    let (triangles, _) = count(false);
    assert_eq!(count(true).0, triangles, "both walks count the same join");
    assert!(triangles > 0, "the dense instance has triangles");
    let (mut gj, mut lftj) = (Vec::new(), Vec::new());
    for _ in 0..KERNEL_REPEATS {
        gj.push(count(false).1);
        lftj.push(count(true).1);
    }
    let (gj_med, gj_mad) = median_mad(&mut gj);
    let (lftj_med, lftj_mad) = median_mad(&mut lftj);

    let mut t = Table::new([
        "walk (count-only, warm tries)",
        "edges",
        "triangles",
        "median",
        "MAD",
    ]);
    for (name, med, mad) in [
        ("generic-join kernel", gj_med, gj_mad),
        ("leapfrog triejoin reference", lftj_med, lftj_mad),
    ] {
        t.row([
            name.to_string(),
            edges.to_string(),
            triangles.to_string(),
            fmt_secs(med),
            fmt_secs(mad),
        ]);
    }
    t.print();
    assert!(
        gj_med <= lftj_med,
        "the generic-join kernel must be no slower than the LFTJ reference on the same warm \
         tries (median of {KERNEL_REPEATS}: {gj_med:.6}s vs {lftj_med:.6}s)"
    );
}

/// Claim 2 (see the module docs): a cold T-DP prepare against the two
/// join-key trie builds inside it, on the 4-cycle's light-light case.
fn tdp_prepare_claim(scale: f64) {
    let edges = (16_000.0 * scale).max(1_600.0) as usize;
    let nodes = (edges / 4).max(2) as u64;
    let rels: Vec<Relation> = (0..4)
        .map(|i| random_edge_relation(edges, nodes, WeightDist::Uniform, None, 1901 + i))
        .collect();
    let merge = |a: Weight, b: Weight| Weight::new(a.get() + b.get());
    // A fresh, uniquely owned case per repeat, as the engine hands it
    // to prepare (a shared payload would add a copy-on-write clone).
    let light_light = || {
        let mut cases = c4_cases_provider(&rels, heavy_threshold(edges), merge, &BuildEachTime);
        let case = cases.pop().expect("the light-light case comes last");
        assert_eq!(case.label, "light-light");
        case
    };
    let (mut tries, mut prepare) = (Vec::new(), Vec::new());
    let mut bag_rows = 0;
    for _ in 0..KERNEL_REPEATS {
        let case = light_light();
        bag_rows = case.relations.iter().map(Relation::len).sum();
        let child = (0..case.tree.len())
            .find(|&n| case.tree.node(n).parent.is_some())
            .expect("two bags, one edge");
        let parent = case.tree.node(child).parent.expect("a child");
        let (cpos, ppos) = join_key_positions(&case.query, &case.tree, child);
        let (crel, prel) = (
            &case.relations[case.tree.node(child).atom],
            &case.relations[case.tree.node(parent).atom],
        );
        tries.push(time(|| (Trie::build(crel, &cpos), Trie::build(prel, &ppos))).1);
        prepare.push(
            time(|| {
                TdpInstance::<SumCost>::prepare(&case.query, &case.tree, case.relations)
                    .expect("prepare")
            })
            .1,
        );
    }
    let (tries_med, tries_mad) = median_mad(&mut tries);
    let (prepare_med, prepare_mad) = median_mad(&mut prepare);

    let mut t = Table::new([
        "4-cycle light-light case, cold",
        "bag rows",
        "median",
        "MAD",
    ]);
    for (name, med, mad) in [
        ("two join-key trie builds", tries_med, tries_mad),
        ("TdpInstance::prepare", prepare_med, prepare_mad),
    ] {
        t.row([
            name.to_string(),
            bag_rows.to_string(),
            fmt_secs(med),
            fmt_secs(mad),
        ]);
    }
    t.print();
    assert!(
        prepare_med <= 2.0 * tries_med,
        "a cold T-DP prepare must cost at most twice its two key-trie builds (median of \
         {KERNEL_REPEATS}: {prepare_med:.6}s vs {tries_med:.6}s)"
    );
}
