//! The paper's quantitative claims, each held as the shape of a
//! deterministic operation count across a ladder of seeded inputs: a
//! least-squares log-log exponent ([`loglog_slope`]) or a bounded
//! ratio, never a clock. A count does not depend on the host, so a
//! claim that holds here holds on every machine, in debug and in
//! release.
//!
//! One test per claim; `docs/ARCHITECTURE.md` § "The paper's claims"
//! maps each to the section of the paper it comes from.

mod common;

use anyk::core::cyclic::cycle_trees;
use anyk::core::{materialize_ranked, AnyKPart, AnyKRec, SuccessorKind, SumCost, TdpInstance};
use anyk::join::cycle::cycle_cases;
use anyk::join::generic_join::{generic_join, generic_join_materialize};
use anyk::join::{binary_join, ghd_plan, TreeCase};
use anyk::query::agm::{agm_bound, fractional_edge_cover};
use anyk::query::cq::{cycle_query, path_query, star_query, triangle_query, ConjunctiveQuery};
use anyk::query::cycles::{cycle_heavy_threshold, cycle_submodular_width};
use anyk::query::decompose::fhw_exact;
use anyk::query::gyo::{gyo_reduce, GyoResult};
use anyk::query::hypergraph::Hypergraph;
use anyk::query::join_tree::JoinTree;
use anyk::storage::{BuildEachTime, Relation, RelationBuilder, Schema, Weight};
use anyk::topk::lists::{Aggregation, RankedLists};
use anyk::topk::rank_join::{RankJoin, SortedScan};
use anyk::topk::{fagin_topk, threshold_topk};
use anyk::workloads::adversarial::{anticorrelated_pair, worst_case_triangle};
use anyk::workloads::graphs::{random_edge_relation, WeightDist};
use anyk::workloads::middleware::{anticorrelated_lists, correlated_lists, uniform_lists};
use anyk::workloads::patterns::{path_instance, AcyclicInstance};
use common::fit::loglog_slope;
use std::ops::ControlFlow;

/// Slack on a fitted exponent: small ladders carry rounding and
/// seed-dependent skew of a few hundredths.
const TOL: f64 = 0.15;

/// One rung: input size `n` against a count.
fn rung(n: usize, count: usize) -> (f64, f64) {
    (n as f64, count as f64)
}

fn acyclic_tree(q: &ConjunctiveQuery) -> JoinTree {
    match gyo_reduce(q) {
        GyoResult::Acyclic(tree) => tree,
        GyoResult::Cyclic(_) => unreachable!("acyclic by construction"),
    }
}

fn prepare(inst: &AcyclicInstance) -> TdpInstance<SumCost> {
    TdpInstance::prepare(&inst.query, &inst.join_tree, inst.relations_clone()).unwrap()
}

/// Rows a plan lands before any reduction: every case's relations.
fn landed(cases: &[TreeCase]) -> usize {
    (cases.iter())
        .flat_map(|c| &c.relations)
        .map(Relation::len)
        .sum()
}

/// A 3-path over `n` uniform edges per relation on `4·√n` nodes: the
/// degree grows as √n, so the output grows as n².
fn dense_path(n: usize, seed: u64) -> AcyclicInstance {
    let nodes = (4.0 * (n as f64).sqrt()) as u64;
    path_instance(3, n, nodes, WeightDist::Uniform, seed)
}

/// §3: on the worst-case triangle every binary plan materializes Θ(n²)
/// intermediate tuples, while Generic-Join explores O(n^1.5) bindings
/// (here O(n): the instance's output is linear).
#[test]
fn e01_binary_triangle_is_quadratic_generic_join_within_n_1_5() {
    let q = triangle_query();
    let (mut binary, mut gj) = (Vec::new(), Vec::new());
    for n in [200, 400, 800, 1600] {
        let rels = worst_case_triangle(n, 42);
        let (out_b, b) = binary_join(&q, &rels, &[0, 1, 2]);
        let (out_g, g) = generic_join_materialize(&q, &rels, None);
        assert_eq!(out_b.len(), out_g.len(), "the plans disagree at n = {n}");
        binary.push(rung(n, b.max_intermediate));
        gj.push(rung(n, g.bindings_explored as usize));
    }
    let (binary_e, gj_e) = (loglog_slope(&binary), loglog_slope(&gj));
    assert!(
        (binary_e - 2.0).abs() <= TOL,
        "binary n^{binary_e:.2}: {binary:?}"
    );
    assert!(gj_e <= 1.5 + TOL, "generic join n^{gj_e:.2}: {gj:?}");
}

/// R1 = {(i, 1)}, R2 = {(1, j)}, R3 = {(0, 0)}: R1 ⋈ R2 holds n²/4
/// pairs, but only j = 0 survives R3, so r = n/2.
fn funnel(n: usize) -> Vec<Relation> {
    let half = (n / 2) as i64;
    let mut r1 = RelationBuilder::new(Schema::new(["a", "b"]));
    let mut r2 = RelationBuilder::new(Schema::new(["b", "c"]));
    for i in 0..half {
        r1.push_ints(&[i, 1], 0.5);
        r2.push_ints(&[1, i], 0.25);
    }
    let mut r3 = RelationBuilder::new(Schema::new(["c", "d"]));
    r3.push_ints(&[0, 0], 0.125);
    vec![r1.finish(), r2.finish(), r3.finish()]
}

/// §3: Yannakakis is O~(n + r) on acyclic queries, while a binary plan
/// pays a quadratic intermediate even when the output is small.
#[test]
fn e02_full_reducer_is_linear_where_binary_is_quadratic() {
    let q = path_query(3);
    let tree = acyclic_tree(&q);
    let (mut binary, mut reduced) = (Vec::new(), Vec::new());
    for n in [200, 400, 800, 1600] {
        let rels = funnel(n);
        let (out, b) = binary_join(&q, &rels, &[0, 1, 2]);
        let inst = TdpInstance::<SumCost>::prepare(&q, &tree, rels).unwrap();
        let rows = inst.reduced_input_size();
        let r = AnyKPart::new(inst, SuccessorKind::Eager).count();
        assert_eq!(r, out.len(), "the plans disagree at n = {n}");
        binary.push(rung(n, b.max_intermediate));
        reduced.push(rung(n, rows + r));
    }
    let (binary_e, reduced_e) = (loglog_slope(&binary), loglog_slope(&reduced));
    assert!(
        (binary_e - 2.0).abs() <= TOL,
        "binary n^{binary_e:.2}: {binary:?}"
    );
    assert!(
        (reduced_e - 1.0).abs() <= TOL,
        "n + r ~ n^{reduced_e:.2}: {reduced:?}"
    );
}

/// §1: the Boolean 4-cycle query costs O(n^1.5), and the k lightest
/// 4-cycles cost about as much. On the hub graph {(i,1)} ∪ {(1,j)} the
/// cycle split lands at most n^1.5 rows while the output is n², and a
/// top-10 pull builds the successor orders of at most ℓ groups per
/// answer, whatever n.
#[test]
fn e03_e04_lightest_four_cycles_cost_the_boolean_query_not_the_output() {
    const K: usize = 10;
    let q = cycle_query(4);
    let (mut split, mut output) = (Vec::new(), Vec::new());
    for n in [100, 200, 400, 800] {
        let rels = vec![worst_case_triangle(n, 7).swap_remove(0); 4];
        let threshold = cycle_heavy_threshold(rels[0].len(), 4);
        split.push(rung(n, landed(&cycle_cases(&rels, threshold))));
        let mut r = 0usize;
        generic_join(&q, &rels, None, &mut |_, _| {
            r += 1;
            ControlFlow::Continue(())
        });
        output.push(rung(n, r));
        let trees = cycle_trees::<SumCost>(&rels, threshold, &BuildEachTime).unwrap();
        assert_eq!(trees.part(SuccessorKind::Eager).take(K).count(), K);
        let built: usize = trees.trees().iter().map(|t| t.built_orders()).sum();
        assert!(built <= 4 * K, "top-{K} built {built} orders at n = {n}");
    }
    let (split_e, output_e) = (loglog_slope(&split), loglog_slope(&output));
    assert!(
        split_e <= 1.5 + TOL,
        "cycle split n^{split_e:.2}: {split:?}"
    );
    assert!(
        (output_e - 2.0).abs() <= TOL,
        "output n^{output_e:.2}: {output:?}"
    );
}

/// §4 / Part 3: any-k's first answer costs a linear prepare, while
/// join-then-sort materializes the whole output before answer one.
#[test]
fn e05_first_answer_is_linear_while_batch_materializes_the_output() {
    let (mut first, mut batch) = (Vec::new(), Vec::new());
    for n in [200, 400, 800, 1600] {
        let inst = dense_path(n, 99);
        let mut anyk = AnyKPart::new(prepare(&inst), SuccessorKind::Eager);
        anyk.next().unwrap();
        // Reduced rows, successor orders built, candidates queued.
        let work =
            anyk.instance().reduced_input_size() + anyk.touched_groups() + anyk.peak_pending();
        first.push(rung(n, work));
        let all =
            materialize_ranked::<SumCost>(&inst.query, &inst.join_tree, inst.relations_clone());
        batch.push(rung(n, all.len()));
    }
    let (first_e, batch_e) = (loglog_slope(&first), loglog_slope(&batch));
    assert!(
        first_e <= 1.0 + TOL,
        "any-k TTF work n^{first_e:.2}: {first:?}"
    );
    assert!(
        (batch_e - 2.0).abs() <= TOL,
        "batch output n^{batch_e:.2}: {batch:?}"
    );
}

/// §4: "the delay can be reduced to O(log k)". After k answers every
/// successor order but All holds at most 2·k·m candidates (m slots)
/// and touches at most k·m groups, flat in n; its queue grows at most
/// linearly in k, so each answer's heap work is O(log k).
#[test]
fn e06_part_pending_is_bounded_by_k_and_flat_in_n() {
    const K: usize = 100;
    let m = 3;
    for kind in SuccessorKind::ALL_KINDS {
        if kind == SuccessorKind::All {
            continue;
        }
        let mut pending = Vec::new();
        for n in [200, 400, 800, 1600] {
            let mut anyk = AnyKPart::new(prepare(&dense_path(n, 5)), kind);
            assert_eq!(anyk.by_ref().take(K).count(), K);
            let (peak, touched) = (anyk.peak_pending(), anyk.touched_groups());
            assert!(peak <= 2 * K * m, "{kind:?} n = {n}: {peak} pending");
            assert!(touched <= K * m, "{kind:?} n = {n}: {touched} groups");
            pending.push(rung(n, peak));
        }
        let flat = loglog_slope(&pending);
        assert!(flat <= 0.5, "{kind:?} pending n^{flat:.2}: {pending:?}");
        let inst = dense_path(800, 5);
        let mut over_k = Vec::new();
        for k in [100, 200, 400, 800] {
            let mut anyk = AnyKPart::new(prepare(&inst), kind);
            assert_eq!(anyk.by_ref().take(k).count(), k);
            over_k.push(rung(k, anyk.peak_pending()));
        }
        let in_k = loglog_slope(&over_k);
        assert!(
            in_k <= 1.0 + TOL,
            "{kind:?} pending k^{in_k:.2}: {over_k:?}"
        );
    }
}

/// The companion paper's variant table: All pushes every member of a
/// deviated group, so its queue after the same k answers grows with
/// the group size (here √n) where Lazy's stays flat.
#[test]
fn e11_all_floods_its_queue_with_group_size() {
    const K: usize = 100;
    let mut all = Vec::new();
    for n in [200, 400, 800, 1600] {
        let inst = dense_path(n, 5);
        let peak = |kind| {
            let mut anyk = AnyKPart::new(prepare(&inst), kind);
            assert_eq!(anyk.by_ref().take(K).count(), K);
            anyk.peak_pending()
        };
        let (flood, lazy) = (peak(SuccessorKind::All), peak(SuccessorKind::Lazy));
        assert!(flood >= 2 * lazy, "n = {n}: All {flood} vs Lazy {lazy}");
        all.push(rung(n, flood));
    }
    let flood_e = loglog_slope(&all);
    assert!(flood_e >= 0.75, "All's queue n^{flood_e:.2}: {all:?}");
}

/// Part 1: TA stops no later than FA — its sorted-access depth never
/// exceeds FA's, and each of its sorted accesses brings at most m − 1
/// random ones — on all three list distributions. Correlated lists stop
/// it near the top; anti-correlated ones drive it to depth ≥ n/4.
#[test]
fn e07_ta_stops_no_later_than_fa() {
    const K: usize = 10;
    let m = 3;
    let (mut correlated, mut anti) = (Vec::new(), Vec::new());
    for n in [1000, 2000, 4000] {
        for (name, lists) in [
            ("correlated", correlated_lists(m, n, 0.05, 1)),
            ("independent", uniform_lists(m, n, 2)),
            ("anticorrelated", anticorrelated_lists(m, n, 3)),
        ] {
            let mut fa = RankedLists::new(lists.clone());
            fagin_topk(&mut fa, K, Aggregation::Sum);
            let mut ta = RankedLists::new(lists);
            threshold_topk(&mut ta, K, Aggregation::Sum);
            let (fa, ta) = (fa.counters(), ta.counters());
            assert!(
                ta.sorted <= fa.sorted,
                "{name} n = {n}: TA {ta:?}, FA {fa:?}"
            );
            assert!(
                ta.total() <= m as u64 * fa.total(),
                "{name} n = {n}: TA {ta:?}, FA {fa:?}"
            );
            let depth = ta.sorted as usize / m;
            match name {
                "correlated" => correlated.push(rung(n, depth)),
                "anticorrelated" => anti.push(rung(n, depth)),
                _ => {}
            }
        }
    }
    assert!(
        correlated.iter().all(|&(n, d)| 20.0 * d <= n),
        "correlated depths {correlated:?}"
    );
    assert!(
        anti.iter().all(|&(n, d)| 4.0 * d >= n),
        "anti-correlated depths {anti:?}"
    );
    let anti_e = loglog_slope(&anti);
    assert!(
        (anti_e - 1.0).abs() <= TOL,
        "anti-correlated depth n^{anti_e:.2}: {anti:?}"
    );
}

/// `rel`'s rows, the i-th weighing `weight(i)`.
fn reweighted(rel: &Relation, weight: impl Fn(usize) -> f64) -> Relation {
    let mut b = RelationBuilder::new(rel.schema().clone());
    for i in 0..rel.len() {
        b.push(rel.row(i as u32), Weight::new(weight(i)));
    }
    b.finish()
}

/// Part 1's RAM-model critique: on anti-correlated weights HRJN pulls
/// (and buffers) nearly all of its input before it can certify its
/// first answer, and a handful of tuples on correlated ones; any-k's
/// reduced input is linear and the same under every weighting.
#[test]
fn e08_rank_join_digs_to_the_bottom_anyk_does_not_care() {
    let q = path_query(2);
    let tree = acyclic_tree(&q);
    let first_answer_pulls = |l: &Relation, r: &Relation| {
        let (l, r) = (SortedScan::new(l.clone()), SortedScan::new(r.clone()));
        let mut hrjn = RankJoin::new(l, r, vec![1], vec![0]);
        hrjn.next().unwrap();
        hrjn.stats().pulled as usize
    };
    let mut reduced = Vec::new();
    for n in [500, 1000, 2000, 4000] {
        let anti = anticorrelated_pair(n);
        let correlated = (
            reweighted(&anti.0, |i| i as f64),
            reweighted(&anti.1, |i| i as f64),
        );
        let scramble = |i: usize| ((i * 7919) % 1009) as f64;
        let scrambled = (reweighted(&anti.0, scramble), reweighted(&anti.1, scramble));
        let pulled = first_answer_pulls(&anti.0, &anti.1);
        assert!(
            10 * pulled >= 9 * 2 * n,
            "anti-correlated n = {n}: pulled {pulled}"
        );
        let pulled = first_answer_pulls(&correlated.0, &correlated.1);
        assert!(pulled <= 4, "correlated n = {n}: pulled {pulled}");
        let sizes: Vec<usize> = [anti, correlated, scrambled]
            .into_iter()
            .map(|(l, r)| {
                let inst = TdpInstance::<SumCost>::prepare(&q, &tree, vec![l, r]).unwrap();
                inst.reduced_input_size()
            })
            .collect();
        assert!(
            sizes.iter().all(|&s| s == sizes[0]),
            "n = {n}: reduced sizes {sizes:?}"
        );
        reduced.push(rung(n, sizes[0]));
    }
    let reduced_e = loglog_slope(&reduced);
    assert!(
        (reduced_e - 1.0).abs() <= TOL,
        "any-k reduced n^{reduced_e:.2}: {reduced:?}"
    );
}

/// §4: neither Lawler–Murty (PART) nor recursive enumeration (REC)
/// dominates. At k = 1 PART holds one successor order and one
/// candidate per slot, while REC has already built more streams than
/// that: PART has no stream machinery to warm up. Run to exhaustion,
/// REC's memoized streams stay bounded by the suffixes — one tuple
/// stream per reduced row, one group stream per group — while PART's
/// candidate queue follows the output r.
#[test]
fn e09_rec_memory_follows_the_input_part_follows_the_output() {
    let m = 3;
    let (mut part_peak, mut rec_streams) = (Vec::new(), Vec::new());
    for n in [100, 200, 400, 800] {
        let inst = dense_path(n, 17);
        let mut part = AnyKPart::new(prepare(&inst), SuccessorKind::Lazy);
        let mut rec = AnyKRec::new(prepare(&inst));
        let rows = rec.instance().reduced_input_size();
        part.next().unwrap();
        rec.next().unwrap();
        let part_first = part.touched_groups() + part.peak_pending();
        let rec_first = rec.allocated_group_streams() + rec.allocated_tuple_streams();
        assert!(
            part_first <= 2 * m,
            "n = {n}: PART holds {part_first} at k = 1"
        );
        assert!(
            part_first < rec_first,
            "n = {n}: REC holds {rec_first} at k = 1"
        );
        let r = 1 + part.by_ref().count();
        assert_eq!(1 + rec.by_ref().count(), r);
        let (groups, tuples) = (rec.allocated_group_streams(), rec.allocated_tuple_streams());
        assert!(
            tuples <= rows && groups <= rows,
            "n = {n}: REC {groups} + {tuples} of {rows} rows"
        );
        part_peak.push(rung(n, part.peak_pending()));
        rec_streams.push(rung(n, groups + tuples));
    }
    let (part_e, rec_e) = (loglog_slope(&part_peak), loglog_slope(&rec_streams));
    assert!(
        rec_e <= 1.0 + TOL,
        "REC streams n^{rec_e:.2}: {rec_streams:?}"
    );
    assert!(part_e >= 1.4, "PART queue n^{part_e:.2}: {part_peak:?}");
    let (last_part, last_rec) = (part_peak[3].1, rec_streams[3].1);
    assert!(
        last_part > last_rec,
        "at the largest n: PART {last_part}, REC {last_rec}"
    );
}

/// §3's widths, from the query crate's own solvers: ρ*(△) = fhw(△) =
/// 1.5, fhw(Cℓ) = 2 against subw(Cℓ) = 2 − 1/⌈ℓ/2⌉ (1.5 for the
/// 4-cycle), width 1 for acyclic queries — and the triangle's AGM
/// bound grows as n^ρ*.
#[test]
fn e12_widths_match_the_paper() {
    let tri = Hypergraph::of_query(&triangle_query());
    let rho = fractional_edge_cover(&tri, tri.all_vars()).unwrap().value;
    assert!((rho - 1.5).abs() < 1e-9, "rho*(triangle) = {rho}");
    assert!((fhw_exact(&tri).width - 1.5).abs() < 1e-9);
    for l in 4..=7 {
        let fhw = fhw_exact(&Hypergraph::of_query(&cycle_query(l))).width;
        let subw = cycle_submodular_width(l);
        assert!((fhw - 2.0).abs() < 1e-9, "fhw(C{l}) = {fhw}");
        let want = 2.0 - 1.0 / l.div_ceil(2) as f64;
        assert!((subw - want).abs() < 1e-9, "subw(C{l}) = {subw}");
    }
    assert_eq!(cycle_submodular_width(4), 1.5);
    for q in [path_query(2), path_query(4), star_query(3)] {
        assert_eq!(fhw_exact(&Hypergraph::of_query(&q)).width, 1.0, "{q}");
    }
    let agm: Vec<(f64, f64)> = [100usize, 1000, 10_000]
        .iter()
        .map(|&n| (n as f64, agm_bound(&tri, &[n; 3]).unwrap()))
        .collect();
    let agm_e = loglog_slope(&agm);
    assert!((agm_e - rho).abs() < 1e-6, "AGM(triangle) n^{agm_e}");
}

/// The hub graph {(i,1)} ∪ {(1,j)} of §3's worst case.
fn hub(n: usize, _l: usize) -> Relation {
    worst_case_triangle(n, 13).swap_remove(0)
}

/// ~n distinct uniform edges over n^(1−1/h) nodes, h = ⌈ℓ/2⌉: mean
/// degree n^(1/h), the cycle split's heavy cutoff, so its light bags
/// reach their n·Δ^(h−1) bound.
fn critical_degree(n: usize, l: usize) -> Relation {
    let h = l.div_ceil(2) as f64;
    let nodes = (n as f64).powf(1.0 - 1.0 / h).ceil() as u64 + 1;
    let mut rel = random_edge_relation(n, nodes, WeightDist::Uniform, None, 13);
    rel.dedup();
    rel
}

/// §3: submodular width splits an ℓ-cycle into a union of trees that
/// lands O(n^(2−1/⌈ℓ/2⌉)) rows, where the single-tree GHD plan (fhw =
/// 2) lands n². The split's exponent holds on the hub graph and on
/// inputs of the critical degree; the GHD plan's n² and the split's
/// win show on the hub graph.
#[test]
fn e13_cycle_split_lands_subw_rows_where_one_tree_lands_n_squared() {
    for l in [4, 5, 6] {
        let q = cycle_query(l);
        let ghd = fhw_exact(&Hypergraph::of_query(&q));
        let subw = cycle_submodular_width(l);
        for (name, make) in [
            ("hub", hub as fn(usize, usize) -> Relation),
            ("critical", critical_degree),
        ] {
            let (mut split, mut tree) = (Vec::new(), Vec::new());
            for n in [50, 100, 200, 400] {
                let rels = vec![make(n, l); l];
                let size = rels[0].len();
                split.push(rung(
                    size,
                    landed(&cycle_cases(&rels, cycle_heavy_threshold(size, l))),
                ));
                if name == "hub" {
                    tree.push(rung(size, landed(&[ghd_plan(&q, &rels, &ghd)])));
                }
            }
            let split_e = loglog_slope(&split);
            assert!(
                split_e <= subw + TOL,
                "C{l} {name}: split n^{split_e:.2}: {split:?}"
            );
            if name == "hub" {
                let tree_e = loglog_slope(&tree);
                assert!(
                    (tree_e - 2.0).abs() <= TOL,
                    "C{l} hub: GHD n^{tree_e:.2}: {tree:?}"
                );
                assert!(
                    split[3].1 < tree[3].1,
                    "C{l} hub, largest n: {split:?} vs {tree:?}"
                );
            }
        }
    }
}

#[test]
fn slope_of_quadratic() {
    let pts: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, (i * i) as f64)).collect();
    assert!((loglog_slope(&pts) - 2.0).abs() < 1e-9);
}

#[test]
fn slope_of_linear() {
    let pts: Vec<(f64, f64)> = (1..=10).map(|i| (i as f64, 3.0 * i as f64)).collect();
    assert!((loglog_slope(&pts) - 1.0).abs() < 1e-9);
}

#[test]
fn loglog_slope_recovers_exponents() {
    for e in [0.0, 1.0, 1.5, 2.0] {
        let power: Vec<(f64, f64)> = (1..=6)
            .map(|i| (i as f64, 3.0 * (i as f64).powf(e)))
            .collect();
        assert!((loglog_slope(&power) - e).abs() < 1e-9, "exponent {e}");
    }
}
