//! Oracle harness: every planner route × every supported ranking,
//! cross-checked in **full ranked order** against the brute-force
//! nested-loop + sort oracle (`tests/common/oracle.rs`) on small fixed
//! instances.
//!
//! Routes covered: acyclic (path, star, snowflake), triangle (WCO
//! materialization), cycle (submodular-width union-of-trees, ℓ = 4…7,
//! bag semantics) and decomposed (GHD — via the chorded 5-cycle).
//! Rankings: **all five everywhere** —
//! Sum/Max/Min/Prod drive the any-k plans, and Lex is served on cyclic
//! routes from the materialized answers under canonical atom order.
//! Any-k variants (PART orders, REC, Batch) are pinned against the
//! same oracle on representative shapes.

mod common;

use anyk::prelude::*;
use common::gen::{
    cycle_case_kinds, edge_rel, hub_edges, scrambled_edges, snowflake_query, sparse_ring_edges,
};
use common::oracle::{
    assert_matches_oracle, brute_force_ranked, check_engine_against_oracle,
    check_write_path_against_oracle, OracleAnswer,
};

/// A dense-ish fixed edge set with dyadic weights and deliberate
/// weight ties (the tie-group comparison must actually bite).
fn fixture_edges() -> Vec<(i64, i64, f64)> {
    vec![
        (1, 2, 0.5),
        (2, 3, 1.0),
        (3, 1, 0.25),
        (2, 1, 2.0),
        (1, 3, 0.125),
        (3, 2, 0.75),
        (3, 4, 0.5),
        (4, 1, 1.5),
        (4, 2, 0.25),
        (2, 4, 1.0),
        (4, 3, 0.5),
        (1, 4, 0.375),
        (1, 1, 0.5),
        (4, 4, 2.5),
    ]
}

fn check_route(q: &anyk::query::cq::ConjunctiveQuery, rels: &[Relation], route: &str) {
    let engine = Engine::from_query_bindings(q, rels.to_vec());
    let plan = engine.query(q.clone()).explain().expect("plannable");
    assert_eq!(plan.route.label(), route, "planner must choose {route}");
    for rank in RankSpec::ALL {
        let got = check_engine_against_oracle(q, rels, rank, &format!("{route} × {rank}"));
        assert!(
            !got.is_empty(),
            "{route} × {rank}: fixture must have answers for the check to bite"
        );
    }
}

#[test]
fn path_matches_oracle_under_every_ranking() {
    let q = path_query(3);
    let rels = vec![
        edge_rel(&fixture_edges()),
        edge_rel(&fixture_edges()[2..]),
        edge_rel(&fixture_edges()[..10]),
    ];
    check_route(&q, &rels, "acyclic");
}

#[test]
fn star_matches_oracle_under_every_ranking() {
    let q = star_query(3);
    let rels = vec![
        edge_rel(&fixture_edges()[..10]),
        edge_rel(&fixture_edges()[3..]),
        edge_rel(&fixture_edges()[..8]),
    ];
    check_route(&q, &rels, "acyclic");
}

#[test]
fn snowflake_matches_oracle_under_every_ranking() {
    let q = snowflake_query();
    let rels = vec![
        edge_rel(&fixture_edges()[..10]),
        edge_rel(&fixture_edges()[2..12]),
        edge_rel(&fixture_edges()[..8]),
        edge_rel(&fixture_edges()[4..]),
        edge_rel(&fixture_edges()[..12]),
    ];
    check_route(&q, &rels, "acyclic");
}

#[test]
fn triangle_matches_oracle_under_every_ranking() {
    let q = triangle_query();
    let e = edge_rel(&fixture_edges());
    check_route(&q, &[e.clone(), e.clone(), e], "triangle");
}

#[test]
fn four_cycle_matches_oracle_under_every_ranking() {
    let q = cycle_query(4);
    let e = edge_rel(&fixture_edges());
    check_route(&q, &[e.clone(), e.clone(), e.clone(), e], "cycle");
}

#[test]
fn five_cycle_decomposed_matches_oracle_under_every_ranking() {
    // The 5-cycle with the chord R6(x1,x3): cyclic, not a simple cycle.
    let q = chorded_cycle_query(5);
    let e = edge_rel(&fixture_edges());
    check_route(&q, &vec![e; 6], "decomposed");
}

#[test]
fn longer_cycles_match_oracle_under_every_ranking_with_duplicate_rows() {
    // `fixture_edges` plus rows repeating the values of (1,2), (3,1)
    // and (4,4) under other weights: every answer through one of them
    // must come out once per row combination.
    let mut rows = fixture_edges();
    rows.extend([(1, 2, 0.75), (3, 1, 0.25), (4, 4, 0.125)]);
    let e = edge_rel(&rows[..12]);
    let dup = edge_rel(&rows);
    for l in 5..=7 {
        // Distinct payloads on the atoms, so a case that reads the
        // wrong relation shows.
        let rels: Vec<Relation> = (0..l)
            .map(|i| if i % 2 == 0 { dup.clone() } else { e.clone() })
            .collect();
        check_route(&cycle_query(l), &rels, "cycle");
    }
}

#[test]
fn hub_skewed_cycles_match_oracle_in_every_case_family() {
    let e = edge_rel(&hub_edges());
    for l in 5..=7 {
        let rels = vec![e.clone(); l];
        // Heavy cases for every split attribute — x1 … x(h−1), then
        // x(h+1) … x(ℓ−1), each with all earlier ones light — and a
        // light-light remainder.
        let h = l.div_ceil(2);
        let split: Vec<usize> = (1..h).chain(h + 1..l).collect();
        let mut want: Vec<String> = (0..split.len())
            .map(|k| {
                let lights: String = (split[..k].iter())
                    .map(|t| format!("light-x{t},"))
                    .collect();
                format!("{lights}heavy-x{}", split[k])
            })
            .collect();
        want.push("light-light".to_string());
        assert_eq!(cycle_case_kinds(&rels), want, "{l}-cycle case families");
        check_route(&cycle_query(l), &rels, "cycle");
    }
}

#[test]
fn sparse_cycles_match_oracle_on_the_lone_light_tree() {
    let e = edge_rel(&sparse_ring_edges());
    for l in 5..=7 {
        let rels = vec![e.clone(); l];
        assert_eq!(cycle_case_kinds(&rels), ["light-light"], "{l}-cycle");
        check_route(&cycle_query(l), &rels, "cycle");
    }
}

/// A lexicographic cost holds up to four weights in place and spills
/// to the heap beyond: paths of five and six atoms rank spilled costs,
/// under every PART order and REC.
#[test]
fn long_paths_match_the_oracle_under_lex_with_spilled_costs() {
    for atoms in [5, 6] {
        let q = path_query(atoms);
        let rels: Vec<Relation> = (0..atoms)
            .map(|i| edge_rel(&fixture_edges()[i..]))
            .collect();
        let want = brute_force_ranked(&q, &rels, RankSpec::Lex);
        assert!(want.len() > 100, "path-{atoms}: the fixture has answers");
        let engine = Engine::from_query_bindings(&q, rels);
        let variants = (anyk::core::SuccessorKind::ALL_KINDS.into_iter())
            .map(AnyKVariant::Part)
            .chain([AnyKVariant::Rec]);
        for v in variants {
            let got: Vec<RankedAnswer> = engine
                .query(q.clone())
                .rank_by(RankSpec::Lex)
                .with_variant(v)
                .plan()
                .expect("acyclic plan")
                .collect();
            assert_matches_oracle(&got, &want, &format!("path-{atoms} × lex × {v:?}"));
        }
    }
}

#[test]
fn every_anyk_variant_matches_the_oracle() {
    // The oracle also pins the variant seam: PART successor orders,
    // REC, and Batch must all reproduce the oracle's total order.
    let variants = [
        AnyKVariant::Part(anyk::core::SuccessorKind::Eager),
        AnyKVariant::Part(anyk::core::SuccessorKind::All),
        AnyKVariant::Part(anyk::core::SuccessorKind::Take2),
        AnyKVariant::Part(anyk::core::SuccessorKind::Lazy),
        AnyKVariant::Part(anyk::core::SuccessorKind::Quick),
        AnyKVariant::Rec,
        AnyKVariant::Batch,
    ];
    // Acyclic shape.
    let q = path_query(3);
    let rels = vec![
        edge_rel(&fixture_edges()),
        edge_rel(&fixture_edges()[1..]),
        edge_rel(&fixture_edges()[..11]),
    ];
    let want = brute_force_ranked(&q, &rels, RankSpec::Sum);
    let engine = Engine::from_query_bindings(&q, rels.clone());
    for v in variants {
        let got: Vec<RankedAnswer> = engine
            .query(q.clone())
            .with_variant(v)
            .plan()
            .expect("acyclic plan")
            .collect();
        common::oracle::assert_matches_oracle(&got, &want, &format!("acyclic × {v:?}"));
    }
    // Cyclic shape (C4): REC and Batch drive the union-of-trees cases.
    let q4 = cycle_query(4);
    let e = edge_rel(&fixture_edges());
    let rels4 = vec![e.clone(), e.clone(), e.clone(), e];
    let want4 = brute_force_ranked(&q4, &rels4, RankSpec::Sum);
    let engine4 = Engine::from_query_bindings(&q4, rels4);
    for v in [AnyKVariant::Rec, AnyKVariant::Batch] {
        let got: Vec<RankedAnswer> = engine4
            .query(q4.clone())
            .with_variant(v)
            .plan()
            .expect("c4 plan")
            .collect();
        common::oracle::assert_matches_oracle(&got, &want4, &format!("cycle(4) × {v:?}"));
    }
}

#[test]
fn triangle_first_and_upgraded_streams_both_match_the_oracle() {
    // The lazy-heap first stream and the post-upgrade sorted cursor
    // must both reproduce the oracle order, byte-identically.
    let q = triangle_query();
    let e = edge_rel(&fixture_edges());
    let rels = vec![e.clone(), e.clone(), e];
    let want = brute_force_ranked(&q, &rels, RankSpec::Sum);
    let engine = Engine::from_query_bindings(&q, rels);
    let prepared = engine.prepare(q, RankSpec::Sum).expect("triangle prepare");
    assert_eq!(prepared.sort_deferred(), Some(true));
    let first: Vec<RankedAnswer> = prepared.stream().collect(); // lazy heap, exhausts
    assert_eq!(
        prepared.sort_deferred(),
        Some(false),
        "exhaustion installs the sorted artifact"
    );
    let upgraded: Vec<RankedAnswer> = prepared.stream().collect(); // cursor
    common::oracle::assert_matches_oracle(&first, &want, "triangle lazy first stream");
    assert_eq!(
        first, upgraded,
        "first stream == upgraded cursor, ties included"
    );
}

// ---------------------------------------------------------------------
// The write path: every route × every ranking over a live engine that
// received its data partly through `append()`. The delta-backed union
// must reproduce the oracle over base ⊎ deltas in full ranked order,
// byte-identically to a single-payload engine's canonical stream, and
// compaction must not move a byte (`check_write_path_against_oracle`).
// ---------------------------------------------------------------------

/// All five rankings over one `(q, base, appends)` write-path
/// instance on a live engine.
fn check_write_path_all_ranks(
    q: &anyk::query::cq::ConjunctiveQuery,
    base: &[Relation],
    appends: &[(usize, Relation)],
    route: &str,
) -> Vec<(RankSpec, [u64; 3])> {
    check_write_schedule_all_ranks(q, base, appends, &[], route)
}

/// [`check_write_path_all_ranks`] with a `compact()` of the relation
/// just appended to after each step of `appends` that `compact_after`
/// lists. Returns, per ranking, the terms the single engine's
/// refreshes `[kept, extended, rebuilt]`.
fn check_write_schedule_all_ranks(
    q: &anyk::query::cq::ConjunctiveQuery,
    base: &[Relation],
    appends: &[(usize, Relation)],
    compact_after: &[usize],
    route: &str,
) -> Vec<(RankSpec, [u64; 3])> {
    let mut terms = Vec::new();
    for rank in RankSpec::ALL {
        let live = Engine::from_query_bindings(q, base.to_vec());
        let w = check_write_path_against_oracle(
            live,
            q,
            base,
            appends,
            compact_after,
            rank,
            &format!("{route} × {rank}"),
        );
        terms.push((rank, [w.terms_kept, w.terms_extended, w.terms_rebuilt]));
    }
    terms
}

#[test]
fn live_appends_match_oracle_on_the_acyclic_path_route() {
    // The appended chain 9→50→51→2 exists only across three different
    // delta batches — one per atom — so any union term that misses a
    // delta×delta×delta combination drops it. The second batch to R1
    // joins existing base rows instead (both flavors must land).
    let q = path_query(3);
    let base = vec![
        edge_rel(&fixture_edges()),
        edge_rel(&fixture_edges()[2..]),
        edge_rel(&fixture_edges()[..10]),
    ];
    let appends = vec![
        (0, edge_rel(&[(9, 50, 0.5), (2, 2, 0.375)])),
        (1, edge_rel(&[(50, 51, 0.25), (2, 3, 0.25)])),
        (2, edge_rel(&[(51, 2, 0.125)])),
        (0, edge_rel(&[(1, 50, 1.0)])),
    ];
    check_write_path_all_ranks(&q, &base, &appends, "acyclic-path live");
}

#[test]
fn live_appends_match_oracle_on_the_acyclic_star_route() {
    // A brand-new center (50) appears only in the deltas of all three
    // arms, plus an arm batch extending an existing center.
    let q = star_query(3);
    let base = vec![
        edge_rel(&fixture_edges()[..10]),
        edge_rel(&fixture_edges()[3..]),
        edge_rel(&fixture_edges()[..8]),
    ];
    let appends = vec![
        (0, edge_rel(&[(50, 1, 0.5)])),
        (1, edge_rel(&[(50, 2, 0.25), (1, 9, 0.75)])),
        (2, edge_rel(&[(50, 3, 0.125), (2, 9, 0.5)])),
    ];
    check_write_path_all_ranks(&q, &base, &appends, "acyclic-star live");
}

#[test]
fn live_appends_match_oracle_on_the_triangle_route() {
    // A triangle 50→51→52→50 closed entirely by deltas, plus batches
    // that close new triangles against base edges.
    let q = triangle_query();
    let e = edge_rel(&fixture_edges());
    let base = vec![e.clone(), e.clone(), e];
    let appends = vec![
        (0, edge_rel(&[(50, 51, 0.5), (1, 3, 0.25)])),
        (1, edge_rel(&[(51, 52, 0.25)])),
        (2, edge_rel(&[(52, 50, 0.125), (2, 1, 0.5)])),
    ];
    check_write_path_all_ranks(&q, &base, &appends, "triangle live");
}

#[test]
fn live_appends_match_oracle_on_the_four_cycle_route() {
    let q = cycle_query(4);
    let e = edge_rel(&fixture_edges());
    let base = vec![e.clone(), e.clone(), e.clone(), e];
    let appends = vec![
        (0, edge_rel(&[(50, 51, 0.5)])),
        (1, edge_rel(&[(51, 52, 0.25), (3, 3, 0.75)])),
        (2, edge_rel(&[(52, 53, 0.125)])),
        (3, edge_rel(&[(53, 50, 0.5), (3, 2, 0.25)])),
    ];
    check_write_path_all_ranks(&q, &base, &appends, "cycle(4) live");
}

#[test]
fn live_appends_match_oracle_on_the_decomposed_route() {
    // Appended values are kept distinct from every base tuple: the GHD
    // route collapses duplicate-valued rows to their lightest weight by
    // design (bag materialization is set-shaped), so a delta that
    // duplicates a base tuple's values would change multiplicity across
    // compaction. The other routes preserve multiplicity and their
    // fixtures above exercise duplicated values deliberately.
    let q = chorded_cycle_query(5);
    let e = edge_rel(&fixture_edges());
    let base = vec![e; 6];
    let appends = vec![
        (0, edge_rel(&[(50, 51, 0.5)])),
        (1, edge_rel(&[(51, 52, 0.25)])),
        (2, edge_rel(&[(52, 53, 0.125)])),
        (3, edge_rel(&[(53, 54, 0.5)])),
        (4, edge_rel(&[(54, 50, 0.25), (2, 2, 0.375)])),
        (5, edge_rel(&[(50, 52, 0.75)])),
    ];
    check_write_path_all_ranks(&q, &base, &appends, "decomposed live");
}

#[test]
fn live_appends_match_oracle_on_the_five_cycle_route() {
    // The cycle route keeps multiplicities, so — unlike the GHD fixture
    // above — batches may repeat the values of base tuples ((1,2) on
    // R1, (4,4) on R3) and of each other ((51,52) twice on R2): the
    // answers through them must come out once per row, before and
    // after compaction folds the duplicates into one payload.
    let q = cycle_query(5);
    let e = edge_rel(&fixture_edges());
    let base = vec![e; 5];
    let appends = vec![
        (0, edge_rel(&[(50, 51, 0.5), (1, 2, 0.25)])),
        (1, edge_rel(&[(51, 52, 0.25), (51, 52, 0.75)])),
        (2, edge_rel(&[(52, 53, 0.125), (4, 4, 0.5)])),
        (3, edge_rel(&[(53, 54, 0.5)])),
        (4, edge_rel(&[(54, 50, 0.25), (2, 2, 0.375)])),
    ];
    check_write_path_all_ranks(&q, &base, &appends, "cycle(5) live");
}

#[test]
fn live_appends_with_all_ties_weights_stay_canonical() {
    // Adversarial tie fixture on the write path: every tuple — base
    // and delta alike — weighs the same, so the whole output is ONE
    // cost-tie group and the byte-identity assertions are decided
    // entirely by the delta union's cross-source tie-break.
    let flat: Vec<(i64, i64, f64)> = fixture_edges()
        .iter()
        .map(|&(a, b, _)| (a, b, 1.0))
        .collect();
    let flat_batch =
        |rows: &[(i64, i64)]| edge_rel(&rows.iter().map(|&(a, b)| (a, b, 1.0)).collect::<Vec<_>>());
    let e = edge_rel(&flat);

    let q2 = path_query(2);
    let appends2 = vec![
        (0, flat_batch(&[(9, 1), (1, 2)])),
        (1, flat_batch(&[(2, 9), (9, 9)])),
    ];
    check_write_path_all_ranks(
        &q2,
        &[e.clone(), e.clone()],
        &appends2,
        "all-ties path live",
    );

    let q3 = triangle_query();
    let appends3 = vec![
        (0, flat_batch(&[(9, 1)])),
        (1, flat_batch(&[(1, 2)])),
        (2, flat_batch(&[(2, 9)])),
    ];
    check_write_path_all_ranks(
        &q3,
        &[e.clone(), e.clone(), e],
        &appends3,
        "all-ties triangle live",
    );
}

// ---------------------------------------------------------------------
// Refresh from the stale entry: the plan is warm before the first
// append, so every step below refreshes it — keeping the terms the
// batch does not reach, extending the materialized ones by the batch
// (triangle, `Batch` plans, lex on cyclic routes), rebuilding the rest
// — and every step is held to a fresh engine's bytes.
// ---------------------------------------------------------------------

/// Batch `i` of a schedule: two edges inside the fixture's domain, so
/// they close answers against base rows and against earlier batches,
/// with dyadic weights that tie across batches.
fn small_batch(i: usize) -> Relation {
    let k = i as i64;
    edge_rel(&[
        (1 + k % 4, 1 + (k + 1) % 4, 0.25 * (1 + k % 3) as f64),
        (1 + (k + 2) % 4, 1 + k % 4, 0.5),
    ])
}

#[test]
fn consecutive_appends_extend_the_triangle_term_upon_itself() {
    // Nine batches into R1: the first builds `(D1, B2, B3)`, the other
    // eight each extend what the one before left.
    let e = edge_rel(&fixture_edges());
    let appends: Vec<_> = (0..9).map(|i| (0, small_batch(i))).collect();
    let terms = check_write_path_all_ranks(
        &triangle_query(),
        &[e.clone(), e.clone(), e],
        &appends,
        "triangle, one relation live",
    );
    for (rank, terms) in terms {
        assert_eq!(terms, [9, 8, 1], "{rank}: all-base term kept 9 times");
    }
}

#[test]
fn alternating_appends_extend_a_triangle_term_in_either_position() {
    // R1 and R2 in turn: R2's term `(F1, D2, B3)` sees `F1` grow in one
    // refresh and its own `D2` in the next — one changed position each
    // time — while R1's term `(D1, B2, B3)` is extended, then kept.
    let e = edge_rel(&fixture_edges());
    let appends: Vec<_> = (0..8).map(|i| (i % 2, small_batch(i))).collect();
    let terms = check_write_path_all_ranks(
        &triangle_query(),
        &[e.clone(), e.clone(), e],
        &appends,
        "triangle, two relations live",
    );
    // Steps 0 and 1 build the two delta terms. From then on an append
    // to R1 keeps the all-base term and extends both delta terms, one
    // to R2 keeps R1's term too and extends its own.
    for (rank, terms) in terms {
        assert_eq!(terms, [1 + 2 + 3 * (1 + 2), 3 * (2 + 1), 2], "{rank}");
    }
}

#[test]
fn extensions_resume_after_a_compaction_and_an_auto_compaction() {
    // An explicit `compact()` of R1 after step 3 and, at step 6, a
    // batch long enough to fold R2's tail into its base on arrival
    // (its rows join nothing: the values are outside the domain).
    // Either way the next refresh finds a swapped base, rebuilds, and
    // the steps after it extend again.
    let e = edge_rel(&fixture_edges());
    let long: Vec<(i64, i64, f64)> = (0..anyk::storage::MIN_COMPACT_ROWS as i64)
        .map(|i| (1000 + i, 5000 + i, 0.5))
        .collect();
    let mut appends: Vec<_> = (0..10).map(|i| (i % 2, small_batch(i))).collect();
    appends[6] = (1, edge_rel(&long));
    let terms = check_write_schedule_all_ranks(
        &triangle_query(),
        &[e.clone(), e.clone(), e],
        &appends,
        &[3],
        "triangle through compactions",
    );
    // Rebuilt: a delta term's first build at steps 0, 1, 5 and 7, and
    // the all-base term with R1's delta term after each compaction.
    // Extended: steps 2 (both delta terms), 3, 4, 8 (both) and 9.
    for (rank, terms) in terms {
        assert_eq!(terms[1..], [7, 4 + 2 * 2], "{rank}");
    }
}

#[test]
fn consecutive_appends_extend_lex_on_the_four_cycle() {
    // On a cyclic route lexicographic ranking runs off the materialized
    // answers — extended — while the other four rankings drive the
    // case trees, rebuilt on every step of the same schedule.
    let e = edge_rel(&fixture_edges());
    let appends: Vec<_> = (0..6).map(|i| ((i % 2) * 2, small_batch(i))).collect();
    let terms = check_write_path_all_ranks(
        &cycle_query(4),
        &vec![e; 4],
        &appends,
        "cycle(4) live twice",
    );
    for (rank, terms) in terms {
        let extended = if rank == RankSpec::Lex {
            2 * (2 + 1)
        } else {
            0
        };
        assert_eq!(terms[1], extended, "{rank}");
    }
}

#[test]
fn consecutive_appends_extend_a_batch_plan_on_the_path() {
    // `Batch` materializes on the acyclic route too: an engine whose
    // default variant it is extends the path's delta terms.
    let q = path_query(3);
    let base = vec![
        edge_rel(&fixture_edges()),
        edge_rel(&fixture_edges()[2..]),
        edge_rel(&fixture_edges()[..10]),
    ];
    let appends: Vec<_> = (0..8).map(|i| (i % 3, small_batch(i))).collect();
    let batch = EngineOpts {
        variant: AnyKVariant::Batch,
    };
    for rank in RankSpec::ALL {
        let catalog = Engine::from_query_bindings(&q, base.clone()).catalog();
        let live = Engine::with_opts((*catalog).clone(), batch);
        let label = format!("path batch × {rank}");
        let w = check_write_path_against_oracle(live, &q, &base, &appends, &[4], rank, &label);
        // Extended at steps 3 (all three delta terms), 4 (two), 5, 6
        // (two) and 7; rebuilt at a delta term's first build (steps 0,
        // 1, 2 and, after the compaction dropped R2's, 7) and at the
        // compaction (three terms).
        assert_eq!([w.terms_extended, w.terms_rebuilt], [9, 4 + 3], "{label}");
    }
}

#[test]
fn a_self_join_extends_one_occurrence_and_rebuilds_the_others() {
    // The triangle over one relation: a batch lands in all three
    // positions, so `(D, B, B)` grows in one and is extended, `(F, D,
    // B)` and `(F, F, D)` grow in two and three and are rebuilt.
    let q = QueryBuilder::new()
        .atom("E", &["x", "y"])
        .atom("E", &["y", "z"])
        .atom("E", &["z", "x"])
        .build();
    let e = edge_rel(&fixture_edges());
    let appends: Vec<_> = (0..5).map(|i| (0, small_batch(i))).collect();
    let terms = check_write_schedule_all_ranks(
        &q,
        &[e.clone(), e.clone(), e],
        &appends,
        &[2],
        "self-join triangle live",
    );
    // Steps 0 and 3 build all three delta terms, the compaction the
    // one term there is; steps 1, 2 and 4 extend one and rebuild two.
    for (rank, terms) in terms {
        assert_eq!(terms, [5, 3, 2 * 3 + 1 + 3 * 2], "{rank}");
    }
}

#[test]
fn randomized_append_schedules_match_oracle_through_mid_schedule_compaction() {
    // An xorshift-driven schedule over a 3-path: after every batch the
    // delta-backed stream is re-checked against the oracle, and an
    // explicit mid-schedule `compact()` must not disturb either the
    // answers or the batches that keep arriving afterwards.
    let q = path_query(3);
    let base = vec![
        scrambled_edges(30, 6, 101),
        scrambled_edges(30, 6, 103),
        scrambled_edges(30, 6, 107),
    ];
    let engine = Engine::from_query_bindings(&q, base.clone());
    let mut combined = base;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut step = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for round in 0..6 {
        let atom = (step() % 3) as usize;
        // Domain 8 > the base's 6: some appended values are brand-new
        // join partners only other deltas can complete.
        let batch = scrambled_edges(2 + step() % 4, 8, step() | 1);
        engine
            .append(&q.atom(atom).relation, batch.clone())
            .unwrap_or_else(|e| panic!("round {round}: append: {e}"));
        combined[atom] = Relation::concat(&[combined[atom].clone(), batch]);
        if round == 3 {
            engine
                .compact(&q.atom(atom).relation)
                .unwrap_or_else(|e| panic!("round {round}: compact: {e}"));
        }
        for rank in [RankSpec::Sum, RankSpec::Lex] {
            let want = brute_force_ranked(&q, &combined, rank);
            let got: Vec<RankedAnswer> = engine
                .prepare(q.clone(), rank)
                .unwrap_or_else(|e| panic!("round {round} × {rank}: prepare: {e}"))
                .stream()
                .collect();
            assert_matches_oracle(&got, &want, &format!("round {round} × {rank}"));
        }
    }
}

// ---------------------------------------------------------------------
// A sharded partition: the scatter/merge stream must be indistinguishable
// from a single engine — not just the same multiset, the same *bytes*.
// The merge canonicalizes cost-ties by value order, so the comparison
// baseline is the single engine's stream under `canonical_ties()`,
// which coincides with the oracle's `(cost, values)` total order.
// ---------------------------------------------------------------------

/// Positional (not tie-group) equality against the oracle: the
/// canonical streams pin ties to value order, so every rank must
/// match exactly.
fn assert_exact_oracle_order(got: &[RankedAnswer], want: &[OracleAnswer], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: cardinality");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g.cost, w.0, "{label}: cost at rank {i}");
        assert_eq!(g.values, w.1, "{label}: values at rank {i}");
    }
}

/// Sharded-vs-single byte-identity for one `(q, rels)` instance across
/// every ranking and `shards` ∈ {2, 3}.
fn check_sharded_matches_single(
    q: &anyk::query::cq::ConjunctiveQuery,
    rels: &[Relation],
    route: &str,
) {
    for shards in [2usize, 3] {
        let sharded = ShardedEngine::try_from_query_bindings(q, rels.to_vec(), shards)
            .unwrap_or_else(|e| panic!("{route}: sharded build: {e}"));
        let single = Engine::from_query_bindings(q, rels.to_vec());
        for rank in RankSpec::ALL {
            let label = format!("{route} × {rank} × {shards} shard(s)");
            let want = brute_force_ranked(q, rels, rank);
            let merged: Vec<RankedAnswer> = sharded
                .prepare(q, rank)
                .unwrap_or_else(|e| panic!("{label}: sharded prepare: {e}"))
                .stream()
                .collect();
            let canonical: Vec<RankedAnswer> = single
                .query(q.clone())
                .rank_by(rank)
                .plan()
                .unwrap_or_else(|e| panic!("{label}: single plan: {e}"))
                .canonical_ties()
                .collect();
            assert_eq!(
                merged, canonical,
                "{label}: merged stream must be byte-identical to the single engine"
            );
            assert_exact_oracle_order(&merged, &want, &label);
        }
    }
}

#[test]
fn sharded_path_is_byte_identical_to_single_engine() {
    let q = path_query(3);
    let rels = vec![
        edge_rel(&fixture_edges()),
        edge_rel(&fixture_edges()[2..]),
        edge_rel(&fixture_edges()[..10]),
    ];
    check_sharded_matches_single(&q, &rels, "acyclic-path");
}

#[test]
fn sharded_star_is_byte_identical_to_single_engine() {
    let q = star_query(3);
    let rels = vec![
        edge_rel(&fixture_edges()[..10]),
        edge_rel(&fixture_edges()[3..]),
        edge_rel(&fixture_edges()[..8]),
    ];
    check_sharded_matches_single(&q, &rels, "acyclic-star");
}

#[test]
fn sharded_triangle_is_byte_identical_to_single_engine() {
    let q = triangle_query();
    let e = edge_rel(&fixture_edges());
    check_sharded_matches_single(&q, &[e.clone(), e.clone(), e], "triangle");
}

#[test]
fn sharded_four_cycle_is_byte_identical_to_single_engine() {
    let q = cycle_query(4);
    let e = edge_rel(&fixture_edges());
    check_sharded_matches_single(&q, &[e.clone(), e.clone(), e.clone(), e], "cycle(4)");
}

#[test]
fn sharded_five_cycle_is_byte_identical_to_single_engine() {
    let q = cycle_query(5);
    let e = edge_rel(&fixture_edges());
    check_sharded_matches_single(&q, &vec![e; 5], "cycle(5)");
}

#[test]
fn sharded_chorded_five_cycle_is_byte_identical_to_single_engine() {
    let q = chorded_cycle_query(5);
    let e = edge_rel(&fixture_edges());
    check_sharded_matches_single(&q, &vec![e; 6], "decomposed");
}

#[test]
fn sharded_all_ties_relation_is_partition_invariant() {
    // Adversarial tie fixture: every tuple weighs the same, so the
    // whole output is ONE cost-tie group and the merge order is
    // decided *entirely* by the cross-shard tie-break. Any
    // nondeterminism — seeded by which shard owns which row — would
    // show up here as a permutation.
    let flat: Vec<(i64, i64, f64)> = fixture_edges()
        .iter()
        .map(|&(a, b, _)| (a, b, 1.0))
        .collect();
    let e = edge_rel(&flat);
    let q3 = triangle_query();
    check_sharded_matches_single(&q3, &[e.clone(), e.clone(), e.clone()], "all-ties-triangle");
    let q = path_query(2);
    check_sharded_matches_single(&q, &[e.clone(), e.clone()], "all-ties-path");
    // Degenerate shard counts on the same fixture: more shards than
    // distinct pivot rows must still merge to the identical bytes.
    for shards in [5usize, 16] {
        let sharded =
            ShardedEngine::try_from_query_bindings(&q, vec![e.clone(), e.clone()], shards)
                .expect("sharded build");
        let merged: Vec<RankedAnswer> = (sharded
            .prepare(&q, RankSpec::Sum)
            .expect("prepare")
            .stream())
        .collect();
        let want = brute_force_ranked(&q, &[e.clone(), e.clone()], RankSpec::Sum);
        assert_exact_oracle_order(&merged, &want, &format!("all-ties-path × {shards} shards"));
    }
}

#[test]
fn a_partition_of_a_delta_bearing_catalog_answers_what_the_engine_does() {
    // The pivot (the largest relation, R1) has a pending delta batch:
    // its fragments must be cut from base ⊎ deltas, like its replica,
    // or the batch's answers go missing from every shard.
    let q = path_query(2);
    let rels = vec![edge_rel(&fixture_edges()), edge_rel(&fixture_edges()[..10])];
    let batch = edge_rel(&[(5, 1, 0.5), (6, 2, 0.25)]);
    let engine = Engine::from_query_bindings(&q, rels.clone());
    engine.append("R1", batch.clone()).expect("append");
    let catalog = (*engine.catalog()).clone();
    assert!(catalog.entry("R1").is_some_and(|e| e.has_deltas()));
    let combined = [Relation::concat(&[rels[0].clone(), batch]), rels[1].clone()];
    for rank in RankSpec::ALL {
        let want = brute_force_ranked(&q, &combined, rank);
        let served: Vec<RankedAnswer> = (engine.prepare(q.clone(), rank).expect("prepare"))
            .stream()
            .collect();
        assert_exact_oracle_order(&served, &want, &format!("engine × {rank}"));
        for shards in [1usize, 2, 3] {
            let sharded = ShardedEngine::new(catalog.clone(), shards).expect("sharded build");
            let merged: Vec<RankedAnswer> = (sharded.prepare(&q, rank).expect("prepare"))
                .stream()
                .canonical_ties()
                .collect();
            assert_eq!(merged, served, "{rank} × {shards} shard(s)");
        }
    }
}
