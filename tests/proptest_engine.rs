//! Property tests for the planner-routed `Engine`.
//!
//! Acyclic: on random instances the engine must produce exactly the
//! stream the `BatchSorted` oracle produces — same cost sequence, same
//! answer multiset — for every runtime ranking defined there.
//!
//! Cyclic: on random triangle and 4-cycle instances, prepared-then-
//! stream == ad-hoc plan == the brute-force nested-loop oracle
//! (`tests/common/oracle.rs`), and random interleaved multi-cursor
//! pulls agree with a single cursor.
//!
//! Instance generation lives in `tests/common/gen.rs` (shared with the
//! oracle and concurrency suites); case counts rise via
//! `ANYK_PROPTEST_CASES` in CI.

mod common;

use anyk::core::{BatchSorted, LexCost, MaxCost, RankingFunction, SumCost};
use anyk::prelude::*;
use anyk::query::cq::ConjunctiveQuery;
use common::gen::{arb_relation, cases_from_env, shaped_acyclic_query};
use common::oracle::{assert_matches_oracle, brute_force_ranked, check_prepared_adhoc_oracle};
use proptest::prelude::*;

fn oracle<R: RankingFunction>(
    q: &ConjunctiveQuery,
    rels: Vec<Relation>,
) -> Vec<(R::Cost, Vec<i64>)> {
    let tree = match gyo_reduce(q) {
        GyoResult::Acyclic(t) => t,
        _ => panic!("acyclic expected"),
    };
    BatchSorted::<R>::new(q, &tree, rels)
        .map(|a| (a.cost, a.values.iter().map(|v| v.int()).collect()))
        .collect()
}

fn check_scalar_rank(q: &ConjunctiveQuery, rels: Vec<Relation>, rank: RankSpec) {
    let want: Vec<(Weight, Vec<i64>)> = match rank {
        RankSpec::Sum => oracle::<SumCost>(q, rels.clone()),
        RankSpec::Max => oracle::<MaxCost>(q, rels.clone()),
        _ => unreachable!("test covers Sum and Max"),
    };
    let engine = Engine::from_query_bindings(q, rels);
    let got: Vec<(f64, Vec<i64>)> = engine
        .query(q.clone())
        .rank_by(rank)
        .plan()
        .expect("acyclic plan")
        .map(|a| (a.cost.scalar().expect("scalar"), a.ints()))
        .collect();
    assert_eq!(got.len(), want.len(), "{rank}: cardinality");
    for (i, ((gc, _), (wc, _))) in got.iter().zip(&want).enumerate() {
        assert_eq!(*gc, wc.get(), "{rank}: cost at rank {i}");
    }
    let mut gv: Vec<_> = got.into_iter().map(|g| g.1).collect();
    let mut wv: Vec<_> = want.into_iter().map(|w| w.1).collect();
    gv.sort();
    wv.sort();
    assert_eq!(gv, wv, "{rank}: multiset");
}

fn check_lex(q: &ConjunctiveQuery, rels: Vec<Relation>) {
    let want = oracle::<LexCost>(q, rels.clone());
    let engine = Engine::from_query_bindings(q, rels);
    let got: Vec<(Vec<Weight>, Vec<i64>)> = engine
        .query(q.clone())
        .rank_by(RankSpec::Lex)
        .plan()
        .expect("acyclic plan")
        .map(|a| (a.cost.lex().expect("lex").to_vec(), a.ints()))
        .collect();
    assert_eq!(got.len(), want.len(), "lex: cardinality");
    for (i, ((gc, _), (wc, _))) in got.iter().zip(&want).enumerate() {
        assert_eq!(gc, wc.as_slice(), "lex: cost at rank {i}");
    }
    let mut gv: Vec<_> = got.into_iter().map(|g| g.1).collect();
    let mut wv: Vec<_> = want.into_iter().map(|w| w.1).collect();
    gv.sort();
    wv.sort();
    assert_eq!(gv, wv, "lex: multiset");
}

/// The acyclic shapes the write-path interleavings run on: 2-, 3- and
/// 4-paths, a 3-star, a two-atom self-join and a 3-path whose first two
/// atoms read one relation.
fn append_shape(shape: usize) -> ConjunctiveQuery {
    match shape {
        0..=2 => path_query(shape + 2),
        3 => star_query(3),
        4 => QueryBuilder::new()
            .atom("R1", &["x", "y"])
            .atom("R1", &["y", "z"])
            .build(),
        _ => QueryBuilder::new()
            .atom("R1", &["a", "b"])
            .atom("R1", &["b", "c"])
            .atom("R2", &["c", "d"])
            .build(),
    }
}

/// `rel`'s rows weighed in quarters (`dyadic`, exact under every
/// ranking) or in tenths (which `+` and `×` round), with its first row
/// repeated — values and weight — at the end.
fn reweighted(rel: &Relation, dyadic: bool) -> Relation {
    let mut b = RelationBuilder::new(rel.schema().clone());
    let ids = (0..rel.len() as u32).chain([0]);
    for id in ids {
        let quarters = rel.weight(id).get() * 4.0;
        let w = if dyadic {
            quarters / 4.0
        } else {
            quarters / 10.0
        };
        b.push(rel.row(id), Weight::new(w));
    }
    b.finish()
}

proptest! {
    #![proptest_config(cases_from_env(24))]

    /// Engine == BatchSorted on random 2-paths, for runtime Sum/Max/Lex.
    #[test]
    fn path2_engine_matches_batch(
        r1 in arb_relation(20, 5),
        r2 in arb_relation(20, 5),
    ) {
        let q = path_query(2);
        let rels = vec![r1, r2];
        check_scalar_rank(&q, rels.clone(), RankSpec::Sum);
        check_scalar_rank(&q, rels.clone(), RankSpec::Max);
        check_lex(&q, rels);
    }

    /// Engine == BatchSorted on random 3-paths.
    #[test]
    fn path3_engine_matches_batch(
        r1 in arb_relation(12, 4),
        r2 in arb_relation(12, 4),
        r3 in arb_relation(12, 4),
    ) {
        let q = path_query(3);
        let rels = vec![r1, r2, r3];
        check_scalar_rank(&q, rels.clone(), RankSpec::Sum);
        check_lex(&q, rels);
    }

    /// Engine == BatchSorted on random 3-stars.
    #[test]
    fn star3_engine_matches_batch(
        r1 in arb_relation(10, 4),
        r2 in arb_relation(10, 4),
        r3 in arb_relation(10, 4),
    ) {
        let q = star_query(3);
        let rels = vec![r1, r2, r3];
        check_scalar_rank(&q, rels.clone(), RankSpec::Sum);
        check_scalar_rank(&q, rels, RankSpec::Max);
    }

    /// Self-join: one relation at every atom of a 3-path.
    #[test]
    fn self_join_engine_matches_batch(r in arb_relation(15, 4)) {
        let q = path_query(3);
        let rels = vec![r.clone(), r.clone(), r];
        check_scalar_rank(&q, rels, RankSpec::Sum);
    }

    /// Prepare-once/stream-many equals ad-hoc `plan()` on random
    /// acyclic queries (random shape, size, and data), for every
    /// ranking defined there — and repeated streams of one prepared
    /// query are identical.
    #[test]
    fn prepared_then_stream_equals_adhoc_plan(
        star in 0usize..2,
        n in 2usize..4,
        rels in prop::collection::vec(arb_relation(12, 4), 3),
    ) {
        let q = shaped_acyclic_query(star, n);
        let rels = rels[..n].to_vec();
        for rank in [RankSpec::Sum, RankSpec::Max, RankSpec::Lex] {
            // Separate engines so the ad-hoc run cannot share the
            // prepared engine's cache — the equality is end-to-end.
            let adhoc_engine = Engine::from_query_bindings(&q, rels.clone());
            let adhoc: Vec<_> = adhoc_engine
                .query(q.clone())
                .rank_by(rank)
                .plan()
                .expect("acyclic plan")
                .collect();
            let serve_engine = Engine::from_query_bindings(&q, rels.clone());
            let prepared = serve_engine
                .prepare(q.clone(), rank)
                .expect("acyclic prepare");
            let s1: Vec<_> = prepared.stream().collect();
            let s2: Vec<_> = prepared.stream().collect();
            assert_eq!(s1, adhoc, "{rank}: prepared stream == ad-hoc plan");
            assert_eq!(s2, adhoc, "{rank}: second stream replays identically");
        }
    }

    /// Random triangle instances: prepared-then-stream == ad-hoc plan
    /// == brute-force oracle order, under Sum and Max.
    #[test]
    fn triangle_engine_matches_oracle(
        r1 in arb_relation(12, 5),
        r2 in arb_relation(12, 5),
        r3 in arb_relation(12, 5),
    ) {
        let q = triangle_query();
        let rels = vec![r1, r2, r3];
        for rank in [RankSpec::Sum, RankSpec::Max] {
            check_prepared_adhoc_oracle(&q, &rels, rank);
        }
    }

    /// Random 4-cycle instances (self-join flavored, like the paper's
    /// "k lightest 4-cycles"): the union-of-trees route must equal the
    /// oracle, prepared or ad-hoc, under Sum and Max.
    #[test]
    fn c4_engine_matches_oracle(e in arb_relation(14, 4)) {
        let q = cycle_query(4);
        let rels = vec![e.clone(), e.clone(), e.clone(), e];
        for rank in [RankSpec::Sum, RankSpec::Max] {
            check_prepared_adhoc_oracle(&q, &rels, rank);
        }
    }

    /// Random 5-, 6- and 7-cycle instances over a relation per atom,
    /// rows repeating values freely (nine rows over a 3 × 3 domain):
    /// the cycle route must equal the bag-semantics oracle, prepared
    /// or ad-hoc, under Sum and Max, whichever values come out heavy.
    #[test]
    fn longer_cycle_engine_matches_oracle(
        l in 5usize..=7,
        pool in prop::collection::vec(arb_relation(9, 3), 7),
    ) {
        let q = cycle_query(l);
        let rels = pool[..l].to_vec();
        for rank in [RankSpec::Sum, RankSpec::Max] {
            check_prepared_adhoc_oracle(&q, &rels, rank);
        }
    }

    /// Random append/prepare/stream interleavings on one shared
    /// acyclic engine, under all five rankings, over 2-, 3- and 4-paths,
    /// a 3-star and two self-joins, with appends to random atoms. After
    /// every appended batch: (a) a stream opened *before* the append
    /// drains the pre-append snapshot byte for byte, (b) the plan the
    /// writer refreshed is a cache hit carrying the delta union and
    /// streams exactly the bytes of a fresh engine over the flattened
    /// catalog, canonical ties included, (c) the ad-hoc plan streams
    /// the same bytes, and (d) compacting everything at the end changes
    /// nothing but the delta count. Every relation carries an exact
    /// duplicate row. Half the cases weigh rows in tenths wherever the
    /// engine's costs are exact in any combining order — Max, Min and
    /// Lex, and Sum and Prod over two atoms — so a term whose costs
    /// combine in another order than a fresh plan's drifts by an ULP
    /// and fails (b); the dyadic half is held to the brute-force oracle
    /// as well. (Sum and Prod over three atoms or more are weighed in
    /// quarters: PART combines an answer's cost around the slot it
    /// deviated at, and which slot that is depends on the rest of the
    /// term, so rounding weights differ by an ULP between a delta term
    /// and a fresh plan whatever tree either is built on.) Batch
    /// domains exceed the base domain so appends introduce brand-new
    /// join partners.
    #[test]
    fn append_interleavings_preserve_snapshots_and_refresh_plans(
        shape in 0usize..6,
        dyadic in 0usize..2,
        base in prop::collection::vec(arb_relation(10, 4), 4),
        schedule in prop::collection::vec((0usize..4, arb_relation(4, 6)), 1..4),
    ) {
        let q = append_shape(shape);
        // One relation per name, so a self-join's atoms share it.
        let mut names: Vec<String> = Vec::new();
        for atom in q.atoms() {
            if !names.contains(&atom.relation) {
                names.push(atom.relation.clone());
            }
        }
        let per_atom = |combined: &[Relation]| -> Vec<Relation> {
            (q.atoms().iter())
                .map(|a| combined[names.iter().position(|n| *n == a.relation).unwrap()].clone())
                .collect()
        };
        for rank in [RankSpec::Sum, RankSpec::Max, RankSpec::Min, RankSpec::Prod, RankSpec::Lex] {
            let exact = !matches!(rank, RankSpec::Sum | RankSpec::Prod) || q.num_atoms() == 2;
            let dyadic = dyadic == 1 || !exact;
            let weigh = |rel: &Relation| reweighted(rel, dyadic);
            let mut combined: Vec<Relation> = base[..names.len()].iter().map(weigh).collect();
            let engine = Engine::from_query_bindings(&q, per_atom(&combined));
            for (atom, batch) in &schedule {
                let name = &q.atom(atom % q.num_atoms()).relation;
                let batch = weigh(batch);
                let pre = engine.prepare(q.clone(), rank).expect("pre-append prepare");
                let before: Vec<RankedAnswer> = pre.stream().collect();
                let mut open = pre.stream();
                let first = open.next();

                engine.append(name, batch.clone()).expect("append");
                let at = names.iter().position(|n| n == name).unwrap();
                combined[at] = Relation::concat(&[combined[at].clone(), batch]);

                // (a) The open stream never sees the append: it finishes
                // the snapshot it started on.
                let snapshot: Vec<RankedAnswer> = first.into_iter().chain(open).collect();
                prop_assert_eq!(&snapshot, &before, "{}: mid-append open stream", rank);

                // (b) The refreshed plan serves base ⊎ deltas, bit for bit.
                let want: Vec<RankedAnswer> = (Engine::new(engine.catalog().flattened()))
                    .prepare(q.clone(), rank)
                    .expect("flattened prepare")
                    .stream()
                    .canonical_ties()
                    .collect();
                let (fresh, report) = (engine.query(q.clone()).rank_by(rank))
                    .prepare_report()
                    .expect("post-append prepare");
                prop_assert!(report.cache_hit, "{}: the writer refreshed the plan", rank);
                prop_assert!(
                    fresh.plan().deltas >= 1,
                    "post-append plan must carry delta terms"
                );
                let got: Vec<RankedAnswer> = fresh.stream().collect();
                prop_assert_eq!(&got, &want, "{} on {}: refreshed plan", rank, q);
                if dyadic {
                    let oracle = brute_force_ranked(&q, &per_atom(&combined), rank);
                    assert_matches_oracle(&got, &oracle, "post-append prepared stream");
                }

                // (c) The ad-hoc path reads the same catalog.
                let adhoc: Vec<RankedAnswer> = (engine.query(q.clone()).rank_by(rank))
                    .plan()
                    .expect("post-append ad-hoc plan")
                    .collect();
                prop_assert_eq!(&adhoc, &want, "{}: post-append ad-hoc plan", rank);
            }

            // (d) Compaction folds every delta away; answers stay put.
            for name in &names {
                engine.compact(name).expect("compact");
            }
            let fresh = engine.prepare(q.clone(), rank).expect("post-compact prepare");
            prop_assert_eq!(fresh.plan().deltas, 0, "compaction clears delta terms");
            let got: Vec<RankedAnswer> = fresh.stream().canonical_ties().collect();
            let want: Vec<RankedAnswer> = Engine::from_query_bindings(&q, per_atom(&combined))
                .prepare(q.clone(), rank)
                .expect("reference prepare")
                .stream()
                .canonical_ties()
                .collect();
            prop_assert_eq!(&got, &want, "{}: post-compact prepared stream", rank);
        }
    }

    /// Random append schedules on a cyclic (triangle) engine: the
    /// delta-union route must keep matching the brute-force oracle
    /// under Sum and Max after every batch.
    #[test]
    fn triangle_append_schedules_match_oracle(
        base in prop::collection::vec(arb_relation(10, 4), 3),
        schedule in prop::collection::vec((0usize..3, arb_relation(3, 5)), 1..3),
    ) {
        let q = triangle_query();
        let engine = Engine::from_query_bindings(&q, base.clone());
        let mut combined = base;
        for (atom, batch) in &schedule {
            engine
                .append(&q.atom(*atom).relation, batch.clone())
                .expect("append");
            combined[*atom] =
                Relation::concat(&[combined[*atom].clone(), batch.clone()]);
            for rank in [RankSpec::Sum, RankSpec::Max] {
                let want = brute_force_ranked(&q, &combined, rank);
                let got: Vec<RankedAnswer> = engine
                    .prepare(q.clone(), rank)
                    .expect("cyclic prepare")
                    .stream()
                    .collect();
                assert_matches_oracle(&got, &want, "triangle post-append");
            }
        }
    }

    /// Random interleaved pulls over several cursors of one prepared
    /// cyclic query agree with a single cursor — including the
    /// triangle's lazy-heap first stream being interleaved with the
    /// upgrade its sibling spawns trigger.
    #[test]
    fn interleaved_cursors_agree_with_single_cursor(
        e in arb_relation(12, 5),
        picks in prop::collection::vec(0usize..3, 1..=60),
    ) {
        for (label, q, m) in [
            ("triangle", triangle_query(), 3usize),
            ("c4", cycle_query(4), 4),
        ] {
            let rels: Vec<Relation> = (0..m).map(|_| e.clone()).collect();
            let engine = Engine::from_query_bindings(&q, rels);
            let prepared = engine.prepare(q.clone(), RankSpec::Sum).expect("prepare");
            // Spawn the interleaved cursors *first* so the triangle
            // route's first cursor is the lazy heap.
            let mut cursors: Vec<_> = (0..3).map(|_| prepared.stream()).collect();
            let expected: Vec<RankedAnswer> = prepared.stream().collect();
            let mut got: Vec<Vec<RankedAnswer>> = vec![Vec::new(); 3];
            for &p in &picks {
                if let Some(a) = cursors[p].next() {
                    got[p].push(a);
                }
            }
            for (i, g) in got.iter().enumerate() {
                assert_eq!(
                    g.as_slice(),
                    &expected[..g.len()],
                    "{label}: cursor {i} prefix"
                );
            }
        }
    }
}
