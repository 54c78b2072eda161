//! E15 — prepared queries over shared storage: the serving-side payoff
//! of the paper's TTF-vs-TT(k) decomposition.
//!
//! Six claims measured:
//!
//! 1. **Prepared re-execution skips preprocessing** — a cold
//!    `plan()` pays the full reducer + T-DP on every call; a
//!    `PreparedQuery::stream()` pays only the per-answer delay side.
//!    TTF of a prepared re-execution must be orders of magnitude (≥
//!    10×) below a cold plan on a ≥100k-row acyclic query.
//! 2. **Prepared REC streams are serving-grade too** — `AnyKRec` used
//!    to allocate O(n) stream shells at spawn; lazy allocation makes a
//!    prepared REC stream's TTF proportional to the answers pulled.
//!    Asserted: prepared REC TTF ≥ 5× below a cold REC plan.
//! 3. **The triangle route's first stream skips the sort** — the
//!    prepared artifact defers its O(r log r) sort; the first stream
//!    is a lazy index-heap (O(r) build), the second spawn installs the
//!    shared sorted artifact. Asserted: first-stream TTF beats the
//!    sort-then-stream baseline at full scale.
//! 4. **The plan cache amortizes ad-hoc callers automatically** — the
//!    second `plan()` on the same engine hits the cache and behaves
//!    like a prepared stream.
//! 5. **Concurrent serving scales** — N threads pulling full top-k
//!    streams from one shared `Engine`/`PreparedQuery` multiply
//!    throughput (enumeration is embarrassingly parallel over the
//!    shared immutable prepared state).
//! 6. **Spawn is independent of n** — successor orders live in the
//!    shared T-DP state, so a warm `stream()` + drop costs the same at
//!    `n` and at `8n`. Asserted at every scale: median ratio < 1.5 on
//!    path-3 sum, path-3 lex and 4-cycle sum.

use crate::util::{banner, fmt_secs, median_mad, time, write_bench_json, Json, Table};
use anyk_core::cyclic::{wco_ranked_materialize, SortedAnswers};
use anyk_core::SumCost;
use anyk_engine::{AnyKVariant, Engine, PreparedQuery, RankSpec};
use anyk_query::cq::ConjunctiveQuery;
use anyk_storage::Relation;
use anyk_workloads::graphs::WeightDist;
use anyk_workloads::patterns::{cycle_instance, path_instance};
use std::thread;

pub fn run(scale: f64) {
    banner(
        "E15: prepared queries — cold plan vs prepared re-execution, concurrent serving",
        "preprocessing once, per-answer delay many times (§1's TTF/TT(k) split as an API)",
    );
    let edges = (100_000.0 * scale).max(2_000.0) as usize;
    let nodes = (edges / 10).max(10) as u64;
    let k = 1_000usize;
    let reps = 5;
    let inst = path_instance(3, edges, nodes, WeightDist::Uniform, 41);
    let q = inst.query.clone();
    let n_total: usize = inst.relations.iter().map(|r| r.len()).sum();

    // Cold: a fresh engine per repetition so the plan cache cannot
    // help; TTF = plan (preprocessing) + first answer.
    let mut cold_ttf = f64::INFINITY;
    for _ in 0..reps {
        let engine = Engine::from_query_bindings(&q, inst.relations_clone());
        let (first, t) = time(|| {
            engine
                .query(q.clone())
                .rank_by(RankSpec::Sum)
                .plan()
                .expect("plannable")
                .next()
        });
        assert!(first.is_some(), "instance must have answers");
        cold_ttf = cold_ttf.min(t);
    }

    // Prepared: route + preprocess once, then re-execute.
    let engine = Engine::from_query_bindings(&q, inst.relations_clone());
    let (prepared, prep_time) =
        time(|| engine.prepare(q.clone(), RankSpec::Sum).expect("plannable"));
    let mut prep_ttf = f64::INFINITY;
    for _ in 0..reps {
        let (first, t) = time(|| prepared.stream().next());
        assert!(first.is_some());
        prep_ttf = prep_ttf.min(t);
    }

    // Cached ad-hoc: same engine, `plan()` again — hits the cache.
    let mut cached_ttf = f64::INFINITY;
    for _ in 0..reps {
        let (first, t) = time(|| {
            engine
                .query(q.clone())
                .rank_by(RankSpec::Sum)
                .plan()
                .expect("plannable")
                .next()
        });
        assert!(first.is_some());
        cached_ttf = cached_ttf.min(t);
    }

    let mut t = Table::new([
        "n (rows)",
        "cold plan() TTF",
        "prepare (once)",
        "prepared TTF",
        "cached plan() TTF",
        "cold/prepared",
    ]);
    t.row([
        n_total.to_string(),
        fmt_secs(cold_ttf),
        fmt_secs(prep_time),
        fmt_secs(prep_ttf),
        fmt_secs(cached_ttf),
        format!("{:.0}x", cold_ttf / prep_ttf.max(1e-12)),
    ]);
    t.print();
    let speedup = cold_ttf / prep_ttf.max(1e-12);
    // The >= 10x bound is the acceptance criterion at full scale
    // (>= 100k rows). At smoke scales the prepared TTF sits in the
    // microsecond range where timer noise on shared CI runners
    // dominates, so there it is reported rather than asserted.
    if scale >= 1.0 {
        assert!(
            speedup >= 10.0,
            "prepared re-execution TTF must be >= 10x faster than a cold plan \
             (got {speedup:.1}x: cold {cold_ttf:.6}s vs prepared {prep_ttf:.9}s)"
        );
    } else if speedup < 10.0 {
        println!("NOTE: speedup below the 10x full-scale bound at this smoke scale ({scale})");
    }
    println!(
        "prepared re-execution reaches the first answer {speedup:.0}x faster than a cold \
         plan() (acceptance: >= 10x at scale >= 1)"
    );

    // --- REC TTF: cold plan vs prepared stream. ---
    // AnyKRec allocates stream shells lazily on first touch, so a
    // prepared REC stream's spawn cost is O(answers pulled) — this is
    // the bound the ≥5x assertion pins against regression.
    let rec_engine = Engine::from_query_bindings(&q, inst.relations_clone());
    let prepared_rec = rec_engine
        .query(q.clone())
        .rank_by(RankSpec::Sum)
        .with_variant(AnyKVariant::Rec)
        .prepare()
        .expect("plannable");
    let mut rec_prep_ttf = f64::INFINITY;
    for _ in 0..reps {
        let (first, t) = time(|| prepared_rec.stream().next());
        assert!(first.is_some());
        rec_prep_ttf = rec_prep_ttf.min(t);
    }
    let mut rec_cold_ttf = f64::INFINITY;
    for _ in 0..reps {
        let engine = Engine::from_query_bindings(&q, inst.relations_clone());
        let (first, t) = time(|| {
            engine
                .query(q.clone())
                .rank_by(RankSpec::Sum)
                .with_variant(AnyKVariant::Rec)
                .plan()
                .expect("plannable")
                .next()
        });
        assert!(first.is_some());
        rec_cold_ttf = rec_cold_ttf.min(t);
    }
    let rec_speedup = rec_cold_ttf / rec_prep_ttf.max(1e-12);
    let mut t = Table::new([
        "variant",
        "cold plan() TTF",
        "prepared TTF",
        "cold/prepared",
    ]);
    t.row([
        "PART(Eager)".to_string(),
        fmt_secs(cold_ttf),
        fmt_secs(prep_ttf),
        format!("{:.0}x", cold_ttf / prep_ttf.max(1e-12)),
    ]);
    t.row([
        "REC".to_string(),
        fmt_secs(rec_cold_ttf),
        fmt_secs(rec_prep_ttf),
        format!("{rec_speedup:.0}x"),
    ]);
    t.print();
    // The CI smoke run executes this at scale 0.1: the bound holds
    // there too (lazy spawn is microseconds against a multi-ms cold
    // T-DP), so a regression to O(n) spawn fails the smoke run.
    if scale >= 0.1 {
        assert!(
            rec_speedup >= 5.0,
            "prepared REC stream TTF must be >= 5x faster than a cold REC plan \
             (got {rec_speedup:.1}x: cold {rec_cold_ttf:.6}s vs prepared {rec_prep_ttf:.9}s)"
        );
    } else if rec_speedup < 5.0 {
        println!("NOTE: REC speedup below the 5x bound at this smoke scale ({scale})");
    }
    println!(
        "prepared REC stream reaches the first answer {rec_speedup:.0}x faster than a cold \
         REC plan (acceptance: >= 5x at scale >= 0.1)"
    );

    // --- Triangle route: lazy-heap first stream vs the full sort. ---
    let t_edges = (30_000.0 * scale).max(1_500.0) as usize;
    let t_nodes = (t_edges / 40).max(8) as u64;
    let (tq, trels) = cycle_instance(3, t_edges, t_nodes, WeightDist::Uniform, None, 97);
    let tri_engine = Engine::from_query_bindings(&tq, trels.clone());
    let (tri_prepared, tri_prep_time) = time(|| {
        tri_engine
            .prepare(tq.clone(), RankSpec::Sum)
            .expect("plannable")
    });
    assert_eq!(
        tri_prepared.sort_deferred(),
        Some(true),
        "triangle prepare must materialize without sorting"
    );
    let k_tri = 10usize;
    let (top1, tri_first_ttf) = time(|| tri_prepared.stream().top_k(k_tri));
    assert!(!top1.is_empty(), "triangle instance must have answers");
    assert_eq!(
        tri_prepared.sort_deferred(),
        Some(true),
        "a one-shot top-k must never pay the O(r log r) sort"
    );
    let (top2, tri_second_ttf) = time(|| tri_prepared.stream().top_k(k_tri)); // pays the sort
    assert_eq!(
        tri_prepared.sort_deferred(),
        Some(false),
        "the second stream installs the shared sorted artifact"
    );
    let (top3, tri_cursor_ttf) = time(|| tri_prepared.stream().top_k(k_tri)); // zero-copy cursor
    assert_eq!(top1, top2, "lazy heap and sorted cursor agree");
    assert_eq!(top2, top3);
    // Baseline: what the old prepare paid — sort everything, then
    // stream (same materialized items, so the comparison is pure
    // heapify-vs-sort).
    let items = wco_ranked_materialize::<SumCost>(&tq, &trels);
    let r = items.len();
    let (_, sort_ttf) = time(move || {
        let sorted = SortedAnswers::new(items).expect("far below 2^32 triangles");
        sorted.stream().next().is_some()
    });
    let mut t = Table::new([
        "r (triangles)",
        "materialize (prepare)",
        "1st stream top-10 (lazy heap)",
        "2nd stream (sort+cursor)",
        "3rd stream (cursor)",
        "sort-then-stream baseline",
    ]);
    t.row([
        r.to_string(),
        fmt_secs(tri_prep_time),
        fmt_secs(tri_first_ttf),
        fmt_secs(tri_second_ttf),
        fmt_secs(tri_cursor_ttf),
        fmt_secs(sort_ttf),
    ]);
    t.print();
    if scale >= 1.0 {
        assert!(
            tri_first_ttf < sort_ttf,
            "the lazy-heap first stream must beat sort-then-stream \
             (got {tri_first_ttf:.6}s vs {sort_ttf:.6}s over r = {r})"
        );
    } else if tri_first_ttf >= sort_ttf {
        println!("NOTE: lazy heap below sort baseline only expected at scale >= 1 ({scale})");
    }
    println!(
        "triangle one-shot top-{k_tri} first-stream TTF {} vs sort-then-stream {} over \
         r = {r} answers (the deferred-sort state machine is asserted at every scale)",
        fmt_secs(tri_first_ttf),
        fmt_secs(sort_ttf)
    );

    // Concurrent serving: T threads, each pulling a full top-k stream
    // from the one shared prepared query. One untimed pull first: it
    // builds the successor orders the top-k touches, which would
    // otherwise all land on the 1-thread row and inflate the scaling.
    assert_eq!(prepared.stream().top_k(k).len(), k);
    let mut t = Table::new([
        "threads",
        "answers",
        "wall",
        "answers/s",
        "scaling vs 1 thread",
    ]);
    let mut base_rate = 0.0f64;
    let mut scaling_rows = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let (total, wall) = time(|| {
            thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let p = prepared.clone();
                        s.spawn(move || p.stream().top_k(k).len())
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker"))
                    .sum::<usize>()
            })
        });
        let rate = total as f64 / wall.max(1e-12);
        if threads == 1 {
            base_rate = rate;
        }
        t.row([
            threads.to_string(),
            total.to_string(),
            fmt_secs(wall),
            format!("{rate:.0}"),
            format!("{:.2}x", rate / base_rate.max(1e-12)),
        ]);
        scaling_rows.push(Json::obj([
            ("threads", Json::Int(threads as u64)),
            ("answers", Json::Int(total as u64)),
            ("wall_s", Json::Num(wall)),
            ("answers_per_s", Json::Num(rate)),
            ("scaling_vs_1", Json::Num(rate / base_rate.max(1e-12))),
        ]));
    }
    t.print();
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "expected shape: prepared TTF pays only stream seeding (one candidate), \
         cold TTF pays full preprocessing; throughput scales with cores ({cores} \
         available here) since streams share immutable prepared state without locks"
    );

    // --- Spawn is independent of n. ---
    let small = (20_000.0 * scale).max(1_000.0) as usize;
    let path = |edges: usize| {
        let inst = path_instance(3, edges, edges as u64 / 10, WeightDist::Uniform, 43);
        (inst.query.clone(), inst.relations_clone())
    };
    let cycle =
        |edges: usize| cycle_instance(4, edges, edges as u64 / 10, WeightDist::Uniform, None, 47);
    type Instance<'a> = &'a dyn Fn(usize) -> (ConjunctiveQuery, Vec<Relation>);
    let shapes: [(&str, RankSpec, Instance); 3] = [
        ("path-3 sum", RankSpec::Sum, &path),
        ("path-3 lex", RankSpec::Lex, &path),
        ("4-cycle sum", RankSpec::Sum, &cycle),
    ];
    let mut t = Table::new([
        "query",
        "n",
        "spawn median",
        "MAD",
        "8n",
        "spawn median",
        "MAD",
        "ratio",
    ]);
    let mut spawn_rows = Vec::new();
    let ns = |secs: f64| format!("{:.0}ns", secs * 1e9);
    for (label, rank, instance) in shapes {
        let [at_n, at_8n] = [small, 8 * small].map(|edges| {
            let (q, rels) = instance(edges);
            let engine = Engine::from_query_bindings(&q, rels);
            spawn_cost(&engine.prepare(q, rank).expect("plannable"))
        });
        let ratio = at_8n.0 / at_n.0.max(1e-12);
        t.row([
            label.to_string(),
            small.to_string(),
            ns(at_n.0),
            ns(at_n.1),
            (8 * small).to_string(),
            ns(at_8n.0),
            ns(at_8n.1),
            format!("{ratio:.2}"),
        ]);
        assert!(
            ratio < 1.5,
            "{label}: a warm stream() must cost the same at n = {small} and 8n \
             (medians {:.0} ns vs {:.0} ns, ratio {ratio:.2})",
            at_n.0 * 1e9,
            at_8n.0 * 1e9
        );
        spawn_rows.push(Json::obj([
            ("query", Json::Str(label.to_string())),
            ("n_edges", Json::Int(small as u64)),
            ("repeats", Json::Int(SPAWN_REPEATS as u64)),
            ("spawn_median_s", Json::Num(at_n.0)),
            ("spawn_mad_s", Json::Num(at_n.1)),
            ("spawn_8n_median_s", Json::Num(at_8n.0)),
            ("spawn_8n_mad_s", Json::Num(at_8n.1)),
            ("ratio_8n_over_n", Json::Num(ratio)),
        ]));
    }
    t.print();
    println!(
        "a warm stream() + drop costs the same at n and 8n edges per relation \
         (acceptance: median ratio < 1.5 at every scale)"
    );

    let doc = Json::obj([
        ("experiment", Json::Str("E15".to_string())),
        ("scale", Json::Num(scale)),
        ("n_rows", Json::Int(n_total as u64)),
        ("k", Json::Int(k as u64)),
        (
            "acyclic",
            Json::obj([
                ("cold_ttf_s", Json::Num(cold_ttf)),
                ("prepare_once_s", Json::Num(prep_time)),
                ("prepared_ttf_s", Json::Num(prep_ttf)),
                ("cached_plan_ttf_s", Json::Num(cached_ttf)),
                ("cold_over_prepared", Json::Num(speedup)),
            ]),
        ),
        (
            "rec",
            Json::obj([
                ("cold_ttf_s", Json::Num(rec_cold_ttf)),
                ("prepared_ttf_s", Json::Num(rec_prep_ttf)),
                ("cold_over_prepared", Json::Num(rec_speedup)),
            ]),
        ),
        (
            "triangle_deferred_sort",
            Json::obj([
                ("answers_materialized", Json::Int(r as u64)),
                ("materialize_s", Json::Num(tri_prep_time)),
                ("first_stream_topk_s", Json::Num(tri_first_ttf)),
                ("second_stream_sort_s", Json::Num(tri_second_ttf)),
                ("third_stream_cursor_s", Json::Num(tri_cursor_ttf)),
                ("sort_then_stream_baseline_s", Json::Num(sort_ttf)),
            ]),
        ),
        ("concurrency", Json::Arr(scaling_rows)),
        ("spawn_independent_of_n", Json::Arr(spawn_rows)),
        ("cores", Json::Int(cores as u64)),
    ]);
    write_bench_json("BENCH_E15.json", &doc).expect("write BENCH_E15.json");
}

/// Timed repeats per spawn-cost figure.
const SPAWN_REPEATS: usize = 21;

/// Median and MAD, in seconds, of one warm `stream()` + drop on
/// `prepared`: [`SPAWN_REPEATS`] repeats, each the mean of a batch of
/// spawns (one spawn is below the clock's resolution).
fn spawn_cost(prepared: &PreparedQuery) -> (f64, f64) {
    const BATCH: usize = 256;
    // Warm: the first stream's first answers build the orders they touch.
    assert!(!prepared.stream().top_k(10).is_empty(), "no answers");
    let mut samples: Vec<f64> = (0..SPAWN_REPEATS)
        .map(|_| {
            let ((), t) = time(|| {
                for _ in 0..BATCH {
                    drop(std::hint::black_box(prepared.stream()));
                }
            });
            t / BATCH as f64
        })
        .collect();
    median_mad(&mut samples)
}
