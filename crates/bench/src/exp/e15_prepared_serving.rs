//! E15 — prepared queries over shared storage: the serving-side payoff
//! of the paper's TTF-vs-TT(k) decomposition.
//!
//! Three claims asserted:
//!
//! 1. **Prepared re-execution skips preprocessing** — a cold
//!    `plan()` pays the full reducer + T-DP on every call; a
//!    `PreparedQuery::stream()` pays only the per-answer delay side.
//!    TTF of a prepared re-execution must be orders of magnitude (≥
//!    10×) below a cold plan on a ≥100k-row acyclic query.
//! 2. **Prepared REC streams are serving-grade too** — `AnyKRec`
//!    allocates its stream shells lazily, so a prepared REC stream's
//!    TTF is proportional to the answers pulled. Asserted: prepared
//!    REC TTF ≥ 5× below a cold REC plan.
//! 3. **Spawn is independent of n** — successor orders live in the
//!    shared T-DP state, so a warm `stream()` + drop costs the same at
//!    `n` and at `8n`. Asserted at every scale: median ratio < 1.5 on
//!    path-3 sum, path-3 lex and 4-cycle sum.
//!
//! The warm-hit, triangle and concurrent-serving timings live in
//! `anykbench` (`engine.prepare_hit_us`, `cold_cyclic`, `serve_pages`);
//! the deferred-sort state machine is pinned by `tests/lazy_spawn.rs`.

use crate::util::{banner, fmt_secs, median_mad, time, Table};
use anyk_engine::{AnyKVariant, Engine, PreparedQuery, RankSpec};
use anyk_query::cq::ConjunctiveQuery;
use anyk_storage::Relation;
use anyk_workloads::graphs::WeightDist;
use anyk_workloads::patterns::{cycle_instance, path_instance};

pub fn run(scale: f64) {
    banner(
        "E15: prepared queries — cold plan vs prepared re-execution",
        "preprocessing once, per-answer delay many times (§1's TTF/TT(k) split as an API)",
    );
    let edges = (100_000.0 * scale).max(2_000.0) as usize;
    let nodes = (edges / 10).max(10) as u64;
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
    let prepared = engine.prepare(q.clone(), RankSpec::Sum).expect("plannable");
    let mut prep_ttf = f64::INFINITY;
    for _ in 0..reps {
        let (first, t) = time(|| prepared.stream().next());
        assert!(first.is_some());
        prep_ttf = prep_ttf.min(t);
    }

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
    let speedup = cold_ttf / prep_ttf.max(1e-12);
    let rec_speedup = rec_cold_ttf / rec_prep_ttf.max(1e-12);
    let mut t = Table::new([
        "variant",
        "n (rows)",
        "cold plan() TTF",
        "prepared TTF",
        "cold/prepared",
    ]);
    for (variant, cold, prepared, ratio) in [
        ("PART(Eager)", cold_ttf, prep_ttf, speedup),
        ("REC", rec_cold_ttf, rec_prep_ttf, rec_speedup),
    ] {
        t.row([
            variant.to_string(),
            n_total.to_string(),
            fmt_secs(cold),
            fmt_secs(prepared),
            format!("{ratio:.0}x"),
        ]);
    }
    t.print();
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
    }
    t.print();
    println!(
        "a warm stream() + drop costs the same at n and 8n edges per relation \
         (acceptance: median ratio < 1.5 at every scale)"
    );
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
