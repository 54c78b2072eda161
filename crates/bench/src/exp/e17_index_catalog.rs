//! E17 — the shared index catalog: a warm `plan()` is an index
//! *lookup*, a cold one is an index *build*.
//!
//! Every cyclic route (worst-case-optimal triangle, the C4 case split,
//! GHD bag materialization) starts by building sorted tries over its
//! input relations. With the catalog-resident index catalog those
//! tries are keyed by (payload identity, column order) and shared
//! across engines, plans, and sessions — so the second engine over the
//! same catalog finds every trie already resident and pays only the
//! enumeration side.
//!
//! Claims measured, per route family (triangle / C4 / GHD):
//!
//! 1. **Warm ≥ 3× cold** — cold-`plan()` TTF on a fresh engine with a
//!    warm shared index catalog is at least 3× faster than the
//!    index-build baseline (a fresh engine whose index catalog starts
//!    empty), asserted at full scale.
//! 2. **Zero builds when warm** — the build counter is asserted flat
//!    across every warm repetition: not "fast", *absent*.
//! 3. **`EXPLAIN` tells the truth** — the plan header reports
//!    `index = built` on a cold engine and `index = cached` on a warm
//!    one (asserted at every scale).
//! 4. **Kernel** — what the cold side pays beside the index build: on
//!    a dense triangle over warm shared tries, count-only Generic-Join
//!    is no slower than the Leapfrog Triejoin reference walking the
//!    same tries (median of 21 interleaved repeats, asserted at every
//!    scale); the cold triangle `prepare` at `n` and `4n` edges is
//!    reported beside it, with spread.
//! 5. **T-DP prepare is its sorts** — on the 4-cycle's light-light
//!    case (two pre-joined bags on a two-column key), the whole cold
//!    `TdpInstance::prepare` — reducer, compaction, grouping, subtree
//!    costs — takes at most twice as long as building the two join-key
//!    tries it sorts over the same rows (median of 21 interleaved
//!    repeats, asserted at every scale).

use crate::util::{banner, fmt_secs, median_mad, time, write_bench_json, Json, Table};
use anyk_core::{SumCost, TdpInstance};
use anyk_engine::{Engine, RankSpec};
use anyk_join::c4::c4_cases_provider;
use anyk_join::generic_join::generic_join_with;
use anyk_join::leapfrog::leapfrog_triejoin_with;
use anyk_join::semijoin::join_key_positions;
use anyk_query::cq::{triangle_query, ConjunctiveQuery, QueryBuilder};
use anyk_query::cycles::heavy_threshold;
use anyk_storage::{BuildEachTime, IndexCatalog, Relation, RelationBuilder, Schema, Trie, Weight};
use anyk_workloads::graphs::{random_edge_relation, WeightDist};
use std::ops::ControlFlow;

struct Workload {
    name: &'static str,
    query: ConjunctiveQuery,
    relations: Vec<Relation>,
}

/// Node-id base of atom `i`'s noise edges. Every atom gets a private
/// billion-wide id range, so the only tuples that join *across* atoms
/// are the planted ones — the selective serving regime this experiment
/// isolates: cold `plan()` TTF is dominated by the per-atom trie
/// sorts, warm TTF by planning plus a handful of index probes.
fn noise_base(i: usize) -> i64 {
    (i as i64 + 1) * 1_000_000_000
}

/// One atom's relation: the planted rows (weight 0.5 each, node ids
/// far below every noise range) plus `edges` random rows over
/// `[base, base + edges/2)` — average degree 2 inside the private
/// range, so no value crosses the route's heavy-degree threshold.
fn noisy_relation(planted: &[(i64, i64)], edges: usize, base: i64, seed: u64) -> Relation {
    let mut b = RelationBuilder::new(Schema::new(["src", "dst"]));
    for &(s, d) in planted {
        b.push_ints(&[s, d], 0.5);
    }
    let span = (edges as u64 / 2).max(4);
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..edges {
        let s = (next() % span) as i64 + base;
        let d = (next() % span) as i64 + base;
        let w = (next() % 1_000_000) as f64 / 1_000_000.0 + 1e-6;
        b.push_ints(&[s, d], w);
    }
    b.finish()
}

/// The standard `len`-cycle with **distinct** atom names and payloads
/// (`R1(x1,x2), ..., Rlen(xlen,x1)`): route recognition is purely
/// variable-structural, so this takes the same triangle / 4-cycle
/// plans as `cycle_query`, but each atom's trie is its own catalog
/// entry — the cold side pays one sort per indexed atom. `sizes[i]` is
/// atom `i`'s noise-edge count (the 4-cycle plan probes `R1`/`R2` row
/// by row while binary-searching tries over `R3`/`R4`, so small probe
/// sides with large indexed sides maximize what the catalog can
/// amortize). A `len`-cycle is planted across the atoms: atom `i`
/// holds `(i, i+1 mod len)`.
fn distinct_cycle(name: &'static str, len: usize, sizes: &[usize], seed: u64) -> Workload {
    assert_eq!(sizes.len(), len);
    let vars: Vec<String> = (1..=len).map(|i| format!("x{i}")).collect();
    let mut qb = QueryBuilder::new();
    for i in 0..len {
        qb = qb.atom(
            format!("R{}", i + 1),
            &[vars[i].as_str(), vars[(i + 1) % len].as_str()],
        );
    }
    let relations = (0..len)
        .map(|i| {
            let planted = [(i as i64, ((i + 1) % len) as i64)];
            noisy_relation(&planted, sizes[i], noise_base(i), seed + 7919 * i as u64)
        })
        .collect();
    Workload {
        name,
        query: qb.build(),
        relations,
    }
}

struct Measurement {
    name: &'static str,
    rows: usize,
    cold_ttf: f64,
    warm_ttf: f64,
    speedup: f64,
    builds: u64,
}

fn measure(w: &Workload, reps: usize) -> Measurement {
    let rows: usize = w.relations.iter().map(Relation::len).sum();

    // Cold baseline: a fresh engine per repetition — fresh plan cache
    // *and* fresh (empty) index catalog, so every repetition pays the
    // trie builds. Min-of-reps on both sides.
    let mut cold_ttf = f64::INFINITY;
    for _ in 0..reps {
        let engine = Engine::from_query_bindings(&w.query, w.relations.clone());
        let explained = engine
            .query(w.query.clone())
            .rank_by(RankSpec::Sum)
            .explain()
            .expect("plannable");
        assert!(
            explained.explain().contains("index = built"),
            "cold engine must report index = built for {}",
            w.name
        );
        let (first, t) = time(|| {
            engine
                .query(w.query.clone())
                .rank_by(RankSpec::Sum)
                .plan()
                .expect("plannable")
                .next()
        });
        assert!(first.is_some(), "{} instance must have answers", w.name);
        cold_ttf = cold_ttf.min(t);
    }

    // Warm: one primer engine populates the shared catalog's index
    // catalog; each repetition then gets a *fresh* engine (fresh plan
    // cache — planning is not what's amortized here) over a clone of
    // the primer's catalog, which shares the same index catalog.
    let primer = Engine::from_query_bindings(&w.query, w.relations.clone());
    let warmup = primer
        .query(w.query.clone())
        .rank_by(RankSpec::Sum)
        .plan()
        .expect("plannable")
        .next();
    assert!(warmup.is_some());
    let builds = primer.index_stats().builds;
    assert!(builds > 0, "the warm-up must have built tries");

    let mut warm_ttf = f64::INFINITY;
    for _ in 0..reps {
        let engine = Engine::new((*primer.catalog()).clone());
        let explained = engine
            .query(w.query.clone())
            .rank_by(RankSpec::Sum)
            .explain()
            .expect("plannable");
        assert!(
            explained.explain().contains("index = cached"),
            "warm engine must report index = cached for {}",
            w.name
        );
        let (first, t) = time(|| {
            engine
                .query(w.query.clone())
                .rank_by(RankSpec::Sum)
                .plan()
                .expect("plannable")
                .next()
        });
        assert!(first.is_some());
        warm_ttf = warm_ttf.min(t);
        assert_eq!(
            engine.index_stats().builds,
            builds,
            "a warm plan() must build zero tries for {}",
            w.name
        );
    }

    Measurement {
        name: w.name,
        rows,
        cold_ttf,
        warm_ttf,
        speedup: cold_ttf / warm_ttf.max(1e-12),
        builds,
    }
}

pub fn run(scale: f64) {
    banner(
        "E17: shared trie indexes — warm plan() is an index lookup, not an index build",
        "cyclic preprocessing = index build + enumerate; the catalog amortizes the build \
         across engines and plans",
    );
    let reps = 5;

    let tri_edges = (500_000.0 * scale).max(2_000.0) as usize;
    let c4_big = (600_000.0 * scale).max(2_000.0) as usize;
    let c4_small = (c4_big / 8).max(500);
    let ghd_edges = (400_000.0 * scale).max(2_000.0) as usize;
    // The GHD workload is a triangle with a pendant edge: cyclic but
    // neither the triangle nor the 4-cycle pattern, so it takes the
    // Decomposed route, with bags cheap enough to materialize that the
    // trie builds stay the dominant preprocessing cost. (A 5-cycle
    // would also route through GHD, but its width-2 bags materialize
    // O(m^2) rows — enumeration would drown the index side entirely.)
    // The pendant atom P is its own single-atom bag, enumerated and
    // weighted row by row, so it stays small relative to the indexed
    // triangle atoms.
    let ghd = Workload {
        name: "ghd-pendant-triangle",
        query: QueryBuilder::new()
            .atom("R", &["x", "y"])
            .atom("S", &["y", "z"])
            .atom("T", &["z", "x"])
            .atom("P", &["x", "w"])
            .build(),
        relations: vec![
            noisy_relation(&[(0, 1)], ghd_edges, noise_base(0), 1409),
            noisy_relation(&[(1, 2)], ghd_edges, noise_base(1), 1423),
            noisy_relation(&[(2, 0)], ghd_edges, noise_base(2), 1427),
            noisy_relation(&[(0, 7)], (ghd_edges / 8).max(500), noise_base(3), 1429),
        ],
    };
    let workloads = [
        distinct_cycle("triangle", 3, &[tri_edges; 3], 1201),
        distinct_cycle("c4", 4, &[c4_small, c4_small, c4_big, c4_big], 1301),
        ghd,
    ];

    let mut t = Table::new([
        "route",
        "rows",
        "cold plan() TTF (build)",
        "warm plan() TTF (lookup)",
        "cold/warm",
        "tries built once",
    ]);
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for w in &workloads {
        let m = measure(w, reps);
        t.row([
            m.name.to_string(),
            m.rows.to_string(),
            fmt_secs(m.cold_ttf),
            fmt_secs(m.warm_ttf),
            format!("{:.1}x", m.speedup),
            m.builds.to_string(),
        ]);
        rows.push(Json::obj([
            ("route", Json::Str(m.name.to_string())),
            ("rows", Json::Int(m.rows as u64)),
            ("cold_ttf_s", Json::Num(m.cold_ttf)),
            ("warm_ttf_s", Json::Num(m.warm_ttf)),
            ("cold_over_warm", Json::Num(m.speedup)),
            ("tries_built", Json::Int(m.builds)),
        ]));
        results.push(m);
    }
    t.print();

    for m in &results {
        // The >= 3x bound is the acceptance criterion at full scale;
        // at smoke scales the trie builds shrink into timer noise, so
        // there the zero-build and EXPLAIN assertions (checked above
        // at every scale) carry the regression test.
        if scale >= 1.0 {
            assert!(
                m.speedup >= 3.0,
                "warm plan() TTF must be >= 3x faster than the index-build baseline on {} \
                 (got {:.1}x: cold {:.6}s vs warm {:.6}s)",
                m.name,
                m.speedup,
                m.cold_ttf,
                m.warm_ttf
            );
        } else if m.speedup < 3.0 {
            println!(
                "NOTE: {} speedup {:.1}x below the 3x full-scale bound at this smoke scale \
                 ({scale})",
                m.name, m.speedup
            );
        }
    }
    println!(
        "expected shape: the cold side re-sorts every per-route trie on each plan(); the \
         warm side resolves them from the shared catalog (builds asserted flat), so the \
         remaining TTF is planning + enumeration only (acceptance: >= 3x at scale >= 1)"
    );

    let kernel = kernel_claim(scale);
    let tdp_prepare = tdp_prepare_claim(scale);
    let doc = Json::obj([
        ("experiment", Json::Str("E17".to_string())),
        ("scale", Json::Num(scale)),
        ("reps", Json::Int(reps as u64)),
        ("routes", Json::Arr(rows)),
        ("kernel", kernel),
        ("tdp_prepare", tdp_prepare),
    ]);
    write_bench_json("BENCH_E17.json", &doc).expect("write BENCH_E17.json");
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

/// Claim 4 (see the module docs): the two worst-case-optimal walks over
/// the same warm tries, and the cold prepare they sit inside.
fn kernel_claim(scale: f64) -> Json {
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

    // The cold prepare around the kernel: fresh engine, empty index
    // catalog — trie builds + the walk + the answer slab.
    let mut t = Table::new(["cold triangle prepare", "edges", "median", "MAD"]);
    let mut cold = Vec::new();
    for n in [edges, 4 * edges] {
        let rels = dense_triangle(n, 1801);
        let mut samples: Vec<f64> = (0..KERNEL_REPEATS)
            .map(|_| {
                let engine = Engine::from_query_bindings(&q, rels.clone());
                time(|| engine.prepare(q.clone(), RankSpec::Sum).expect("prepare")).1
            })
            .collect();
        let (med, mad) = median_mad(&mut samples);
        t.row([String::new(), n.to_string(), fmt_secs(med), fmt_secs(mad)]);
        cold.push(Json::obj([
            ("edges", Json::Int(n as u64)),
            ("median_s", Json::Num(med)),
            ("mad_s", Json::Num(mad)),
        ]));
    }
    t.print();

    Json::obj([
        ("repeats", Json::Int(KERNEL_REPEATS as u64)),
        ("edges", Json::Int(edges as u64)),
        ("triangles", Json::Int(triangles)),
        ("generic_join_median_s", Json::Num(gj_med)),
        ("generic_join_mad_s", Json::Num(gj_mad)),
        ("lftj_median_s", Json::Num(lftj_med)),
        ("lftj_mad_s", Json::Num(lftj_mad)),
        (
            "lftj_over_generic_join",
            Json::Num(lftj_med / gj_med.max(1e-12)),
        ),
        ("cold_triangle_prepare", Json::Arr(cold)),
    ])
}

/// Claim 5 (see the module docs): a cold T-DP prepare against the two
/// join-key trie builds inside it, on the 4-cycle's light-light case.
fn tdp_prepare_claim(scale: f64) -> Json {
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
    let (mut bag_rows, mut reduced_rows) = (0, 0);
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
        let (inst, t) = time(|| {
            TdpInstance::<SumCost>::prepare(&case.query, &case.tree, case.relations)
                .expect("prepare")
        });
        reduced_rows = inst.reduced_input_size();
        prepare.push(t);
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

    Json::obj([
        ("repeats", Json::Int(KERNEL_REPEATS as u64)),
        ("edges", Json::Int(edges as u64)),
        ("bag_rows", Json::Int(bag_rows as u64)),
        ("reduced_rows", Json::Int(reduced_rows as u64)),
        ("key_tries_median_s", Json::Num(tries_med)),
        ("key_tries_mad_s", Json::Num(tries_mad)),
        ("prepare_median_s", Json::Num(prepare_med)),
        ("prepare_mad_s", Json::Num(prepare_mad)),
        (
            "prepare_over_key_tries",
            Json::Num(prepare_med / tries_med.max(1e-12)),
        ),
    ])
}
