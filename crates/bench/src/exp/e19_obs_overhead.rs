//! E19 — observability overhead: the fully instrumented serving stack
//! vs `ANYK_OBS=off` on the E16 mixed workload.
//!
//! Tracing is only free if nobody has to turn it off: the per-pull
//! sampler, stage clocks, and trace-ring publish must cost ≤ 5% of
//! end-to-end serving throughput, or the instrumentation would get
//! stripped the first time it shows up in a flamegraph. Three scenes:
//!
//! * **A/B overhead** — the E16 mixed workload (path-3 / triangle /
//!   4-cycle × sum/max/min rankings, concurrent TCP clients paging
//!   `LIMIT`/`NEXT`-style) runs against two otherwise identical
//!   servers, one with the registry disabled (exactly what
//!   `ANYK_OBS=off` produces) and one enabled. Best-of-R walls;
//!   asserted `on ≤ off × 1.05` (plus a small absolute slack so
//!   smoke-scale runs don't flake on scheduler noise).
//! * **stage truthfulness** — `EXPLAIN ANALYZE` for every route ×
//!   ranking; the per-stage times must sum to within 10% of the
//!   reported wall (the stage taxonomy is contiguous by construction,
//!   so this guards the carve-out arithmetic end-to-end).
//! * **transport identity** — the same `EXPLAIN ANALYZE` sequence
//!   over TCP and through an in-process `LocalClient` must be
//!   byte-identical after masking the `_us=<digits>` timing fields
//!   (the only nondeterminism allowed is the clock itself).
//!
//! Emits `BENCH_E19.json`.

use crate::util::{banner, fmt_secs, time, write_bench_json, Json, Table};
use anyk_engine::{Engine, EngineOpts, RankSpec};
use anyk_obs::{monotonic_clock, ObsRegistry};
use anyk_query::cq::{cycle_query, path_query, ConjunctiveQuery};
use anyk_serve::{
    encode_answer, select_text, LocalClient, Server, Service, ServiceConfig, TcpClient,
};
use anyk_storage::Catalog;
use anyk_workloads::graphs::{random_edge_relation, WeightDist};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Answers each query pulls (pages of `PAGE`) — mirrors E16.
const K: usize = 50;
const PAGE: usize = 10;
/// Concurrent clients per round.
const CLIENTS: usize = 8;
/// Best-of-R repeats per mode.
const REPEATS: usize = 3;

struct Combo {
    label: &'static str,
    rank: RankSpec,
    select: String,
    expect: Vec<String>,
}

pub fn run(scale: f64) {
    banner(
        "E19: observability overhead — instrumented serving vs ANYK_OBS=off",
        "tracing must cost ≤ 5% on the E16 mixed workload; EXPLAIN ANALYZE \
         stages must sum to the wall and be transport-identical",
    );
    let edges = (12_000.0 * scale).max(900.0) as usize;
    let nodes = (edges / 30).max(6) as u64;
    let queries_per_client = ((16.0 * scale) as usize).clamp(4, 24);

    let shapes: [(&'static str, ConjunctiveQuery); 3] = [
        ("path3", path_query(3)),
        ("triangle", cycle_query(3)),
        ("c4", cycle_query(4)),
    ];
    let ranks = [RankSpec::Sum, RankSpec::Max, RankSpec::Min];

    // The byte-identity baseline comes from a direct PreparedQuery
    // stream on a throwaway engine over the same (seeded) catalog.
    let reference = Engine::new(build_catalog(edges, nodes));
    let mut combos = Vec::new();
    for (label, q) in &shapes {
        for &rank in &ranks {
            let prepared = reference
                .prepare(q.clone(), rank)
                .unwrap_or_else(|e| panic!("{label} × {rank}: {e}"));
            let expect: Vec<String> = prepared
                .stream()
                .take(K)
                .map(|a| encode_answer(&a))
                .collect();
            assert!(!expect.is_empty(), "{label} × {rank}: needs answers");
            combos.push(Combo {
                label,
                rank,
                select: select_text(q, rank, Some(PAGE)),
                expect,
            });
        }
    }
    println!(
        "catalog: 4 × {edges} edges over {nodes} nodes; {} combos × {CLIENTS} clients × \
         {queries_per_client} queries/client, best of {REPEATS} per mode",
        combos.len()
    );

    // --- Scene 1: A/B overhead -----------------------------------
    let mut walls = [[0f64; REPEATS]; 2];
    let mut traces_on = 0u64;
    for (mode_walls, enabled) in walls.iter_mut().zip([false, true]) {
        for wall_slot in mode_walls.iter_mut() {
            let obs = Arc::new(ObsRegistry::with_enabled(enabled, monotonic_clock()));
            let engine = Engine::with_obs(build_catalog(edges, nodes), EngineOpts::default(), obs);
            let service = Service::with_config(
                engine,
                ServiceConfig {
                    max_open_cursors: 512,
                    cursor_ttl: Duration::from_secs(60),
                    default_page: PAGE,
                    ..ServiceConfig::default()
                },
            );
            let mut server =
                Server::bind(service.clone(), "127.0.0.1:0").expect("bind event-loop server");
            let addr = server.addr();
            let (_, wall) = time(|| {
                thread::scope(|s| {
                    for c in 0..CLIENTS {
                        let combos = &combos;
                        s.spawn(move || {
                            let mut client = TcpClient::connect(addr).expect("client connect");
                            for i in 0..queries_per_client {
                                run_one_query(&mut client, &combos[(c + i) % combos.len()]);
                            }
                        });
                    }
                });
            });
            *wall_slot = wall;
            if enabled {
                let stats = service.stats();
                traces_on = stats.traces_published;
                assert!(
                    stats.traces_published > 0,
                    "the enabled arm must actually trace, or the A/B is vacuous: {stats:?}"
                );
            }
            server.shutdown();
        }
    }
    let best = |mode: usize| -> f64 { walls[mode].iter().copied().fold(f64::INFINITY, f64::min) };
    let (off_best, on_best) = (best(0), best(1));
    let overhead = on_best / off_best.max(1e-12);
    let mut table = Table::new(["mode", "best_wall", "all_walls", "overhead"]);
    for (mode, name) in [(0usize, "ANYK_OBS=off"), (1usize, "ANYK_OBS=on")] {
        table.row([
            name.to_string(),
            fmt_secs(best(mode)),
            walls[mode]
                .iter()
                .map(|w| fmt_secs(*w))
                .collect::<Vec<_>>()
                .join(" "),
            if mode == 1 {
                format!("{:.3}×", overhead)
            } else {
                "1.000×".to_string()
            },
        ]);
    }
    table.print();
    // 5% relative plus a small absolute slack: at smoke scale the
    // walls are tens of milliseconds and one scheduler hiccup would
    // otherwise dominate the ratio.
    assert!(
        on_best <= off_best * 1.05 + 0.015,
        "instrumentation overhead {overhead:.3}× exceeds the 5% budget \
         (on {on_best:.4}s vs off {off_best:.4}s)"
    );

    // --- Scene 2: EXPLAIN ANALYZE stage truthfulness --------------
    let obs = Arc::new(ObsRegistry::with_enabled(true, monotonic_clock()));
    let engine = Engine::with_obs(build_catalog(edges, nodes), EngineOpts::default(), obs);
    let service = Service::with_config(engine, ServiceConfig::default());
    let mut server = Server::bind(service, "127.0.0.1:0").expect("bind analyze server");
    let mut client = TcpClient::connect(server.addr()).expect("analyze client");
    let mut stage_table = Table::new(["combo", "stage_sum_us", "wall_us", "gap"]);
    let mut stage_rows = Vec::new();
    for combo in &combos {
        let reply = client
            .send(&format!("EXPLAIN ANALYZE {}", combo.select))
            .expect("analyze round-trip");
        assert!(
            reply.starts_with("OK analyze\n"),
            "{}: {reply}",
            combo.label
        );
        let sum: u64 = reply
            .lines()
            .filter_map(|l| l.strip_prefix("INFO stage."))
            .filter_map(|l| l.split_once('='))
            .map(|(_, v)| v.trim().parse::<u64>().expect("stage field"))
            .sum();
        let wall = info_u64(&reply, "wall_us");
        let reported_sum = info_u64(&reply, "stage_sum_us");
        assert_eq!(
            sum, reported_sum,
            "{}: stage_sum_us must be the sum",
            combo.label
        );
        let gap = wall.abs_diff(sum);
        // Within 10% of the wall; tiny absolute floor for µs rounding
        // on near-instant smoke queries.
        assert!(
            gap <= (wall / 10).max(5),
            "{} × {}: stage times (Σ={sum}µs) diverge from wall ({wall}µs): {reply}",
            combo.label,
            combo.rank
        );
        stage_table.row([
            format!("{} × {}", combo.label, combo.rank),
            sum.to_string(),
            wall.to_string(),
            format!("{gap}µs"),
        ]);
        stage_rows.push(Json::obj([
            (
                "combo",
                Json::Str(format!("{} × {}", combo.label, combo.rank)),
            ),
            ("stage_sum_us", Json::Int(sum)),
            ("wall_us", Json::Int(wall)),
        ]));
    }
    stage_table.print();
    server.shutdown();

    // --- Scene 3: transport identity ------------------------------
    // Over TCP and through a `LocalClient`, each on its own fresh
    // service so both see a cold plan cache.
    let fresh_service = || {
        let obs = Arc::new(ObsRegistry::with_enabled(true, monotonic_clock()));
        let engine = Engine::with_obs(build_catalog(edges, nodes), EngineOpts::default(), obs);
        Service::with_config(engine, ServiceConfig::default())
    };
    let analyze = |combo: &Combo| format!("EXPLAIN ANALYZE {}", combo.select);
    let mut server = Server::bind(fresh_service(), "127.0.0.1:0").expect("bind transport server");
    let mut client = TcpClient::connect(server.addr()).expect("transport client");
    let over_tcp: Vec<String> = combos
        .iter()
        .map(|combo| mask_timings(&client.send(&analyze(combo)).expect("analyze round-trip")))
        .collect();
    server.shutdown();
    let reference = fresh_service();
    let mut local = LocalClient::new(&reference);
    let in_process: Vec<String> = combos
        .iter()
        .map(|combo| mask_timings(&local.send(&analyze(combo))))
        .collect();
    assert_eq!(
        over_tcp, in_process,
        "EXPLAIN ANALYZE must be byte-identical over TCP and in-process once \
         `_us=` timings are masked"
    );
    println!(
        "acceptance: overhead {overhead:.3}× (≤ 1.05 budget) with {traces_on} traces \
         published in the enabled arm; all {} EXPLAIN ANALYZE stage sums within 10% of \
         wall; replies transport-identical modulo timings",
        combos.len()
    );

    let doc = Json::obj([
        ("experiment", Json::Str("E19".to_string())),
        ("scale", Json::Num(scale)),
        ("edges", Json::Int(edges as u64)),
        ("clients", Json::Int(CLIENTS as u64)),
        ("queries_per_client", Json::Int(queries_per_client as u64)),
        ("repeats", Json::Int(REPEATS as u64)),
        ("off_best_s", Json::Num(off_best)),
        ("on_best_s", Json::Num(on_best)),
        ("overhead", Json::Num(overhead)),
        ("budget", Json::Num(1.05)),
        ("traces_published_on", Json::Int(traces_on)),
        ("explain_analyze", Json::Arr(stage_rows)),
        ("transport_identical", Json::Bool(true)),
    ]);
    write_bench_json("BENCH_E19.json", &doc).expect("write BENCH_E19.json");
}

/// The E16-shaped shared catalog, rebuilt deterministically from the
/// same seeds so each mode's engine sees identical data.
fn build_catalog(edges: usize, nodes: u64) -> Catalog {
    let mut catalog = Catalog::new();
    for i in 1..=4u64 {
        catalog.register(
            format!("R{i}"),
            random_edge_relation(edges, nodes, WeightDist::Uniform, None, 1000 + i * 7919),
        );
    }
    catalog
}

/// Page one query to `K` answers through the protocol, asserting every
/// page byte-identical to the direct stream (instrumentation may
/// observe, never alter).
fn run_one_query(client: &mut TcpClient, combo: &Combo) {
    let mut rows: Vec<String> = Vec::new();
    let mut reply = client.send(&combo.select).expect("select round-trip");
    loop {
        let header = reply.lines().next().expect("header").to_string();
        assert!(header.starts_with("OK "), "{}: {reply}", combo.label);
        rows.extend(
            reply
                .lines()
                .filter(|l| l.starts_with("ROW "))
                .map(String::from),
        );
        let done = header.contains("done=true");
        let cursor = header
            .split("cursor=")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .expect("cursor field");
        if done {
            break;
        }
        if rows.len() >= K {
            let closed = client
                .send(&format!("CLOSE {cursor};"))
                .expect("close round-trip");
            assert!(closed.starts_with("OK closed="), "{closed}");
            break;
        }
        reply = client
            .send(&format!("NEXT {PAGE} ON {cursor};"))
            .expect("next round-trip");
    }
    assert_eq!(
        rows,
        combo.expect[..rows.len().min(combo.expect.len())],
        "{}: server pages diverged from the direct stream",
        combo.label
    );
}

/// A `wall_us`-style field out of an `INFO key=value` reply.
fn info_u64(reply: &str, key: &str) -> u64 {
    reply
        .lines()
        .find_map(|l| l.strip_prefix(&format!("INFO {key}=")))
        .unwrap_or_else(|| panic!("reply missing {key}: {reply}"))
        .trim()
        .parse()
        .expect("numeric INFO field")
}

/// Mask every `_us=<digits>` value — the only field whose value is
/// allowed to differ between the TCP and the in-process transcript.
fn mask_timings(reply: &str) -> String {
    reply
        .lines()
        .map(|line| {
            line.split(' ')
                .map(|tok| match tok.find("_us=") {
                    Some(i) if tok[i + 4..].bytes().all(|b| b.is_ascii_digit()) => {
                        format!("{}#", &tok[..i + 4])
                    }
                    _ => tok.to_string(),
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}
