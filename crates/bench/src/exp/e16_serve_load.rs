//! E16 — `anyk-serve` under load: N concurrent TCP clients speaking
//! the text protocol against the event-loop transport.
//!
//! The serving claim behind the paper's TTF obsession: with prepared
//! state shared through the plan cache and stream spawn costing only
//! the answers pulled, a *service* can hand many clients small pages
//! of many queries concurrently — cheap first pages, no repeated
//! preprocessing. Since PR 5 the transport under test is the
//! readiness event loop (since PR 19: serving threads over one shared
//! one-shot poller, no per-request hand-off), driven end-to-end over
//! real sockets:
//!
//! * acyclic (path-3), triangle, and 4-cycle queries over one shared
//!   catalog, under rotating rankings (sum/max/min);
//! * N ∈ {8, 32, 128} concurrent `TcpClient`s (the 128 round runs at
//!   full scale; smoke runs stop at 32), each paging answers
//!   `LIMIT`/`NEXT`-style and **asserting its pages byte-identical to
//!   a direct `PreparedQuery` stream** (the protocol may never
//!   reorder, drop, or duplicate an answer);
//! * reported: throughput (answers/s), client-side TTF percentiles,
//!   and the server's own `STATS` — which must carry **non-zero
//!   p50/p95/p99 TTF and per-page histograms** and real plan-cache
//!   counters;
//! * a **silent-session scene**: a client opens a cursor on a
//!   capacity-1 service and goes mute; the cursor table must hand its
//!   admission slot to a second client after the TTL, with
//!   the reap observable in `STATS`.
//!
//! Acceptance (asserted): every round completes with every page
//! byte-identical, the histogram percentiles are present and
//! non-zero, zero cursors leak, hits outnumber misses, and the
//! silent session's slot is reaped.

use crate::util::{banner, fmt_secs, time, write_bench_json, Json, Table};
use anyk_engine::{Engine, RankSpec};
use anyk_query::cq::{cycle_query, path_query, ConjunctiveQuery};
use anyk_serve::{encode_answer, select_text, Server, Service, ServiceConfig, TcpClient};
use anyk_storage::Catalog;
use anyk_workloads::graphs::{random_edge_relation, WeightDist};
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

/// One workload combo: a query shape (over the shared catalog) plus a
/// ranking, pre-rendered as protocol text with its expected rows.
struct Combo {
    label: &'static str,
    select: String,
    expect: Vec<String>,
}

/// Answers each query pulls (pages of `PAGE`).
const K: usize = 50;
const PAGE: usize = 10;

pub fn run(scale: f64) {
    banner(
        "E16: anyk-serve load — concurrent TCP clients on the event-loop transport",
        "mixed acyclic/triangle/C4 workload; pages asserted byte-identical to direct streams",
    );
    let edges = (15_000.0 * scale).max(900.0) as usize;
    let nodes = (edges / 30).max(6) as u64;
    let queries_per_client = ((24.0 * scale) as usize).clamp(6, 48);
    // The headline 128-client round needs full scale; smoke runs still
    // cover the N=32 shape the CI step asserts on.
    let client_counts: &[usize] = if scale >= 0.99 {
        &[8, 32, 128]
    } else {
        &[8, 32]
    };

    // One shared catalog: R1..R4 are edge relations every shape reuses
    // (path-3 reads R1,R2,R3; the triangle closes R1,R2,R3; the
    // 4-cycle takes all four).
    let mut catalog = Catalog::new();
    for i in 1..=4u64 {
        catalog.register(
            format!("R{i}"),
            random_edge_relation(edges, nodes, WeightDist::Uniform, None, 1000 + i * 7919),
        );
    }
    let engine = Engine::new(catalog);
    let service = Service::with_config(
        engine.clone(),
        ServiceConfig {
            max_open_cursors: 512,
            cursor_ttl: Duration::from_secs(60),
            default_page: PAGE,
            ..ServiceConfig::default()
        },
    );

    // The workload mix: every route family × rotating rankings. The
    // expected rows come from a direct PreparedQuery stream through
    // the same encoder the wire uses — the byte-identity baseline.
    let shapes: [(&'static str, ConjunctiveQuery); 3] = [
        ("path3", path_query(3)),
        ("triangle", cycle_query(3)),
        ("c4", cycle_query(4)),
    ];
    let ranks = [RankSpec::Sum, RankSpec::Max, RankSpec::Min];
    let (combos, prep_time) = time(|| {
        let mut combos = Vec::new();
        for (label, q) in &shapes {
            for &rank in &ranks {
                let prepared = engine
                    .prepare(q.clone(), rank)
                    .unwrap_or_else(|e| panic!("{label} × {rank}: {e}"));
                let expect: Vec<String> = prepared
                    .stream()
                    .take(K)
                    .map(|a| encode_answer(&a))
                    .collect();
                assert!(
                    !expect.is_empty(),
                    "{label} × {rank}: workload must have answers"
                );
                combos.push(Combo {
                    label,
                    select: select_text(q, rank, Some(PAGE)),
                    expect,
                });
            }
        }
        combos
    });
    println!(
        "catalog: 4 × {edges} edges over {nodes} nodes; {} combos prepared in {} \
         (shared by every client via the plan cache)",
        combos.len(),
        fmt_secs(prep_time)
    );

    let mut server = Server::bind(service.clone(), "127.0.0.1:0").expect("bind event-loop server");
    let addr = server.addr();

    let mut table = Table::new([
        "clients",
        "queries",
        "answers",
        "wall",
        "answers/s",
        "TTF p50",
        "TTF p95",
        "TTF p99",
    ]);
    let mut round_rows = Vec::new();
    for &clients in client_counts {
        let ttfs: Mutex<Vec<f64>> = Mutex::new(Vec::new());
        let (total_answers, wall) = time(|| {
            thread::scope(|s| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let combos = &combos;
                        let ttfs = &ttfs;
                        s.spawn(move || {
                            let mut client = TcpClient::connect(addr).expect("client connect");
                            let mut answers = 0usize;
                            for i in 0..queries_per_client {
                                let combo = &combos[(c + i) % combos.len()];
                                answers += run_one_query(&mut client, combo, ttfs);
                            }
                            answers
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .sum::<usize>()
            })
        });
        let mut ttfs = ttfs.into_inner().expect("ttf lock");
        ttfs.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let pct = |p: f64| -> f64 {
            if ttfs.is_empty() {
                return 0.0;
            }
            ttfs[((ttfs.len() - 1) as f64 * p).round() as usize]
        };
        table.row([
            clients.to_string(),
            (clients * queries_per_client).to_string(),
            total_answers.to_string(),
            fmt_secs(wall),
            format!("{:.0}", total_answers as f64 / wall.max(1e-12)),
            fmt_secs(pct(0.50)),
            fmt_secs(pct(0.95)),
            fmt_secs(pct(0.99)),
        ]);
        round_rows.push(Json::obj([
            ("clients", Json::Int(clients as u64)),
            ("queries", Json::Int((clients * queries_per_client) as u64)),
            ("answers", Json::Int(total_answers as u64)),
            ("wall_s", Json::Num(wall)),
            (
                "answers_per_s",
                Json::Num(total_answers as f64 / wall.max(1e-12)),
            ),
            ("ttf_p50_s", Json::Num(pct(0.50))),
            ("ttf_p95_s", Json::Num(pct(0.95))),
            ("ttf_p99_s", Json::Num(pct(0.99))),
        ]));
    }
    table.print();

    // The server's own view, through the protocol: the percentile
    // histograms and cache counters must be there and real.
    let mut probe = TcpClient::connect(addr).expect("stats client");
    let stats_text = probe.send("STATS;").expect("STATS");
    for line in stats_text.lines().filter(|l| l.starts_with("INFO ")) {
        println!("  {}", &line[5..]);
    }
    let mut server_histograms: Vec<(String, Json)> = Vec::new();
    for field in [
        "ttf_p50_us",
        "ttf_p95_us",
        "ttf_p99_us",
        "page_p50_us",
        "page_p95_us",
        "page_p99_us",
    ] {
        let value: u64 = stats_text
            .lines()
            .find_map(|l| l.strip_prefix(&format!("INFO {field}=")))
            .unwrap_or_else(|| panic!("STATS must carry {field}: {stats_text}"))
            .trim()
            .parse()
            .expect("numeric histogram field");
        assert!(
            value > 0,
            "{field} must be non-zero after a load round (got {stats_text})"
        );
        server_histograms.push((field.to_string(), Json::Int(value)));
    }
    let stats = service.stats();
    assert!(
        stats.cache.hits > stats.cache.misses,
        "the plan cache must serve the repeated workload shapes \
         (hits {} vs misses {})",
        stats.cache.hits,
        stats.cache.misses
    );
    assert_eq!(
        stats.open_cursors, 0,
        "every client paged to completion or closed its cursor"
    );
    assert_eq!(
        stats.cursors_opened,
        stats.cursors_closed + stats.cursors_expired,
        "cursor lifecycle accounting must balance: {stats:?}"
    );
    server.shutdown();
    println!(
        "acceptance: {} concurrent TCP clients × {queries_per_client} mixed queries on the \
         event loop, every page byte-identical to the direct PreparedQuery stream (asserted \
         per page inside each client); STATS p50/p95/p99 present and non-zero; plan cache \
         {} hits / {} misses / {} evictions; zero cursors leaked",
        client_counts.last().expect("rounds"),
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.evictions
    );

    let doc = Json::obj([
        ("experiment", Json::Str("E16".to_string())),
        ("scale", Json::Num(scale)),
        ("edges", Json::Int(edges as u64)),
        ("queries_per_client", Json::Int(queries_per_client as u64)),
        ("combos", Json::Int(combos.len() as u64)),
        ("prepare_s", Json::Num(prep_time)),
        ("rounds", Json::Arr(round_rows)),
        ("server_histograms", Json::Obj(server_histograms)),
        (
            "cache",
            Json::obj([
                ("hits", Json::Int(stats.cache.hits)),
                ("misses", Json::Int(stats.cache.misses)),
                ("evictions", Json::Int(stats.cache.evictions)),
            ]),
        ),
        (
            "cursors",
            Json::obj([
                ("opened", Json::Int(stats.cursors_opened)),
                ("closed", Json::Int(stats.cursors_closed)),
                ("expired", Json::Int(stats.cursors_expired)),
                ("leaked_open", Json::Int(stats.open_cursors as u64)),
            ]),
        ),
    ]);
    write_bench_json("BENCH_E16.json", &doc).expect("write BENCH_E16.json");

    silent_session_scene();
}

/// The silent-session scene: a capacity-1 service, a client that
/// opens a cursor and goes mute, and a second client whose `SELECT`
/// must inherit the slot after the TTL — no cooperation from the
/// silent session.
fn silent_session_scene() {
    let mut catalog = Catalog::new();
    catalog.register(
        "R1",
        random_edge_relation(600, 20, WeightDist::Uniform, None, 4242),
    );
    catalog.register(
        "R2",
        random_edge_relation(600, 20, WeightDist::Uniform, None, 4243),
    );
    let service = Service::with_config(
        Engine::new(catalog),
        ServiceConfig {
            max_open_cursors: 1,
            cursor_ttl: Duration::from_millis(80),
            default_page: PAGE,
            ..ServiceConfig::default()
        },
    );
    let mut server = Server::bind(service.clone(), "127.0.0.1:0").expect("bind");
    let select = "SELECT R1(a,b), R2(b,c) RANK BY sum LIMIT 5;";

    let mut silent = TcpClient::connect(server.addr()).expect("connect");
    let first = silent.send(select).expect("silent client's select");
    assert!(first.starts_with("OK cursor=0"), "{first}");

    let mut eager = TcpClient::connect(server.addr()).expect("connect");
    let rejected = eager.send(select).expect("eager client's first try");
    assert!(
        rejected.starts_with("ERR admission:"),
        "fresh cursor still holds the slot: {rejected}"
    );

    // The TTL passes; the silent client says nothing. Admission's
    // sweep of the cursor table frees the slot.
    thread::sleep(Duration::from_millis(160));
    let granted = eager.send(select).expect("eager client's retry");
    assert!(
        granted.starts_with("OK cursor="),
        "admission must reap the silent session's slot: {granted}"
    );
    let expired = silent.send("NEXT 5 ON 0;").expect("silent client wakes");
    assert_eq!(expired, "ERR cursor: cursor 0 expired\nEND\n");
    let stats = service.stats();
    assert!(
        stats.cursors_expired >= 1,
        "reap must be counted: {stats:?}"
    );
    server.shutdown();
    println!(
        "silent-session scene: slot reaped after {}ms TTL without the owner speaking \
         (cursors_expired={}), second client admitted",
        80, stats.cursors_expired
    );
}

/// Run one query to `K` answers (or exhaustion) through the protocol,
/// asserting every page against the expected byte-identical rows.
/// Returns the number of answers pulled; records the first-page TTF.
fn run_one_query(client: &mut TcpClient, combo: &Combo, ttfs: &Mutex<Vec<f64>>) -> usize {
    let mut rows: Vec<String> = Vec::new();
    let (first, ttf) = time(|| client.send(&combo.select).expect("select round-trip"));
    ttfs.lock().expect("ttf lock").push(ttf);
    let mut reply = first;
    loop {
        let header = reply.lines().next().expect("header").to_string();
        assert!(
            header.starts_with("OK "),
            "{}: protocol error: {reply}",
            combo.label
        );
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
    assert_eq!(
        rows.len(),
        combo.expect.len().min(K),
        "{}: page count mismatch",
        combo.label
    );
    rows.len()
}
