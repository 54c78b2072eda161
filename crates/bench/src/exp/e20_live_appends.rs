//! E20 — live appends under a serving workload: a writer streams
//! `INSERT` batches into one relation while reader clients page a
//! mixed query workload over the same service.
//!
//! The catalog-goes-live design (delta-backed relations, relation-
//! scoped plan invalidation, snapshot-isolated streams) is only worth
//! shipping if writes stay out of the readers' way: each append
//! invalidates exactly the plans reading the appended relation, the
//! writer refreshes those from the entries it invalidated, and every
//! other read is an untouched cache hit. What a refresh costs depends
//! on the term: the all-base term is kept, a materialized delta term
//! (the triangle's) is extended by the join over the batch, a T-DP
//! delta term (the paths') is rebuilt. This experiment asserts the
//! counter arithmetic of that design; `anykbench --workload
//! live_writes` times it (`server.write_p50_us`, reader TTF and TT(k)
//! with spread). An epoch-style invalidation would fail it twice over:
//! the untouched-relation probe would observe rebuilds, and the term
//! counters would show rebuilds where extensions belong. Three scenes
//! on one service:
//!
//! * **mixed** — readers plus one writer appending paced batches into
//!   `R1` the whole time. Asserted: the append/invalidation counters
//!   account exactly for the writer's traffic.
//! * **untouched isolation** — a plan reading only `R3`/`R4` (never
//!   appended) is prepared before the writer starts; after the mixed
//!   phase it must still be served from cache with **zero** new plan
//!   misses and **zero** new index builds.
//! * **extension** — with the readers gone and a triangle plan over
//!   `R1` warm beside the two paths, 32 more batches go into `R1`.
//!   Counter-asserted: every append keeps the three all-base terms,
//!   extends the triangle's delta term and rebuilds the two paths' —
//!   no triangle term is rebuilt — and the untouched plan still has
//!   not moved.
//!
//! The mixed and extension scenes each end with a correctness pin: the
//! served ranked prefix over the appended relation equals a direct
//! stream on a fresh engine whose `R1` was built base ⊎ appends up
//! front.

use crate::util::banner;
use anyk_engine::{Engine, RankSpec};
use anyk_query::cq::{ConjunctiveQuery, QueryBuilder};
use anyk_serve::{encode_answer, select_text, Server, Service, ServiceConfig, TcpClient};
use anyk_storage::{Catalog, Relation, RelationBuilder, Schema};
use anyk_workloads::graphs::{random_edge_relation, WeightDist};
use std::thread;
use std::time::Duration;

/// Page size readers pull with.
const PAGE: usize = 10;
/// Answers each reader query pages to.
const K: usize = 40;
/// Concurrent reader clients.
const CLIENTS: usize = 8;
/// Rows per writer `INSERT` batch.
const BATCH: usize = 8;
/// Batches of the extension scene.
const EXTENSIONS: usize = 32;

pub fn run(scale: f64) {
    banner(
        "E20: live appends — writer streaming INSERTs under a paging read workload",
        "appends invalidate and refresh exactly the plans over the appended relation; \
         untouched relations see zero plan/index rebuilds",
    );
    let edges = (10_000.0 * scale).max(800.0) as usize;
    let nodes = (edges / 25).max(6) as u64;
    // Read-dominated: the writer's batch count is a small fraction of
    // the read count, so the misses it causes exercise the delta-union
    // rebuild while most reads stay cache hits.
    let queries_per_client = ((100.0 * scale) as usize).clamp(12, 200);
    let batches = ((10.0 * scale) as usize).clamp(5, 20);

    // Reader workload: two 2-path shapes. `touched` reads the appended
    // relation R1; `untouched` reads only R3/R4 and must never lose its
    // cached plan.
    let touched_q = QueryBuilder::new()
        .atom("R1", &["a", "b"])
        .atom("R2", &["b", "c"])
        .build();
    let untouched_q = QueryBuilder::new()
        .atom("R3", &["a", "b"])
        .atom("R4", &["b", "c"])
        .build();
    let selects = [
        select_text(&touched_q, RankSpec::Sum, Some(PAGE)),
        select_text(&untouched_q, RankSpec::Sum, Some(PAGE)),
        select_text(&touched_q, RankSpec::Max, Some(PAGE)),
        select_text(&untouched_q, RankSpec::Min, Some(PAGE)),
    ];
    println!(
        "catalog: 4 × {edges} edges over {nodes} nodes; {CLIENTS} readers × \
         {queries_per_client} queries; writer: {batches} × {BATCH}-row INSERT batches into R1"
    );
    serve(edges, nodes, queries_per_client, &selects, batches);
}

/// The three scenes over one fresh service: `CLIENTS` readers paging
/// the workload while one writer streams `batches` `INSERT`s into R1,
/// then the untouched-plan probe, then the extension scene.
fn serve(edges: usize, nodes: u64, queries_per_client: usize, selects: &[String], batches: usize) {
    let catalog = build_catalog(edges, nodes);
    let service = Service::with_config(
        Engine::new(catalog),
        ServiceConfig {
            max_open_cursors: 512,
            default_page: PAGE,
            ..ServiceConfig::default()
        },
    );
    let mut server = Server::bind(service.clone(), "127.0.0.1:0").expect("bind event-loop server");
    let addr = server.addr();

    // Warm the untouched plan before any write, then pin its cache
    // provenance across the phase.
    let mut probe = TcpClient::connect(addr).expect("probe connect");
    run_one_query(&mut probe, &selects[1]);

    thread::scope(|s| {
        for c in 0..CLIENTS {
            s.spawn(move || {
                let mut client = TcpClient::connect(addr).expect("reader connect");
                for i in 0..queries_per_client {
                    run_one_query(&mut client, &selects[(c + i) % selects.len()]);
                }
            });
        }
        s.spawn(move || {
            let mut client = TcpClient::connect(addr).expect("writer connect");
            for b in 0..batches {
                let insert = insert_batch_text(b, nodes);
                let reply = client.send(&insert).expect("insert round-trip");
                assert!(reply.starts_with("OK appended rows="), "{reply}");
                // Pace the stream: appends trickle in across the
                // read window instead of landing in one burst.
                thread::sleep(Duration::from_millis(2));
            }
        });
    });

    let before_probe = service.stats();
    assert_eq!(
        before_probe.appends, batches as u64,
        "every writer batch lands exactly once"
    );
    assert_eq!(
        before_probe.appended_rows,
        (batches * BATCH) as u64,
        "every batch carries {BATCH} rows"
    );
    assert!(
        before_probe.append_invalidations >= 1,
        "appends into R1 must invalidate the touched plan at least once"
    );
    // Untouched isolation: re-running the R3/R4 plan after the whole
    // phase must be a pure cache hit — zero new misses, zero new index
    // builds attributable to the probe.
    run_one_query(&mut probe, &selects[1]);
    let after_probe = service.stats();
    assert_eq!(
        after_probe.cache.misses, before_probe.cache.misses,
        "the untouched plan was rebuilt: appends leaked past their relation"
    );
    assert_eq!(
        after_probe.index.builds, before_probe.index.builds,
        "an index on an untouched relation was rebuilt"
    );

    // Correctness pin: the served ranked prefix over the appended
    // relation equals a direct stream on a fresh engine whose R1
    // carries the same rows base-first.
    let pin = |probe: &mut TcpClient, select: &str, q: &ConjunctiveQuery, batches_done: usize| {
        let mut flat = build_catalog(edges, nodes);
        let r1 = flat.get("R1").expect("R1").clone();
        let appended = Relation::concat(
            &std::iter::once(r1)
                .chain((0..batches_done).map(|b| insert_batch_relation(b, nodes)))
                .collect::<Vec<_>>(),
        );
        flat.register("R1", appended);
        let expect: Vec<String> = Engine::new(flat)
            .prepare(q.clone(), RankSpec::Sum)
            .expect("reference prepare")
            .stream()
            .canonical_ties()
            .take(K)
            .map(|a| encode_answer(&a))
            .collect();
        let got = page_rows(probe, select);
        assert_eq!(
            got,
            expect[..got.len().min(expect.len())],
            "served answers of {q} over the live relation diverge from base ⊎ appends"
        );
    };
    let touched_q = QueryBuilder::new()
        .atom("R1", &["a", "b"])
        .atom("R2", &["b", "c"])
        .build();
    pin(&mut probe, &selects[0], &touched_q, batches);

    // Extension: the readers are gone, so every append below
    // refreshes exactly the three plans over R1 — the two paths and
    // a triangle prepared here, over a tail the writer left.
    let triangle_q = QueryBuilder::new()
        .atom("R1", &["a", "b"])
        .atom("R2", &["b", "c"])
        .atom("R3", &["c", "a"])
        .build();
    let triangle = select_text(&triangle_q, RankSpec::Sum, Some(PAGE));
    for select in selects.iter().chain([&triangle]) {
        run_one_query(&mut probe, select);
    }
    let before = service.stats();
    for b in batches..batches + EXTENSIONS {
        let reply = probe
            .send(&insert_batch_text(b, nodes))
            .expect("insert round-trip");
        assert!(reply.ends_with("compacted=false\nEND\n"), "{reply}");
        run_one_query(&mut probe, &triangle);
    }
    run_one_query(&mut probe, &selects[1]);
    let after = service.stats();
    let n = EXTENSIONS as u64;
    assert_eq!(
        after.append_invalidations - before.append_invalidations,
        3 * n
    );
    let terms = [
        after.terms_kept - before.terms_kept,
        after.terms_extended - before.terms_extended,
        after.terms_rebuilt - before.terms_rebuilt,
    ];
    assert_eq!(
        terms,
        [3 * n, n, 2 * n],
        "[kept, extended, rebuilt]: every append keeps three all-base terms, extends \
         the triangle's delta term and rebuilds only the two paths'"
    );
    assert_eq!(
        (after.cache.misses, after.index.builds),
        (before.cache.misses + 3 * n, before.index.builds),
        "the only misses are the writer's own refreshes — no read, the untouched \
         plan's included, prepared anything — and none built an index"
    );
    pin(&mut probe, &triangle, &triangle_q, batches + EXTENSIONS);
    println!(
        "acceptance: {batches} appends under load invalidated {} dependent plans; the \
         untouched plan kept its cache entry and index; {EXTENSIONS} more appends kept \
         {} terms, extended {} (the triangle's, every time) and rebuilt {} (the two paths')",
        before_probe.append_invalidations, terms[0], terms[1], terms[2]
    );
    server.shutdown();
}

/// The deterministic shared catalog (same seeds for the reference).
fn build_catalog(edges: usize, nodes: u64) -> Catalog {
    let mut catalog = Catalog::new();
    for i in 1..=4u64 {
        catalog.register(
            format!("R{i}"),
            random_edge_relation(edges, nodes, WeightDist::Uniform, None, 9000 + i * 7919),
        );
    }
    catalog
}

/// Batch `b`'s rows: deterministic, inside the node-id range so the
/// appended edges pick up join partners in R2.
fn batch_rows(b: usize, nodes: u64) -> Vec<(i64, i64, f64)> {
    (0..BATCH)
        .map(|i| {
            let src = ((b * BATCH + i) as u64 * 67 % nodes) as i64;
            let dst = ((b * BATCH + i) as u64 * 131 % nodes) as i64;
            let w = 0.001 + (((b * BATCH + i) % 997) as f64) * 1e-4;
            (src, dst, w)
        })
        .collect()
}

/// Batch `b` as wire text: `INSERT INTO R1 VALUES (…),(…);`.
fn insert_batch_text(b: usize, nodes: u64) -> String {
    let rows: Vec<String> = batch_rows(b, nodes)
        .into_iter()
        .map(|(s, d, w)| format!("({s},{d},{w:.4})"))
        .collect();
    format!("INSERT INTO R1 VALUES {};", rows.join(","))
}

/// Batch `b` as a relation (for the base ⊎ appends reference engine).
fn insert_batch_relation(b: usize, nodes: u64) -> Relation {
    let mut builder = RelationBuilder::new(Schema::new(["src", "dst"]));
    for (s, d, w) in batch_rows(b, nodes) {
        // Round-trip the weight through the same fixed-point text the
        // wire carries, so reference and served costs match exactly.
        let w: f64 = format!("{w:.4}").parse().expect("weight literal");
        builder.push_ints(&[s, d], w);
    }
    builder.finish()
}

/// Page one query to `K` answers, closing any leftover cursor.
fn run_one_query(client: &mut TcpClient, select: &str) {
    let _ = page_rows(client, select);
}

/// Page one query to `K` answers and return its `ROW` lines.
fn page_rows(client: &mut TcpClient, select: &str) -> Vec<String> {
    let mut rows: Vec<String> = Vec::new();
    let mut reply = client.send(select).expect("select round-trip");
    loop {
        let header = reply.lines().next().expect("header").to_string();
        assert!(header.starts_with("OK "), "{reply}");
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
    rows
}
