//! Live appends under concurrent serving: one writer streams INSERT
//! batches into `R1` while eight paging sessions keep querying — over
//! the in-process client and over real sockets on both accept
//! architectures. The service must never leak a cursor, its lifecycle
//! accounting must balance exactly, the write counters must land on
//! the exact batch arithmetic, and plans over untouched relations must
//! keep their cache entries and shared indexes through every append.
//! Once the readers are gone, every further batch keeps the warm plans'
//! all-base terms and extends their delta terms, rebuilding nothing,
//! and the triangle still pages as a fresh engine over base ⊎ batches.
//!
//! This suite also runs under ThreadSanitizer in CI (the nightly tsan
//! job), so the thread and batch sizes are deliberately modest.

mod common;

use anyk::prelude::*;
use anyk::query::cq::ConjunctiveQuery;
use anyk::serve::{encode_answer, Server, TcpClient};
use common::gen::scrambled_edges;

const READERS: usize = 8;
const QUERIES_PER_READER: usize = 6;
const BATCHES: usize = 5;
/// Batches appended once the readers are gone, each followed by a read.
const EXTENSIONS: usize = 16;
const BATCH_ROWS: usize = 4;
const PAGE: usize = 4;
const PAGES: usize = 3; // rows pulled per query = PAGE * PAGES

/// The five warm selects: three touch `R1` (the appended relation) —
/// two paths, whose delta term every append after the first extends at
/// its root, and a triangle, whose materialized delta term every append
/// after the first extends by the batch's answers — and two live
/// entirely on `R3 ⋈ R4` and must never be invalidated.
const SELECTS: [&str; 5] = [
    "SELECT R1(a,b), R2(b,c) RANK BY sum LIMIT 4;",
    "SELECT R1(a,b), R2(b,c) RANK BY max LIMIT 4;",
    "SELECT R3(a,b), R4(b,c) RANK BY sum LIMIT 4;",
    "SELECT R3(a,b), R4(b,c) RANK BY min LIMIT 4;",
    "SELECT R1(a,b), R2(b,c), R3(c,a) RANK BY sum LIMIT 4;",
];
const TOUCHED_PER_APPEND: u64 = 3; // cached plans depending on R1

/// Deterministic writer batches: values land inside the base domain so
/// every batch creates new join partners against `R2`.
fn batch_rows(b: usize) -> Vec<(i64, i64, f64)> {
    (0..BATCH_ROWS)
        .map(|i| {
            let k = (b * BATCH_ROWS + i) as i64;
            (
                (k * 7 + 3) % 9,
                (k * 5 + 1) % 9,
                0.25 + 0.25 * ((k % 3) as f64),
            )
        })
        .collect()
}

fn insert_text(rows: &[(i64, i64, f64)]) -> String {
    let cells: Vec<String> = rows
        .iter()
        .map(|(u, v, w)| format!("({u},{v},{w})"))
        .collect();
    format!("INSERT INTO R1 VALUES {};", cells.join(","))
}

/// One transport-agnostic protocol client.
enum Client {
    Local(Box<LocalClient>),
    Tcp(TcpClient),
}

impl Client {
    fn send(&mut self, cmd: &str) -> String {
        match self {
            Client::Local(c) => c.send(cmd),
            Client::Tcp(c) => c.send(cmd).expect("tcp round-trip"),
        }
    }
}

#[derive(Clone, Copy)]
enum Mode {
    Local,
    Tcp(std::net::SocketAddr),
}

fn connect(mode: Mode, service: &Service) -> Client {
    match mode {
        Mode::Local => Client::Local(Box::new(LocalClient::new(service))),
        Mode::Tcp(addr) => Client::Tcp(TcpClient::connect(addr).expect("connect")),
    }
}

/// Pull `PAGE * PAGES` rows off one select, then CLOSE the cursor
/// explicitly. Returns the ROW lines in order.
fn pull_pages(client: &mut Client, select: &str) -> Vec<String> {
    let mut rows = Vec::new();
    let mut reply = client.send(select);
    for _ in 0..PAGES {
        let header = reply.lines().next().expect("header").to_string();
        assert!(header.starts_with("OK "), "{select}: {reply}");
        rows.extend(
            reply
                .lines()
                .filter(|l| l.starts_with("ROW "))
                .map(String::from),
        );
        assert!(
            !header.contains("done=true"),
            "fixture joins hold far more than {} answers: {header}",
            PAGE * PAGES
        );
        let cursor = header
            .split("cursor=")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .expect("cursor field")
            .to_string();
        if rows.len() >= PAGE * PAGES {
            let closed = client.send(&format!("CLOSE {cursor};"));
            assert!(closed.starts_with("OK closed"), "{closed}");
            break;
        }
        reply = client.send(&format!("NEXT {PAGE} ON {cursor};"));
    }
    assert_eq!(rows.len(), PAGE * PAGES, "{select}");
    rows
}

fn base_relations() -> Vec<Relation> {
    vec![
        scrambled_edges(150, 9, 101),
        scrambled_edges(150, 9, 103),
        scrambled_edges(150, 9, 107),
        scrambled_edges(150, 9, 109),
    ]
}

fn live_service() -> (Service, Vec<Relation>) {
    let rels = base_relations();
    let engine = Engine::from_query_bindings(&path_query(4), rels.clone());
    (Service::new(engine), rels)
}

/// The scenario: warm all five plans, then run 1 writer + 8 readers to
/// completion, then audit every counter the service publishes.
fn run_live_append_scenario(label: &str, service: &Service, mode: Mode, rels: &[Relation]) {
    // Warm every select so all five plans are cache-resident before
    // the first append: from here on, each append invalidates exactly
    // the three R1-dependent plans and refresh-on-append re-prepares
    // them, so the invalidation counter is exact arithmetic.
    let mut warm = connect(mode, service);
    for select in SELECTS {
        pull_pages(&mut warm, select);
    }

    std::thread::scope(|s| {
        let writer = s.spawn(move || {
            let mut client = connect(mode, service);
            for b in 0..BATCHES {
                let reply = client.send(&insert_text(&batch_rows(b)));
                assert_eq!(
                    reply,
                    format!(
                        "OK appended rows={BATCH_ROWS} deltas={} compacted=false\nEND\n",
                        b + 1
                    ),
                    "{label}: batch {b}"
                );
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                s.spawn(move || {
                    let mut client = connect(mode, service);
                    for i in 0..QUERIES_PER_READER {
                        pull_pages(&mut client, SELECTS[(r + i) % SELECTS.len()]);
                    }
                })
            })
            .collect();
        writer.join().expect("writer thread");
        for h in readers {
            h.join().expect("reader thread");
        }
    });

    // Zero leaked cursors, and the lifecycle ledger balances: every
    // cursor opened was explicitly closed — nothing expired, nothing
    // drained silently.
    let stats = service.stats();
    assert_eq!(stats.open_cursors, 0, "{label}: leaked cursors");
    assert_eq!(stats.cursors_expired, 0, "{label}: nothing may expire");
    assert_eq!(
        stats.cursors_opened, stats.cursors_closed,
        "{label}: lifecycle accounting must balance: {stats:?}"
    );

    // Exact query and write arithmetic. INSERTs are not queries.
    let expected_queries = (SELECTS.len() + READERS * QUERIES_PER_READER) as u64;
    assert_eq!(stats.queries, expected_queries, "{label}: SELECT count");
    assert_eq!(stats.appends, BATCHES as u64, "{label}: appends");
    assert_eq!(
        stats.appended_rows,
        (BATCHES * BATCH_ROWS) as u64,
        "{label}: appended rows"
    );
    assert_eq!(
        stats.compactions,
        0,
        "{label}: {} delta rows stay far under the compaction threshold",
        BATCHES * BATCH_ROWS
    );
    assert_eq!(
        stats.append_invalidations,
        BATCHES as u64 * TOUCHED_PER_APPEND,
        "{label}: each append invalidates exactly the three R1 plans"
    );

    // Untouched plans rode through every append: probing them again
    // must hit the resident cache entry and the resident shared index —
    // no new prepare, no index rebuild.
    let before = service.stats();
    let mut probe = connect(mode, service);
    pull_pages(&mut probe, SELECTS[2]);
    pull_pages(&mut probe, SELECTS[3]);
    let after = service.stats();
    assert_eq!(
        after.cache.misses, before.cache.misses,
        "{label}: untouched plans must stay cache-resident"
    );
    assert_eq!(
        after.index.builds, before.index.builds,
        "{label}: untouched shared indexes must not rebuild"
    );

    // Correctness pin: the touched selects now serve base ⊎ all five
    // deltas — the path through a delta term built once and extended
    // at its root four times, the triangle through one built once and
    // extended by the batch's answers four times — byte-
    // identical to a fresh single-payload engine's canonical-tie
    // stream through the same encoder.
    let path = QueryBuilder::new()
        .atom("R1", &["a", "b"])
        .atom("R2", &["b", "c"])
        .build();
    let triangle = QueryBuilder::new()
        .atom("R1", &["a", "b"])
        .atom("R2", &["b", "c"])
        .atom("R3", &["c", "a"])
        .build();
    for (select, q) in [(SELECTS[0], &path), (SELECTS[4], &triangle)] {
        let got = pull_pages(&mut probe, select);
        assert_eq!(
            got,
            fresh_pages(q, rels, BATCHES),
            "{label}: post-append pages of {q} must be byte-identical to the reference stream"
        );
    }

    // Extension: the readers are gone and all five plans are warm, so
    // every append refreshes exactly the three plans over R1. Each
    // keeps its all-base term and extends its delta term — the
    // triangle's by the batch's answers, the two paths' at their roots
    // — so nothing is rebuilt, and the triangle read after each append
    // is a cache hit that builds no index.
    let before = service.stats();
    for b in BATCHES..BATCHES + EXTENSIONS {
        let reply = probe.send(&insert_text(&batch_rows(b)));
        assert_eq!(
            reply,
            format!(
                "OK appended rows={BATCH_ROWS} deltas={} compacted=false\nEND\n",
                b + 1
            ),
            "{label}: batch {b}"
        );
        pull_pages(&mut probe, SELECTS[4]);
    }
    let after = service.stats();
    let n = EXTENSIONS as u64;
    assert_eq!(
        after.append_invalidations - before.append_invalidations,
        TOUCHED_PER_APPEND * n,
        "{label}: each append invalidates exactly the three R1 plans"
    );
    assert_eq!(
        [
            after.terms_kept - before.terms_kept,
            after.terms_extended - before.terms_extended,
            after.terms_rebuilt - before.terms_rebuilt,
        ],
        [TOUCHED_PER_APPEND * n, TOUCHED_PER_APPEND * n, 0],
        "{label}: [kept, extended, rebuilt] over {EXTENSIONS} appends"
    );
    assert_eq!(
        (
            after.cache.misses - before.cache.misses,
            after.index.builds - before.index.builds
        ),
        (TOUCHED_PER_APPEND * n, 0),
        "{label}: (plan misses, index builds): the only misses are the writer's own refreshes"
    );
    assert_eq!(
        pull_pages(&mut probe, SELECTS[4]),
        fresh_pages(&triangle, rels, BATCHES + EXTENSIONS),
        "{label}: the triangle's pages after {EXTENSIONS} extensions"
    );
}

/// The first `PAGE * PAGES` answers of `q` under Sum, encoded as the
/// service sends them, on a fresh engine whose `R1` holds its base rows
/// and the first `batches` writer batches in one payload (`q`'s atoms
/// bind `R1`, `R2`, … in order).
fn fresh_pages(q: &ConjunctiveQuery, rels: &[Relation], batches: usize) -> Vec<String> {
    let mut combined = vec![rels[0].clone()];
    for b in 0..batches {
        combined.push(common::gen::edge_rel(&batch_rows(b)));
    }
    let mut fresh = rels[..q.num_atoms()].to_vec();
    fresh[0] = Relation::concat(&combined);
    let reference = Engine::from_query_bindings(q, fresh);
    (reference.prepare(q.clone(), RankSpec::Sum))
        .expect("reference prepare")
        .stream()
        .canonical_ties()
        .take(PAGE * PAGES)
        .map(|a| encode_answer(&a))
        .collect()
}

#[test]
fn live_appends_stay_leak_free_in_process() {
    let (service, rels) = live_service();
    run_live_append_scenario("local", &service, Mode::Local, &rels);
}

/// An `INSERT` reply speaks for its own append. One writer appends
/// small batches to `R1`, which never reaches the compaction
/// threshold, while a second appends a threshold-sized batch to each
/// of `C0`, `C1`, … in turn, every one of which compacts: no reply to
/// the first may say `compacted=true`, and its `deltas=` counts its own
/// batches.
#[test]
fn an_insert_reply_reports_its_own_compaction_not_a_concurrent_one() {
    const APPENDS: usize = 40;
    let mut catalog = Catalog::new();
    for (i, rel) in base_relations().into_iter().enumerate() {
        catalog.register(format!("R{}", i + 1), rel);
    }
    for c in 0..APPENDS {
        catalog.register(format!("C{c}"), common::gen::edge_rel(&[(0, 0, 0.5)]));
    }
    let service = Service::new(Engine::new(catalog));
    // A warm plan over R1 makes each R1 append refresh it, which
    // widens the span a concurrent compaction could land in.
    pull_pages(&mut connect(Mode::Local, &service), SELECTS[0]);
    let rows: Vec<(i64, i64, f64)> = (0..anyk::storage::MIN_COMPACT_ROWS as i64)
        .map(|u| (u, u % 9, 0.5))
        .collect();
    let compacting = insert_text(&rows);
    // Both writers start together, so their appends overlap.
    let start = std::sync::Barrier::new(2);
    let quiet = std::thread::scope(|s| {
        let quiet = s.spawn(|| {
            let mut client = connect(Mode::Local, &service);
            start.wait();
            (0..APPENDS)
                .map(|b| client.send(&insert_text(&batch_rows(b))))
                .collect::<Vec<_>>()
        });
        let mut client = connect(Mode::Local, &service);
        start.wait();
        for c in 0..APPENDS {
            let reply = client.send(&compacting.replace("INTO R1", &format!("INTO C{c}")));
            assert!(
                reply.ends_with(" deltas=0 compacted=true\nEND\n"),
                "C{c}: {reply}"
            );
        }
        quiet.join().expect("R1 writer")
    });
    for (b, reply) in quiet.iter().enumerate() {
        assert_eq!(
            *reply,
            format!(
                "OK appended rows={BATCH_ROWS} deltas={} compacted=false\nEND\n",
                b + 1
            ),
            "R1 batch {b}"
        );
    }
    assert_eq!(service.stats().compactions, APPENDS as u64);
}

// Listed under this name in the tier-1 floor; there is one TCP
// transport, and this runs the scenario over it.
#[test]
fn live_appends_stay_leak_free_over_tcp_on_both_transports() {
    let (service, rels) = live_service();
    let mut server = Server::bind(service.clone(), "127.0.0.1:0").expect("bind");
    run_live_append_scenario("tcp", &service, Mode::Tcp(server.addr()), &rels);
    server.shutdown();
}
