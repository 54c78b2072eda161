//! Integration suite for `anyk-serve`: the protocol must page out
//! exactly what the engine streams — over TCP and in-process alike —
//! and the session layer's lifecycle rules (cursors, TTL, admission)
//! must fail typed, never wrong.

mod common;

use anyk::prelude::*;
use anyk::serve::{
    encode_answer, parse, select_text, Response, Server, TcpClient, TransportConfig,
};
use common::gen::edge_rel;
use common::oracle::{assert_matches_oracle, brute_force_ranked};
use std::time::Duration;

fn bind(service: &Service) -> Server {
    Server::bind(service.clone(), "127.0.0.1:0").expect("bind")
}

/// The shared fixture edge set (dyadic weights, deliberate ties).
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
    ]
}

/// Every planner route as a (label, query, relation-count) triple.
fn shapes() -> Vec<(&'static str, anyk::query::cq::ConjunctiveQuery, usize)> {
    vec![
        ("acyclic", path_query(3), 3),
        ("acyclic", star_query(3), 3),
        ("triangle", triangle_query(), 3),
        ("cycle", cycle_query(4), 4),
        ("cycle", cycle_query(5), 5),
        ("decomposed", chorded_cycle_query(5), 6),
    ]
}

fn service_for(q: &anyk::query::cq::ConjunctiveQuery, m: usize) -> (Service, Vec<Relation>) {
    let e = edge_rel(&fixture_edges());
    let rels: Vec<Relation> = (0..m).map(|_| e.clone()).collect();
    let engine = Engine::from_query_bindings(q, rels.clone());
    (Service::new(engine), rels)
}

/// Drive one query through the protocol to exhaustion, returning every
/// `ROW` line in order (the page seams must be invisible).
fn page_rows(client: &mut LocalClient, select: &str, page: usize) -> Vec<String> {
    let mut rows = Vec::new();
    let mut reply = client.send(select);
    loop {
        let header = reply.lines().next().expect("header").to_string();
        assert!(header.starts_with("OK "), "{select}: {reply}");
        rows.extend(
            reply
                .lines()
                .filter(|l| l.starts_with("ROW "))
                .map(String::from),
        );
        if header.contains("done=true") {
            return rows;
        }
        let cursor = header
            .split("cursor=")
            .nth(1)
            .and_then(|s| s.split_whitespace().next())
            .expect("cursor field")
            .to_string();
        assert_ne!(cursor, "-", "not done yet must carry a cursor");
        reply = client.send(&format!("NEXT {page} ON {cursor};"));
    }
}

#[test]
fn server_pages_match_direct_streams_and_oracle_on_every_route() {
    for (route, q, m) in shapes() {
        let (service, rels) = service_for(&q, m);
        for rank in RankSpec::ALL {
            let select = select_text(&q, rank, Some(3));
            // Protocol bytes, paged 3 at a time across many NEXTs.
            let mut client = LocalClient::new(&service);
            let got_rows = page_rows(&mut client, &select, 3);
            // Direct prepared stream, one shot, same encoder.
            let prepared = service
                .engine()
                .expect("single-engine service")
                .prepare(q.clone(), rank)
                .unwrap_or_else(|e| panic!("{route} × {rank}: {e}"));
            let want_rows: Vec<String> = prepared.stream().map(|a| encode_answer(&a)).collect();
            assert!(
                !want_rows.is_empty(),
                "{route} × {rank}: fixture has answers"
            );
            assert_eq!(
                got_rows, want_rows,
                "{route} × {rank}: server pages must be byte-identical to the direct stream"
            );
            // And the structured pages must match the brute-force
            // oracle's total order.
            let mut session = service.session();
            let mut answers: Vec<RankedAnswer> = Vec::new();
            let mut resp = session.execute(&select).expect("select");
            loop {
                let Response::Page(page) = resp else {
                    panic!("{route} × {rank}: expected a page")
                };
                answers.extend((0..page.answers.len()).map(|i| page.answers.answer(i)));
                match page.cursor {
                    Some(id) => resp = session.execute(&format!("NEXT 3 ON {id};")).unwrap(),
                    None => break,
                }
            }
            let want = brute_force_ranked(&q, &rels, rank);
            assert_matches_oracle(&answers, &want, &format!("{route} × {rank} via protocol"));
        }
    }
}

#[test]
fn tcp_and_local_transports_are_byte_identical() {
    let q = path_query(3);
    // A fresh service, so cursor ids line up with the LocalClient's.
    let (service, _) = service_for(&q, 3);
    let mut server = bind(&service);
    let mut tcp = TcpClient::connect(server.addr()).expect("connect");
    let mut local = LocalClient::new(&service);

    let script = [
        "SELECT R1(x0,x1), R2(x1,x2), R3(x2,x3) RANK BY sum LIMIT 4;".to_string(),
        "NEXT 4 ON 0;".to_string(),
        "EXPLAIN SELECT R1(a,b), R2(b,c) RANK BY max;".to_string(),
        "SELECT R1(a,b) RANK BY lex LIMIT 2;".to_string(),
        "CLOSE 1;".to_string(),
        // Typed failures must render identically too.
        "NEXT 5 ON 99;".to_string(),
        "CLOSE 99;".to_string(),
        "SELECT Nope(a,b);".to_string(),
        "SELECT R1(a,b) RANK BY median;".to_string(),
        "NONSENSE;".to_string(),
    ];
    for cmd in script {
        let via_tcp = tcp.send(&cmd).expect("tcp round-trip");
        let via_local = local.send(&cmd);
        assert_eq!(via_tcp, via_local, "transport divergence on `{cmd}`");
    }
    server.shutdown();
}

#[test]
fn insert_and_load_round_trip_byte_identically_across_transports() {
    let q = path_query(3);
    // Writes mutate the backing catalog, so the TCP and local
    // clients each run the script against their own fresh service —
    // sharing one would double-append and diverge the delta counts.
    let (tcp_service, _) = service_for(&q, 3);
    let (local_service, _) = service_for(&q, 3);
    let mut server = bind(&tcp_service);
    let mut tcp = TcpClient::connect(server.addr()).expect("connect");
    let mut local = LocalClient::new(&local_service);

    let script = [
        // The write path proper: literal rows and an inline CSV
        // block, then a SELECT that reads base ⊎ both deltas.
        "INSERT INTO R1 VALUES (7,8,0.5),(8,9,0.25);",
        "LOAD R2 FROM CSV 'u,v,weight\\n8,9,0.125\\n9,7,0.5\\n';",
        "SELECT R1(a,b), R2(b,c) RANK BY sum LIMIT 5;",
        "NEXT 5 ON 0;",
        "CLOSE 0;",
        "EXPLAIN SELECT R1(a,b), R2(b,c) RANK BY sum;",
        // Typed write failures must render identically too.
        "INSERT INTO Nope VALUES (1,2,0.5);",
        "INSERT INTO R1 VALUES (1,0.5);",
        "INSERT INTO R1 VALUES (1,2,0.5),(3,4);",
        "LOAD R1 FROM CSV 'u,v,weight\\nbogus\\n';",
    ];
    for cmd in script {
        let via_tcp = tcp.send(cmd).expect("tcp round-trip");
        let via_local = local.send(cmd);
        assert_eq!(via_tcp, via_local, "transport divergence on `{cmd}`");
    }
    server.shutdown();
}

#[test]
fn write_path_errors_render_typed_and_stable() {
    let q = path_query(2);
    let e = edge_rel(&fixture_edges());
    let engine = Engine::from_query_bindings(&q, vec![e.clone(), e]);
    let service = Service::with_config(
        engine,
        ServiceConfig {
            max_batch_rows: 2,
            ..ServiceConfig::default()
        },
    );
    let mut client = LocalClient::new(&service);

    // The happy path pins the exact Appended rendering first.
    assert_eq!(
        client.send("INSERT INTO R1 VALUES (7,8,0.5),(8,9,0.25);"),
        "OK appended rows=2 deltas=1 compacted=false\nEND\n"
    );
    // Admission bound on batch size, checked before the engine runs.
    assert_eq!(
        client.send("INSERT INTO R1 VALUES (1,2,0.5),(2,3,0.5),(3,4,0.5);"),
        "ERR batch: batch of 3 rows exceeds the 2-row bound\nEND\n"
    );
    // Ragged rows are a protocol-level batch error, not an engine one.
    assert_eq!(
        client.send("INSERT INTO R1 VALUES (1,2,0.5),(3,4);"),
        "ERR batch: insert row 1 has 2 cells, expected 3 like the first row\nEND\n"
    );
    // Catalog failures surface the engine's typed storage errors.
    assert_eq!(
        client.send("INSERT INTO Nope VALUES (1,2,0.5);"),
        "ERR engine: storage: relation `Nope` not registered in catalog\nEND\n"
    );
    assert_eq!(
        client.send("INSERT INTO R1 VALUES (1,0.5);"),
        "ERR engine: storage: append to `R1`: batch arity 1 does not match \
         relation arity 2\nEND\n"
    );
    // CSV failures carry the csv reader's message under their own kind.
    let csv_err = client.send("LOAD R1 FROM CSV 'u,v,weight\\nbogus\\n';");
    assert!(
        csv_err.starts_with("ERR csv: parse error:") && csv_err.ends_with("END\n"),
        "{csv_err}"
    );
    // The reserved shard-fragment marker never reaches the engine: the
    // wire grammar's identifier lexer rejects `#` outright.
    let reserved = client.send("INSERT INTO R#1 VALUES (1,2,0.5);");
    assert!(reserved.starts_with("ERR parse:"), "{reserved}");

    // After all that, the one successful batch is the only write.
    let stats = service.stats();
    assert_eq!(stats.appends, 1);
    assert_eq!(stats.appended_rows, 2);
}

#[test]
fn write_commands_render_and_reparse_to_the_same_ast() {
    // parse → Display → parse is the identity on write commands, so
    // clients can log and replay the canonical text.
    for text in [
        "INSERT INTO R VALUES (1,2,0.5),(-3,4,1.0);",
        "INSERT INTO Edge VALUES (-1,-2,-0.125);",
        "LOAD Edge FROM CSV 'u,v,weight\\n1,2,0.5\\n';",
        "LOAD Q FROM CSV 'a,w\\nit\\'s,1.0\\n';",
        "insert into R values ( 1 , 2 , 0.5 )",
    ] {
        let cmd = parse(text).unwrap_or_else(|e| panic!("`{text}`: {e}"));
        let rendered = cmd.to_string();
        let reparsed = parse(&rendered).unwrap_or_else(|e| panic!("rendered `{rendered}`: {e}"));
        assert_eq!(cmd, reparsed, "`{text}` → `{rendered}` must reparse equal");
    }
}

#[test]
fn explain_and_stats_surface_the_write_path() {
    let q = path_query(2);
    let e = edge_rel(&fixture_edges());
    let engine = Engine::from_query_bindings(&q, vec![e.clone(), e]);
    let service = Service::new(engine);
    let mut client = LocalClient::new(&service);

    // Warm the plan, append, and EXPLAIN: the plan now reports the
    // delta term the union carries.
    let select = "SELECT R1(a,b), R2(b,c) RANK BY sum LIMIT 2;";
    let first = client.send(select);
    assert!(first.starts_with("OK cursor="), "{first}");
    assert_eq!(
        client.send("INSERT INTO R1 VALUES (7,8,0.5),(8,9,0.25);"),
        "OK appended rows=2 deltas=1 compacted=false\nEND\n"
    );
    let explain = client.send(&format!("EXPLAIN {select}"));
    assert!(explain.contains("deltas = 1"), "{explain}");

    // STATS carries the write counters on the wire.
    let stats = client.send("STATS;");
    for field in [
        "INFO appends=1",
        "INFO appended_rows=2",
        "INFO compactions=0",
        "INFO append_invalidations=1",
        // The refresh kept the all-base term and built R1's delta term.
        "INFO terms_kept=1",
        "INFO terms_extended=0",
        "INFO terms_rebuilt=1",
    ] {
        assert!(stats.contains(field), "missing `{field}`:\n{stats}");
    }
}

/// A connected client over a fresh path-3 service, with the server to
/// keep alive beside it.
fn tcp_client() -> (Server, TcpClient) {
    let (service, _) = service_for(&path_query(3), 3);
    let server = bind(&service);
    let client = TcpClient::connect(server.addr()).expect("connect");
    (server, client)
}

#[test]
fn a_reply_longer_than_the_clients_buffer_is_read_whole() {
    // A page sits whole in the client's read buffer and is copied out
    // of it once; a reply of tens of kilobytes spans several fills, its
    // lines straddle them, and the bytes must still be the encoder's.
    let q = path_query(3);
    let rels: Vec<Relation> = (0..3)
        .map(|i| common::gen::scrambled_edges(300, 30, 2 * i + 1))
        .collect();
    let service = Service::new(Engine::from_query_bindings(&q, rels));
    let mut server = bind(&service);
    let mut tcp = TcpClient::connect(server.addr()).expect("connect");
    let mut local = LocalClient::new(&service);
    for rank in [RankSpec::Sum, RankSpec::Lex] {
        let select = select_text(&q, rank, Some(2_000));
        let got = tcp.send(&select).expect("a long page");
        assert!(got.len() > 32 * 1024, "{} bytes", got.len());
        assert_eq!(got.lines().count(), 2_002, "header, 2 000 rows, END");
        // Cursor ids are per session: both clients are on their first.
        assert_eq!(got, local.send(&select), "{rank}");
        // The reader is left exactly past the block.
        let id = if rank == RankSpec::Sum { 0 } else { 1 };
        let close = format!("OK closed={id}\nEND\n");
        assert_eq!(tcp.send(&format!("CLOSE {id};")).expect("close"), close);
        assert_eq!(local.send(&format!("CLOSE {id};")), close);
    }
    server.shutdown();
}

#[test]
fn send_refuses_a_blank_line_instead_of_waiting_for_a_reply_that_never_comes() {
    // The server skips blank lines and answers nothing: before the
    // check, `send("")` wrote the line and blocked in `read_reply` for
    // good.
    let (_server, mut tcp) = tcp_client();
    for blank in ["", "   ", "\t", "\r"] {
        let err = tcp.send(blank).expect_err("a blank line is refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{blank:?}");
    }
    // Nothing was written: the connection serves the next command.
    assert!(tcp.send("STATS;").expect("stats").starts_with("OK stats\n"));
}

#[test]
fn send_refuses_two_commands_in_one_line_instead_of_desynchronising() {
    // Two commands get two replies; `send` reads one, so every later
    // `send` would return the reply to the command before it.
    let (_server, mut tcp) = tcp_client();
    for two in ["STATS;\nSTATS;", "STATS;\n", "\nSTATS;", "STATS;\r\nSTATS;"] {
        let err = tcp.send(two).expect_err("a line break is refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{two:?}");
    }
    // Still in step: each command gets its own reply.
    let select = "SELECT R1(x0,x1), R2(x1,x2), R3(x2,x3) RANK BY sum LIMIT 2;";
    assert!(tcp
        .send(select)
        .expect("select")
        .starts_with("OK cursor=0 rows=2"));
    assert_eq!(tcp.send("CLOSE 0;").expect("close"), "OK closed=0\nEND\n");
    // Pipelining stays possible, spelled out: raw bytes, then one
    // `read_reply` per command.
    tcp.send_raw(b"STATS;\nCLOSE 0;\n").expect("two commands");
    assert!(tcp.read_reply().expect("first").starts_with("OK stats\n"));
    assert!(tcp.read_reply().expect("second").starts_with("ERR cursor:"));
}

#[test]
fn framing_survives_partial_and_pipelined_segments_on_both_transports() {
    let q = path_query(3);
    let (service, _) = service_for(&q, 3);
    let mut server = bind(&service);
    let mut tcp = TcpClient::connect(server.addr()).expect("connect");
    // The expected bytes come from a LocalClient running the same
    // commands against an identical fresh service.
    let (reference, _) = service_for(&q, 3);
    let mut local = LocalClient::new(&reference);

    // One command dribbled in across four TCP segments.
    for piece in [
        "SELECT R1(x0,x1), R2(",
        "x1,x2), R3(x2",
        ",x3) RANK",
        " BY sum LIMIT 3;\n",
    ] {
        tcp.send_raw(piece.as_bytes()).expect("partial write");
        std::thread::sleep(Duration::from_millis(2));
    }
    let got = tcp.read_reply().expect("reply after last segment");
    let want = local.send("SELECT R1(x0,x1), R2(x1,x2), R3(x2,x3) RANK BY sum LIMIT 3;");
    assert_eq!(got, want, "partial-line framing");

    // Three commands pipelined into one segment: three reply
    // blocks, in order, byte-identical to the serial transcript.
    tcp.send_raw(b"NEXT 2 ON 0;\nSTATS;\nCLOSE 0;\n")
        .expect("pipelined write");
    let got: Vec<String> = (0..3).map(|_| tcp.read_reply().expect("reply")).collect();
    let want_next = local.send("NEXT 2 ON 0;");
    let want_stats_header = "OK stats\n";
    let want_close = local.send("CLOSE 0;");
    assert_eq!(got[0], want_next, "pipelined NEXT");
    assert!(
        got[1].starts_with(want_stats_header),
        "pipelined STATS: {}",
        got[1]
    );
    assert_eq!(got[2], want_close, "pipelined CLOSE");
    server.shutdown();
}

#[test]
fn default_bind_serves_the_protocol() {
    // One session's whole life — open, page, close, and the STATS it
    // leaves behind — through `Server::bind`'s defaults.
    let q = path_query(3);
    let (service, _) = service_for(&q, 3);
    let mut server = bind(&service);
    let mut tcp = TcpClient::connect(server.addr()).expect("connect");
    let mut local = LocalClient::new(&service);
    for cmd in [
        "SELECT R1(x0,x1), R2(x1,x2), R3(x2,x3) RANK BY sum LIMIT 4;",
        "NEXT 4 ON 0;",
        "CLOSE 0;",
        "STATS;",
    ] {
        let via_tcp = tcp.send(cmd).expect("tcp round-trip");
        assert_eq!(via_tcp, local.send(cmd), "divergence on `{cmd}`");
    }
    server.shutdown();
}

#[test]
fn half_close_without_newline_still_serves_the_final_command() {
    // `printf 'STATS;' | nc` — no trailing newline, client shuts its
    // write half: the command must still get its reply (the framer
    // flushes the partial line at EOF).
    let q = path_query(3);
    let (service, _) = service_for(&q, 3);
    let mut server = bind(&service);
    let stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    std::io::Write::write_all(&mut writer, b"STATS;").expect("write");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let mut reply = String::new();
    std::io::Read::read_to_string(&mut { stream }, &mut reply).expect("read");
    assert!(
        reply.starts_with("OK stats\n") && reply.ends_with("END\n"),
        "unterminated final command must be served: {reply:?}"
    );
    server.shutdown();
}

#[test]
fn oversized_lines_get_a_typed_proto_error_and_the_connection_survives() {
    let q = path_query(3);
    let (service, _) = service_for(&q, 3);
    let mut server = Server::bind_with(
        service.clone(),
        "127.0.0.1:0",
        TransportConfig {
            max_line_len: 64,
            ..TransportConfig::default()
        },
    )
    .expect("bind");
    let mut tcp = TcpClient::connect(server.addr()).expect("connect");

    // A 200-byte monster line: one typed ERR block, then the
    // connection keeps serving.
    let monster = format!("SELECT {};\n", "R1(a,b), ".repeat(22));
    assert!(monster.len() > 200);
    tcp.send_raw(monster.as_bytes()).expect("oversized write");
    assert_eq!(
        tcp.read_reply().expect("proto error"),
        "ERR proto: line exceeds 64 bytes\nEND\n"
    );
    let stats = tcp.send("STATS;").expect("follow-up command");
    assert!(stats.starts_with("OK stats\n"), "{stats}");
    server.shutdown();
}

#[test]
fn event_loop_serves_concurrent_tcp_clients_byte_identically() {
    let q = cycle_query(4);
    let (service, _) = service_for(&q, 4);
    let select = select_text(&q, RankSpec::Sum, Some(2));
    let want: Vec<String> = service
        .engine()
        .expect("single-engine service")
        .prepare(q.clone(), RankSpec::Sum)
        .expect("prepare")
        .stream()
        .map(|a| encode_answer(&a))
        .collect();
    assert!(want.len() > 4, "needs several pages to interleave");

    let mut server = bind(&service);
    let addr = server.addr();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let select = &select;
                s.spawn(move || {
                    let mut tcp = TcpClient::connect(addr).expect("connect");
                    let mut rows = Vec::new();
                    let mut reply = tcp.send(select).expect("select");
                    loop {
                        let header = reply.lines().next().expect("header").to_string();
                        assert!(header.starts_with("OK "), "{reply}");
                        rows.extend(
                            reply
                                .lines()
                                .filter(|l| l.starts_with("ROW "))
                                .map(String::from),
                        );
                        if header.contains("done=true") {
                            return rows;
                        }
                        let cursor = header
                            .split("cursor=")
                            .nth(1)
                            .and_then(|t| t.split_whitespace().next())
                            .expect("cursor")
                            .to_string();
                        reply = tcp.send(&format!("NEXT 2 ON {cursor};")).expect("next");
                    }
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("client thread"), want);
        }
    });
    let stats = service.stats();
    assert_eq!(stats.queries, 8);
    assert_eq!(stats.open_cursors, 0, "drained cursors release slots");
    assert!(
        stats.cache.hits > stats.cache.misses,
        "one shape, eight clients: the plan cache serves the repeats ({stats:?})"
    );
    // The server's latency histograms, over the wire, saw real traffic.
    let text = TcpClient::connect(addr)
        .and_then(|mut tcp| tcp.send("STATS;"))
        .expect("stats round-trip");
    for field in [
        "ttf_p50_us",
        "ttf_p95_us",
        "ttf_p99_us",
        "page_p50_us",
        "page_p95_us",
        "page_p99_us",
    ] {
        let value: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix(&format!("INFO {field}=")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("STATS must carry {field}:\n{text}"));
        assert!(
            value > 0,
            "{field} must be non-zero after a load round:\n{text}"
        );
    }
    server.shutdown();
}

#[test]
fn silent_sessions_expired_cursors_are_reaped_through_the_cursor_table() {
    // The PR-4 gap, regression-pinned: a session that goes SILENT
    // while holding cursors must not pin its admission slots past the
    // TTL. The cursor table releases them from *outside* the
    // owning session — here via the admission path of a different
    // session's SELECT.
    let q = path_query(2);
    let e = edge_rel(&fixture_edges());
    let engine = Engine::from_query_bindings(&q, vec![e.clone(), e]);
    let service = Service::with_config(
        engine,
        ServiceConfig {
            max_open_cursors: 1,
            cursor_ttl: Duration::from_millis(30),
            ..ServiceConfig::default()
        },
    );
    let select = "SELECT R1(a,b), R2(b,c) LIMIT 1;";

    // Session A holds the only admission slot... and goes silent.
    let mut silent = service.session();
    let Ok(Response::Page(page)) = silent.execute(select) else {
        panic!("A's select")
    };
    let held = page.cursor.expect("live cursor");
    assert_eq!(service.stats().open_cursors, 1);

    // While A's cursor is fresh, another session is turned away (the
    // admission sweep finds nothing expired).
    let mut other = service.session();
    assert_eq!(
        other.execute(select),
        Err(ServeError::AdmissionRejected { open: 1, max: 1 })
    );

    // Past the TTL — A still silent — admission's consult of the
    // cursor table frees A's slot and the SELECT goes through.
    std::thread::sleep(Duration::from_millis(60));
    let resp = other.execute(select).expect("slot reaped by admission");
    let Response::Page(page) = resp else { panic!() };
    assert!(page.cursor.is_some(), "B owns the freed slot");
    let stats = service.stats();
    assert_eq!(stats.cursors_expired, 1, "A's cursor was reaped");
    assert_eq!(stats.open_cursors, 1, "exactly B's cursor remains");

    // When A finally speaks, its cursor reports *expired* (for NEXT
    // and CLOSE alike) — and nothing double-releases.
    assert_eq!(
        silent.execute(&format!("NEXT 1 ON {held};")),
        Err(ServeError::CursorExpired { cursor: held })
    );
    assert_eq!(
        silent.execute(&format!("CLOSE {held};")),
        Err(ServeError::CursorExpired { cursor: held })
    );
    drop(silent);
    drop(other);
    let stats = service.stats();
    assert_eq!(stats.open_cursors, 0);
    assert_eq!(
        stats.cursors_opened,
        stats.cursors_closed + stats.cursors_expired,
        "lifecycle accounting balances: {stats:?}"
    );
}

#[test]
fn event_loop_tick_reaps_silent_connections_without_admission_pressure() {
    // No admission pressure at all: the event loop's timer tick alone
    // must sweep the cursor table while the client connection stays
    // open but silent.
    let q = path_query(2);
    let e = edge_rel(&fixture_edges());
    let engine = Engine::from_query_bindings(&q, vec![e.clone(), e]);
    let service = Service::with_config(
        engine,
        ServiceConfig {
            cursor_ttl: Duration::from_millis(50),
            ..ServiceConfig::default()
        },
    );
    let mut server = bind(&service);
    let mut tcp = TcpClient::connect(server.addr()).expect("connect");
    let reply = tcp
        .send("SELECT R1(a,b), R2(b,c) LIMIT 1;")
        .expect("select");
    assert!(reply.starts_with("OK cursor=0"), "{reply}");
    assert_eq!(service.stats().open_cursors, 1);

    // Stay connected, say nothing. The tick (100 ms cadence) reaps.
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    loop {
        let stats = service.stats();
        if stats.open_cursors == 0 && stats.cursors_expired == 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "tick never reaped: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // The silent client's next command sees the typed expiry.
    let reply = tcp.send("NEXT 1 ON 0;").expect("next");
    assert_eq!(reply, "ERR cursor: cursor 0 expired\nEND\n");
    server.shutdown();
}

#[test]
fn concurrent_sessions_page_byte_identically() {
    // >= 8 clients over one shared service: every transcript must be
    // identical to the single-threaded direct-stream encoding, pages
    // interleaving freely across threads.
    let q = cycle_query(4);
    let (service, _) = service_for(&q, 4);
    let select = select_text(&q, RankSpec::Sum, Some(2));
    let want: Vec<String> = service
        .engine()
        .expect("single-engine service")
        .prepare(q.clone(), RankSpec::Sum)
        .expect("prepare")
        .stream()
        .map(|a| encode_answer(&a))
        .collect();
    assert!(want.len() > 4, "needs several pages to interleave");

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let service = &service;
                let select = &select;
                s.spawn(move || {
                    let mut client = LocalClient::new(service);
                    page_rows(&mut client, select, 2)
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("client thread"), want);
        }
    });
    let stats = service.stats();
    assert_eq!(stats.queries, 8, "eight SELECTs");
    assert_eq!(stats.open_cursors, 0, "drained cursors release their slots");
    assert!(
        stats.cache.hits >= 8,
        "one prepare, everyone else hits the plan cache (got {:?})",
        stats.cache
    );
}

#[test]
fn cursor_close_and_ttl_semantics() {
    let q = path_query(2);
    let e = edge_rel(&fixture_edges());
    let engine = Engine::from_query_bindings(&q, vec![e.clone(), e]);
    let service = Service::with_config(
        engine,
        ServiceConfig {
            cursor_ttl: Duration::from_millis(15),
            ..ServiceConfig::default()
        },
    );
    let mut session = service.session();

    // LIMIT 1 on a many-answer query keeps the cursor open.
    let resp = session
        .execute("SELECT R1(a,b), R2(b,c) LIMIT 1;")
        .expect("select");
    let Response::Page(page) = resp else { panic!() };
    let id = page.cursor.expect("live cursor");
    assert_eq!(session.open_cursors(), 1);

    // CLOSE releases it; a second CLOSE (and any NEXT) is typed.
    assert_eq!(
        session.execute(&format!("CLOSE {id};")),
        Ok(Response::Closed { cursor: id })
    );
    assert_eq!(session.open_cursors(), 0);
    assert_eq!(
        session.execute(&format!("CLOSE {id};")),
        Err(ServeError::UnknownCursor { cursor: id })
    );
    assert_eq!(
        session.execute(&format!("NEXT 1 ON {id};")),
        Err(ServeError::UnknownCursor { cursor: id })
    );

    // A cursor that idles past the TTL is reaped, and NEXT on it says
    // *expired*, not unknown.
    let resp = session
        .execute("SELECT R1(a,b), R2(b,c) LIMIT 1;")
        .expect("select");
    let Response::Page(page) = resp else { panic!() };
    let id = page.cursor.expect("live cursor");
    std::thread::sleep(Duration::from_millis(40));
    assert_eq!(
        session.execute(&format!("NEXT 1 ON {id};")),
        Err(ServeError::CursorExpired { cursor: id })
    );
    assert_eq!(
        session.execute(&format!("CLOSE {id};")),
        Err(ServeError::CursorExpired { cursor: id }),
        "CLOSE distinguishes expired from unknown, like NEXT"
    );
    assert_eq!(service.stats().cursors_expired, 1);
    assert_eq!(service.stats().open_cursors, 0, "reaping frees the slot");

    // The wire rendering of the lifecycle errors is stable.
    let mut client = LocalClient::new(&service);
    assert_eq!(
        client.send("NEXT 1 ON 7;"),
        "ERR cursor: unknown cursor 7\nEND\n"
    );
}

#[test]
fn admission_control_rejects_typed_and_recovers() {
    let q = path_query(2);
    let e = edge_rel(&fixture_edges());
    let engine = Engine::from_query_bindings(&q, vec![e.clone(), e]);
    let service = Service::with_config(
        engine,
        ServiceConfig {
            max_open_cursors: 2,
            ..ServiceConfig::default()
        },
    );
    let select = "SELECT R1(a,b), R2(b,c) LIMIT 1;";

    // Two sessions each hold a live cursor: the service is full.
    let mut s1 = service.session();
    let mut s2 = service.session();
    assert!(matches!(s1.execute(select), Ok(Response::Page(_))));
    assert!(matches!(s2.execute(select), Ok(Response::Page(_))));
    let mut s3 = service.session();
    assert_eq!(
        s3.execute(select),
        Err(ServeError::AdmissionRejected { open: 2, max: 2 })
    );
    assert_eq!(service.stats().admission_rejected, 1);

    // Closing one stream frees a slot...
    assert!(matches!(
        s1.execute("CLOSE 0;"),
        Ok(Response::Closed { .. })
    ));
    assert!(matches!(s3.execute(select), Ok(Response::Page(_))));

    // ...and dropping a whole session releases everything it held.
    drop(s2);
    drop(s3);
    assert_eq!(service.stats().open_cursors, 0);

    // Draining a stream to exhaustion also releases its slot without
    // an explicit CLOSE.
    let mut s4 = service.session();
    let Ok(Response::Page(page)) = s4.execute(select) else {
        panic!()
    };
    let id = page.cursor.expect("live");
    let mut done = false;
    for _ in 0..100 {
        let Ok(Response::Page(p)) = s4.execute(&format!("NEXT 50 ON {id};")) else {
            panic!()
        };
        if p.done {
            done = true;
            break;
        }
    }
    assert!(done, "stream must drain");
    assert_eq!(service.stats().open_cursors, 0);
    assert_eq!(s4.open_cursors(), 0);
}

#[test]
fn exact_page_boundary_reports_done_and_holds_no_cursor() {
    // A result set that ends exactly at the page boundary must report
    // done=true with no cursor — a one-shot top-k client that never
    // sends NEXT/CLOSE must not pin an admission slot.
    let q = QueryBuilder::new().atom("E", &["a", "b"]).build();
    let rows = fixture_edges();
    let engine = Engine::from_query_bindings(&q, vec![edge_rel(&rows)]);
    let service = Service::new(engine);
    let mut session = service.session();
    let resp = session
        .execute(&format!("SELECT E(a,b) LIMIT {};", rows.len()))
        .expect("select");
    let Response::Page(page) = resp else { panic!() };
    assert_eq!(page.answers.len(), rows.len());
    assert!(page.done, "exactly page-sized result is proven exhausted");
    assert_eq!(page.cursor, None);
    assert_eq!(session.open_cursors(), 0);
    assert_eq!(service.stats().open_cursors, 0, "no slot pinned");

    // One short of the full set: a cursor is registered, and the next
    // page carries the single remaining answer with done=true.
    let resp = session
        .execute(&format!("SELECT E(a,b) LIMIT {};", rows.len() - 1))
        .expect("select");
    let Response::Page(page) = resp else { panic!() };
    let id = page.cursor.expect("one answer remains");
    assert!(!page.done);
    let Ok(Response::Page(last)) = session.execute(&format!("NEXT 5 ON {id};")) else {
        panic!()
    };
    assert_eq!(last.answers.len(), 1);
    assert!(last.done);
    assert_eq!(service.stats().open_cursors, 0);
}

#[test]
fn a_page_that_ends_on_the_last_answer_is_done_on_every_route_and_ranking() {
    // The lookahead row travels between the page slab and the cursor:
    // whichever page the last answer lands on — the first or a later
    // one, filled in place or through a merge — reports `done` and
    // leaves no cursor pinned.
    for (route, q, m) in shapes() {
        let (service, _) = service_for(&q, m);
        let engine = service.engine().expect("single-engine service");
        let mut session = service.session();
        for rank in RankSpec::ALL {
            let what = format!("{route} × {rank}");
            let total = engine
                .prepare(q.clone(), rank)
                .expect("prepare")
                .stream()
                .count();
            assert!(total > 4, "{what}: fixture has answers");
            let mut page_of = |command: String| match session.execute(&command) {
                Ok(Response::Page(page)) => page,
                other => panic!("{what}: `{command}` returned {other:?}"),
            };
            let whole = page_of(select_text(&q, rank, Some(total)));
            assert_eq!(
                (whole.answers.len(), whole.done, whole.cursor),
                (total, true, None)
            );
            let head = page_of(select_text(&q, rank, Some(total - 4)));
            assert_eq!(
                (head.answers.len(), head.done),
                (total - 4, false),
                "{what}"
            );
            let id = head.cursor.expect("four answers remain");
            let tail = page_of(format!("NEXT 4 ON {id};"));
            assert_eq!(
                (tail.answers.len(), tail.done, tail.cursor),
                (4, true, None),
                "{what}"
            );
            // Together the two pages are the whole stream, in order.
            let rows = |page: &anyk::serve::Page| -> Vec<RankedAnswer> {
                (0..page.answers.len())
                    .map(|i| page.answers.answer(i))
                    .collect()
            };
            assert!(
                [rows(&head), rows(&tail)].concat() == rows(&whole),
                "{what}"
            );
            assert_eq!(service.stats().open_cursors, 0, "{what}: no slot pinned");
        }
        assert_eq!(session.open_cursors(), 0);
    }
}

#[test]
fn stats_report_real_serving_numbers() {
    let q = triangle_query();
    let (service, _) = service_for(&q, 3);
    let mut client = LocalClient::new(&service);
    let select = select_text(&q, RankSpec::Sum, Some(2));
    let _ = client.send(&select);
    let _ = client.send(&select); // second: plan-cache hit
    let stats = service.stats();
    assert_eq!(stats.queries, 2);
    assert!(stats.answers_served >= 2);
    assert_eq!(stats.cache.misses, 1, "one cold prepare");
    assert!(stats.cache.hits >= 1, "the repeat hits the plan cache");
    assert!(stats.ttf_max_us >= stats.ttf_min_us);

    // The wire rendering carries the same numbers.
    let text = client.send("STATS;");
    assert!(text.contains("INFO queries=2"), "{text}");
    assert!(text.contains("INFO plan_cache_misses=1"), "{text}");
    assert!(text.starts_with("OK stats\n"), "{text}");

    // EXPLAIN executes nothing but renders the plan.
    let explain = client.send(&format!("EXPLAIN {select}"));
    assert!(explain.contains("route = triangle"), "{explain}");
    assert_eq!(service.stats().queries, 2, "EXPLAIN is not a query");
}

#[test]
fn explain_analyze_and_trace_round_trip_on_both_transports() {
    // The observability commands through a real socket: EXPLAIN
    // ANALYZE executes (but holds no cursor) and reports the stage
    // taxonomy; TRACE replays the ring; TRACE SLOW is empty under the
    // default 250 ms threshold. Masking the `_us=<digits>` timing
    // values, the analyze reply must be byte-identical to the one a
    // LocalClient gets from an identical fresh service.
    let mask = |reply: &str| -> String {
        reply
            .split(' ')
            .map(|tok| match tok.find("_us=") {
                Some(i) if tok.as_bytes().get(i + 4).is_some_and(u8::is_ascii_digit) => {
                    let tail = &tok[i + 4..];
                    let end = tail
                        .find(|c: char| !c.is_ascii_digit())
                        .unwrap_or(tail.len());
                    format!("{}#{}", &tok[..i + 4], &tail[end..])
                }
                _ => tok.to_string(),
            })
            .collect::<Vec<_>>()
            .join(" ")
    };
    let q = path_query(3);
    let select = select_text(&q, RankSpec::Sum, Some(3));
    let (service, _) = service_for(&q, 3);
    let mut server = bind(&service);
    let mut tcp = TcpClient::connect(server.addr()).expect("connect");

    let analyze = tcp
        .send(&format!("EXPLAIN ANALYZE {select}"))
        .expect("analyze round-trip");
    assert!(analyze.starts_with("OK analyze\n"), "{analyze}");
    for field in [
        "INFO route=acyclic",
        "INFO rank=sum",
        "INFO cache=miss",
        "INFO stage.parse_us=",
        "INFO stage.prepare_us=",
        "INFO stage.pull_us=",
        "INFO stage_sum_us=",
        "INFO wall_us=",
        "INFO rows=3",
    ] {
        assert!(
            analyze.contains(field),
            "analyze reply missing `{field}`:\n{analyze}"
        );
    }
    assert_eq!(
        service.stats().open_cursors,
        0,
        "EXPLAIN ANALYZE must hold no cursor"
    );
    let (reference, _) = service_for(&q, 3);
    let via_local = LocalClient::new(&reference).send(&format!("EXPLAIN ANALYZE {select}"));
    assert_eq!(
        mask(&analyze),
        mask(&via_local),
        "EXPLAIN ANALYZE must be transport-identical modulo timings"
    );

    // A real SELECT publishes a trace too; TRACE 2 replays both,
    // newest first.
    let first = tcp.send(&select).expect("select round-trip");
    assert!(first.starts_with("OK cursor="), "{first}");
    let traces = tcp.send("TRACE 2;").expect("trace round-trip");
    assert!(
        traces.starts_with("OK traces count=2 source=ring\n"),
        "{traces}"
    );
    assert_eq!(
        traces
            .lines()
            .filter(|l| l.starts_with("INFO trace "))
            .count(),
        2,
        "{traces}"
    );
    assert!(
        traces.contains("route=acyclic") && traces.contains("rank=sum"),
        "{traces}"
    );

    // Nothing here is anywhere near the default slow threshold.
    let slow = tcp.send("TRACE SLOW;").expect("trace slow round-trip");
    assert_eq!(slow, "OK traces count=0 source=slow\nEND\n");
    server.shutdown();

    // Every route × ranking, on a single service over TCP (against a
    // fresh in-process twin) and on a 3-shard service: the stages carve
    // one wall interval, so they sum to it exactly.
    let stages_sum_to_wall = |reply: &str, label: &str| {
        let info = |key: &str| -> u64 {
            reply
                .lines()
                .find_map(|l| l.strip_prefix(&format!("INFO {key}=")))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{label}: no {key}:\n{reply}"))
        };
        let stages: u64 = reply
            .lines()
            .filter_map(|l| l.strip_prefix("INFO stage."))
            .filter_map(|l| l.split_once("_us="))
            .map(|(_, us)| us.parse::<u64>().expect("stage µs"))
            .sum();
        assert_eq!(stages, info("stage_sum_us"), "{label}:\n{reply}");
        assert_eq!(
            stages,
            info("wall_us"),
            "{label}: stages sum to the wall:\n{reply}"
        );
    };
    for (route, q, m) in shapes() {
        let (single, rels) = service_for(&q, m);
        let (twin, _) = service_for(&q, m);
        let sharded = Service::sharded(
            ShardedEngine::try_from_query_bindings(&q, rels, 3).expect("sharded build"),
        );
        let mut server = bind(&single);
        let mut tcp = TcpClient::connect(server.addr()).expect("connect");
        let (mut local, mut shards) = (LocalClient::new(&twin), LocalClient::new(&sharded));
        for rank in RankSpec::ALL {
            let analyze = format!("EXPLAIN ANALYZE {}", select_text(&q, rank, Some(3)));
            let label = format!("{route} × {rank}");
            let over_tcp = tcp.send(&analyze).expect("analyze round-trip");
            stages_sum_to_wall(&over_tcp, &label);
            assert_eq!(
                mask(&over_tcp),
                mask(&local.send(&analyze)),
                "{label}: transport-identical modulo timings"
            );
            stages_sum_to_wall(&shards.send(&analyze), &format!("{label} × 3 shards"));
        }
        server.shutdown();
    }
}

#[test]
fn sharded_service_pages_byte_identically_to_single_service() {
    // The wire-level sharded contract: a Service over a ShardedEngine
    // must page the exact bytes a single-engine Service pages (modulo
    // tie canonicalization, which the merge pins to value order) —
    // and EXPLAIN must surface the shard fan-out.
    for (route, q, m) in shapes() {
        let e = edge_rel(&fixture_edges());
        let rels: Vec<Relation> = (0..m).map(|_| e.clone()).collect();
        let sharded_engine =
            ShardedEngine::try_from_query_bindings(&q, rels.clone(), 3).expect("sharded build");
        let sharded_service = Service::sharded(sharded_engine);
        for rank in RankSpec::ALL {
            let select = select_text(&q, rank, Some(3));
            let mut client = LocalClient::new(&sharded_service);
            let got_rows = page_rows(&mut client, &select, 3);
            // Baseline: the single engine's canonical-tie stream
            // through the same encoder.
            let single = Engine::from_query_bindings(&q, rels.clone());
            let want_rows: Vec<String> = single
                .prepare(q.clone(), rank)
                .expect("single prepare")
                .stream()
                .canonical_ties()
                .map(|a| encode_answer(&a))
                .collect();
            assert!(
                !want_rows.is_empty(),
                "{route} × {rank}: fixture has answers"
            );
            assert_eq!(
                got_rows, want_rows,
                "{route} × {rank}: sharded pages == single-engine canonical stream"
            );
        }
        // Every probe paged to exhaustion: no cursor outlives it.
        let stats = sharded_service.stats();
        assert_eq!(stats.open_cursors, 0, "{route}: leaked cursors");
        assert_eq!(
            stats.cursors_opened,
            stats.cursors_closed + stats.cursors_expired,
            "{route}: lifecycle accounting must balance: {stats:?}"
        );
        // EXPLAIN through the sharded backend reports the fan-out.
        let mut client = LocalClient::new(&sharded_service);
        let explain = client.send(&format!(
            "EXPLAIN {}",
            select_text(&q, RankSpec::Sum, Some(1))
        ));
        assert!(
            explain.contains("shard fan-out: 3 shard(s)"),
            "{route}: EXPLAIN must show the fan-out, got:\n{explain}"
        );
        // STATS reports the shard count and aggregates across shards.
        let stats = client.send("STATS;");
        assert!(
            stats.contains("INFO shards=3"),
            "{route}: STATS must carry the shard count, got:\n{stats}"
        );
    }
}
