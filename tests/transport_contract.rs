//! What the transport promises beyond "the same bytes as a
//! `LocalClient`": who gets served while somebody else is slow.
//!
//! Cases (a) and (b) each rule out a transport design that would pass
//! every byte-identity test:
//!
//! * (a) fails on a **reactor-per-thread** design (connections
//!   partitioned over the threads at accept time): with two threads and
//!   three connections, one of the two quick clients shares the slow
//!   client's thread and waits for it.
//! * (b) fails on a **run-to-completion** design (a thread keeps a
//!   connection until its queue of framed commands is empty): with one
//!   thread, the other client's single command waits behind all 200.

mod common;

use anyk::prelude::*;
use anyk::serve::{select_text, Server, TcpClient, TransportConfig};
use common::gen::scrambled_edges;
use std::io::Read;
use std::net::{Shutdown, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A 3-path over dense edge relations: millions of answers behind an
/// `O(n)` prepare, so a command's length is set by its page size alone.
fn deep_service() -> (Service, String) {
    let q = path_query(3);
    let rels: Vec<Relation> = (0..3).map(|i| scrambled_edges(3_000, 60, 41 + i)).collect();
    let service = Service::new(Engine::from_query_bindings(&q, rels));
    (service, select_text(&q, RankSpec::Sum, Some(1)))
}

fn bind(service: &Service, workers: usize) -> Server {
    Server::bind_with(
        service.clone(),
        "127.0.0.1:0",
        TransportConfig {
            workers,
            ..TransportConfig::default()
        },
    )
    .expect("bind")
}

/// Connect and open one cursor on the deep stream; returns its id.
fn open_cursor(server: &Server, select: &str) -> (TcpClient, String) {
    let mut client = TcpClient::connect(server.addr()).expect("connect");
    let reply = client.send(select).expect("select");
    let cursor = reply
        .split("cursor=")
        .nth(1)
        .and_then(|s| s.split_whitespace().next())
        .unwrap_or_else(|| panic!("no cursor in {reply}"))
        .to_string();
    assert_ne!(cursor, "-", "the deep stream is not drained by one row");
    (client, cursor)
}

/// A page large enough to keep a thread busy for far longer than the
/// quick clients' whole exchange.
const LONG_PAGE: usize = 300_000;

#[test]
fn a_slow_command_occupies_one_thread_not_a_share_of_the_connections() {
    let (service, select) = deep_service();
    let mut server = bind(&service, 2);
    let (mut slow, slow_cursor) = open_cursor(&server, &select);
    let mut quick: Vec<_> = (0..2).map(|_| open_cursor(&server, &select)).collect();

    let (started_tx, started_rx) = mpsc::channel();
    std::thread::scope(|s| {
        let slow_done = s.spawn(move || {
            slow.send_raw(format!("NEXT {LONG_PAGE} ON {slow_cursor};\n").as_bytes())
                .expect("send");
            started_tx.send(()).expect("signal");
            let reply = slow.read_reply().expect("long reply");
            let at = Instant::now();
            assert!(
                reply.starts_with(&format!("OK cursor={slow_cursor} rows={LONG_PAGE} ")),
                "{}",
                reply.lines().next().unwrap_or_default()
            );
            at
        });
        started_rx.recv().expect("slow command sent");
        // Let a thread pick the long command up before the quick
        // clients start.
        std::thread::sleep(Duration::from_millis(30));
        let quick_done: Vec<_> = quick
            .iter_mut()
            .map(|(client, cursor)| {
                s.spawn(move || {
                    for _ in 0..20 {
                        let reply = client.send(&format!("NEXT 10 ON {cursor};")).expect("page");
                        assert!(reply.starts_with("OK cursor="), "{reply}");
                    }
                    Instant::now()
                })
            })
            .collect();
        let quick_at: Vec<Instant> = quick_done
            .into_iter()
            .map(|h| h.join().expect("quick client"))
            .collect();
        let slow_at = slow_done.join().expect("slow client");
        for (i, at) in quick_at.iter().enumerate() {
            assert!(
                *at < slow_at,
                "quick client {i} finished its 20 pages {:?} after the slow command's reply",
                at.duration_since(slow_at)
            );
        }
    });
    server.shutdown();
}

#[test]
fn a_pipelining_client_gives_the_thread_up_between_commands() {
    const PIPELINED: u64 = 200;
    let (service, select) = deep_service();
    let mut server = bind(&service, 1);
    let (mut piper, piper_cursor) = open_cursor(&server, &select);
    let (mut other, other_cursor) = open_cursor(&server, &select);
    let pages_before = service.stats().pages_served;

    // One segment, under one read chunk: all 200 are framed at once.
    let segment = format!("NEXT 500 ON {piper_cursor};\n").repeat(PIPELINED as usize);
    let (sent_tx, sent_rx) = mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(move || {
            piper.send_raw(segment.as_bytes()).expect("one segment");
            sent_tx.send(()).expect("signal");
            for i in 0..PIPELINED {
                let reply = piper.read_reply().expect("pipelined reply");
                assert!(reply.starts_with("OK cursor="), "reply {i}: {reply}");
            }
        });
        sent_rx.recv().expect("segment sent");
        // The other client's page, and then the server's own count of
        // the pages it had served by then: when a reply reaches a
        // client says little about when the server wrote it.
        other
            .send_raw(format!("NEXT 10 ON {other_cursor};\nSTATS;\n").as_bytes())
            .expect("send");
        let page = other.read_reply().expect("page");
        assert!(page.starts_with("OK cursor="), "{page}");
        let stats = other.read_reply().expect("stats");
        let served: u64 = stats
            .lines()
            .find_map(|l| l.strip_prefix("INFO pages_served="))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no pages_served in {stats}"));
        let piped_first = served - pages_before - 1;
        assert!(
            piped_first < PIPELINED / 2,
            "the other client's page waited behind {piped_first} of {PIPELINED} pipelined commands"
        );
    });
    server.shutdown();
}

/// 500 lines whose replies are deterministic per session: selects (the
/// session numbers its cursors from 0), pages, a typed error, closes.
fn script() -> String {
    let q = path_query(3);
    let select = select_text(&q, RankSpec::Sum, Some(150));
    let mut lines = String::new();
    for id in 0..100 {
        lines.push_str(&format!(
            "{select}\nNEXT 1500 ON {id};\nNEXT 1 ON 9999;\nNEXT 1500 ON {id};\nCLOSE {id};\n"
        ));
    }
    lines
}

/// Pipeline the whole script in one write, read nothing for 200 ms
/// while a second client pages, then read to EOF.
fn run_script_unread() -> String {
    let (service, select) = deep_service();
    let mut server = bind(&service, 2);
    let lines = script();

    let mut stalled = TcpStream::connect(server.addr()).expect("connect");
    let bytes = std::thread::scope(|s| {
        let writer = {
            let mut half = stalled.try_clone().expect("clone");
            let lines = &lines;
            s.spawn(move || {
                use std::io::Write;
                half.write_all(lines.as_bytes()).expect("pipeline");
                half.shutdown(Shutdown::Write).expect("half-close");
            })
        };
        // The stalled client's replies (some 8 MB in all) pile up in
        // the socket buffers until the kernel stops calling its socket
        // writable, and its remaining commands wait there; the other
        // client is served as if it were alone.
        let (mut pager, cursor) = open_cursor(&server, &select);
        let until = Instant::now() + Duration::from_millis(200);
        let mut pages = 0;
        while Instant::now() < until {
            let reply = pager.send(&format!("NEXT 10 ON {cursor};")).expect("page");
            assert!(reply.starts_with("OK cursor="), "{reply}");
            pages += 1;
        }
        assert!(pages >= 20, "only {pages} pages beside a stalled client");
        let mut bytes = String::new();
        stalled.read_to_string(&mut bytes).expect("read to EOF");
        writer.join().expect("writer");
        bytes
    });
    server.shutdown();
    bytes
}

#[test]
fn an_unread_pipeline_is_served_in_order_and_starves_nobody() {
    let event = run_script_unread();
    assert_eq!(event.matches("END\n").count(), script().lines().count());
    // In order: the i-th select's cursor id is i, and its close follows.
    let mut at = 0;
    for id in 0..100 {
        for needle in [
            format!("OK cursor={id} rows=150 "),
            format!("OK closed={id}\n"),
        ] {
            at += event[at..]
                .find(&needle)
                .unwrap_or_else(|| panic!("`{needle}` missing or out of order"));
        }
    }
    assert_eq!(event.matches("ERR cursor: ").count(), 100);
    // The same script, line by line, through a LocalClient on a fresh
    // service: the reference transcript.
    let (reference, _) = deep_service();
    let mut local = LocalClient::new(&reference);
    let in_process: String = script().lines().map(|line| local.send(line)).collect();
    assert!(
        event == in_process,
        "the server and a LocalClient differ on the same script ({} vs {} bytes)",
        event.len(),
        in_process.len()
    );
}

#[test]
fn shutdown_closes_idle_and_busy_connections_and_the_books_balance() {
    let (service, select) = deep_service();
    let mut server = bind(&service, 2);
    let idle: Vec<_> = (0..3).map(|_| open_cursor(&server, &select)).collect();
    let (mut busy, busy_cursor) = open_cursor(&server, &select);
    busy.send_raw(format!("NEXT {LONG_PAGE} ON {busy_cursor};\n").as_bytes())
        .expect("send");
    std::thread::sleep(Duration::from_millis(30));

    // Returns: every thread is woken and joined, the one mid-command
    // once its command is done.
    server.shutdown();

    // The busy client may or may not get its reply; then EOF, not a hang.
    while busy.read_reply().is_ok() {}
    for (mut client, cursor) in idle {
        let err = client
            .send(&format!("NEXT 1 ON {cursor};"))
            .expect_err("the server is gone");
        assert!(
            matches!(
                err.kind(),
                std::io::ErrorKind::UnexpectedEof
                    | std::io::ErrorKind::ConnectionReset
                    | std::io::ErrorKind::BrokenPipe
            ),
            "{err}"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.open_connections, 0);
    assert_eq!(stats.open_cursors, 0);
    assert_eq!(stats.cursors_opened, 4);
    assert_eq!(
        stats.cursors_opened,
        stats.cursors_closed + stats.cursors_expired,
        "every cursor opened was closed or expired"
    );
}
