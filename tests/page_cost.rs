//! What one served op allocates, counted per step with a test-local
//! allocator rather than timed — exact on any machine. The op is
//! `serve_pages`': `SELECT … LIMIT 10`, four `NEXT 10`, `CLOSE`, on the
//! nine combos {path-3, triangle, 4-cycle} × {sum, max, lex}, warm.
//!
//! At bcd4253 the path-3 / sum op took 281 blocks: parsing 86 (every
//! token a `String`), the warm `SELECT` 97 (lowering 12, the rendered
//! cache key 12, two deep `Plan` clones 34, a first page of 28 for ten
//! answers), each `NEXT` page 15, each reply `String` grown to its size
//! by doubling. Now tokens borrow the input, the query is its own cache
//! key, one `Plan` is shared, a page is two blocks of rows, and a reply
//! is sized before it is written.

mod common;
#[path = "common/counting.rs"]
mod counting;

use anyk::engine::AnswerSlab;
use anyk::prelude::*;
use anyk::query::cq::ConjunctiveQuery;
use anyk::serve::{encode_response, parse, select_text, Command, Page, Response};
use common::gen::scrambled_edges;
use counting::counted;

const PAGE: usize = 10;
const PAGES: usize = 5;

/// The nine combos.
fn combos() -> Vec<(String, ConjunctiveQuery, RankSpec)> {
    let shapes = [
        ("path-3", path_query(3)),
        ("triangle", cycle_query(3)),
        ("4-cycle", cycle_query(4)),
    ];
    let mut out = Vec::new();
    for (shape, q) in shapes {
        for rank in [RankSpec::Sum, RankSpec::Max, RankSpec::Lex] {
            out.push((format!("{shape} / {rank}"), q.clone(), rank));
        }
    }
    out
}

/// `serve_pages`' data: four relations of 2 000 edges, degree 10.
fn service() -> Service {
    let mut catalog = Catalog::new();
    for i in 0..4u64 {
        catalog.register(
            format!("R{}", i + 1),
            scrambled_edges(2_000, 200, 2 * i + 1),
        );
    }
    Service::new(Engine::new(catalog))
}

/// Ceilings on the blocks of a warm `SELECT … LIMIT 10`, of a `NEXT 10`
/// and of the whole op through [`LocalClient`], parsing and replies
/// included. Scalar rankings read 13 / 2–5 / 42–57 on every shape (97 /
/// 15 / 239–321 at bcd4253). A lexicographic cost leaves the engine as
/// a vector, one block per answer, on every shape: 19–24 / 12–13 /
/// 93–100. The path once read 122 / 82–89 / 486 (188 / 142–149 / 792
/// unoptimized): its enumerator kept a prefix and a suffix cost per
/// slot for every answer, each a vector. It now keeps only rows per
/// answer and writes one pair of aggregates over the last pop's, and a
/// cost of up to four weights lives inline, so an unoptimized build
/// reads the same. A lexicographic page's reply is reserved once for
/// its weights; these weights are eighths, whose rows fit a scalar
/// row's room, so the whole-op counts read the same with or without
/// that.
fn ceilings(rank: RankSpec) -> (u64, u64, u64) {
    match rank {
        RankSpec::Lex => (24, 14, 110),
        _ => (20, 6, 70),
    }
}

/// Blocks `f` allocates.
fn blocks<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let ((blocks, _), out) = counted(f);
    (blocks, out)
}

#[test]
fn cursor_commands_parse_without_allocating_and_select_allocates_its_ast() {
    for text in [
        "NEXT 10 ON 7;",
        "CLOSE 7;",
        "STATS;",
        "TRACE 8;",
        "trace slow",
    ] {
        let (n, cmd) = blocks(|| parse(text));
        assert!(cmd.is_ok(), "{text}");
        assert_eq!(n, 0, "`{text}` allocates nothing");
    }
    for (label, q, rank) in combos() {
        let text = select_text(&q, rank, Some(PAGE));
        let (n, cmd) = blocks(|| parse(&text));
        let Ok(Command::Select(stmt)) = cmd else {
            panic!("{label}: `{text}` is a SELECT")
        };
        // The atom list; per atom its name, its variable list and one
        // name per variable.
        let owned: usize = 1 + (stmt.atoms.iter()).map(|a| 2 + a.vars.len()).sum::<usize>();
        assert_eq!(
            n as usize, owned,
            "{label}: one block per thing the AST owns"
        );
    }
}

/// The steps of one warm op, each counted: `(select, [next; 4], close)`
/// through `Session::run` on already-parsed commands.
fn op_blocks(session: &mut anyk::serve::Session, select: &Command) -> (u64, Vec<u64>, u64) {
    let (first, resp) = blocks(|| session.run(select.clone()));
    let Ok(Response::Page(page)) = resp else {
        panic!("SELECT returns a page")
    };
    assert_eq!(page.answers.len(), PAGE);
    let cursor = page.cursor.expect("more than one page of answers");
    drop(page);
    let mut nexts = Vec::new();
    for _ in 1..PAGES {
        let cmd = Command::Next {
            count: PAGE,
            cursor,
        };
        let (n, resp) = blocks(|| session.run(cmd));
        let Ok(Response::Page(page)) = resp else {
            panic!("NEXT returns a page")
        };
        assert_eq!((page.answers.len(), page.done), (PAGE, false));
        nexts.push(n);
    }
    let (close, resp) = blocks(|| session.run(Command::Close { cursor }));
    assert_eq!(resp, Ok(Response::Closed { cursor }));
    (first, nexts, close)
}

#[test]
fn a_warm_op_allocates_by_the_page_not_by_the_answer() {
    let service = service();
    for (label, q, rank) in combos() {
        let text = select_text(&q, rank, Some(PAGE));
        let select = parse(&text).expect("parses");
        let mut session = service.session();
        // Warm: the plan is cached, shared orders and the triangle's
        // sorted artifact are built, the session's cursor map exists.
        for _ in 0..2 {
            op_blocks(&mut session, &select);
        }
        // `select.clone()` inside the counted region is the parse's
        // share; take it out.
        let (parse_share, _) = blocks(|| select.clone());
        let (first, nexts, close) = op_blocks(&mut session, &select);
        let first = first - parse_share;
        assert_eq!(close, 0, "{label}: CLOSE");
        let (select_max, next_max, _) = ceilings(rank);
        assert!(first <= select_max, "{label}: SELECT {first}");
        for n in nexts {
            assert!(n <= next_max, "{label}: NEXT {n}");
        }
    }
}

#[test]
fn a_whole_op_through_the_wire_encoder_stays_under_its_budget() {
    let service = service();
    for (label, q, rank) in combos() {
        let select = select_text(&q, rank, Some(PAGE));
        let mut client = LocalClient::new(&service);
        let op = |client: &mut LocalClient| {
            let reply = client.send(&select);
            let header = reply.lines().next().expect("a header line");
            let cursor: u64 = (header.split(' ').find_map(|f| f.strip_prefix("cursor=")))
                .and_then(|id| id.parse().ok())
                .unwrap_or_else(|| panic!("{label}: {header}"));
            for _ in 1..PAGES {
                let reply = client.send(&format!("NEXT {PAGE} ON {cursor};"));
                assert!(reply.starts_with("OK cursor="), "{label}: {reply}");
            }
            assert_eq!(
                client.send(&format!("CLOSE {cursor};")),
                format!("OK closed={cursor}\nEND\n")
            );
        };
        for _ in 0..2 {
            op(&mut client);
        }
        let (n, ()) = blocks(|| op(&mut client));
        let (_, _, op_max) = ceilings(rank);
        assert!(n <= op_max, "{label}: {n} blocks an op");
    }
}

/// Weights at 17 digits, as uniform data prints them, push a row of
/// three or four past a scalar row's room; the reply is still sized
/// once, before its first byte.
#[test]
fn a_lexicographic_page_of_full_precision_weights_is_one_reply_block() {
    let mut bits = 0x9e37_79b9_7f4a_7c15u64;
    let mut uniform = move || {
        bits ^= bits << 13;
        bits ^= bits >> 7;
        bits ^= bits << 17;
        Weight::new((bits >> 11) as f64 / (1u64 << 53) as f64)
    };
    for weights in 1..=4 {
        let mut answers = AnswerSlab::new(4);
        for row in 0..PAGE as i64 {
            let cost = Cost::Lex((0..weights).map(|_| uniform()).collect());
            answers.push(cost, &[Value::Int(row); 4]);
        }
        let resp = Response::Page(Page {
            cursor: Some(7),
            answers,
            done: false,
        });
        let (n, reply) = blocks(|| encode_response(&resp));
        if weights >= 3 {
            assert!(reply.len() > 64 * (PAGE + 1), "{weights} weights: {reply}");
        }
        assert_eq!(n, 1, "{weights} weights: one block for the reply");
    }
}

#[test]
fn a_warm_stream_shares_its_prepared_querys_plan() {
    let service = service();
    let engine = service.engine();
    for (label, q, rank) in combos() {
        let prepared = engine.prepare(q.clone(), rank).expect("prepare");
        for _ in 0..2 {
            assert_eq!(prepared.stream().take(PAGE).count(), PAGE);
        }
        let (n, stream) = blocks(|| prepared.stream());
        assert!(
            std::ptr::eq(stream.plan(), prepared.plan()),
            "{label}: the stream's plan is the prepared query's, not a copy"
        );
        // The boxed enumerator and what it seeds: a candidate heap per
        // tree (one tree, or the 4-cycle's few) and the union over them.
        assert!(n <= 16, "{label}: stream() allocates {n} blocks");
        // A cache hit hands out the same plan again.
        let again = engine
            .prepare(prepared.plan().query.clone(), rank)
            .expect("hit");
        assert!(
            std::ptr::eq(again.plan(), prepared.plan()),
            "{label}: one plan per entry"
        );
    }
}
