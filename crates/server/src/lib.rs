//! # anyk-serve — a session-based ranked-query service
//!
//! The paper's any-k contract — answers in rank order, tiny
//! time-to-first-answer, any `k` — pays off in a *serving* context:
//! many clients pulling small pages of many queries concurrently.
//! This crate is the front door that turns the `anyk-engine` library
//! into that system, in three layers, `std`-only:
//!
//! 1. **Frontend** ([`ast`] + [`parser`]): a textual ranked-CQ
//!    language — `SELECT R(x,y), S(y,z) RANK BY sum LIMIT 10;` plus
//!    the write path (`INSERT INTO R VALUES (…),(…);` and
//!    `LOAD R FROM CSV '…';`, appended as delta batches with
//!    relation-scoped plan invalidation),
//!    `NEXT <k> ON <cursor>`, `CLOSE <cursor>`, `EXPLAIN`,
//!    `EXPLAIN ANALYZE` (execute and report per-stage wall times),
//!    `TRACE <n>` / `TRACE SLOW` (the trace ring and slow-query log),
//!    and `STATS` — that lowers to [`anyk_query::cq::ConjunctiveQuery`] +
//!    [`anyk_engine::RankSpec`], with typed [`ParseError`]s and a
//!    printable AST (canonical text round-trips).
//! 2. **Session layer** ([`service`]): a [`Service`] wrapping one shared
//!    [`Engine`](anyk_engine::Engine); each client gets a [`Session`]
//!    whose live cursors ([`RankedStream`](anyk_engine::RankedStream)s
//!    over the engine's cached prepared state) sit in one
//!    **service-wide cursor table** with their deadlines and admission
//!    slots (an expired cursor is freed whole even while the owning
//!    session is silent), with paginated `NEXT` pulls, an
//!    admission-control semaphore bounding concurrent
//!    open streams, and per-query metrics — TTF and per-page latency
//!    with p50/p95/p99 histograms, plan-cache hits/misses — surfaced
//!    through `STATS`.
//! 3. **Transport** ([`wire`] + [`frame`] + [`tcp`] + [`event_loop`]):
//!    a line-oriented protocol — every reply is an `OK`/`ERR` header,
//!    `ROW`/`INFO` lines, and an `END` terminator — served over
//!    `std::net` by one [`Server`]: a **readiness event loop**
//!    (nonblocking sockets on the in-tree `polling` shim — raw-syscall
//!    epoll, so Linux is the serving platform — shared by a few
//!    serving threads, each request served whole on the thread that
//!    was handed it, so a slow query holds one thread and no
//!    connection but its own). The server frames lines with an
//!    incremental [`LineFramer`]; it and the in-process
//!    [`LocalClient`] (which takes whole command strings, no framing)
//!    share one encoder, so reply bytes are identical by construction.
//!
//! The full layer map — including the event loop's threading model,
//! backpressure rules, and the cursor table — is documented in
//! `docs/ARCHITECTURE.md` at the repository root.
//!
//! ## Quickstart
//!
//! ```
//! use anyk_engine::Engine;
//! use anyk_serve::{LocalClient, Service};
//! use anyk_storage::{Catalog, RelationBuilder, Schema};
//!
//! // A catalog with two weighted edge relations.
//! let mut catalog = Catalog::new();
//! let mut r = RelationBuilder::new(Schema::new(["a", "b"]));
//! r.push_ints(&[1, 10], 0.3);
//! r.push_ints(&[2, 10], 0.1);
//! catalog.register("R", r.finish());
//! let mut s = RelationBuilder::new(Schema::new(["b", "c"]));
//! s.push_ints(&[10, 100], 0.5);
//! s.push_ints(&[10, 200], 0.05);
//! catalog.register("S", s.finish());
//!
//! let service = Service::new(Engine::new(catalog));
//! let mut client = LocalClient::new(&service);
//!
//! // Open a ranked query; the first page arrives with a cursor.
//! let page = client.send("SELECT R(a,b), S(b,c) RANK BY sum LIMIT 2;");
//! assert!(page.starts_with("OK cursor=0 rows=2 done=false"));
//! assert!(page.contains("ROW 2,10,200 cost=0.15")); // cheapest first
//!
//! // Pull the rest, then the cursor closes itself.
//! let rest = client.send("NEXT 10 ON 0;");
//! assert!(rest.starts_with("OK cursor=- rows=2 done=true"));
//!
//! // Metrics, including the engine's plan-cache counters.
//! let stats = client.send("STATS;");
//! assert!(stats.contains("INFO answers_served=4"));
//! # let _ = stats;
//! ```
//!
//! For the wire transport, [`Server::bind`] starts the accept loop and
//! [`TcpClient`] (or any line-oriented client — `nc` works) speaks to
//! it; the bytes are identical to [`LocalClient`]'s by construction.

pub mod ast;
mod digits;
pub mod event_loop;
pub mod frame;
pub mod parser;
pub mod service;
pub mod tcp;
pub mod wire;

pub use ast::{
    select_stmt, select_text, AtomRef, Command, InsertStmt, Literal, LoadStmt, SelectStmt,
};
pub use frame::{encode_frame_error, FrameError, LineFramer};
pub use parser::{parse, ParseError};
pub use service::{
    AnalyzeReport, Page, Response, RouteRankStats, ServeError, Service, ServiceConfig,
    ServiceStats, Session,
};
pub use tcp::{BindError, Server, TcpClient, Transport, TransportConfig};
pub use wire::{
    encode_answer, encode_connection_rejected, encode_response, respond, respond_into,
    write_answer, LocalClient,
};

/// A tiny single-relation engine for the crate's unit tests.
#[cfg(test)]
pub(crate) fn tests_engine() -> anyk_engine::Engine {
    use anyk_storage::{Catalog, RelationBuilder, Schema};
    let mut catalog = Catalog::new();
    let mut r = RelationBuilder::new(Schema::new(["a", "b"]));
    for i in 0..8i64 {
        r.push_ints(&[i, i + 10], 0.1 * (i as f64 + 1.0));
    }
    catalog.register("R", r.finish());
    anyk_engine::Engine::new(catalog)
}
