//! The line protocol: how [`Response`]s and [`ServeError`]s render to
//! text, shared verbatim by the TCP transport and the in-process
//! [`LocalClient`] — one encoder, so both transports are byte-
//! identical by construction.
//!
//! Framing: every reply is a header line (`OK ...` or `ERR ...`),
//! zero or more `ROW `/`INFO ` lines, and a terminating `END` line.
//!
//! ```text
//! > SELECT R(x,y), S(y,z) RANK BY sum LIMIT 2;
//! OK cursor=0 rows=2 done=false
//! ROW 2,10,200 cost=0.15
//! ROW 1,10,100 cost=0.8
//! END
//! > NEXT 2 ON 0;
//! OK cursor=- rows=1 done=true
//! ROW 3,30,300 cost=1.1
//! END
//! ```

use crate::service::{AnalyzeReport, Page, Response, ServeError, Service, ServiceStats, Session};
use anyk_engine::{Cost, RankedAnswer};
use anyk_obs::{QueryTrace, Stage, RANKS, ROUTES};
use anyk_storage::Value;
use std::fmt::{self, Write};

/// True when `line` is the reply terminator (`END`, any trailing
/// ASCII whitespace ignored) — bytes, so a reader can test a line
/// still in its buffer. Decoders — [`TcpClient`](crate::TcpClient)'s
/// reply reader in particular — use this instead of spelling the
/// literal, so the protocol vocabulary stays in this file.
pub fn is_terminator(line: &[u8]) -> bool {
    line.trim_ascii_end() == b"END"
}

/// Render one answer as its `ROW` line (no trailing newline):
/// `ROW <v1>,<v2>,... cost=<cost>`. The single source of truth for
/// answer bytes — the tests compare server pages against direct
/// [`PreparedQuery`](anyk_engine::PreparedQuery) streams through this
/// same function.
pub fn encode_answer(a: &RankedAnswer) -> String {
    let mut line = String::with_capacity(ROW_BYTES);
    write_answer(&mut line, &a.values, &a.cost);
    line
}

/// Room for a `ROW` line of three or four integer columns and a float
/// cost: a page's reply buffer is sized from it once (one more growth
/// for a page of lexicographic costs), not grown by doubling.
const ROW_BYTES: usize = 64;

/// Append one answer's `ROW` line (no newline) to `out` — the row
/// encoder itself; a page's slab rows go straight into the reply
/// buffer through it, be that a `String` or a connection's write
/// buffer. Bytes are what `Display` renders (`{value},… cost={cost}`),
/// but the literals, the separators and integer digits — nearly all of
/// a row — are written by hand, not through `fmt`; floats keep `std`'s
/// shortest round-trip digits and symbols their `Display`.
pub fn write_answer(out: &mut impl Write, values: &[Value], cost: &Cost) {
    let _ = out.write_str("ROW ");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            let _ = out.write_char(',');
        }
        match *v {
            Value::Int(n) => write_int(out, n),
            Value::Float(bits) => write_float(out, bits.get()),
            sym @ Value::Sym(_) => {
                let _ = write!(out, "{sym}");
            }
        }
    }
    let _ = out.write_str(" cost=");
    match cost {
        Cost::Scalar(w) => write_float(out, w.get()),
        Cost::Lex(ws) => {
            let _ = out.write_char('[');
            for (i, w) in ws.iter().enumerate() {
                if i > 0 {
                    let _ = out.write_str(", ");
                }
                write_float(out, w.get());
            }
            let _ = out.write_char(']');
        }
    }
}

/// `n` in decimal, as `Display` writes it.
fn write_int(out: &mut impl Write, n: i64) {
    // 19 digits of `u64::MAX / 2 + 1` and a sign.
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut rest = n.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if n < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    // ASCII digits and a sign: the check cannot fail.
    let _ = out.write_str(std::str::from_utf8(&buf[at..]).unwrap_or_default());
}

/// `x` as `Display` writes it: the shortest digits that read back as
/// `x`. The one part of a row that stays with `std`'s formatter.
fn write_float(out: &mut impl Write, x: f64) {
    let _ = write!(out, "{x}");
}

/// Render a full response block, `END`-terminated, every line ending
/// in `\n`.
pub fn encode_response(resp: &Response) -> String {
    let mut out = String::new();
    write_response(&mut out, resp);
    out
}

/// [`encode_response`] into any reply buffer.
fn write_response(out: &mut impl ReplyBuf, resp: &Response) {
    match resp {
        Response::Page(Page {
            cursor,
            answers,
            done,
        }) => {
            out.reserve(ROW_BYTES * (answers.len() + 1));
            let _ = out.write_str("OK cursor=");
            let _ = match cursor {
                Some(id) => write!(out, "{id}"),
                None => out.write_char('-'),
            };
            let _ = writeln!(out, " rows={} done={done}", answers.len());
            for (cost, values) in answers.iter() {
                write_answer(out, values, cost);
                let _ = out.write_char('\n');
            }
        }
        Response::Explained(plan) => {
            let _ = writeln!(out, "OK explain");
            for line in plan.lines() {
                let _ = writeln!(out, "INFO {line}");
            }
        }
        Response::Stats(stats) => {
            let _ = writeln!(out, "OK stats");
            for (key, value) in stats_fields(stats) {
                let _ = writeln!(out, "INFO {key}={value}");
            }
        }
        Response::Analyzed(report) => {
            encode_analyze(out, report);
        }
        Response::Traces { slow, traces } => {
            let source = if *slow { "slow" } else { "ring" };
            let _ = writeln!(out, "OK traces count={} source={source}", traces.len());
            for t in traces.iter() {
                let _ = writeln!(out, "{}", encode_trace(t));
            }
        }
        Response::Closed { cursor } => {
            let _ = writeln!(out, "OK closed={cursor}");
        }
        Response::Appended {
            rows,
            deltas,
            compacted,
        } => {
            let _ = writeln!(
                out,
                "OK appended rows={rows} deltas={deltas} compacted={compacted}"
            );
        }
    }
    let _ = out.write_str("END\n");
}

/// Render the `EXPLAIN ANALYZE` report: one `INFO` line per fact, one
/// per stage (`stage.<name>_us=`), one per merge member
/// (`member.<i>.rows=`).
fn encode_analyze(out: &mut impl Write, r: &AnalyzeReport) {
    let _ = writeln!(out, "OK analyze");
    let _ = writeln!(out, "INFO route={}", r.route);
    let _ = writeln!(out, "INFO rank={}", r.rank);
    let _ = writeln!(out, "INFO cache={}", hit_label(r.cache_hit));
    let _ = writeln!(out, "INFO index={}", r.index);
    let _ = writeln!(out, "INFO merge_depth={}", r.merge_depth);
    let _ = writeln!(out, "INFO rows={}", r.rows);
    let _ = writeln!(out, "INFO limit={}", r.limit);
    for (stage, us) in Stage::ALL.iter().zip(r.stage_us) {
        let _ = writeln!(out, "INFO stage.{}_us={us}", stage.label());
    }
    let sum: u64 = r.stage_us.iter().sum();
    let _ = writeln!(out, "INFO stage_sum_us={sum}");
    let _ = writeln!(out, "INFO wall_us={}", r.wall_us);
    for (i, rows) in r.member_rows.iter().enumerate() {
        let _ = writeln!(out, "INFO member.{i}.rows={rows}");
    }
}

/// One trace as a single `INFO` line (the `TRACE` commands' row unit).
fn encode_trace(t: &QueryTrace) -> String {
    let route = ROUTES.get(t.route as usize).copied().unwrap_or(ROUTES[0]);
    let rank = RANKS.get(t.rank as usize).copied().unwrap_or(RANKS[0]);
    let mut line = format!(
        "INFO trace id={} route={route} rank={rank} cache={} index={} depth={} rows={} limit={} total_us={}",
        t.id,
        hit_label(t.cache == 1),
        index_label(t.index),
        t.merge_depth,
        t.rows,
        t.limit,
        t.total_us,
    );
    for (stage, us) in Stage::ALL.iter().zip(t.stage_us) {
        let _ = write!(line, " {}_us={us}", stage.label());
    }
    line
}

/// `hit`/`miss` for plan-cache provenance.
fn hit_label(hit: bool) -> &'static str {
    if hit {
        "hit"
    } else {
        "miss"
    }
}

/// The wire form of [`QueryTrace::index`]'s provenance code.
fn index_label(code: u64) -> &'static str {
    match code {
        1 => "cached",
        2 => "built",
        _ => "n/a",
    }
}

/// Render an error block: `ERR <kind>: <message>` + `END`.
pub fn encode_error(err: &ServeError) -> String {
    // The wrapped errors render without `ServeError`'s own prefix —
    // the wire's `kind` tag already says which layer failed.
    let (kind, msg) = match err {
        ServeError::Parse(e) => ("parse", e.to_string()),
        ServeError::Engine(e) => ("engine", e.to_string()),
        ServeError::UnknownCursor { .. } | ServeError::CursorExpired { .. } => {
            ("cursor", err.to_string())
        }
        ServeError::AdmissionRejected { .. } => ("admission", err.to_string()),
        ServeError::BatchTooLarge { .. } | ServeError::RaggedInsert { .. } => {
            ("batch", err.to_string())
        }
        ServeError::CsvRejected { message } => ("csv", message.clone()),
    };
    format!("ERR {kind}: {msg}\nEND\n")
}

/// The accept-time load-shedding reply: the one block a transport
/// writes before closing a connection refused by
/// [`ServiceConfig::max_connections`](crate::ServiceConfig::max_connections).
/// Shaped like every other typed error (`ERR admission: ...` + `END`)
/// so clients reuse their error decoder; the message names the
/// resource (`connections`) to distinguish it from per-cursor
/// admission rejects.
pub fn encode_connection_rejected(open: usize, max: usize) -> String {
    format!("ERR admission: connections {open} of {max} open\nEND\n")
}

/// The `STATS` key/value pairs, in a fixed render order: the flat
/// service counters first, then the per-route × per-ranking breakdown
/// (`route.<route>.<rank>.<field>=`), rendered only for cells that
/// have served at least one query so an idle service stays compact.
fn stats_fields(s: &ServiceStats) -> Vec<(String, String)> {
    let fixed: Vec<(&'static str, String)> = vec![
        ("queries", s.queries.to_string()),
        ("answers_served", s.answers_served.to_string()),
        ("pages_served", s.pages_served.to_string()),
        ("cursors_opened", s.cursors_opened.to_string()),
        ("cursors_closed", s.cursors_closed.to_string()),
        ("cursors_expired", s.cursors_expired.to_string()),
        ("admission_rejected", s.admission_rejected.to_string()),
        ("open_cursors", s.open_cursors.to_string()),
        ("ttf_min_us", s.ttf_min_us.to_string()),
        ("ttf_mean_us", s.ttf_mean_us.to_string()),
        ("ttf_max_us", s.ttf_max_us.to_string()),
        ("ttf_p50_us", s.ttf_p50_us.to_string()),
        ("ttf_p95_us", s.ttf_p95_us.to_string()),
        ("ttf_p99_us", s.ttf_p99_us.to_string()),
        ("page_p50_us", s.page_p50_us.to_string()),
        ("page_p95_us", s.page_p95_us.to_string()),
        ("page_p99_us", s.page_p99_us.to_string()),
        ("open_connections", s.open_connections.to_string()),
        ("connections_rejected", s.connections_rejected.to_string()),
        ("plan_cache_hits", s.cache.hits.to_string()),
        ("plan_cache_misses", s.cache.misses.to_string()),
        ("plan_cache_evictions", s.cache.evictions.to_string()),
        ("plan_cache_entries", s.cache.entries.to_string()),
        ("plan_cache_capacity", s.cache.capacity.to_string()),
        ("index_hits", s.index.hits.to_string()),
        ("index_misses", s.index.misses.to_string()),
        ("index_builds", s.index.builds.to_string()),
        ("index_evictions", s.index.evictions.to_string()),
        ("index_resident_bytes", s.index.resident_bytes.to_string()),
        ("index_entries", s.index.entries.to_string()),
        ("index_capacity_bytes", s.index.capacity_bytes.to_string()),
        ("prepare_p50_us", s.prepare_p50_us.to_string()),
        ("prepare_p95_us", s.prepare_p95_us.to_string()),
        ("prepare_p99_us", s.prepare_p99_us.to_string()),
        ("delay_p50_us", s.delay_p50_us.to_string()),
        ("delay_p99_us", s.delay_p99_us.to_string()),
        ("traces_published", s.traces_published.to_string()),
        ("traces_dropped", s.traces_dropped.to_string()),
        ("slow_queries", s.slow_queries.to_string()),
        ("appends", s.appends.to_string()),
        ("appended_rows", s.appended_rows.to_string()),
        ("compactions", s.compactions.to_string()),
        ("append_invalidations", s.append_invalidations.to_string()),
        ("terms_kept", s.terms_kept.to_string()),
        ("terms_extended", s.terms_extended.to_string()),
        ("terms_rebuilt", s.terms_rebuilt.to_string()),
    ];
    let mut out: Vec<(String, String)> =
        fixed.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    for (r, row) in s.routes.iter().enumerate() {
        for (k, cell) in row.iter().enumerate() {
            if cell.queries == 0 {
                continue;
            }
            let prefix = format!("route.{}.{}", ROUTES[r], RANKS[k]);
            out.push((format!("{prefix}.queries"), cell.queries.to_string()));
            out.push((format!("{prefix}.answers"), cell.answers.to_string()));
            out.push((format!("{prefix}.ttf_p50_us"), cell.ttf_p50_us.to_string()));
            out.push((format!("{prefix}.ttf_p99_us"), cell.ttf_p99_us.to_string()));
        }
    }
    out
}

/// Serve one protocol line against a session, returning the exact
/// bytes a transport writes back — what [`LocalClient`] sends back and
/// what [`respond_into`] appends to a socket's write buffer.
pub fn respond(session: &mut Session, line: &str) -> String {
    let mut out = String::new();
    respond_to(session, line, &mut out);
    out
}

/// [`respond`], rendered straight onto the end of a transport's write
/// buffer: the event loop's one entry point.
pub fn respond_into(session: &mut Session, line: &str, out: &mut Vec<u8>) {
    respond_to(session, line, &mut Utf8Sink(out));
}

/// A byte buffer as a text sink.
struct Utf8Sink<'a>(&'a mut Vec<u8>);

impl Write for Utf8Sink<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

/// A reply buffer: a text sink that can be told how much is coming.
trait ReplyBuf: Write {
    fn reserve(&mut self, bytes: usize);
}

impl ReplyBuf for String {
    fn reserve(&mut self, bytes: usize) {
        String::reserve(self, bytes);
    }
}

impl ReplyBuf for Utf8Sink<'_> {
    fn reserve(&mut self, bytes: usize) {
        self.0.reserve(bytes);
    }
}

fn respond_to(session: &mut Session, line: &str, out: &mut impl ReplyBuf) {
    let result = session.execute(line);
    // The pending trace (a `SELECT`'s) is missing only its encode
    // stage; time the rendering on the service clock and publish.
    let tracing = session.tracing();
    let t0 = if tracing { session.now_us() } else { 0 };
    match result {
        Ok(resp) => write_response(out, &resp),
        Err(err) => {
            let _ = out.write_str(&encode_error(&err));
        }
    }
    let encode_us = if tracing {
        session.now_us().saturating_sub(t0)
    } else {
        0
    };
    session.finish_trace(encode_us);
}

/// An in-process client: the full protocol without a socket. Wraps a
/// [`Session`] and speaks the same bytes as the TCP transport (both
/// route through [`respond`]), so tests and benches can drive the
/// service at memory speed and still assert wire-level behavior.
///
/// ```
/// use anyk_serve::{LocalClient, Service};
/// use anyk_engine::Engine;
/// use anyk_storage::{Catalog, RelationBuilder, Schema};
///
/// let mut catalog = Catalog::new();
/// let mut r = RelationBuilder::new(Schema::new(["a", "b"]));
/// r.push_ints(&[1, 10], 0.3);
/// r.push_ints(&[2, 10], 0.1);
/// catalog.register("R", r.finish());
/// let mut s = RelationBuilder::new(Schema::new(["b", "c"]));
/// s.push_ints(&[10, 100], 0.5);
/// catalog.register("S", s.finish());
///
/// let service = Service::new(Engine::new(catalog));
/// let mut client = LocalClient::new(&service);
/// let reply = client.send("SELECT R(a,b), S(b,c) RANK BY sum LIMIT 1;");
/// assert!(reply.starts_with("OK cursor=0 rows=1 done=false\nROW 2,10,100"));
/// assert!(reply.ends_with("END\n"));
/// let reply = client.send("CLOSE 0;");
/// assert_eq!(reply, "OK closed=0\nEND\n");
/// ```
pub struct LocalClient {
    session: Session,
}

impl LocalClient {
    /// Open an in-process session against `service`.
    pub fn new(service: &Service) -> Self {
        LocalClient {
            session: service.session(),
        }
    }

    /// Send one command line; returns the full `END`-terminated reply
    /// block, byte-identical to what the TCP transport would write.
    pub fn send(&mut self, line: &str) -> String {
        respond(&mut self.session, line)
    }

    /// The underlying session (cursor inspection in tests).
    pub fn session(&self) -> &Session {
        &self.session
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_storage::Weight;
    use proptest::prelude::*;

    /// The row as `Display` renders it, piece by piece through `fmt`:
    /// what the encoder wrote before it wrote digits by hand.
    fn formatted(values: &[Value], cost: &Cost) -> String {
        let values: Vec<String> = values.iter().map(Value::to_string).collect();
        format!("ROW {} cost={cost}", values.join(","))
    }

    fn written(values: &[Value], cost: &Cost) -> String {
        let mut line = String::new();
        write_answer(&mut line, values, cost);
        // The connection's byte buffer takes the same bytes.
        let mut bytes = Vec::new();
        write_answer(&mut Utf8Sink(&mut bytes), values, cost);
        assert_eq!(bytes, line.as_bytes());
        line
    }

    /// A float from random bits (NaN, which no value or weight can
    /// hold, mapped to zero): subnormals, infinities and every exponent.
    fn float_of(bits: u64) -> f64 {
        Some(f64::from_bits(bits))
            .filter(|x| !x.is_nan())
            .unwrap_or(0.0)
    }

    fn value_of((kind, int, bits): (u32, i64, u64)) -> Value {
        match kind {
            0 => Value::Int(int),
            1 => Value::Int(int % 1_000),
            2 => Value::float(float_of(bits)),
            _ => Value::Sym(bits as u32),
        }
    }

    #[test]
    fn the_row_writer_renders_the_edges_as_display_does() {
        let ints = [
            i64::MIN,
            i64::MIN + 1,
            -10,
            -1,
            0,
            1,
            9,
            10,
            99,
            100,
            i64::MAX,
        ];
        let floats = [
            0.0,
            -0.0,
            0.1,
            1.0,
            -2.5,
            1e21,
            1e-7,
            5e-324,
            f64::MAX,
            f64::INFINITY,
        ];
        let mut values: Vec<Value> = ints.iter().map(|&i| Value::Int(i)).collect();
        values.extend(floats.iter().map(|&x| Value::float(x)));
        values.extend([Value::Sym(0), Value::Sym(u32::MAX)]);
        let lex = Cost::Lex(floats.iter().map(|&x| Weight::new(x)).collect());
        for cost in [Cost::Scalar(Weight::new(0.375)), lex, Cost::Lex(Vec::new())] {
            assert_eq!(written(&values, &cost), formatted(&values, &cost));
            assert_eq!(written(&[], &cost), formatted(&[], &cost));
        }
        assert_eq!(
            written(&values[..3], &Cost::Scalar(Weight::new(1.5))),
            "ROW -9223372036854775808,-9223372036854775807,-10 cost=1.5"
        );
    }

    proptest! {
        /// Byte for byte what `format!` renders, on random rows of
        /// every value kind under scalar and lexicographic costs; and
        /// `encode_answer` is the same writer over one answer.
        #[test]
        fn the_row_writer_agrees_with_display(
            cells in prop::collection::vec((0u32..4, i64::MIN..=i64::MAX, 0u64..=u64::MAX), 0..6),
            weights in prop::collection::vec(0u64..=u64::MAX, 0..4),
            scalar in 0u64..=u64::MAX,
        ) {
            let values: Vec<Value> = cells.into_iter().map(value_of).collect();
            let lex = Cost::Lex(weights.into_iter().map(|b| Weight::new(float_of(b))).collect());
            for cost in [Cost::Scalar(Weight::new(float_of(scalar))), lex] {
                let want = formatted(&values, &cost);
                prop_assert_eq!(written(&values, &cost), want.clone());
                let answer = RankedAnswer { cost, values: values.clone() };
                prop_assert_eq!(encode_answer(&answer), want);
            }
        }
    }
}
