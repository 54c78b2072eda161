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

use crate::digits;
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

/// Room for a `ROW` line of three or four integer columns and a
/// scalar cost: a page's reply buffer is sized from it once, not grown
/// by doubling.
const ROW_BYTES: usize = 64;

/// What each weight of a lexicographic cost past the first adds to a
/// row: a weight in [0, 1) at 17 digits and its `, `.
const LEX_WEIGHT_BYTES: usize = 21;

/// Append one answer's `ROW` line (no newline) to `out` — the row
/// encoder itself, be the sink a `String` or a connection's write
/// buffer. Bytes are what `Display` renders (`{value},… cost={cost}`),
/// but nothing goes through `fmt`: the line is built in a `Staged`
/// buffer — literals and separators copied, integers and floats written
/// by `digits`, floats by its shortest round-trip writer, byte for byte
/// `std`'s — and handed to `out` in one `write_str`.
pub fn write_answer(out: &mut impl Write, values: &[Value], cost: &Cost) {
    let mut line = Staged::new(out);
    write_row(&mut line, values, cost);
    line.flush();
}

/// [`write_answer`] into a staged page.
fn write_row<W: Write>(out: &mut Staged<'_, W>, values: &[Value], cost: &Cost) {
    out.push(b"ROW ");
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(b",");
        }
        match *v {
            Value::Int(n) => out.int(n < 0, n.unsigned_abs()),
            Value::Float(bits) => out.float(bits.get()),
            Value::Sym(id) => {
                out.push(b"#");
                out.int(false, id.into());
            }
        }
    }
    out.push(b" cost=");
    match cost {
        Cost::Scalar(w) => out.float(w.get()),
        Cost::Lex(ws) => {
            out.push(b"[");
            for (i, w) in ws.iter().enumerate() {
                if i > 0 {
                    out.push(b", ");
                }
                out.float(w.get());
            }
            out.push(b"]");
        }
    }
}

/// Text gathered in a stack buffer and handed to a sink in one
/// `write_str` when the buffer fills and at [`flush`](Self::flush): one
/// UTF-8 check and one sink call for a page of rows, not one for each
/// number and separator.
struct Staged<'a, W> {
    sink: &'a mut W,
    buf: [u8; STAGE],
    len: usize,
}

/// A page of ten scalar rows, with room left for the longest float.
const STAGE: usize = 1024;

impl<'a, W: Write> Staged<'a, W> {
    fn new(sink: &'a mut W) -> Self {
        Staged {
            sink,
            buf: [0; STAGE],
            len: 0,
        }
    }

    /// The free tail, after a flush if it is shorter than `bytes`.
    fn room(&mut self, bytes: usize) -> &mut [u8] {
        if STAGE - self.len < bytes {
            self.flush();
        }
        &mut self.buf[self.len..]
    }

    /// ASCII bytes, copied.
    fn push(&mut self, bytes: &[u8]) {
        self.room(bytes.len())[..bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    /// `n`, after a `-` when `negative`, as `Display` writes it.
    fn int(&mut self, negative: bool, n: u64) {
        self.len += digits::int(self.room(digits::INT_LEN), negative, n);
    }

    /// `x` as `Display` writes it: the shortest digits that read back
    /// as `x`, never in exponent notation.
    fn float(&mut self, x: f64) {
        self.len += digits::float(self.room(digits::FLOAT_LEN), x);
    }

    fn flush(&mut self) {
        // Only ASCII was staged: the check cannot fail.
        let text = std::str::from_utf8(&self.buf[..self.len]).unwrap_or_default();
        let _ = self.sink.write_str(text);
        self.len = 0;
    }
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
            let extra_weights = match answers.iter().next() {
                Some((Cost::Lex(ws), _)) => ws.len().saturating_sub(1),
                _ => 0,
            };
            out.reserve((ROW_BYTES + LEX_WEIGHT_BYTES * extra_weights) * (answers.len() + 1));
            let mut page = Staged::new(out);
            page.push(b"OK cursor=");
            match cursor {
                Some(id) => page.int(false, *id),
                None => page.push(b"-"),
            }
            page.push(b" rows=");
            page.int(false, answers.len() as u64);
            page.push(if *done {
                b" done=true\n"
            } else {
                b" done=false\n"
            });
            for (cost, values) in answers.iter() {
                write_row(&mut page, values, cost);
                page.push(b"\n");
            }
            page.flush();
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
    /// A connection's buffer keeps its capacity from reply to reply and
    /// is empty when a reply starts: it takes the page's estimate as it
    /// is, where `reserve` would double its old capacity past it.
    fn reserve(&mut self, bytes: usize) {
        if self.0.is_empty() {
            self.0.reserve_exact(bytes);
        } else {
            self.0.reserve(bytes);
        }
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
    use anyk_engine::AnswerSlab;
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

    /// A page as `fmt` renders it, header, rows and terminator.
    fn formatted_page(page: &Page) -> String {
        let cursor = page.cursor.map_or("-".to_string(), |id| id.to_string());
        let mut want = format!(
            "OK cursor={cursor} rows={} done={}\n",
            page.answers.len(),
            page.done
        );
        for (cost, values) in page.answers.iter() {
            want += &formatted(values, cost);
            want.push('\n');
        }
        want + "END\n"
    }

    /// The page's reply bytes: a `String` and a connection buffer take
    /// the same.
    fn written_page(page: Page) -> String {
        let resp = Response::Page(page);
        let mut bytes = Vec::new();
        write_response(&mut Utf8Sink(&mut bytes), &resp);
        let text = encode_response(&resp);
        assert_eq!(bytes, text.as_bytes());
        text
    }

    #[test]
    fn a_page_renders_as_display_does_across_stage_flushes() {
        let mut rng_bits = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            rng_bits ^= rng_bits << 13;
            rng_bits ^= rng_bits >> 7;
            rng_bits ^= rng_bits << 17;
            rng_bits
        };
        for (cursor, done, rows, weights) in [
            (Some(0), false, 0, 0),
            (None, true, 1, 0),
            (Some(u64::MAX), false, 10, 0),
            (Some(7), false, 10, 4),
            (None, true, 200, 3),
        ] {
            let mut answers = AnswerSlab::new(4);
            for _ in 0..rows {
                let values: Vec<Value> = (0..4)
                    .map(|_| value_of((next() as u32 % 4, next() as i64, next())))
                    .collect();
                let cost = match weights {
                    0 => Cost::Scalar(Weight::new(float_of(next()))),
                    n => Cost::Lex((0..n).map(|_| Weight::new(float_of(next()))).collect()),
                };
                answers.push(cost, &values);
            }
            // The longest float text, 327 bytes, in every column.
            let tiny = Value::float(-5e-324);
            answers.push(Cost::Scalar(Weight::new(-5e-324)), &[tiny; 4]);
            let page = Page {
                cursor,
                answers,
                done,
            };
            let want = formatted_page(&page);
            assert_eq!(written_page(page), want);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 4096 }))]

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
