//! The session layer: a [`Service`] wraps a shared
//! [`Engine`] and turns parsed [`Command`]s into paginated responses
//! over live ranked streams.
//!
//! * **Cursors** — a `SELECT` opens a [`RankedStream`] over the
//!   engine's (cached) prepared state, serves the first page, and
//!   registers a cursor for `NEXT` pulls.
//! * **The cursor table** — every open cursor lives in one
//!   service-wide table, keyed by (session id, cursor id): its stream
//!   and lookahead, its expiry deadline and its admission slot in one
//!   entry. Whoever removes an entry frees all of it — `CLOSE`, a
//!   drain, a session drop, a `NEXT`/`CLOSE` that finds it overdue,
//!   the event-loop tick, or a full admission pass. A client that goes
//!   silent while holding cursors therefore pins neither slots nor
//!   stream memory past the TTL; its next `NEXT`/`CLOSE` reports a
//!   typed [`ServeError::CursorExpired`].
//! * **Admission control** — a service-wide semaphore bounds how many
//!   streams may be open at once across all sessions; beyond it,
//!   `SELECT` first reaps expired cursors and then, still full,
//!   fails with a typed [`ServeError::AdmissionRejected`] instead of
//!   letting per-stream heap state grow without bound.
//! * **Metrics** — per-query time-to-first-answer and per-page
//!   latency as both min/mean/max and fixed-bucket power-of-two
//!   **histograms** (p50/p95/p99 on read), answers served, cursor
//!   lifecycle counts, and the engine's plan-cache counters, all
//!   surfaced through the `STATS` command.
//!
//! ## Threading model
//!
//! [`Service`] is `Clone + Send + Sync`: clones are handles onto one
//! shared engine, admission semaphore, cursor table, and metrics
//! block. A [`Session`] is `Send` but single-owner — exactly one
//! client (connection or [`LocalClient`](crate::LocalClient)) drives
//! it; it keeps only cursor ids. Everything cross-session is either
//! lock-free (metrics, admission) or a short critical section (the
//! cursor table, the plan cache): a `NEXT` takes its entry out of the
//! table, pulls with no lock held, and puts it back.

use crate::ast::Command;
use crate::parser::{parse, ParseError};
use anyk_engine::{
    AnswerSlab, Appended, CacheStats, Cost, Engine, EngineError, IndexUse, PrepareReport, RankSpec,
    RankedStream, ShardFanIn, ShardedEngine, WriteStats,
};
use anyk_obs::{rank_id, route_id, Histogram, ObsRegistry, QueryTrace, Stage, RANKS, ROUTES};
use anyk_query::cq::ConjunctiveQuery;
use anyk_storage::IndexStats;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Configuration for a [`Service`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Maximum number of concurrently open cursors (streams) across
    /// all sessions — the admission-control bound.
    pub max_open_cursors: usize,
    /// Idle time after which a cursor expires. Cursors live in a
    /// **service-wide table**, so expiry frees the stream and its
    /// admission slot even while the owning session stays silent:
    /// admission sweeps the table when the service is full, the
    /// event-loop transport sweeps it on a timer, and a `NEXT`/`CLOSE`
    /// that finds its cursor overdue drops it. The owning session
    /// reports [`ServeError::CursorExpired`] for it from then on.
    pub cursor_ttl: Duration,
    /// Page size when a `SELECT` carries no `LIMIT`.
    pub default_page: usize,
    /// Maximum concurrently established connections — accept-time
    /// load shedding. A connection admitted past this bound gets one
    /// typed `ERR admission: connections` reply and is closed before
    /// it gets a session, so a connection flood degrades into cheap
    /// rejects instead of unbounded per-connection state.
    pub max_connections: usize,
    /// A completed query whose end-to-end wall time reaches this
    /// threshold has its trace copied into the bounded slow-query log
    /// (readable via `TRACE SLOW`). `Duration::ZERO` disables the
    /// log; the trace ring records every query regardless.
    pub slow_query: Duration,
    /// Maximum rows one `INSERT`/`LOAD` may append. A larger batch is
    /// refused with a typed [`ServeError::BatchTooLarge`] before it
    /// touches the engine, bounding per-command memory and the length
    /// of the append critical section.
    pub max_batch_rows: usize,
}

impl Default for ServiceConfig {
    /// 64 concurrent streams, 60 s cursor TTL, 10-answer pages,
    /// 1024 connections, 250 ms slow-query threshold, 4096-row write
    /// batches.
    fn default() -> Self {
        ServiceConfig {
            max_open_cursors: 64,
            cursor_ttl: Duration::from_secs(60),
            default_page: 10,
            max_connections: 1024,
            slow_query: Duration::from_millis(250),
            max_batch_rows: 4096,
        }
    }
}

/// Why a command could not be served. Parse and engine failures are
/// wrapped; the session-layer failures (cursor lifecycle, admission)
/// are typed here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The command text did not parse.
    Parse(ParseError),
    /// The engine rejected the query (unknown relation, arity, ...).
    Engine(EngineError),
    /// `NEXT`/`CLOSE` on a cursor id this session never opened (or
    /// already closed/drained).
    UnknownCursor {
        /// The offending id.
        cursor: u64,
    },
    /// `NEXT` on a cursor that idled past the TTL and was reaped.
    CursorExpired {
        /// The expired id.
        cursor: u64,
    },
    /// `SELECT` rejected because the service is at its concurrent-
    /// stream bound.
    AdmissionRejected {
        /// Streams currently open.
        open: usize,
        /// The configured bound.
        max: usize,
    },
    /// `INSERT`/`LOAD` refused: the batch exceeds
    /// [`ServiceConfig::max_batch_rows`].
    BatchTooLarge {
        /// Rows the batch carried.
        rows: usize,
        /// The configured bound.
        max: usize,
    },
    /// An `INSERT` whose rows disagree on cell count — every row must
    /// match the first (`arity + 1` cells: attributes then weight).
    RaggedInsert {
        /// Zero-based index of the offending row.
        row: usize,
        /// Cells that row carried.
        cells: usize,
        /// Cells the first row carried.
        expected: usize,
    },
    /// The `LOAD` command's inline CSV block was rejected by the CSV
    /// reader (bad header, ragged row, non-numeric cell, NaN weight).
    CsvRejected {
        /// The CSV reader's message.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Parse(e) => write!(f, "parse: {e}"),
            ServeError::Engine(e) => write!(f, "engine: {e}"),
            ServeError::UnknownCursor { cursor } => write!(f, "unknown cursor {cursor}"),
            ServeError::CursorExpired { cursor } => write!(f, "cursor {cursor} expired"),
            ServeError::AdmissionRejected { open, max } => {
                write!(f, "admission rejected: {open} of {max} streams open")
            }
            ServeError::BatchTooLarge { rows, max } => {
                write!(f, "batch of {rows} rows exceeds the {max}-row bound")
            }
            ServeError::RaggedInsert {
                row,
                cells,
                expected,
            } => write!(
                f,
                "insert row {row} has {cells} cells, expected {expected} like the first row"
            ),
            ServeError::CsvRejected { message } => write!(f, "csv rejected: {message}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Parse(e) => Some(e),
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for ServeError {
    fn from(e: ParseError) -> Self {
        ServeError::Parse(e)
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

/// What a successfully served command returns.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A page of ranked answers (`SELECT` / `NEXT`).
    Page(Page),
    /// The rendered plan (`EXPLAIN`).
    Explained(String),
    /// Service metrics (`STATS`).
    Stats(Box<ServiceStats>),
    /// Per-stage execution report (`EXPLAIN ANALYZE SELECT …`): the
    /// query ran to its page limit and this is where the time went.
    Analyzed(Box<AnalyzeReport>),
    /// Query traces (`TRACE <n>` from the ring, `TRACE SLOW` from the
    /// slow-query log), newest first.
    Traces {
        /// True when served from the slow-query log.
        slow: bool,
        /// The traces, newest first.
        traces: Vec<QueryTrace>,
    },
    /// Acknowledgement of `CLOSE`.
    Closed {
        /// The closed cursor id.
        cursor: u64,
    },
    /// Acknowledgement of `INSERT`/`LOAD`: rows appended, the target
    /// relation's live delta-batch count afterwards, and whether the
    /// append tripped threshold compaction.
    Appended {
        /// Rows appended.
        rows: u64,
        /// Delta batches the relation holds after this append (0 right
        /// after a compaction folded them into the base).
        deltas: usize,
        /// True when this append triggered a compaction.
        compacted: bool,
    },
}

/// The `EXPLAIN ANALYZE` report: the query was executed to its page
/// limit and every stage of its life timed on the service clock. The
/// stages are contiguous spans of one wall interval, so
/// `stage_us.iter().sum()` equals `wall_us` exactly (pinned over every
/// route × ranking, single and sharded, in `tests/serve_protocol.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeReport {
    /// Planner route label (`acyclic` / `triangle` / `cycle` /
    /// `decomposed`).
    pub route: String,
    /// Ranking label (`sum` / `max` / `min` / `prod` / `lex`).
    pub rank: String,
    /// Plan-cache provenance: `true` when every involved plan cache
    /// (one per shard) served its prepared entry.
    pub cache_hit: bool,
    /// Index provenance label (`n/a` / `cached` / `built`).
    pub index: &'static str,
    /// Per-stage wall times, µs, in [`Stage::ALL`] order.
    pub stage_us: [u64; anyk_obs::STAGES],
    /// End-to-end wall time, µs (parse through report assembly).
    pub wall_us: u64,
    /// Answers actually produced (the *actual* cardinality).
    pub rows: u64,
    /// Answers requested — the page limit the router was asked to
    /// fill (the *routed* cardinality).
    pub limit: u64,
    /// Shards that served the query (1 on a single-engine backend).
    pub shards: usize,
    /// Rows each shard fed the tournament merge (empty unsharded).
    pub shard_rows: Vec<u64>,
    /// Tournament-tree depth of the shard merge (0 unsharded).
    pub merge_depth: u32,
}

/// One page of answers.
#[derive(Debug, Clone, PartialEq)]
pub struct Page {
    /// The cursor to `NEXT` on for more answers — `None` when the
    /// stream is drained (drained cursors close themselves).
    pub cursor: Option<u64>,
    /// The answers, in ranking order, continuing where the previous
    /// page stopped: one row each — a cost beside one value per query
    /// variable — in the slab the stream wrote them into
    /// ([`AnswerSlab::iter`] walks them, [`AnswerSlab::answer`] copies
    /// one out).
    pub answers: AnswerSlab<Cost>,
    /// True when the stream is exhausted: no further page exists.
    /// Exact — the session pulls one answer of lookahead, so a result
    /// set that ends exactly at a page boundary still reports `done`
    /// (and holds no cursor).
    pub done: bool,
}

/// A snapshot of the service-level metrics (the `STATS` command).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceStats {
    /// `SELECT`s served (successful plans, including empty results).
    pub queries: u64,
    /// Total answers emitted across all pages.
    pub answers_served: u64,
    /// Pages served (`SELECT` first pages + `NEXT` pulls).
    pub pages_served: u64,
    /// Cursors ever registered.
    pub cursors_opened: u64,
    /// Cursors closed by `CLOSE`, by draining, or by session drop.
    pub cursors_closed: u64,
    /// Cursors reaped by the TTL.
    pub cursors_expired: u64,
    /// `SELECT`s refused by admission control.
    pub admission_rejected: u64,
    /// Streams open right now (the admission gauge).
    pub open_cursors: usize,
    /// Minimum observed time-to-first-answer, in microseconds.
    pub ttf_min_us: u64,
    /// Mean observed time-to-first-answer, in microseconds.
    pub ttf_mean_us: u64,
    /// Maximum observed time-to-first-answer, in microseconds.
    pub ttf_max_us: u64,
    /// Median time-to-first-answer from the fixed-bucket histogram,
    /// estimated by linear interpolation within the containing
    /// power-of-two bucket (the top bucket still reports its upper
    /// bound), in microseconds. 0 until a first answer is served.
    pub ttf_p50_us: u64,
    /// 95th-percentile time-to-first-answer (interpolated within its
    /// bucket), µs.
    pub ttf_p95_us: u64,
    /// 99th-percentile time-to-first-answer (interpolated within its
    /// bucket), µs.
    pub ttf_p99_us: u64,
    /// Median per-page serve latency (`SELECT` first pages and `NEXT`
    /// pulls alike; interpolated within its bucket), µs.
    pub page_p50_us: u64,
    /// 95th-percentile per-page serve latency (interpolated within its
    /// bucket), µs.
    pub page_p95_us: u64,
    /// 99th-percentile per-page serve latency (interpolated within its
    /// bucket), µs.
    pub page_p99_us: u64,
    /// Connections refused by accept-time load shedding.
    pub connections_rejected: u64,
    /// Connections established right now (the connection gauge).
    pub open_connections: usize,
    /// The engine's plan-cache counters (hits/misses/evictions/...) —
    /// summed across all shards on a sharded backend.
    pub cache: CacheStats,
    /// The index catalog's counters (hits/misses/builds/...) — summed
    /// across all shards on a sharded backend (each shard owns its own
    /// index catalog).
    pub index: IndexStats,
    /// How many engine shards serve this service (1 for a
    /// single-engine backend).
    pub shards: usize,
    /// Median engine prepare wall time (cache hits and misses alike),
    /// merged **bucket-wise** across every shard's registry so the
    /// percentile is truthful at any shard count, µs.
    pub prepare_p50_us: u64,
    /// 95th-percentile engine prepare wall time (bucket-wise shard
    /// merge), µs.
    pub prepare_p95_us: u64,
    /// 99th-percentile engine prepare wall time (bucket-wise shard
    /// merge), µs.
    pub prepare_p99_us: u64,
    /// Median sampled per-answer enumeration delay (one sample per
    /// [`SAMPLE_EVERY`](anyk_engine) pulls; bucket-wise shard merge), µs.
    pub delay_p50_us: u64,
    /// 99th-percentile sampled per-answer enumeration delay, µs.
    pub delay_p99_us: u64,
    /// Completed-query traces published into the trace ring.
    pub traces_published: u64,
    /// Trace publishes dropped on slot contention (telemetry never
    /// stalls a query).
    pub traces_dropped: u64,
    /// Entries currently held in the bounded slow-query log.
    pub slow_queries: usize,
    /// Append batches accepted (`INSERT`/`LOAD` and direct engine
    /// appends alike; one per logical batch on a sharded backend).
    pub appends: u64,
    /// Rows appended across all batches.
    pub appended_rows: u64,
    /// Threshold compactions folded delta batches into fresh bases.
    pub compactions: u64,
    /// Prepared plans dropped by relation-scoped append invalidation
    /// (summed across shards on a sharded backend).
    pub append_invalidations: u64,
    /// Terms of those plans their refresh took over as they were.
    pub terms_kept: u64,
    /// Materialized terms their refresh extended by the new batches.
    pub terms_extended: u64,
    /// Terms their refresh built from their relations.
    pub terms_rebuilt: u64,
    /// Per route × ranking breakdown, indexed `[route][rank]` in
    /// [`ROUTES`] × [`RANKS`] order.
    pub routes: [[RouteRankStats; RANKS.len()]; ROUTES.len()],
}

/// One `STATS` breakdown cell: traffic and time-to-first-answer for a
/// single planner route × ranking combination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RouteRankStats {
    /// Queries served on this route × ranking.
    pub queries: u64,
    /// Answers emitted on this route × ranking.
    pub answers: u64,
    /// Median time-to-first-answer, µs (0 until one is served).
    pub ttf_p50_us: u64,
    /// 99th-percentile time-to-first-answer, µs.
    pub ttf_p99_us: u64,
}

/// Cumulative counters behind [`ServiceStats`] — lock-free, shared by
/// every session and every clone of the service.
#[derive(Debug, Default)]
struct Metrics {
    queries: AtomicU64,
    answers_served: AtomicU64,
    pages_served: AtomicU64,
    cursors_opened: AtomicU64,
    cursors_closed: AtomicU64,
    cursors_expired: AtomicU64,
    admission_rejected: AtomicU64,
    connections_rejected: AtomicU64,
    ttf_count: AtomicU64,
    ttf_sum_us: AtomicU64,
    ttf_min_us: AtomicU64,
    ttf_max_us: AtomicU64,
    ttf_hist: Histogram,
    page_hist: Histogram,
}

impl Metrics {
    fn record_ttf(&self, us: u64) {
        // Sub-microsecond first pages round up to 1 µs on both bounds
        // (an asymmetric clamp could report min > max).
        let us = us.max(1);
        self.ttf_count.fetch_add(1, Ordering::Relaxed);
        self.ttf_sum_us.fetch_add(us, Ordering::Relaxed);
        self.ttf_min_us.fetch_min(us, Ordering::Relaxed);
        self.ttf_max_us.fetch_max(us, Ordering::Relaxed);
        self.ttf_hist.record(us);
    }

    fn record_page(&self, us: u64) {
        self.page_hist.record(us.max(1));
    }
}

/// A `Duration` as saturating µs (deadline and threshold math runs on
/// the service clock's µs timeline).
fn duration_us(d: Duration) -> u64 {
    d.as_micros().min(u128::from(u64::MAX)) as u64
}

/// A bounded counter of held slots: one bounds open cursors
/// ([`ServiceConfig::max_open_cursors`]), one established connections
/// ([`ServiceConfig::max_connections`]). A slot is taken by
/// compare-and-swap below the bound and given back by its [`Slot`]'s
/// `Drop`, so whatever ends its holder — a close, a reap, an I/O error,
/// an unwind — returns it.
#[derive(Debug)]
struct Gauge {
    open: AtomicUsize,
    max: usize,
}

impl Gauge {
    fn new(max: usize) -> Arc<Gauge> {
        Arc::new(Gauge {
            open: AtomicUsize::new(0),
            max,
        })
    }

    /// Slots held right now.
    fn open(&self) -> usize {
        self.open.load(Ordering::Relaxed)
    }

    /// Try to take a slot; `None` at the bound.
    fn try_acquire(self: &Arc<Self>) -> Option<Slot> {
        let mut cur = self.open.load(Ordering::Relaxed);
        loop {
            if cur >= self.max {
                return None;
            }
            match self
                .open
                .compare_exchange_weak(cur, cur + 1, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(_) => {
                    return Some(Slot {
                        gauge: Arc::clone(self),
                    })
                }
                Err(seen) => cur = seen,
            }
        }
    }
}

/// One held slot of a [`Gauge`]; dropping it is the release. A cursor's
/// lives in its table entry, a connection's beside the connection state
/// for the connection's whole lifetime.
#[derive(Debug)]
pub(crate) struct Slot {
    gauge: Arc<Gauge>,
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.gauge.open.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A cursor's service-wide identity: (session id, cursor id).
type CursorKey = (u64, u64);

/// One open cursor, whole: the stream with its lookahead, its expiry
/// deadline and its admission slot. Dropping the entry frees all three,
/// so whoever removes it from the table has released the cursor.
struct Entry {
    cursor: Cursor,
    /// Expiry instant, µs on the service clock (the obs registry's
    /// injected clock, so TTL tests can drive time deterministically).
    deadline_us: u64,
    _slot: Slot,
}

impl Entry {
    fn overdue(&self, now_us: u64) -> bool {
        now_us > self.deadline_us
    }
}

/// Every open cursor of every session. One mutex, held only for single
/// map operations — never across a prepare, a pull or an encode.
type CursorTable = Mutex<HashMap<CursorKey, Entry>>;

/// The engine a [`Service`] serves from: one process-local [`Engine`],
/// or N hash-partitioned shards merged behind [`ShardedEngine`]. The
/// session layer — cursors, admission, deadlines, metrics — is
/// identical either way; only planning and stats sourcing dispatch.
#[derive(Clone)]
enum Backend {
    Single(Engine),
    Sharded(ShardedEngine),
}

impl Backend {
    /// Plan `cq` under `rank` into a ranked stream (through the plan
    /// cache on a single engine; through every shard's cache plus the
    /// tournament merge on a sharded one), with provenance: the
    /// prepare report (cache hit, prepare wall time) and — sharded —
    /// the live [`ShardFanIn`] handle behind the tournament merge.
    fn plan_report(
        &self,
        cq: ConjunctiveQuery,
        rank: RankSpec,
    ) -> Result<(RankedStream, PrepareReport, Option<Arc<ShardFanIn>>), EngineError> {
        match self {
            Backend::Single(engine) => {
                let (stream, report) = engine.query(cq).rank_by(rank).plan_report()?;
                Ok((stream, report, None))
            }
            Backend::Sharded(sharded) => {
                let (prepared, report) = sharded.prepare_report(&cq, rank)?;
                let obs = sharded.obs();
                let (stream, fan_in) = prepared.stream_traced(obs);
                Ok((stream.sampled(obs), report, fan_in))
            }
        }
    }

    /// Render the plan; a sharded backend appends its per-atom fan-out.
    fn explain(&self, cq: ConjunctiveQuery, rank: RankSpec) -> Result<String, EngineError> {
        match self {
            Backend::Single(engine) => Ok(engine.query(cq).rank_by(rank).explain()?.explain()),
            Backend::Sharded(sharded) => sharded.explain(&cq, rank),
        }
    }

    fn cache_stats(&self) -> CacheStats {
        match self {
            Backend::Single(engine) => engine.cache_stats(),
            Backend::Sharded(sharded) => sharded.cache_stats(),
        }
    }

    fn index_stats(&self) -> IndexStats {
        match self {
            Backend::Single(engine) => engine.index_stats(),
            Backend::Sharded(sharded) => sharded.index_stats(),
        }
    }

    fn shards(&self) -> usize {
        match self {
            Backend::Single(_) => 1,
            Backend::Sharded(sharded) => sharded.num_shards(),
        }
    }

    /// Append one batch to `name` (every shard's logical copy plus its
    /// hash fragment on a sharded backend): the relation's delta-batch
    /// count afterwards and whether this append tripped threshold
    /// compaction, as the engine read them while applying it.
    fn append(&self, name: &str, batch: anyk_storage::Relation) -> Result<Appended, EngineError> {
        match self {
            Backend::Single(engine) => engine.append(name, batch),
            Backend::Sharded(sharded) => sharded.append(name, batch),
        }
    }

    fn write_stats(&self) -> WriteStats {
        match self {
            Backend::Single(engine) => engine.write_stats(),
            Backend::Sharded(sharded) => sharded.write_stats(),
        }
    }
}

/// The query service: a shared engine backend — single or sharded —
/// plus the service-wide admission bound and metrics.
/// `Clone + Send + Sync` — clones are handles to the same service;
/// spawn one [`Session`] per client.
#[derive(Clone)]
pub struct Service {
    backend: Backend,
    config: ServiceConfig,
    /// The backend engine's observability registry (shard 0's on a
    /// sharded backend): trace ring, slow-query log, route cells, and
    /// the injected clock every service timestamp reads.
    obs: Arc<ObsRegistry>,
    admission: Arc<Gauge>,
    connections: Arc<Gauge>,
    cursors: Arc<CursorTable>,
    metrics: Arc<Metrics>,
    next_session: Arc<AtomicU64>,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("config", &self.config)
            .field("open_cursors", &self.admission.open())
            .finish_non_exhaustive()
    }
}

impl Service {
    /// A service over `engine` with the default
    /// [`ServiceConfig`].
    pub fn new(engine: Engine) -> Self {
        Service::with_config(engine, ServiceConfig::default())
    }

    /// A service with an explicit configuration.
    pub fn with_config(engine: Engine, config: ServiceConfig) -> Self {
        Service::from_backend(Backend::Single(engine), config)
    }

    /// A service over a [`ShardedEngine`] with the default
    /// [`ServiceConfig`]: sessions stream through the globally-ranked
    /// shard merge, `EXPLAIN` reports shard fan-out, and `STATS`
    /// aggregates per-shard cache and index counters.
    pub fn sharded(engine: ShardedEngine) -> Self {
        Service::sharded_with_config(engine, ServiceConfig::default())
    }

    /// [`Service::sharded`] with an explicit configuration.
    pub fn sharded_with_config(engine: ShardedEngine, config: ServiceConfig) -> Self {
        Service::from_backend(Backend::Sharded(engine), config)
    }

    fn from_backend(backend: Backend, config: ServiceConfig) -> Self {
        let obs = match &backend {
            Backend::Single(engine) => Arc::clone(engine.obs()),
            Backend::Sharded(sharded) => Arc::clone(sharded.obs()),
        };
        Service {
            backend,
            config,
            obs,
            admission: Gauge::new(config.max_open_cursors),
            connections: Gauge::new(config.max_connections),
            cursors: Arc::default(),
            metrics: Arc::new(Metrics {
                ttf_min_us: AtomicU64::new(u64::MAX),
                ..Metrics::default()
            }),
            next_session: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The underlying single-process engine (catalog updates, cache
    /// configuration) — `None` when this service fronts a sharded
    /// backend; use [`Service::sharded_engine`] there.
    pub fn engine(&self) -> Option<&Engine> {
        match &self.backend {
            Backend::Single(engine) => Some(engine),
            Backend::Sharded(_) => None,
        }
    }

    /// The underlying sharded engine — `None` on a single-engine
    /// service.
    pub fn sharded_engine(&self) -> Option<&ShardedEngine> {
        match &self.backend {
            Backend::Single(_) => None,
            Backend::Sharded(sharded) => Some(sharded),
        }
    }

    /// How many engine shards serve this service (1 for a
    /// single-engine backend).
    pub fn shards(&self) -> usize {
        self.backend.shards()
    }

    /// The active configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The observability registry this service records into: the trace
    /// ring behind `TRACE <n>`, the slow-query log behind `TRACE SLOW`,
    /// and the per-route × per-ranking cells behind `STATS`.
    pub fn obs(&self) -> &Arc<ObsRegistry> {
        &self.obs
    }

    /// Current µs reading of the service clock (the registry's
    /// injected [`Clock`](anyk_obs::Clock) — deterministic in tests).
    pub(crate) fn now_us(&self) -> u64 {
        self.obs.now_us()
    }

    /// The cursor TTL in service-clock µs.
    fn ttl_us(&self) -> u64 {
        duration_us(self.config.cursor_ttl)
    }

    /// The slow-query threshold in µs (0 = the log is disabled).
    fn slow_threshold_us(&self) -> u64 {
        duration_us(self.config.slow_query)
    }

    /// Accept-time load shedding: try to admit one more connection.
    /// `Some(slot)` reserves a connection for as long as the slot
    /// lives (transports hold it alongside the connection state);
    /// `None` means the service is at [`ServiceConfig::max_connections`]
    /// — the transport sends one typed admission error and closes. The
    /// rejection is counted in [`ServiceStats::connections_rejected`].
    pub(crate) fn try_admit_connection(&self) -> Option<Slot> {
        let slot = self.connections.try_acquire();
        if slot.is_none() {
            self.metrics
                .connections_rejected
                .fetch_add(1, Ordering::Relaxed);
        }
        slot
    }

    /// How many connections are established right now.
    pub(crate) fn open_connections(&self) -> usize {
        self.connections.open()
    }

    /// Open a session: the per-client unit whose cursors the service's
    /// table holds. One session per connection (or per
    /// [`LocalClient`](crate::LocalClient)).
    pub fn session(&self) -> Session {
        Session {
            id: self.next_session.fetch_add(1, Ordering::Relaxed),
            service: self.clone(),
            open: Vec::new(),
            expired: VecDeque::new(),
            next_cursor: 0,
            pending: None,
        }
    }

    /// The cursor table, locked. Each critical section is one map
    /// operation, so a panic inside one (a stream's drop) leaves the
    /// map whole and a poisoned lock is safe to recover.
    fn table(&self) -> MutexGuard<'_, HashMap<CursorKey, Entry>> {
        self.cursors.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Sweep the cursor table: drop every cursor whose TTL has passed,
    /// freeing its stream and its admission slot at once — the owning
    /// session need not speak. Called by admission when the service is
    /// full and by the event-loop transport on its timer tick; also
    /// public for external reaper threads. Returns how many cursors
    /// were reaped.
    pub fn reap_expired_cursors(&self) -> usize {
        let now_us = self.now_us();
        let reaped = {
            let mut table = self.table();
            let before = table.len();
            table.retain(|_, e| !e.overdue(now_us));
            before - table.len()
        };
        if reaped > 0 {
            self.metrics
                .cursors_expired
                .fetch_add(reaped as u64, Ordering::Relaxed);
        }
        reaped
    }

    /// Current metrics, including the engine's plan-cache counters
    /// and the per-route × per-ranking breakdown.
    pub fn stats(&self) -> ServiceStats {
        let m = &self.metrics;
        let count = m.ttf_count.load(Ordering::Relaxed);
        let min = m.ttf_min_us.load(Ordering::Relaxed);
        let (prepare, delay) = self.merged_engine_hists();
        let ring = self.obs.ring_stats();
        let writes = self.backend.write_stats();
        let mut routes = [[RouteRankStats::default(); RANKS.len()]; ROUTES.len()];
        for (r, row) in routes.iter_mut().enumerate() {
            for (k, out) in row.iter_mut().enumerate() {
                let cell = self.obs.cell(r as u64, k as u64);
                *out = RouteRankStats {
                    queries: cell.queries.load(Ordering::Relaxed),
                    answers: cell.answers.load(Ordering::Relaxed),
                    ttf_p50_us: cell.ttf.percentile(0.50),
                    ttf_p99_us: cell.ttf.percentile(0.99),
                };
            }
        }
        ServiceStats {
            queries: m.queries.load(Ordering::Relaxed),
            answers_served: m.answers_served.load(Ordering::Relaxed),
            pages_served: m.pages_served.load(Ordering::Relaxed),
            cursors_opened: m.cursors_opened.load(Ordering::Relaxed),
            cursors_closed: m.cursors_closed.load(Ordering::Relaxed),
            cursors_expired: m.cursors_expired.load(Ordering::Relaxed),
            admission_rejected: m.admission_rejected.load(Ordering::Relaxed),
            open_cursors: self.admission.open(),
            ttf_min_us: if count == 0 { 0 } else { min },
            ttf_mean_us: m
                .ttf_sum_us
                .load(Ordering::Relaxed)
                .checked_div(count)
                .unwrap_or(0),
            ttf_max_us: m.ttf_max_us.load(Ordering::Relaxed),
            ttf_p50_us: m.ttf_hist.percentile(0.50),
            ttf_p95_us: m.ttf_hist.percentile(0.95),
            ttf_p99_us: m.ttf_hist.percentile(0.99),
            page_p50_us: m.page_hist.percentile(0.50),
            page_p95_us: m.page_hist.percentile(0.95),
            page_p99_us: m.page_hist.percentile(0.99),
            connections_rejected: m.connections_rejected.load(Ordering::Relaxed),
            open_connections: self.connections.open(),
            cache: self.backend.cache_stats(),
            index: self.backend.index_stats(),
            shards: self.backend.shards(),
            prepare_p50_us: prepare.percentile(0.50),
            prepare_p95_us: prepare.percentile(0.95),
            prepare_p99_us: prepare.percentile(0.99),
            delay_p50_us: delay.percentile(0.50),
            delay_p99_us: delay.percentile(0.99),
            traces_published: ring.published,
            traces_dropped: ring.dropped,
            slow_queries: self.obs.slow().len(),
            appends: writes.appends,
            appended_rows: writes.appended_rows,
            compactions: writes.compactions,
            append_invalidations: writes.invalidated_plans,
            terms_kept: writes.terms_kept,
            terms_extended: writes.terms_extended,
            terms_rebuilt: writes.terms_rebuilt,
            routes,
        }
    }

    /// Engine-side histograms for `STATS`: every shard records prepare
    /// times and sampled delays into its **own** registry, so the
    /// service merges them **bucket-wise** — position-aligned
    /// power-of-two buckets make the merged percentiles exactly what
    /// one histogram over all shards' samples would report, at any
    /// shard count.
    fn merged_engine_hists(&self) -> (Histogram, Histogram) {
        match &self.backend {
            Backend::Single(engine) => (
                Histogram::merged([engine.obs().prepare_hist()]),
                Histogram::merged([engine.obs().delay_hist()]),
            ),
            Backend::Sharded(sharded) => (
                Histogram::merged(
                    sharded
                        .shard_engines()
                        .iter()
                        .map(|e| e.obs().prepare_hist()),
                ),
                Histogram::merged(sharded.shard_engines().iter().map(|e| e.obs().delay_hist())),
            ),
        }
    }
}

/// [`QueryTrace::index`] code for a plan's index provenance
/// (0 = n/a, 1 = cached, 2 = built — mirrored by the wire layer).
fn index_code(index: anyk_engine::IndexUse) -> u64 {
    match index {
        IndexUse::NotApplicable => 0,
        IndexUse::Cached => 1,
        IndexUse::Built => 2,
    }
}

/// Copy a merged stream's live [`ShardFanIn`] counters into `trace`:
/// shard count, tournament depth, per-shard rows (truncated at the
/// trace's fixed fan-in width), and — staged temporarily in the merge
/// slot for [`fill_stages`] to clamp — merge-machinery wall time.
fn stage_fan_in(trace: &mut QueryTrace, fan_in: Option<&ShardFanIn>) {
    let Some(fan_in) = fan_in else {
        trace.shards = 1;
        return;
    };
    trace.shards = fan_in.shards() as u64;
    trace.merge_depth = u64::from(fan_in.depth());
    trace.stage_us[Stage::Merge as usize] = fan_in.merge_us();
    for (slot, rows) in trace.shard_rows.iter_mut().zip(fan_in.rows()) {
        *slot = rows;
    }
}

/// Distribute one query's measured wall intervals over the stage
/// taxonomy so the stages stay contiguous (their sum equals the sum
/// of the inputs): prepare is carved out of the plan interval (the
/// remainder is spawn), merge out of the pull interval (the remainder
/// is pure pull). Expects any merge time pre-staged in the merge slot
/// by [`stage_fan_in`].
fn fill_stages(
    trace: &mut QueryTrace,
    parse_us: u64,
    admission_us: u64,
    prepare_us: u64,
    plan_wall_us: u64,
    pull_wall_us: u64,
) {
    let prepare = prepare_us.min(plan_wall_us);
    let merge = trace.stage_us[Stage::Merge as usize].min(pull_wall_us);
    trace.stage_us[Stage::Parse as usize] = parse_us;
    trace.stage_us[Stage::Admission as usize] = admission_us;
    trace.stage_us[Stage::Prepare as usize] = prepare;
    trace.stage_us[Stage::Spawn as usize] = plan_wall_us - prepare;
    trace.stage_us[Stage::Merge as usize] = merge;
    trace.stage_us[Stage::Pull as usize] = pull_wall_us - merge;
}

/// Lower an `INSERT`'s literal rows into a relation batch. The first
/// row fixes the cell count (attributes plus the trailing weight);
/// a row that disagrees is a typed [`ServeError::RaggedInsert`]. The
/// batch's arity against the target relation is the engine's check —
/// it owns the catalog and reports the typed arity error.
fn insert_batch(stmt: &crate::ast::InsertStmt) -> Result<anyk_storage::Relation, ServeError> {
    use anyk_storage::{RelationBuilder, Schema, Value, Weight};
    let width = stmt.rows.first().map_or(1, Vec::len);
    let arity = width - 1;
    let mut b = RelationBuilder::new(Schema::new((0..arity).map(|i| format!("c{i}"))));
    for (i, row) in stmt.rows.iter().enumerate() {
        if row.len() != width {
            return Err(ServeError::RaggedInsert {
                row: i,
                cells: row.len(),
                expected: width,
            });
        }
        let cells: Vec<Value> = row[..arity]
            .iter()
            .map(|lit| match *lit {
                crate::ast::Literal::Int(v) => Value::Int(v),
                crate::ast::Literal::Float(bits) => Value::Float(bits),
            })
            .collect();
        b.push(&cells, Weight::new(row[arity].as_f64()));
    }
    Ok(b.finish())
}

/// A live cursor's stream and the answer pulled ahead of its last page.
/// It lives in its [`Entry`] in the service's cursor table.
struct Cursor {
    stream: RankedStream,
    /// At most one row: the answer pulled ahead of the last page, so
    /// `done` is exact — a page only reports `done=false` when a
    /// further answer is proven to exist (an exactly-page-sized result
    /// must not pin a cursor and its admission slot). Kept as a slab so
    /// the row moves into the next page and back without a vector of
    /// its own; its two blocks are allocated once per cursor.
    lookahead: AnswerSlab<Cost>,
}

impl Cursor {
    fn new(stream: RankedStream) -> Cursor {
        let lookahead = stream.page(0);
        Cursor { stream, lookahead }
    }

    /// Pull up to `n` answers plus one lookahead. Returns the page and
    /// whether the stream is now proven exhausted; a surplus answer
    /// goes back into `lookahead` for the next page.
    fn pull_page(&mut self, n: usize) -> (AnswerSlab<Cost>, bool) {
        let mut page = self.stream.page(n.min(1024) + 1);
        self.lookahead.move_last_to(&mut page);
        let want = n.saturating_add(1) - page.len();
        if self.stream.fill(&mut page, want) < want {
            return (page, true);
        }
        page.move_last_to(&mut self.lookahead);
        (page, false)
    }
}

/// The shared front half of `SELECT` and `EXPLAIN ANALYZE`
/// ([`Session::first_page`]): the admitted, planned stream with its
/// first page pulled, and the provenance both replies are built from.
struct FirstPage {
    /// Held until the caller registers a cursor or returns.
    slot: Slot,
    cursor: Cursor,
    answers: AnswerSlab<Cost>,
    done: bool,
    fan_in: Option<Arc<ShardFanIn>>,
    /// `Some` when the run was traced; stages filled, encode still 0.
    trace: Option<QueryTrace>,
    /// Plan start through page end on the service clock, µs.
    served_us: u64,
    /// Parse through page end, µs (0 when untraced).
    wall_us: u64,
}

/// One client's session over the shared service. Sessions are owned by
/// a single client (connection thread or
/// [`LocalClient`](crate::LocalClient)) and keep only cursor ids; the
/// cursors themselves, prepared queries, the plan cache and metrics
/// live in the shared [`Service`].
pub struct Session {
    /// Service-wide unique id; the session half of every [`CursorKey`]
    /// this session registers in the cursor table.
    id: u64,
    service: Service,
    /// Ids this session opened and has not yet seen closed, drained or
    /// expired. One whose entry is gone from the table was reaped
    /// there; it moves to `expired` when the session names it.
    open: Vec<u64>,
    /// Ids reaped by the TTL, kept so `NEXT`/`CLOSE` on them report
    /// [`ServeError::CursorExpired`] instead of "unknown". Bounded at
    /// [`EXPIRED_MEMORY`]: a session cycling cursors under admission
    /// pressure must not accumulate memory or per-command scan cost —
    /// ids evicted from this window degrade to `UnknownCursor`.
    expired: VecDeque<u64>,
    next_cursor: u64,
    /// The trace of the command this session just ran, waiting for the
    /// wire layer to stamp its encode time (and total) before
    /// publication — so `SELECT` traces carry true end-to-end times.
    pending: Option<QueryTrace>,
}

/// How many reaped cursor ids a session remembers for the typed
/// `CursorExpired` reply (oldest evicted first).
const EXPIRED_MEMORY: usize = 1024;

impl Session {
    /// Parse and run one command, timing the parse stage for the
    /// command's trace.
    pub fn execute(&mut self, input: &str) -> Result<Response, ServeError> {
        let enabled = self.service.obs.enabled();
        let t0 = if enabled { self.service.now_us() } else { 0 };
        let cmd = parse(input)?;
        let parse_us = if enabled {
            self.service.now_us().saturating_sub(t0)
        } else {
            0
        };
        self.run_timed(cmd, parse_us)
    }

    /// Run an already-parsed command (parse stage reported as 0).
    pub fn run(&mut self, cmd: Command) -> Result<Response, ServeError> {
        self.run_timed(cmd, 0)
    }

    fn run_timed(&mut self, cmd: Command, parse_us: u64) -> Result<Response, ServeError> {
        // A caller that bypasses the wire layer (direct `run`) never
        // reaches `finish_trace`; flush any leftover trace now, with
        // no encode stage, so it still lands in the ring exactly once.
        self.finish_trace(0);
        match cmd {
            Command::Select(stmt) => self.select(stmt, parse_us),
            Command::ExplainAnalyze(stmt) => self.explain_analyze(stmt, parse_us),
            Command::Trace { last } => Ok(Response::Traces {
                slow: false,
                traces: self.service.obs.recent(last),
            }),
            Command::TraceSlow => Ok(Response::Traces {
                slow: true,
                traces: self.service.obs.slow(),
            }),
            Command::Explain(stmt) => {
                let rank = stmt.rank;
                let text = self.service.backend.explain(stmt.into_cq(), rank)?;
                Ok(Response::Explained(text))
            }
            Command::Insert(stmt) => {
                let batch = insert_batch(&stmt)?;
                self.append(&stmt.relation, batch)
            }
            Command::Load(stmt) => {
                let batch = anyk_storage::read_csv(stmt.csv.as_bytes()).map_err(|e| {
                    ServeError::CsvRejected {
                        message: e.to_string(),
                    }
                })?;
                self.append(&stmt.relation, batch)
            }
            Command::Next { count, cursor } => self.next(count, cursor),
            Command::Close { cursor } => {
                self.take(cursor, self.service.now_us())?;
                self.close(cursor);
                Ok(Response::Closed { cursor })
            }
            Command::Stats => Ok(Response::Stats(Box::new(self.service.stats()))),
        }
    }

    /// Streams this session holds open right now: its entries in the
    /// cursor table.
    pub fn open_cursors(&self) -> usize {
        let table = self.service.table();
        (self.open.iter())
            .filter(|&&c| table.contains_key(&(self.id, c)))
            .count()
    }

    /// Take `cursor`'s entry out of the table for this command. An
    /// overdue entry is dropped here and counted expired; one already
    /// gone was reaped (and counted) elsewhere. Both answer
    /// [`ServeError::CursorExpired`], as does an id in the expired
    /// window; any other id is [`ServeError::UnknownCursor`].
    fn take(&mut self, cursor: u64, now_us: u64) -> Result<Entry, ServeError> {
        let entry = self.service.table().remove(&(self.id, cursor));
        match entry {
            Some(entry) if !entry.overdue(now_us) => return Ok(entry),
            Some(_) => {
                self.service
                    .metrics
                    .cursors_expired
                    .fetch_add(1, Ordering::Relaxed);
            }
            None if self.open.contains(&cursor) => {}
            None if self.expired.contains(&cursor) => {
                return Err(ServeError::CursorExpired { cursor })
            }
            None => return Err(ServeError::UnknownCursor { cursor }),
        }
        self.forget(cursor);
        self.remember_expired(cursor);
        Err(ServeError::CursorExpired { cursor })
    }

    /// Count a cursor this session ended — `CLOSE` or a drain — closed;
    /// its entry is out of the table and already dropped.
    fn close(&mut self, cursor: u64) {
        self.forget(cursor);
        self.service
            .metrics
            .cursors_closed
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Drop `cursor` from the open ids.
    fn forget(&mut self, cursor: u64) {
        if let Some(i) = self.open.iter().position(|&c| c == cursor) {
            self.open.swap_remove(i);
        }
    }

    /// Stamp the pending trace's encode stage, total it, and publish
    /// it to the trace ring (and the slow-query log past the
    /// threshold). Called by the wire layer after rendering the reply;
    /// a no-op when no trace is pending.
    pub(crate) fn finish_trace(&mut self, encode_us: u64) {
        if let Some(mut trace) = self.pending.take() {
            trace.stage_us[Stage::Encode as usize] = encode_us;
            trace.total_us = trace.stage_sum_us();
            self.service
                .obs
                .publish(&trace, self.service.slow_threshold_us());
        }
    }

    /// Current µs reading of the service clock (for the wire layer's
    /// encode-stage timing).
    pub(crate) fn now_us(&self) -> u64 {
        self.service.now_us()
    }

    /// Whether trace recording is live (the wire layer skips its
    /// encode-stage clock reads otherwise).
    pub(crate) fn tracing(&self) -> bool {
        self.pending.is_some()
    }

    /// Record a reaped cursor id for the typed `CursorExpired` reply,
    /// bounded at [`EXPIRED_MEMORY`] (oldest forgotten first).
    fn remember_expired(&mut self, cursor: u64) {
        if self.expired.len() == EXPIRED_MEMORY {
            self.expired.pop_front();
        }
        self.expired.push_back(cursor);
    }

    /// Take an admission slot. A full service first sweeps the cursor
    /// table — reaping expired cursors releases slots a silent session
    /// would otherwise pin — then retries once before rejecting.
    fn admit(&self) -> Result<Slot, ServeError> {
        let admission = &self.service.admission;
        if let Some(slot) = admission.try_acquire() {
            return Ok(slot);
        }
        self.service.reap_expired_cursors();
        admission.try_acquire().ok_or_else(|| {
            self.service
                .metrics
                .admission_rejected
                .fetch_add(1, Ordering::Relaxed);
            ServeError::AdmissionRejected {
                open: admission.open(),
                max: admission.max,
            }
        })
    }

    /// What `SELECT` and `EXPLAIN ANALYZE` share: admit, plan through
    /// the engine's plan cache (every shard's, on a sharded backend —
    /// repeated queries of one shape share preprocessing across all
    /// sessions), pull the first page, and — when `traced` — assemble
    /// the query's trace. Untraced runs skip the stage-seam clock reads
    /// and the trace (`trace` is `None`, `wall_us` 0); the plan → page
    /// interval is always measured.
    fn first_page(
        &self,
        stmt: crate::ast::SelectStmt,
        parse_us: u64,
        traced: bool,
    ) -> Result<FirstPage, ServeError> {
        let obs = &self.service.obs;
        let t_enter_us = if traced { obs.now_us() } else { 0 };
        let slot = self.admit()?;
        let limit = stmt.limit.unwrap_or(self.service.config.default_page);
        let rank = stmt.rank;
        let started_us = obs.now_us();
        let (stream, report, fan_in) = self.service.backend.plan_report(stmt.into_cq(), rank)?;
        let t_planned_us = if traced { obs.now_us() } else { 0 };
        let mut cursor = Cursor::new(stream);
        let (answers, done) = cursor.pull_page(limit);
        let end_us = obs.now_us();
        let trace = traced.then(|| {
            let plan = cursor.stream.plan();
            let mut trace = QueryTrace {
                id: obs.next_id(),
                route: route_id(plan.route.label()),
                rank: rank_id(rank.label()),
                cache: u64::from(report.cache_hit),
                index: index_code(plan.index),
                rows: answers.len() as u64,
                limit: limit as u64,
                ..QueryTrace::default()
            };
            stage_fan_in(&mut trace, fan_in.as_deref());
            fill_stages(
                &mut trace,
                parse_us,
                started_us.saturating_sub(t_enter_us),
                report.prepare_us,
                t_planned_us.saturating_sub(started_us),
                end_us.saturating_sub(t_planned_us),
            );
            trace
        });
        Ok(FirstPage {
            slot,
            cursor,
            answers,
            done,
            fan_in,
            trace,
            served_us: end_us.saturating_sub(started_us),
            wall_us: parse_us.saturating_add(end_us.saturating_sub(t_enter_us)),
        })
    }

    fn select(
        &mut self,
        stmt: crate::ast::SelectStmt,
        parse_us: u64,
    ) -> Result<Response, ServeError> {
        let metrics = Arc::clone(&self.service.metrics);
        let page = self.first_page(stmt, parse_us, self.service.obs.enabled())?;
        let (answers, served_us) = (page.answers, page.served_us);
        if !answers.is_empty() {
            metrics.record_ttf(served_us);
        }
        metrics.record_page(served_us);
        metrics.queries.fetch_add(1, Ordering::Relaxed);
        metrics.pages_served.fetch_add(1, Ordering::Relaxed);
        metrics
            .answers_served
            .fetch_add(answers.len() as u64, Ordering::Relaxed);
        if let Some(trace) = page.trace {
            self.service.obs.record_query(
                trace.route,
                trace.rank,
                trace.rows,
                (!answers.is_empty()).then_some(served_us),
            );
            self.pending = Some(trace);
        }
        if page.done {
            // Exhausted in one page: no cursor, the slot frees now.
            return Ok(Response::Page(Page {
                cursor: None,
                answers,
                done: true,
            }));
        }
        let id = self.next_cursor;
        self.next_cursor += 1;
        if self.open.len() >= self.service.config.max_open_cursors.saturating_mul(2) {
            self.forget_reaped();
        }
        self.open.push(id);
        let entry = Entry {
            cursor: page.cursor,
            deadline_us: self.service.now_us().saturating_add(self.service.ttl_us()),
            _slot: page.slot,
        };
        self.service.table().insert((self.id, id), entry);
        metrics.cursors_opened.fetch_add(1, Ordering::Relaxed);
        Ok(Response::Page(Page {
            cursor: Some(id),
            answers,
            done: false,
        }))
    }

    /// The shared write path behind `INSERT` and `LOAD`: bound the
    /// batch, append through the backend (delta batch + relation-scoped
    /// plan invalidation; open cursors keep their snapshot), and
    /// acknowledge with the relation's live delta state.
    fn append(
        &mut self,
        name: &str,
        batch: anyk_storage::Relation,
    ) -> Result<Response, ServeError> {
        let max = self.service.config.max_batch_rows;
        if batch.len() > max {
            return Err(ServeError::BatchTooLarge {
                rows: batch.len(),
                max,
            });
        }
        let rows = batch.len() as u64;
        let Appended { deltas, compacted } = self.service.backend.append(name, batch)?;
        Ok(Response::Appended {
            rows,
            deltas,
            compacted,
        })
    }

    /// `NEXT`: take the cursor's entry out of the table, pull the page
    /// with no lock held — out of the table the entry is this
    /// command's alone, so no sweep can free it mid-pull — then put it
    /// back with a fresh deadline, or drop it when the stream is done.
    fn next(&mut self, count: usize, cursor: u64) -> Result<Response, ServeError> {
        let started_us = self.service.now_us();
        let mut entry = self.take(cursor, started_us)?;
        let (answers, done) = entry.cursor.pull_page(count);
        let end_us = self.service.now_us();
        let metrics = &self.service.metrics;
        metrics.record_page(end_us.saturating_sub(started_us));
        metrics.pages_served.fetch_add(1, Ordering::Relaxed);
        metrics
            .answers_served
            .fetch_add(answers.len() as u64, Ordering::Relaxed);
        if done {
            // Drained: the cursor closes itself.
            drop(entry);
            self.close(cursor);
            return Ok(Response::Page(Page {
                cursor: None,
                answers,
                done: true,
            }));
        }
        entry.deadline_us = end_us.saturating_add(self.service.ttl_us());
        self.service.table().insert((self.id, cursor), entry);
        Ok(Response::Page(Page {
            cursor: Some(cursor),
            answers,
            done: false,
        }))
    }

    /// `EXPLAIN ANALYZE SELECT …`: run the query to its page limit
    /// with every stage of its life timed on the service clock, and
    /// report where the time went instead of the answers. The stages
    /// are contiguous sub-spans of one measured wall interval, so the
    /// report's stage sum equals its wall time by construction. The run
    /// is real — admission, plan cache, index catalog, shard merge —
    /// but holds no cursor: the admission slot frees on return, and
    /// page/answer metrics are left untouched (it is a diagnostic
    /// command, not traffic). Its trace still enters the ring.
    fn explain_analyze(
        &mut self,
        stmt: crate::ast::SelectStmt,
        parse_us: u64,
    ) -> Result<Response, ServeError> {
        let rank = stmt.rank;
        let page = self.first_page(stmt, parse_us, true)?;
        let trace = page.trace.unwrap_or_default();
        let obs = &self.service.obs;
        obs.record_query(trace.route, trace.rank, trace.rows, None);
        if obs.enabled() {
            // Published now, encode stage 0: the report itself is the
            // reply, not part of the measured query.
            self.pending = Some(trace);
            self.finish_trace(0);
        }
        let plan = page.cursor.stream.plan();
        let report = AnalyzeReport {
            route: plan.route.label().to_string(),
            rank: rank.to_string(),
            cache_hit: trace.cache != 0,
            index: plan.index.label(),
            stage_us: trace.stage_us,
            // Encode is 0 here, so the contiguous stages sum to the
            // measured wall exactly.
            wall_us: page.wall_us,
            rows: trace.rows,
            limit: trace.limit,
            shards: trace.shards as usize,
            shard_rows: page
                .fan_in
                .as_deref()
                .map(ShardFanIn::rows)
                .unwrap_or_default(),
            merge_depth: trace.merge_depth as u32,
        };
        Ok(Response::Analyzed(Box::new(report)))
    }

    /// Move the open ids whose entries were reaped elsewhere to the
    /// expired window. Such an id waits in `open` until the session
    /// names it, so a client that never does would grow `open` by one
    /// id a `SELECT`. At most `max_open_cursors` of the ids are live,
    /// so running this when `open` holds twice that many frees at least
    /// half of it: amortized O(1) a `SELECT`, and `open` stays bounded.
    fn forget_reaped(&mut self) {
        let mut reaped = std::mem::take(&mut self.open);
        {
            let table = self.service.table();
            reaped.retain(|&c| {
                let live = table.contains_key(&(self.id, c));
                if live {
                    self.open.push(c);
                }
                !live
            });
        }
        for c in reaped {
            self.remember_expired(c);
        }
    }
}

impl Drop for Session {
    /// A dropped session closes its cursors: removing each entry frees
    /// its stream and its slot, counted closed. Cursors already reaped
    /// were counted expired — not recounted here.
    fn drop(&mut self) {
        if self.open.is_empty() {
            return;
        }
        let closed = {
            let mut table = self.service.table();
            (self.open.iter())
                .filter(|&&c| table.remove(&(self.id, c)).is_some())
                .count() as u64
        };
        if closed > 0 {
            self.service
                .metrics
                .cursors_closed
                .fetch_add(closed, Ordering::Relaxed);
        }
    }
}

// One service, many sessions, any number of threads.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    const fn assert_send<T: Send>() {}
    assert_send_sync::<Service>();
    assert_send::<Session>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_table_accounts_slots_exactly() {
        use anyk_storage::{Catalog, RelationBuilder, Schema};
        let mut catalog = Catalog::new();
        let mut r = RelationBuilder::new(Schema::new(["a", "b"]));
        for i in 0..8i64 {
            r.push_ints(&[i, i + 10], 0.1 * (i as f64 + 1.0));
        }
        catalog.register("R", r.finish());
        let clock = anyk_obs::manual_clock(1_000_000);
        let obs = Arc::new(ObsRegistry::new(clock.clone()));
        let engine = Engine::with_obs(catalog, anyk_engine::EngineOpts::default(), obs);
        let service = Service::with_config(
            engine,
            ServiceConfig {
                max_open_cursors: 1024,
                cursor_ttl: Duration::from_millis(1),
                ..ServiceConfig::default()
            },
        );
        let open_page = |reply: Result<Response, ServeError>| {
            matches!(reply, Ok(Response::Page(Page { done: false, .. })))
        };
        let held = |service: &Service| (service.table().len(), service.stats().open_cursors);
        // 64 cursors over 8 sessions, one table entry and one slot each.
        let mut sessions: Vec<Session> = (0..8).map(|_| service.session()).collect();
        for session in &mut sessions {
            for _ in 0..8 {
                assert!(open_page(session.execute("SELECT R(a,b) LIMIT 1;")));
            }
        }
        assert_eq!(held(&service), (64, 64));
        // Before the TTL, a NEXT touches the even-parity keys and
        // (0, 1); the other 31 odd-parity ones idle on.
        clock.advance(600);
        for (s, session) in sessions.iter_mut().enumerate() {
            for c in 0..8 {
                if (s + c) % 2 == 0 || (s, c) == (0, 1) {
                    assert!(open_page(session.execute(&format!("NEXT 1 ON {c};"))));
                }
            }
        }
        // CLOSE releases exactly one slot and is idempotent afterwards.
        let closed = Ok(Response::Closed { cursor: 0 });
        assert_eq!(sessions[0].execute("CLOSE 0;"), closed);
        let unknown = Err(ServeError::UnknownCursor { cursor: 0 });
        assert_eq!(sessions[0].execute("CLOSE 0;"), unknown);
        assert_eq!(held(&service), (63, 63));
        // Past the untouched deadlines: the reap frees exactly those
        // 31 entries, streams and slots together.
        clock.advance(600);
        assert_eq!(service.reap_expired_cursors(), 31);
        assert_eq!(held(&service), (32, 32));
        // A reaped cursor answers expired, and is not counted twice.
        assert_eq!(sessions[1].open_cursors(), 4);
        let expired = Err(ServeError::CursorExpired { cursor: 0 });
        assert_eq!(sessions[1].execute("NEXT 1 ON 0;"), expired);
        let stats = service.stats();
        assert_eq!(
            (
                stats.cursors_opened,
                stats.cursors_closed,
                stats.cursors_expired
            ),
            (64, 1, 31)
        );
        drop(sessions);
        assert_eq!(service.table().len(), 0);
        assert_eq!(service.stats().cursors_closed, 33);
    }

    #[test]
    fn accept_shedding_rejects_and_counts() {
        use crate::tcp::{Server, TcpClient, TransportConfig};
        let service = Service::with_config(
            crate::tests_engine(),
            ServiceConfig {
                max_connections: 1,
                ..ServiceConfig::default()
            },
        );
        let mut server = Server::bind_with(
            service.clone(),
            "127.0.0.1:0",
            TransportConfig {
                workers: 2,
                ..TransportConfig::default()
            },
        )
        .expect("bind");
        let mut first = TcpClient::connect(server.addr()).expect("connect");
        let reply = first
            .send("SELECT R(a,b) RANK BY sum LIMIT 1;")
            .expect("select");
        assert!(reply.starts_with("OK"), "{reply}");
        assert_eq!(service.stats().open_connections, 1);
        // The second connection is shed at accept time with one
        // typed reply, before any session state exists.
        let mut second = TcpClient::connect(server.addr()).expect("connect");
        let reply = second.read_reply().expect("reject block");
        assert_eq!(reply, "ERR admission: connections 1 of 1 open\nEND\n");
        let stats = service.stats();
        assert_eq!(stats.connections_rejected, 1);
        assert_eq!(stats.open_connections, 1);
        server.shutdown();
    }

    #[test]
    fn stats_surface_index_catalog_counters() {
        use anyk_storage::{Catalog, RelationBuilder, Schema};
        let mut catalog = Catalog::new();
        for name in ["R", "S", "T"] {
            let mut b = RelationBuilder::new(Schema::new(["x", "y"]));
            for i in 0..4i64 {
                for j in 0..4i64 {
                    if i != j {
                        b.push_ints(&[i, j], 0.1 * (i * 4 + j + 1) as f64);
                    }
                }
            }
            catalog.register(name, b.finish());
        }
        let service = Service::new(Engine::new(catalog));
        let mut client = crate::LocalClient::new(&service);
        // A cyclic query routes through the shared index catalog.
        let reply = client.send("SELECT R(x,y), S(y,z), T(z,x) RANK BY sum LIMIT 1;");
        assert!(reply.starts_with("OK"), "{reply}");
        let stats = service.stats();
        assert!(stats.index.builds > 0, "triangle prepare builds tries");
        assert!(stats.index.resident_bytes > 0);
        let stats_reply = client.send("STATS");
        for key in [
            "index_hits",
            "index_misses",
            "index_builds",
            "index_evictions",
            "index_resident_bytes",
            "index_entries",
            "index_capacity_bytes",
            "open_connections",
            "connections_rejected",
        ] {
            assert!(
                stats_reply.contains(&format!("INFO {key}=")),
                "STATS missing {key}: {stats_reply}"
            );
        }
    }

    #[test]
    fn cursor_table_reaps_only_past_deadlines() {
        let service = Service::new(crate::tests_engine());
        let mut session = service.session();
        let resp = session
            .execute("SELECT R(a,b) LIMIT 1;")
            .expect("select opens a cursor");
        let Response::Page(page) = resp else { panic!() };
        assert!(page.cursor.is_some());
        assert_eq!(service.stats().open_cursors, 1);
        // The deadline (default 60 s) is in the future: no reap.
        assert_eq!(service.reap_expired_cursors(), 0);
        assert_eq!(service.stats().open_cursors, 1);
    }

    /// Regression pin for satellite truthfulness: per-shard histograms
    /// merge **bucket-wise**, so a skewed two-shard service reports
    /// exactly the percentiles one histogram over both shards' samples
    /// would — the old "average the percentiles" style of aggregation
    /// would report a p99 near shard 0's (tiny) tail instead.
    #[test]
    fn sharded_stats_percentiles_are_truthful_under_skew() {
        use anyk_engine::ShardedEngine;
        use anyk_storage::{Catalog, RelationBuilder, Schema};
        let mut catalog = Catalog::new();
        let mut r = RelationBuilder::new(Schema::new(["a", "b"]));
        for i in 0..8i64 {
            r.push_ints(&[i, i + 10], 0.1 * (i as f64 + 1.0));
        }
        catalog.register("R", r.finish());
        let sharded = ShardedEngine::new(catalog, 2).expect("2 shards");
        let service = Service::sharded(sharded);
        let engines = service.sharded_engine().expect("sharded").shard_engines();
        // Shard 0 is fast (90 × 8 µs), shard 1 slow (10 × 8000 µs).
        let reference = Histogram::default();
        for _ in 0..90 {
            engines[0].obs().record_prepare(8);
            reference.record(8);
        }
        for _ in 0..10 {
            engines[1].obs().record_prepare(8_000);
            reference.record(8_000);
        }
        let stats = service.stats();
        assert_eq!(stats.prepare_p50_us, reference.percentile(0.50));
        assert_eq!(stats.prepare_p99_us, reference.percentile(0.99));
        // The slow shard's tail dominates the merged p99; shard 0
        // alone would report < 16 µs.
        assert!(stats.prepare_p99_us >= 4_096, "{}", stats.prepare_p99_us);
        assert!(engines[0].obs().prepare_hist().percentile(0.99) < 16);
    }

    #[test]
    fn select_publishes_a_complete_trace() {
        let service = Service::new(crate::tests_engine());
        let mut client = crate::LocalClient::new(&service);
        let reply = client.send("SELECT R(a,b) RANK BY max LIMIT 3;");
        assert!(reply.starts_with("OK"), "{reply}");
        let traces = service.obs().recent(8);
        assert_eq!(traces.len(), 1);
        let t = traces[0];
        assert_eq!(t.route, anyk_obs::route_id("acyclic"));
        assert_eq!(t.rank, anyk_obs::rank_id("max"));
        assert_eq!(t.rows, 3);
        assert_eq!(t.limit, 3);
        assert_eq!(t.shards, 1);
        assert_eq!(t.merge_depth, 0);
        assert_eq!(t.total_us, t.stage_sum_us());
        let stats = service.obs().ring_stats();
        assert_eq!(stats.published, 1);
        assert_eq!(stats.dropped, 0);
        // The trace also shows up over the wire, newest first.
        let reply = client.send("SELECT R(a,b) RANK BY sum LIMIT 1;");
        assert!(reply.starts_with("OK"), "{reply}");
        let reply = client.send("TRACE 2;");
        assert!(
            reply.starts_with("OK traces count=2 source=ring"),
            "{reply}"
        );
        let first = reply.lines().nth(1).expect("newest trace line");
        assert!(first.contains("rank=sum"), "{first}");
    }

    #[test]
    fn slow_log_obeys_the_configured_threshold() {
        // Threshold 0 disables the log entirely.
        let off = Service::with_config(
            crate::tests_engine(),
            ServiceConfig {
                slow_query: Duration::ZERO,
                ..ServiceConfig::default()
            },
        );
        let mut client = crate::LocalClient::new(&off);
        client.send("SELECT R(a,b) LIMIT 1;");
        assert_eq!(
            client.send("TRACE SLOW;"),
            "OK traces count=0 source=slow\nEND\n"
        );
        // A 1 µs threshold catches any real query (stage times round
        // up to ≥ 0; the total of a real select is ≥ 1 µs in practice
        // only when some stage measured — so give it a real pull).
        let on = Service::with_config(
            crate::tests_engine(),
            ServiceConfig {
                slow_query: Duration::from_micros(1),
                ..ServiceConfig::default()
            },
        );
        let mut client = crate::LocalClient::new(&on);
        client.send("SELECT R(a,b) LIMIT 4;");
        let traces = on.obs().slow();
        let ring = on.obs().recent(1);
        assert_eq!(ring.len(), 1);
        if ring[0].total_us >= 1 {
            assert_eq!(traces.len(), 1, "slow log missed a qualifying trace");
            assert_eq!(traces[0].id, ring[0].id);
        } else {
            assert!(traces.is_empty(), "sub-threshold trace logged as slow");
        }
    }

    #[test]
    fn explain_analyze_executes_and_reports_consistent_stages() {
        let service = Service::new(crate::tests_engine());
        let mut session = service.session();
        let resp = session
            .execute("EXPLAIN ANALYZE SELECT R(a,b) RANK BY sum LIMIT 5;")
            .expect("analyze");
        let Response::Analyzed(report) = resp else {
            panic!("expected Analyzed, got {resp:?}");
        };
        assert_eq!(report.route, "acyclic");
        assert_eq!(report.rank, "sum");
        assert_eq!(report.rows, 5);
        assert_eq!(report.limit, 5);
        assert_eq!(report.shards, 1);
        assert_eq!(report.merge_depth, 0);
        assert!(report.shard_rows.is_empty());
        // Contiguous stages: the sum equals the measured wall exactly
        // (encode is rendered by the wire layer, not part of the run).
        let sum: u64 = report.stage_us.iter().sum();
        assert_eq!(sum, report.wall_us);
        // No cursor was registered and no admission slot leaked.
        assert_eq!(service.stats().open_cursors, 0);
        // Page/answer metrics untouched: it is diagnostics, not traffic.
        assert_eq!(service.stats().pages_served, 0);
        // But the run is real and traced.
        assert_eq!(service.obs().ring_stats().published, 1);
    }

    #[test]
    fn explain_analyze_reports_shard_fan_in() {
        use anyk_engine::ShardedEngine;
        use anyk_storage::{Catalog, RelationBuilder, Schema};
        let mut catalog = Catalog::new();
        let mut r = RelationBuilder::new(Schema::new(["a", "b"]));
        for i in 0..16i64 {
            r.push_ints(&[i, i + 10], 0.1 * (i as f64 + 1.0));
        }
        catalog.register("R", r.finish());
        let sharded = ShardedEngine::new(catalog, 2).expect("2 shards");
        let service = Service::sharded(sharded);
        let mut session = service.session();
        let resp = session
            .execute("EXPLAIN ANALYZE SELECT R(a,b) LIMIT 16;")
            .expect("analyze");
        let Response::Analyzed(report) = resp else {
            panic!("expected Analyzed, got {resp:?}");
        };
        assert_eq!(report.shards, 2);
        assert_eq!(report.merge_depth, 1);
        assert_eq!(report.shard_rows.len(), 2);
        // All 16 rows came through the merge: fan-in accounts ≥ the
        // answers (lookahead may pull extra rows per shard).
        let fed: u64 = report.shard_rows.iter().sum();
        assert!(fed >= report.rows, "{fed} < {}", report.rows);
        assert!(report.shard_rows.iter().all(|&r| r > 0), "{report:?}");
    }

    #[test]
    fn stats_carry_per_route_sections() {
        let service = Service::new(crate::tests_engine());
        let mut client = crate::LocalClient::new(&service);
        client.send("SELECT R(a,b) RANK BY max LIMIT 2;");
        client.send("SELECT R(a,b) RANK BY max LIMIT 2;");
        let stats = service.stats();
        let cell = stats.routes[0][anyk_obs::rank_id("max") as usize];
        assert_eq!(cell.queries, 2);
        assert_eq!(cell.answers, 4);
        assert!(cell.ttf_p50_us >= 1);
        let reply = client.send("STATS;");
        assert!(
            reply.contains("INFO route.acyclic.max.queries=2"),
            "{reply}"
        );
        assert!(
            reply.contains("INFO route.acyclic.max.answers=4"),
            "{reply}"
        );
        // Idle cells render nothing: STATS stays compact.
        assert!(!reply.contains("route.triangle"), "{reply}");
        assert!(reply.contains("INFO traces_published=2"), "{reply}");
    }
}
