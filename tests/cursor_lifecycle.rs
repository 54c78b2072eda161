//! The cursor lifecycle. Every open cursor lives in the service's one
//! cursor table — stream, lookahead, deadline and admission slot in one
//! entry — so whoever removes an entry frees all of it:
//!
//! * a silent session's reaped cursors give their stream memory back
//!   before the session speaks again, whether a full admission pass
//!   reaps them in process or the event loop's tick does over TCP —
//!   read off this binary's live heap bytes;
//! * random schedules of `SELECT`, `NEXT`, `CLOSE`, clock moves, reaps
//!   and session drops on a manual clock get exactly the replies a
//!   model of the lifecycle predicts, and the accounting balances after
//!   every step.

mod common;

use anyk::engine::ObsRegistry;
use anyk::prelude::*;
use anyk::serve::{Page, Response, Server, Session, TcpClient};
use anyk_obs::{manual_clock, ManualClock};
use common::gen::cases_from_env;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Counts the bytes every thread of the process holds: a reaped stream
/// is freed on whichever thread reaps it.
struct LiveBytes;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`; the counter
// beside it neither allocates nor touches the blocks.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's contract, passed on as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's contract, passed on as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

fn live_bytes() -> usize {
    LIVE.load(Ordering::Relaxed)
}

/// The tests of this binary run one at a time, so a live-byte reading
/// sees only its own test's allocations.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A service over `catalog` whose clock moves only when told to.
fn service_on(catalog: Catalog, clock: &Arc<ManualClock>, config: ServiceConfig) -> Service {
    let obs = Arc::new(ObsRegistry::new(clock.clone()));
    Service::with_config(
        Engine::with_obs(catalog, EngineOpts::default(), obs),
        config,
    )
}

// ---------------------------------------------------------------
// A silent session's streams are freed with their slots
// ---------------------------------------------------------------

/// Nodes of the complete directed graph the leak tests join over.
const NODES: i64 = 48;
const TRIANGLE: &str = "SELECT R(x,y), S(y,z), T(z,x) LIMIT 1;";
const PATH: &str = "SELECT R(a,b), S(b,c) LIMIT 1;";
const TTL: Duration = Duration::from_secs(1);
/// Past the TTL and past the event loop's 100 ms tick.
const PAST_TTL_US: u64 = 2_000_000;

/// `R`, `S` and `T`: every edge between distinct nodes.
fn complete_graph() -> Catalog {
    let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
    for u in 0..NODES {
        for v in (0..NODES).filter(|&v| v != u) {
            b.push_ints(&[u, v], ((u * 7 + v * 13) % 64) as f64 / 8.0);
        }
    }
    let edges = b.finish();
    let mut catalog = Catalog::new();
    for name in ["R", "S", "T"] {
        catalog.register(name, edges.clone());
    }
    catalog
}

/// What the triangle's first stream holds on its own: a heap of one
/// 4-byte row id per materialized answer (the answers themselves stay
/// with the plan cache).
fn triangle_heap_bytes() -> usize {
    let n = NODES as usize;
    4 * n * (n - 1) * (n - 2)
}

fn cursor_of(reply: Result<Response, ServeError>) -> u64 {
    match reply {
        Ok(Response::Page(Page {
            cursor: Some(id), ..
        })) => id,
        other => panic!("expected a page with a cursor, got {other:?}"),
    }
}

#[test]
fn a_full_admission_pass_frees_a_silent_sessions_streams() {
    let _serial = serial();
    let clock = manual_clock(1);
    let config = ServiceConfig {
        max_open_cursors: 2,
        cursor_ttl: TTL,
        ..ServiceConfig::default()
    };
    let service = service_on(complete_graph(), &clock, config);
    // The silent session holds both slots, a triangle among them.
    let mut silent = service.session();
    let triangle = cursor_of(silent.execute(TRIANGLE));
    let path = cursor_of(silent.execute(PATH));
    assert_eq!(silent.open_cursors(), 2);
    let held = live_bytes();

    // Past the TTL another session's SELECT finds the service full;
    // its admission pass reaps both cursors, streams included, while
    // the silent session says nothing.
    clock.advance(PAST_TTL_US);
    let mut other = service.session();
    cursor_of(other.execute(PATH));
    let freed = held.saturating_sub(live_bytes());
    assert!(
        freed >= triangle_heap_bytes() * 3 / 4,
        "the reap freed {freed} bytes; the triangle's heap alone is {}",
        triangle_heap_bytes()
    );
    assert_eq!(
        silent.open_cursors(),
        0,
        "no entry of the silent session is left"
    );
    let stats = service.stats();
    assert_eq!((stats.cursors_expired, stats.open_cursors), (2, 1));

    // When it speaks, both cursors answer expired, NEXT and CLOSE alike.
    for command in [
        format!("NEXT 1 ON {triangle};"),
        format!("CLOSE {path};"),
        format!("CLOSE {triangle};"),
    ] {
        assert!(
            matches!(
                silent.execute(&command),
                Err(ServeError::CursorExpired { .. })
            ),
            "{command}"
        );
    }
    drop((silent, other));
    let stats = service.stats();
    assert_eq!(
        (
            stats.cursors_opened,
            stats.cursors_closed,
            stats.cursors_expired
        ),
        (3, 1, 2)
    );
}

#[test]
fn the_event_loop_tick_frees_a_silent_connections_streams() {
    let _serial = serial();
    let clock = manual_clock(1);
    let config = ServiceConfig {
        cursor_ttl: TTL,
        ..ServiceConfig::default()
    };
    let service = service_on(complete_graph(), &clock, config);
    let mut server = Server::bind(service.clone(), "127.0.0.1:0").expect("bind");
    let mut tcp = TcpClient::connect(server.addr()).expect("connect");
    for (select, header) in [(TRIANGLE, "OK cursor=0"), (PATH, "OK cursor=1")] {
        let reply = tcp.send(select).expect("select");
        assert!(reply.starts_with(header), "{reply}");
    }
    let held = live_bytes();

    // Connected and silent, past the TTL and a tick: the first serving
    // thread out of its wait sweeps the table.
    clock.advance(PAST_TTL_US);
    let deadline = Instant::now() + Duration::from_secs(5);
    while service.stats().cursors_expired < 2 {
        assert!(Instant::now() < deadline, "the tick never reaped");
        std::thread::sleep(Duration::from_millis(10));
    }
    let freed = held.saturating_sub(live_bytes());
    assert!(
        freed >= triangle_heap_bytes() * 3 / 4,
        "the tick freed {freed} bytes; the triangle's heap alone is {}",
        triangle_heap_bytes()
    );
    assert_eq!(service.stats().open_cursors, 0);

    let reply = tcp.send("NEXT 1 ON 0;").expect("next");
    assert_eq!(reply, "ERR cursor: cursor 0 expired\nEND\n");
    let reply = tcp.send("CLOSE 1;").expect("close");
    assert_eq!(reply, "ERR cursor: cursor 1 expired\nEND\n");
    server.shutdown();
}

// ---------------------------------------------------------------
// The lifecycle against a model
// ---------------------------------------------------------------

/// Answers of the model's query: `R` has this many rows.
const ANSWERS: usize = 3;
const SELECT: &str = "SELECT R(a,b) LIMIT 1;";
const MODEL_TTL_US: u64 = 1_000;

/// A cursor id as the model sees it.
#[derive(Debug, Clone, Copy)]
enum Id {
    Live {
        deadline_us: u64,
        left: usize,
    },
    /// Closed or drained by its session: unknown from then on.
    Ended,
    /// Reaped, or found overdue by a `NEXT`/`CLOSE`.
    Expired,
}

/// A reply, reduced to what the model predicts.
#[derive(Debug, PartialEq)]
enum Reply {
    Page {
        cursor: Option<u64>,
        rows: usize,
        done: bool,
    },
    Closed(u64),
    Expired(u64),
    Unknown(u64),
    Rejected {
        open: usize,
        max: usize,
    },
}

fn reply(r: Result<Response, ServeError>) -> Reply {
    match r {
        Ok(Response::Page(page)) => Reply::Page {
            cursor: page.cursor,
            rows: page.answers.len(),
            done: page.done,
        },
        Ok(Response::Closed { cursor }) => Reply::Closed(cursor),
        Err(ServeError::CursorExpired { cursor }) => Reply::Expired(cursor),
        Err(ServeError::UnknownCursor { cursor }) => Reply::Unknown(cursor),
        Err(ServeError::AdmissionRejected { open, max }) => Reply::Rejected { open, max },
        other => panic!("outside the model: {other:?}"),
    }
}

#[derive(Debug, Default)]
struct Model {
    now_us: u64,
    max: usize,
    /// Per session, its cursor ids in the order they were handed out.
    sessions: Vec<Vec<Id>>,
    opened: u64,
    closed: u64,
    expired: u64,
    rejected: u64,
}

impl Model {
    fn open(&self) -> usize {
        let live = |id: &&Id| matches!(id, Id::Live { .. });
        self.sessions.iter().flatten().filter(live).count()
    }

    /// Expire every overdue live cursor; how many went.
    fn reap(&mut self) -> usize {
        let now_us = self.now_us;
        let mut reaped = 0;
        for id in self.sessions.iter_mut().flatten() {
            if matches!(*id, Id::Live { deadline_us, .. } if now_us > deadline_us) {
                *id = Id::Expired;
                reaped += 1;
            }
        }
        self.expired += reaped as u64;
        reaped
    }

    fn select(&mut self, s: usize) -> Reply {
        if self.open() >= self.max {
            self.reap();
        }
        if self.open() >= self.max {
            self.rejected += 1;
            return Reply::Rejected {
                open: self.max,
                max: self.max,
            };
        }
        let ids = &mut self.sessions[s];
        ids.push(Id::Live {
            deadline_us: self.now_us + MODEL_TTL_US,
            left: ANSWERS - 1,
        });
        self.opened += 1;
        Reply::Page {
            cursor: Some(ids.len() as u64 - 1),
            rows: 1,
            done: false,
        }
    }

    /// `NEXT count ON c` when `count` is `Some`, `CLOSE c` otherwise.
    fn next_or_close(&mut self, s: usize, c: u64, count: Option<usize>) -> Reply {
        let now_us = self.now_us;
        let Some(id) = self.sessions[s].get_mut(c as usize) else {
            return Reply::Unknown(c);
        };
        let Id::Live { deadline_us, left } = *id else {
            return match id {
                Id::Expired => Reply::Expired(c),
                _ => Reply::Unknown(c),
            };
        };
        if now_us > deadline_us {
            *id = Id::Expired;
            self.expired += 1;
            return Reply::Expired(c);
        }
        match count {
            None => {
                *id = Id::Ended;
                self.closed += 1;
                Reply::Closed(c)
            }
            Some(n) if n >= left => {
                *id = Id::Ended;
                self.closed += 1;
                Reply::Page {
                    cursor: None,
                    rows: left,
                    done: true,
                }
            }
            Some(n) => {
                *id = Id::Live {
                    deadline_us: now_us + MODEL_TTL_US,
                    left: left - n,
                };
                Reply::Page {
                    cursor: Some(c),
                    rows: n,
                    done: false,
                }
            }
        }
    }

    /// A dropped session closes every cursor still in the table,
    /// overdue or not.
    fn drop_session(&mut self, s: usize) {
        let ids = std::mem::take(&mut self.sessions[s]);
        let live = ids.iter().filter(|id| matches!(id, Id::Live { .. }));
        self.closed += live.count() as u64;
    }
}

/// One step of a schedule: which kind (out of 100), which session, a
/// raw draw for the cursor id or the clock move, and a `NEXT` count.
type Step = (u32, usize, u64, usize);

/// Run `step` on the service and on the model, comparing the replies.
fn run_step(
    service: &Service,
    clock: &ManualClock,
    sessions: &mut [Session],
    model: &mut Model,
    (kind, s, raw, count): Step,
) {
    let s = s % sessions.len();
    // An id this session was handed, or one of the two after it.
    let handed = model.sessions[s].len() as u64;
    let c = raw % (handed + 2);
    match kind {
        0..=29 => assert_eq!(reply(sessions[s].execute(SELECT)), model.select(s)),
        30..=54 => {
            let got = reply(sessions[s].execute(&format!("NEXT {count} ON {c};")));
            assert_eq!(got, model.next_or_close(s, c, Some(count)));
        }
        55..=69 => {
            let got = reply(sessions[s].execute(&format!("CLOSE {c};")));
            assert_eq!(got, model.next_or_close(s, c, None));
        }
        70..=84 => {
            // Below, at and past the TTL.
            let by = raw % (2 * MODEL_TTL_US + 1);
            clock.advance(by);
            model.now_us += by;
        }
        85..=92 => assert_eq!(service.reap_expired_cursors(), model.reap()),
        _ => {
            sessions[s] = service.session();
            model.drop_session(s);
        }
    }
}

proptest! {
    #![proptest_config(cases_from_env(64))]

    #[test]
    fn every_reply_and_count_follows_the_lifecycle_model(
        max in 2usize..=4,
        n_sessions in 1usize..=4,
        steps in prop::collection::vec((0u32..100, 0usize..4, 0u64..1_000_000, 1usize..=3), 1..=60),
    ) {
        let _serial = serial();
        let mut rows = RelationBuilder::new(Schema::new(["a", "b"]));
        for i in 0..ANSWERS as i64 {
            rows.push_ints(&[i, i + 10], 0.25 * (i + 1) as f64);
        }
        let mut catalog = Catalog::new();
        catalog.register("R", rows.finish());
        let clock = manual_clock(1);
        let config = ServiceConfig {
            max_open_cursors: max,
            cursor_ttl: Duration::from_micros(MODEL_TTL_US),
            ..ServiceConfig::default()
        };
        let service = service_on(catalog, &clock, config);
        let mut sessions: Vec<Session> = (0..n_sessions).map(|_| service.session()).collect();
        let mut model = Model {
            now_us: 1,
            max,
            sessions: vec![Vec::new(); n_sessions],
            ..Model::default()
        };
        for (i, &step) in steps.iter().enumerate() {
            run_step(&service, &clock, &mut sessions, &mut model, step);
            let stats = service.stats();
            prop_assert_eq!(
                stats.cursors_opened,
                stats.cursors_closed + stats.cursors_expired + stats.open_cursors as u64,
                "step {}: {:?}", i, step
            );
            prop_assert!(stats.open_cursors <= max);
            prop_assert_eq!(
                (stats.cursors_opened, stats.cursors_closed, stats.cursors_expired),
                (model.opened, model.closed, model.expired),
                "step {}: {:?}", i, step
            );
            prop_assert_eq!(
                (stats.open_cursors, stats.admission_rejected),
                (model.open(), model.rejected)
            );
        }
        drop(sessions);
        prop_assert_eq!(service.stats().open_cursors, 0);
    }
}
