//! The event-driven transport: one readiness loop, many connections,
//! a small worker pool — `std` + the in-tree [`polling`] shim only.
//!
//! The thread-per-connection transport ([`crate::tcp`]) spends one OS
//! thread per client, parked in `read(2)` almost all the time; at
//! thousands of connections the stacks and scheduler churn become the
//! bottleneck long before the engine does. This module replaces that
//! with the classic readiness architecture:
//!
//! ## Threading model
//!
//! * **One event thread** owns the nonblocking listener, every
//!   nonblocking connection socket, and the [`Poller`]. It does *all*
//!   socket I/O: accepting, reading bytes into each connection's
//!   [`LineFramer`], and flushing each connection's write buffer. It
//!   never parses or executes a command, so a slow query can never
//!   stall another connection's reads.
//! * **A worker pool** (default: one thread per core, at least two) takes
//!   framed command lines off an MPSC channel, executes them against
//!   the connection's [`Session`] (behind a mutex that is never
//!   contended — see ordering below), and pushes the rendered reply
//!   onto a completion queue, waking the event thread via
//!   [`Poller::notify`].
//! * **Ordering**: at most one command per connection is in flight at
//!   a time. Pipelined commands queue in arrival order on the
//!   connection and dispatch one-by-one as replies come back, so
//!   replies are written in exactly the order commands were received —
//!   the same observable behavior as the threaded transport, which is
//!   what keeps the two transports byte-identical.
//!
//! ## Backpressure
//!
//! A connection's read interest is *dropped* while it has a command
//! executing, queued pipelined lines, or unflushed reply bytes, and
//! re-armed only when all three drain; symmetrically, the next queued
//! command only dispatches once the previous reply has fully reached
//! the socket, so at most one rendered reply block is ever buffered
//! per connection. A client that pipelines thousands of commands or
//! stops reading its replies therefore stops being served — its
//! bytes back up into the kernel's TCP windows instead of this
//! process's memory. Combined with the framer's per-line byte bound
//! and the service's admission semaphore, every per-connection buffer
//! is bounded.
//!
//! ## Cursor deadlines
//!
//! Because connection state no longer lives on a per-session thread,
//! nothing here blocks on a silent client: the event thread's wait
//! timeout doubles as a timer tick that calls
//! [`Service::reap_expired_cursors`], sweeping the service-level
//! deadline map so idle cursors release their admission slots without
//! their session ever speaking.

use crate::frame::{encode_frame_error, LineFramer};
use crate::service::{ConnectionSlot, Service};
use crate::wire::{encode_connection_rejected, respond};
use crate::Session;
use polling::{Event, Poller};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// The poller key reserved for the listener socket.
const LISTENER_KEY: usize = 0;
/// First key handed to an accepted connection.
const FIRST_CONN_KEY: usize = 1;
/// The event thread's wait timeout — also the cursor-deadline sweep
/// interval (each timeout tick calls `Service::reap_expired_cursors`).
const TICK: Duration = Duration::from_millis(100);
/// Read chunk size; multiple chunks are drained per readiness event.
const READ_CHUNK: usize = 4096;

/// A framed command headed for the worker pool.
struct Job {
    key: usize,
    line: String,
    session: Arc<Mutex<Session>>,
}

/// Replies travelling back from workers to the event thread.
type Completions = Arc<Mutex<Vec<(usize, String)>>>;

/// Per-connection state, owned by the event thread.
struct Conn {
    stream: TcpStream,
    framer: LineFramer,
    /// Framed-but-unexecuted lines (or framing errors), arrival order.
    pending: VecDeque<Result<String, crate::frame::FrameError>>,
    /// Reply bytes not yet accepted by the socket.
    write_buf: Vec<u8>,
    write_pos: usize,
    session: Arc<Mutex<Session>>,
    /// A command is executing on the worker pool; its reply must come
    /// back before anything else runs for this connection.
    inflight: bool,
    /// Peer closed its write half; finish what's queued, then drop.
    eof: bool,
    /// Unrecoverable socket error; drop as soon as seen.
    dead: bool,
    /// Interest currently registered with the poller.
    interest: (bool, bool),
    /// This connection's slot in the service's connection gauge;
    /// dropping the `Conn` releases it.
    _slot: ConnectionSlot,
}

impl Conn {
    fn unsent(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Idle = nothing queued, nothing executing, nothing to flush.
    fn idle(&self) -> bool {
        !self.inflight && self.pending.is_empty() && self.unsent() == 0
    }
}

/// Everything `Server::bind_with` spawns for the event transport.
pub(crate) struct EventTransport {
    pub poller: Arc<Poller>,
    pub threads: Vec<JoinHandle<()>>,
}

/// Start the event loop plus `workers` pool threads over an already
/// nonblocking `listener`.
pub(crate) fn spawn(
    service: Service,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    workers: usize,
    max_line_len: usize,
) -> std::io::Result<EventTransport> {
    let poller = Arc::new(Poller::new()?);
    poller.add(&listener, Event::readable(LISTENER_KEY))?;

    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));
    let completions: Completions = Arc::new(Mutex::new(Vec::new()));

    let mut threads = Vec::with_capacity(workers + 1);
    for _ in 0..workers {
        let rx = Arc::clone(&job_rx);
        let done = Arc::clone(&completions);
        let waker = Arc::clone(&poller);
        threads.push(std::thread::spawn(move || worker_loop(&rx, &done, &waker)));
    }

    let loop_poller = Arc::clone(&poller);
    threads.push(std::thread::spawn(move || {
        event_loop(
            &service,
            &listener,
            &loop_poller,
            &stop,
            &job_tx,
            &completions,
            max_line_len,
        );
    }));
    Ok(EventTransport { poller, threads })
}

/// One pool thread: pull a job, run it against the session, hand the
/// reply back, wake the event thread. Exits when the event thread
/// drops the channel.
fn worker_loop(rx: &Arc<Mutex<mpsc::Receiver<Job>>>, done: &Completions, waker: &Arc<Poller>) {
    loop {
        // Hold the receiver lock only for the blocking recv — workers
        // queue on the mutex, which distributes jobs just the same.
        let job = match rx.lock().unwrap_or_else(PoisonError::into_inner).recv() {
            Ok(job) => job,
            Err(_) => return,
        };
        // The mutex is uncontended by construction: the event thread
        // dispatches at most one job per connection at a time, and
        // only workers lock sessions.
        let reply = {
            let mut session = job.session.lock().unwrap_or_else(PoisonError::into_inner);
            respond(&mut session, &job.line)
        };
        done.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((job.key, reply));
        // A failed wake means the loop is gone; the reply is moot.
        let _ = waker.notify();
    }
}

#[allow(clippy::too_many_lines)]
fn event_loop(
    service: &Service,
    listener: &TcpListener,
    poller: &Arc<Poller>,
    stop: &AtomicBool,
    job_tx: &mpsc::Sender<Job>,
    completions: &Completions,
    max_line_len: usize,
) {
    let mut conns: HashMap<usize, Conn> = HashMap::new();
    let mut next_key = FIRST_CONN_KEY;
    let mut events: Vec<Event> = Vec::new();
    let mut touched: Vec<usize> = Vec::new();
    // Sweep cadence runs on the service clock (µs), like every other
    // timestamp in the serving stack — no raw `Instant` outside the
    // obs crate (the timing-discipline lint pins this).
    let tick_us = TICK.as_micros().min(u128::from(u64::MAX)) as u64;
    let mut last_sweep_us = service.obs().now_us();

    while !stop.load(Ordering::Acquire) {
        if poller.wait(&mut events, Some(TICK)).is_err() {
            break;
        }
        // The wait timeout doubles as the deadline sweep: silent
        // sessions' expired cursors release their admission slots here
        // even if no admission pressure ever consults the map. Gated
        // to TICK cadence — under load every worker completion wakes
        // the wait early, and the sweep is O(open cursors) under the
        // shared map mutex, so it must not run per wakeup.
        let now_us = service.obs().now_us();
        if now_us.saturating_sub(last_sweep_us) >= tick_us {
            service.reap_expired_cursors();
            last_sweep_us = now_us;
        }

        touched.clear();

        // Replies computed since the last pass: buffer them and let
        // the connection dispatch its next pipelined command.
        for (key, reply) in completions
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
        {
            if let Some(conn) = conns.get_mut(&key) {
                conn.write_buf.extend_from_slice(reply.as_bytes());
                conn.inflight = false;
                touched.push(key);
            }
        }

        for ev in &events {
            if ev.key == LISTENER_KEY {
                accept_ready(
                    listener,
                    poller,
                    &mut conns,
                    &mut next_key,
                    service,
                    max_line_len,
                );
                continue;
            }
            let Some(conn) = conns.get_mut(&ev.key) else {
                continue;
            };
            if ev.readable {
                read_ready(conn);
            }
            if ev.writable {
                flush_writes(conn);
            }
            touched.push(ev.key);
        }

        // Service every connection something happened to: dispatch,
        // flush, retune interest, close.
        touched.sort_unstable();
        touched.dedup();
        for &key in &touched {
            let Some(conn) = conns.get_mut(&key) else {
                continue;
            };
            // Alternate flush and dispatch until neither can progress:
            // a reply must reach the socket (or fill its buffer)
            // before the next pipelined command even starts, so a
            // client that never reads its replies is never served
            // ahead — at most one rendered reply block is ever
            // buffered per connection.
            loop {
                flush_writes(conn);
                if !pump(conn, key, job_tx) {
                    break;
                }
            }
            let finished = conn.dead || (conn.eof && conn.idle());
            if finished {
                let _ = poller.delete(&conn.stream);
                // Dropping the last Arc drops the Session, closing its
                // cursors; a still-running job keeps it alive until
                // the reply lands (and is then discarded above).
                conns.remove(&key);
                continue;
            }
            retune_interest(conn, key, poller);
        }
    }
    // Shutdown: deregister and drop every connection (sessions close
    // their cursors); dropping `job_tx` lets the workers drain out.
    for (_, conn) in conns.drain() {
        let _ = poller.delete(&conn.stream);
    }
    let _ = poller.delete(listener);
}

/// Accept until the listener would block; register each connection
/// read-ready with its own key and session.
fn accept_ready(
    listener: &TcpListener,
    poller: &Arc<Poller>,
    conns: &mut HashMap<usize, Conn>,
    next_key: &mut usize,
    service: &Service,
    max_line_len: usize,
) {
    loop {
        match listener.accept() {
            Ok((mut stream, _)) => {
                // Accept-time load shedding: over the connection bound,
                // send one typed reject and close before any state is
                // allocated. The write is best-effort — a peer that
                // cannot take one line of bytes is dropped regardless.
                let Some(slot) = service.try_admit_connection() else {
                    let reply = encode_connection_rejected(
                        service.open_connections(),
                        service.config().max_connections,
                    );
                    let _ = stream.write_all(reply.as_bytes());
                    continue;
                };
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let key = *next_key;
                *next_key += 1;
                if poller.add(&stream, Event::readable(key)).is_err() {
                    continue;
                }
                conns.insert(
                    key,
                    Conn {
                        stream,
                        framer: LineFramer::new(max_line_len),
                        pending: VecDeque::new(),
                        write_buf: Vec::new(),
                        write_pos: 0,
                        session: Arc::new(Mutex::new(service.session())),
                        inflight: false,
                        eof: false,
                        dead: false,
                        interest: (true, false),
                        _slot: slot,
                    },
                );
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Drain the socket into the framer and the framer into the pending
/// queue (blank lines skipped, framing errors queued as such so their
/// replies stay in arrival order).
fn read_ready(conn: &mut Conn) {
    let mut buf = [0u8; READ_CHUNK];
    loop {
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.eof = true;
                // A half-close without a trailing newline still
                // serves the final command.
                conn.framer.finish();
                break;
            }
            Ok(n) => conn.framer.feed(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    while let Some(item) = conn.framer.next_line() {
        match item {
            Ok(line) if line.trim().is_empty() => continue,
            other => conn.pending.push_back(other),
        }
    }
}

/// Take one step on the connection's command queue — only when no
/// command is in flight **and every previous reply byte is flushed**
/// (the write half of the backpressure rule: replies may back up in
/// the peer's TCP window, never in this process). Framing errors
/// render inline (no worker round-trip) — they carry no session
/// state — but still strictly in queue order. Returns whether it made
/// progress (the caller alternates pump with flush until it didn't).
fn pump(conn: &mut Conn, key: usize, job_tx: &mpsc::Sender<Job>) -> bool {
    if conn.inflight || conn.unsent() > 0 {
        return false;
    }
    match conn.pending.pop_front() {
        Some(Err(frame_err)) => {
            conn.write_buf
                .extend_from_slice(encode_frame_error(&frame_err).as_bytes());
            true
        }
        Some(Ok(line)) => {
            conn.inflight = true;
            // Send can only fail after shutdown began.
            let _ = job_tx.send(Job {
                key,
                line,
                session: Arc::clone(&conn.session),
            });
            true
        }
        None => false,
    }
}

/// Push buffered reply bytes until the socket would block.
fn flush_writes(conn: &mut Conn) {
    while conn.unsent() > 0 {
        match conn.stream.write(&conn.write_buf[conn.write_pos..]) {
            Ok(0) => {
                conn.dead = true;
                break;
            }
            Ok(n) => conn.write_pos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => {
                conn.dead = true;
                break;
            }
        }
    }
    if conn.unsent() == 0 {
        conn.write_buf.clear();
        conn.write_pos = 0;
    }
}

/// Re-register the poller interest to match the connection's state:
/// read only when fully idle (the backpressure rule), write only while
/// bytes wait.
fn retune_interest(conn: &mut Conn, key: usize, poller: &Arc<Poller>) {
    let want_read = !conn.eof && conn.idle();
    let want_write = conn.unsent() > 0;
    if conn.interest == (want_read, want_write) {
        return;
    }
    let ev = Event {
        key,
        readable: want_read,
        writable: want_write,
    };
    if poller.modify(&conn.stream, ev).is_ok() {
        conn.interest = (want_read, want_write);
    }
}
