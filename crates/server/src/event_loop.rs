//! The transport: a few identical serving threads over one shared
//! readiness poller, many connections — `std` + the in-tree
//! [`polling`] shim only.
//!
//! A thread per client would spend its life parked in `read(2)`; at
//! thousands of connections the stacks and scheduler churn become the
//! bottleneck long before the engine does. This module serves any
//! number of connections from a fixed number of threads instead.
//!
//! ## Threading model
//!
//! * **N serving threads** ([`TransportConfig::workers`]) all sit in
//!   [`Poller::wait`] on the same poller. Every interest is
//!   **one-shot**: a readiness is delivered to exactly one thread and
//!   the socket then reports nothing until it is re-armed.
//! * **Whoever is handed a connection owns it** until it re-arms it: it
//!   takes the `Conn` out of the connection table, reads and frames
//!   the bytes, executes one command against the connection's own
//!   [`Session`], writes the reply, puts the `Conn` back and re-arms —
//!   all on that thread. A request costs a `wait`, a
//!   `read`, a `write` and a re-arm, and crosses no thread boundary.
//!   The connection table (key → `Conn`) is the only shared state.
//! * **Pooled, not partitioned**: no connection belongs to a thread.
//!   A thread takes one ready connection per `wait`, so while one
//!   thread is inside a slow cold `SELECT` every other thread keeps
//!   taking whatever becomes ready, and nothing queues behind the slow
//!   command that another thread could have served.
//! * **Ordering**: one command per turn, in arrival order, each reply
//!   written before the next command starts — a connection's replies
//!   come back in request order, and its transcript is byte for byte
//!   what a [`LocalClient`](crate::LocalClient) fed the same lines
//!   returns.
//! * **Accepting** is one more one-shot interest: whichever thread is
//!   handed the listener accepts until it would block and re-arms it.
//!
//! ## Backpressure and fairness
//!
//! A connection is armed for *reading* only when it has no framed line
//! waiting and no unflushed reply byte, and the next queued command
//! only runs once the previous reply has fully reached the socket, so
//! at most one rendered reply block is ever buffered per connection. A
//! client that pipelines thousands of commands or stops reading its
//! replies therefore stops being served — its bytes back up into the
//! kernel's TCP windows instead of this process's memory. Combined
//! with the framer's per-line byte bound and the service's admission
//! semaphore, every per-connection buffer is bounded.
//!
//! A connection with more lines queued is re-armed for *writability*
//! after each command. That one re-arm is both halves of the rule: it
//! fires when the socket can take bytes again (so "the previous reply
//! has reached the socket" holds before the next command runs), and it
//! sends the connection to the back of the poller's ready list (so a
//! pipelining client gives the thread up between commands whenever
//! another connection is ready).
//!
//! ## Cursor deadlines
//!
//! Nothing here blocks on a silent client: the wait timeout doubles as
//! a timer tick. Whichever thread comes out of `wait` a tick after the
//! last sweep (an atomic stamp decides, so it is one of them) calls
//! [`Service::reap_expired_cursors`], sweeping the service's cursor
//! table so idle cursors free their streams and admission slots without
//! their session ever speaking.
//!
//! [`TransportConfig::workers`]: crate::TransportConfig::workers

use crate::frame::{encode_frame_error, FrameError, LineFramer};
use crate::service::{Service, Slot};
use crate::wire::{encode_connection_rejected, respond_into};
use crate::Session;
use polling::{Event, Poller};
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// The poller key reserved for the listener socket.
const LISTENER_KEY: usize = 0;
/// First key handed to an accepted connection.
const FIRST_CONN_KEY: usize = 1;
/// The serving threads' wait timeout — also the cursor-deadline sweep
/// interval.
const TICK: Duration = Duration::from_millis(100);
/// Read chunk size; a read that fills it is followed by another.
const READ_CHUNK: usize = 4096;
/// Connections a thread claims per `wait`. One: a second claimed
/// connection would sit behind the first one's command while another
/// thread may be idle.
const CLAIM: usize = 1;

/// Per-connection state. It lives in the connection table while the
/// connection is armed and with the serving thread in between.
struct Conn {
    /// Shared only so that the thread putting the `Conn` back into the
    /// table can still name the socket when it re-arms it.
    stream: Arc<TcpStream>,
    framer: LineFramer,
    /// Framed-but-unexecuted lines (or framing errors), arrival order.
    pending: VecDeque<Result<String, FrameError>>,
    /// Reply bytes not yet accepted by the socket.
    write_buf: Vec<u8>,
    write_pos: usize,
    session: Session,
    /// Peer closed its write half; finish what's queued, then drop.
    eof: bool,
    /// Unrecoverable socket error; drop as soon as seen.
    dead: bool,
    /// This connection's slot in the service's connection gauge;
    /// dropping the `Conn` releases it.
    _slot: Slot,
}

impl Conn {
    fn unsent(&self) -> usize {
        self.write_buf.len() - self.write_pos
    }

    /// Idle = nothing queued, nothing to flush: the only state in which
    /// the connection reads (the backpressure rule).
    fn idle(&self) -> bool {
        self.pending.is_empty() && self.unsent() == 0
    }
}

/// What the serving threads share.
struct Shared {
    service: Service,
    listener: TcpListener,
    poller: Arc<Poller>,
    stop: Arc<AtomicBool>,
    /// Every connection that is armed (or about to be), by poller key.
    conns: Mutex<HashMap<usize, Box<Conn>>>,
    next_key: AtomicUsize,
    /// Service-clock time of the last deadline sweep, µs.
    last_sweep_us: AtomicU64,
    max_line_len: usize,
}

impl Shared {
    fn conns(&self) -> MutexGuard<'_, HashMap<usize, Box<Conn>>> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Start `workers` serving threads over an already nonblocking
/// `listener`; returns what `Server::shutdown` wakes and joins.
pub(crate) fn spawn(
    service: Service,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    workers: usize,
    max_line_len: usize,
) -> std::io::Result<(Arc<Poller>, Vec<JoinHandle<()>>)> {
    let poller = Arc::new(Poller::new()?);
    poller.add(&listener, Event::readable(LISTENER_KEY))?;
    let shared = Arc::new(Shared {
        last_sweep_us: AtomicU64::new(service.obs().now_us()),
        service,
        listener,
        poller: Arc::clone(&poller),
        stop,
        conns: Mutex::new(HashMap::new()),
        next_key: AtomicUsize::new(FIRST_CONN_KEY),
        max_line_len,
    });
    let threads = (0..workers)
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || serve_loop(&shared))
        })
        .collect();
    Ok((poller, threads))
}

/// One serving thread: wait, serve what was handed over, repeat.
fn serve_loop(shared: &Shared) {
    let mut events: Vec<Event> = Vec::with_capacity(CLAIM);
    while !shared.stop.load(Ordering::Acquire) {
        if shared.poller.wait(&mut events, CLAIM, Some(TICK)).is_err() {
            break;
        }
        sweep_if_due(shared);
        for ev in &events {
            if ev.key == LISTENER_KEY {
                accept_ready(shared);
            } else {
                serve_ready(shared, *ev);
            }
        }
    }
    // Shutdown: every thread closes what is in the table as it leaves,
    // so the last one out closes whatever a slower thread put back
    // (sessions close their cursors as they drop).
    for (_, conn) in shared.conns().drain() {
        let _ = shared.poller.delete(&*conn.stream);
    }
}

/// The wait timeout doubles as the deadline sweep: silent sessions'
/// expired cursors free their streams and admission slots here even if
/// no admission pressure ever sweeps the table. Gated to TICK cadence
/// on the service clock (µs, like every other timestamp in the serving
/// stack — no raw `Instant` outside the obs crate): under load every
/// request ends a wait early, and the sweep is O(open cursors) under
/// the cursor table's mutex, so it runs once a tick, on the thread
/// that wins the stamp.
fn sweep_if_due(shared: &Shared) {
    let tick_us = TICK.as_micros().min(u128::from(u64::MAX)) as u64;
    let now_us = shared.service.obs().now_us();
    let last = shared.last_sweep_us.load(Ordering::Relaxed);
    if now_us.saturating_sub(last) >= tick_us
        && shared
            .last_sweep_us
            .compare_exchange(last, now_us, Ordering::Relaxed, Ordering::Relaxed)
            .is_ok()
    {
        shared.service.reap_expired_cursors();
    }
}

/// Accept until the listener would block, arming each connection for
/// reading under its own key and session, then re-arm the listener.
fn accept_ready(shared: &Shared) {
    loop {
        match shared.listener.accept() {
            Ok((mut stream, _)) => {
                // Accept-time load shedding: over the connection bound,
                // send one typed reject and close before any state is
                // allocated. The write is best-effort — a peer that
                // cannot take one line of bytes is dropped regardless.
                let Some(slot) = shared.service.try_admit_connection() else {
                    let reply = encode_connection_rejected(
                        shared.service.open_connections(),
                        shared.service.config().max_connections,
                    );
                    let _ = stream.write_all(reply.as_bytes());
                    continue;
                };
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let stream = Arc::new(stream);
                let key = shared.next_key.fetch_add(1, Ordering::Relaxed);
                let conn = Box::new(Conn {
                    stream: Arc::clone(&stream),
                    framer: LineFramer::new(shared.max_line_len),
                    pending: VecDeque::new(),
                    write_buf: Vec::new(),
                    write_pos: 0,
                    session: shared.service.session(),
                    eof: false,
                    dead: false,
                    _slot: slot,
                });
                // In the table before it is armed: the event may reach
                // another thread at once.
                shared.conns().insert(key, conn);
                if shared.poller.add(&*stream, Event::readable(key)).is_err() {
                    shared.conns().remove(&key);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    let _ = shared
        .poller
        .modify(&shared.listener, Event::readable(LISTENER_KEY));
}

/// Serve one turn of the connection `ev` was delivered for: read if it
/// was armed for reading, flush, run at most one queued command, flush
/// its reply, and put the connection back armed for whatever it waits
/// on next — or close it.
fn serve_ready(shared: &Shared, ev: Event) {
    let Some(mut conn) = shared.conns().remove(&ev.key) else {
        return;
    };
    // Idle is exactly the state that was armed for reading.
    if ev.readable && conn.idle() && !conn.eof {
        read_ready(&mut conn);
    }
    flush_writes(&mut conn);
    // The previous reply has left (or the socket is full and this turn
    // ends here): the next command may run, in queue order. Framing
    // errors carry no session state but keep their place in the queue.
    if conn.unsent() == 0 && !conn.dead {
        match conn.pending.pop_front() {
            Some(Ok(line)) => respond_into(&mut conn.session, &line, &mut conn.write_buf),
            Some(Err(frame_err)) => conn
                .write_buf
                .extend_from_slice(encode_frame_error(&frame_err).as_bytes()),
            None => {}
        }
        flush_writes(&mut conn);
    }
    if conn.dead || (conn.eof && conn.idle()) {
        let _ = shared.poller.delete(&*conn.stream);
        // Dropping the connection drops its session, closing its cursors.
        return;
    }
    // Read only when idle (the backpressure rule); otherwise wait for
    // writability — with reply bytes left that is when the socket
    // drains, with only lines queued it is at once, behind every other
    // ready connection.
    let interest = if conn.idle() {
        Event::readable(ev.key)
    } else {
        Event::writable(ev.key)
    };
    let stream = Arc::clone(&conn.stream);
    shared.conns().insert(ev.key, conn);
    let _ = shared.poller.modify(&*stream, interest);
}

/// Read the socket into the framer until a read comes back short (the
/// socket is drained; if more arrives meanwhile the re-arm reports it),
/// and the framer into the pending queue (blank lines skipped, framing
/// errors queued as such so their replies stay in arrival order).
fn read_ready(conn: &mut Conn) {
    let mut buf = [0u8; READ_CHUNK];
    loop {
        match (&*conn.stream).read(&mut buf) {
            Ok(0) => {
                conn.eof = true;
                // A half-close without a trailing newline still
                // serves the final command.
                conn.framer.finish();
                break;
            }
            Ok(n) => {
                conn.framer.feed(&buf[..n]);
                if n < buf.len() {
                    break;
                }
            }
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

/// Push buffered reply bytes until the socket would block.
fn flush_writes(conn: &mut Conn) {
    while conn.unsent() > 0 {
        match (&*conn.stream).write(&conn.write_buf[conn.write_pos..]) {
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
