//! The TCP transports: a line-oriented server over `std::net` with two
//! interchangeable accept architectures behind one [`Server`] type —
//! no external dependencies (the readiness syscalls come from the
//! in-tree [`polling`] shim).
//!
//! * [`Transport::EventLoop`] (the default): a few identical serving
//!   threads over one shared one-shot readiness poller, each request
//!   served start to finish on the thread that was handed it — see
//!   [`crate::event_loop`] for the threading model and backpressure
//!   rules. Scales to thousands of mostly-idle connections.
//! * [`Transport::ThreadPerConn`]: the classic blocking loop, one
//!   thread (and one [`Session`](crate::Session)) per connection.
//!   Simple, great for a handful of clients, kept as the portable
//!   fallback and as the differential baseline the tests compare the
//!   event loop against.
//!
//! Clients send one command per line and read one `END`-terminated
//! block per command (see [`crate::wire`] for the encoding and
//! [`crate::frame`] for the line framing — both transports share both,
//! so their bytes are identical by construction). Closing the
//! connection closes the session, which closes its cursors and
//! releases their admission slots.

use crate::event_loop;
use crate::frame::{encode_frame_error, LineFramer};
use crate::service::{ConnectionSlot, Service};
use crate::wire::{encode_connection_rejected, respond_into};
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Why [`Server::bind`] / [`Server::bind_with`] could not start.
///
/// Binding fails either on the socket (wrapped [`std::io::Error`]) or
/// at thread-count validation time, *before* any thread is spawned —
/// a server with zero serving threads would bind its port and then
/// never accept a connection, so it is rejected up front with a typed
/// error instead of being silently "fixed" to some clamp.
#[derive(Debug)]
pub enum BindError {
    /// Socket-level failure (bind, local_addr, nonblocking setup, ...).
    Io(std::io::Error),
    /// [`crate::ServiceConfig::workers`] was `Some(0)` — an explicit
    /// request for a server with nobody to serve a command.
    InvalidWorkers,
    /// `ANYK_SERVE_WORKERS` was set but is not a positive integer.
    InvalidWorkersEnv {
        /// The offending environment value.
        value: String,
    },
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::Io(e) => write!(f, "bind: {e}"),
            BindError::InvalidWorkers => {
                write!(f, "ServiceConfig::workers must be at least 1 (got 0)")
            }
            BindError::InvalidWorkersEnv { value } => write!(
                f,
                "ANYK_SERVE_WORKERS must be a positive integer, got `{value}`"
            ),
        }
    }
}

impl std::error::Error for BindError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BindError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for BindError {
    fn from(e: std::io::Error) -> Self {
        BindError::Io(e)
    }
}

/// Which accept architecture a [`Server`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Serving threads over a shared readiness poller (Unix; the
    /// default there).
    EventLoop,
    /// One blocking thread per connection (every platform).
    ThreadPerConn,
}

impl Transport {
    /// The transport `ANYK_SERVE_TRANSPORT` selects: `threaded` for
    /// [`Transport::ThreadPerConn`], `event` (or unset) for
    /// [`Transport::EventLoop`]. Non-Unix platforms always get the
    /// threaded transport.
    pub fn from_env() -> Transport {
        if cfg!(not(unix)) {
            return Transport::ThreadPerConn;
        }
        match std::env::var("ANYK_SERVE_TRANSPORT").as_deref() {
            Ok("threaded") => Transport::ThreadPerConn,
            _ => Transport::EventLoop,
        }
    }
}

/// Transport tuning for [`Server::bind_with`].
#[derive(Debug, Clone, Copy)]
pub struct TransportConfig {
    /// Accept architecture. [`TransportConfig::default`] consults
    /// `ANYK_SERVE_TRANSPORT` (see [`Transport::from_env`]) so test
    /// suites and deployments can switch transports without code
    /// changes.
    pub transport: Transport,
    /// Serving threads (event loop only) — every thread the transport
    /// runs: each one polls, reads, executes and writes. `0` means
    /// "not set here": the count then comes from the
    /// `ANYK_SERVE_WORKERS` environment variable, then
    /// [`crate::ServiceConfig::workers`], then auto-sizing (one thread
    /// per available core, floor 2, **no upper clamp** — an earlier
    /// revision silently capped the pool at 8, starving wide hosts).
    pub workers: usize,
    /// Longest accepted command line, in bytes; longer lines get a
    /// typed `ERR proto` reply and are discarded to the next newline
    /// (see [`crate::frame`]). Applies to both transports.
    pub max_line_len: usize,
}

impl Default for TransportConfig {
    /// Env-selected transport, auto worker count, 64 KiB line bound.
    fn default() -> Self {
        TransportConfig {
            transport: Transport::from_env(),
            workers: 0,
            max_line_len: 64 * 1024,
        }
    }
}

impl TransportConfig {
    fn resolved_workers(&self, service_workers: Option<usize>) -> Result<usize, BindError> {
        let env = std::env::var("ANYK_SERVE_WORKERS").ok();
        resolve_workers(self.workers, env.as_deref(), service_workers)
    }
}

/// Serving-thread count, by precedence: an explicit
/// [`TransportConfig::workers`], then `ANYK_SERVE_WORKERS`, then
/// [`crate::ServiceConfig::workers`], then one thread per available
/// core with a floor of 2 (so one long command never leaves nobody
/// polling on a single-core box) and **no upper clamp**. Zero anywhere
/// explicit is a [`BindError`], not a silent correction.
fn resolve_workers(
    explicit: usize,
    env: Option<&str>,
    service_workers: Option<usize>,
) -> Result<usize, BindError> {
    if explicit > 0 {
        return Ok(explicit);
    }
    if let Some(value) = env {
        return match value.trim().parse::<usize>() {
            Ok(n) if n > 0 => Ok(n),
            _ => Err(BindError::InvalidWorkersEnv {
                value: value.to_string(),
            }),
        };
    }
    match service_workers {
        Some(0) => Err(BindError::InvalidWorkers),
        Some(n) => Ok(n),
        None => Ok(std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .max(2)),
    }
}

/// What `shutdown` must wake and join, per transport.
enum Running {
    Threaded {
        accept_thread: Option<JoinHandle<()>>,
    },
    Event {
        poller: Arc<polling::Poller>,
        threads: Vec<JoinHandle<()>>,
    },
}

/// A running TCP server over one of the two [`Transport`]s. Dropping
/// the handle (or calling [`shutdown`](Server::shutdown)) stops the
/// server; on the event transport that also closes established
/// connections, while the threaded transport lets them run out on
/// their own threads.
///
/// ```
/// use anyk_engine::Engine;
/// use anyk_serve::{Server, Service, TcpClient, Transport, TransportConfig};
/// use anyk_storage::{Catalog, RelationBuilder, Schema};
///
/// let mut catalog = Catalog::new();
/// let mut r = RelationBuilder::new(Schema::new(["a", "b"]));
/// r.push_ints(&[1, 10], 0.25);
/// r.push_ints(&[2, 10], 2.0);
/// catalog.register("R", r.finish());
///
/// let service = Service::new(Engine::new(catalog));
/// let config = TransportConfig {
///     transport: Transport::EventLoop, // explicit: ignore the env
///     workers: 2,
///     ..TransportConfig::default()
/// };
/// let mut server = Server::bind_with(service, "127.0.0.1:0", config).unwrap();
///
/// // Any line-oriented client works; TcpClient is the in-tree one.
/// let mut client = TcpClient::connect(server.addr()).unwrap();
/// let reply = client.send("SELECT R(a,b) RANK BY sum LIMIT 1;").unwrap();
/// assert!(reply.starts_with("OK cursor=0 rows=1 done=false\nROW 1,10 cost=0.25"));
/// server.shutdown();
/// ```
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    running: Running,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral test port)
    /// and start serving on the [`TransportConfig::default`] transport
    /// — the event loop, unless `ANYK_SERVE_TRANSPORT=threaded`.
    pub fn bind(service: Service, addr: &str) -> Result<Server, BindError> {
        Server::bind_with(service, addr, TransportConfig::default())
    }

    /// Bind with an explicit transport and tuning. Fails with a typed
    /// [`BindError`] on socket errors or an invalid thread count
    /// (see [`TransportConfig::workers`] for the sizing precedence).
    pub fn bind_with(
        service: Service,
        addr: &str,
        config: TransportConfig,
    ) -> Result<Server, BindError> {
        // Validate the count before touching the socket: a bad worker
        // config should fail identically whether or not the port binds.
        let workers = config.resolved_workers(service.config().workers)?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let running = match config.transport {
            Transport::EventLoop => {
                listener.set_nonblocking(true)?;
                let t = event_loop::spawn(
                    service,
                    listener,
                    Arc::clone(&stop),
                    workers,
                    config.max_line_len,
                )?;
                Running::Event {
                    poller: t.poller,
                    threads: t.threads,
                }
            }
            Transport::ThreadPerConn => {
                let accept_stop = Arc::clone(&stop);
                let max_line_len = config.max_line_len;
                let accept_thread = std::thread::spawn(move || {
                    for conn in listener.incoming() {
                        if accept_stop.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(mut conn) = conn else { continue };
                        // Accept-time load shedding: refuse before
                        // spawning a thread or opening a session.
                        let Some(slot) = service.try_admit_connection() else {
                            let reply = encode_connection_rejected(
                                service.open_connections(),
                                service.config().max_connections,
                            );
                            let _ = conn.write_all(reply.as_bytes());
                            continue;
                        };
                        let service = service.clone();
                        std::thread::spawn(move || {
                            serve_connection(&service, conn, max_line_len, slot);
                        });
                    }
                });
                Running::Threaded {
                    accept_thread: Some(accept_thread),
                }
            }
        };
        Ok(Server {
            addr,
            stop,
            running,
        })
    }

    /// The bound address (the actual port when bound to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the server and join its threads. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        match &mut self.running {
            Running::Threaded { accept_thread } => {
                // Unblock the accept loop with a throwaway connection.
                let _ = TcpStream::connect(self.addr);
                if let Some(t) = accept_thread.take() {
                    let _ = t.join();
                }
            }
            Running::Event { poller, threads } => {
                let _ = poller.notify();
                for t in threads.drain(..) {
                    let _ = t.join();
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Run one connection on the threaded transport: read raw chunks
/// through the shared [`LineFramer`] (so partial lines, pipelining,
/// and the oversized-line error behave exactly like the event loop),
/// write one reply block per command. I/O errors end the connection
/// (and the session).
fn serve_connection(
    service: &Service,
    conn: TcpStream,
    max_line_len: usize,
    _slot: ConnectionSlot,
) {
    let mut session = service.session();
    // The framer does the buffering; read the socket raw.
    let Ok(mut reader) = conn.try_clone() else {
        return;
    };
    let mut writer = conn;
    let mut framer = LineFramer::new(max_line_len);
    let mut buf = [0u8; 4096];
    let mut reply = Vec::new();
    let mut eof = false;
    while !eof {
        match reader.read(&mut buf) {
            // Half-close without a trailing newline still serves the
            // final command (framer.finish yields the partial line).
            Ok(0) => {
                framer.finish();
                eof = true;
            }
            Ok(n) => framer.feed(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        while let Some(item) = framer.next_line() {
            reply.clear();
            match item {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => respond_into(&mut session, &line, &mut reply),
                Err(frame_err) => {
                    reply.extend_from_slice(encode_frame_error(&frame_err).as_bytes())
                }
            }
            if writer.write_all(&reply).is_err() || writer.flush().is_err() {
                return;
            }
        }
    }
}

/// A minimal blocking TCP client for the line protocol — used by the
/// integration tests and the E16 bench to drive a [`Server`] exactly
/// like an external process would.
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The outgoing line of [`send`](TcpClient::send), reused.
    request: String,
}

impl TcpClient {
    /// Connect to a [`Server`].
    pub fn connect(addr: SocketAddr) -> std::io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(TcpClient {
            reader,
            writer: stream,
            request: String::new(),
        })
    }

    /// Send one command line and read the full `END`-terminated reply
    /// block (bytes as the server wrote them).
    pub fn send(&mut self, line: &str) -> std::io::Result<String> {
        self.request.clear();
        self.request.push_str(line);
        self.request.push('\n');
        self.writer.write_all(self.request.as_bytes())?;
        self.writer.flush()?;
        self.read_reply()
    }

    /// Write raw bytes as-is — lets tests exercise partial lines and
    /// pipelined segments exactly as they'd arrive off the wire.
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Read one `END`-terminated reply block.
    pub fn read_reply(&mut self) -> std::io::Result<String> {
        let mut block = String::new();
        loop {
            // Each line lands on the end of the block; only that tail
            // is tested for the terminator.
            let line_start = block.len();
            if self.reader.read_line(&mut block)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-reply",
                ));
            }
            if crate::wire::is_terminator(&block[line_start..]) {
                return Ok(block);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use anyk_engine::Engine;
    use anyk_storage::Catalog;

    #[test]
    fn worker_resolution_precedence() {
        // Explicit transport config wins over everything.
        assert_eq!(resolve_workers(3, Some("7"), Some(5)).unwrap(), 3);
        // Then the environment...
        assert_eq!(resolve_workers(0, Some("7"), Some(5)).unwrap(), 7);
        // ...then the service config...
        assert_eq!(resolve_workers(0, None, Some(5)).unwrap(), 5);
        // ...then auto: per-core with a floor of 2.
        let auto = resolve_workers(0, None, None).unwrap();
        assert!(auto >= 2);
    }

    #[test]
    fn worker_resolution_has_no_upper_clamp() {
        // The old auto path clamped to 2..=8; explicit sizes must pass
        // through untouched well past that cap.
        assert_eq!(resolve_workers(64, None, None).unwrap(), 64);
        assert_eq!(resolve_workers(0, Some("32"), None).unwrap(), 32);
        assert_eq!(resolve_workers(0, None, Some(128)).unwrap(), 128);
    }

    #[test]
    fn worker_resolution_rejects_zero_and_junk() {
        assert!(matches!(
            resolve_workers(0, None, Some(0)),
            Err(BindError::InvalidWorkers)
        ));
        for bad in ["0", "", "eight", "-2", "3.5"] {
            let err = resolve_workers(0, Some(bad), None).unwrap_err();
            assert!(
                matches!(&err, BindError::InvalidWorkersEnv { value } if value == bad),
                "expected InvalidWorkersEnv for {bad:?}, got {err:?}"
            );
            assert!(err.to_string().contains("ANYK_SERVE_WORKERS"));
        }
    }

    #[test]
    fn bind_rejects_zero_workers_with_typed_error() {
        if std::env::var("ANYK_SERVE_WORKERS").is_ok() {
            return; // env override would shadow the service config
        }
        let service = Service::with_config(
            Engine::new(Catalog::new()),
            ServiceConfig {
                workers: Some(0),
                ..ServiceConfig::default()
            },
        );
        let err = match Server::bind(service, "127.0.0.1:0") {
            Err(e) => e,
            Ok(_) => panic!("bind must reject a zero-worker pool"),
        };
        assert!(matches!(err, BindError::InvalidWorkers));
        assert!(err.to_string().contains("at least 1"));
    }
}
