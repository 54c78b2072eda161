//! The TCP transport: a line-oriented server over `std::net` — no
//! external dependencies (the readiness syscalls come from the in-tree
//! [`polling`] shim).
//!
//! A [`Server`] is a few identical serving threads over one shared
//! one-shot readiness poller, each request served start to finish on
//! the thread that was handed it — see [`crate::event_loop`] for the
//! threading model and backpressure rules. It scales to thousands of
//! mostly-idle connections. The poller is epoll: Linux is the serving
//! platform, and [`Server::bind`] fails with a typed
//! [`BindError::Io`] (`Unsupported`) anywhere else. Everything that
//! is not a socket — the engine, [`Service`], [`Session`](crate::Session)
//! and [`LocalClient`](crate::LocalClient) — is portable.
//!
//! Clients send one command per line and read one `END`-terminated
//! block per command (see [`crate::wire`] for the encoding and
//! [`crate::frame`] for the line framing; [`LocalClient`](crate::LocalClient)
//! goes through the same encoder, so its bytes are the reference the
//! tests hold the server to). Closing the connection closes the
//! session, which closes its cursors and releases their admission
//! slots.

use crate::event_loop;
use crate::service::Service;
use std::fmt;
use std::io::{BufRead, BufReader, Write};
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
            BindError::InvalidWorkersEnv { .. } => None,
        }
    }
}

impl From<std::io::Error> for BindError {
    fn from(e: std::io::Error) -> Self {
        BindError::Io(e)
    }
}

/// How a [`Server`] serves: the event loop ([`crate::event_loop`]) is
/// the only way. This one-variant type and the
/// [`TransportConfig::transport`] field that holds it select nothing;
/// they exist only because `benchmark/` (which a change to the
/// workspace may not edit) names `Transport::EventLoop`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Serving threads over a shared one-shot readiness poller.
    EventLoop,
}

/// Transport tuning for [`Server::bind_with`].
#[derive(Debug, Clone, Copy)]
pub struct TransportConfig {
    /// Always [`Transport::EventLoop`] (see [`Transport`] for why the
    /// field exists).
    pub transport: Transport,
    /// Serving threads — every thread the transport runs: each one
    /// polls, reads, executes and writes. `0` means "not set here":
    /// the count then comes from the `ANYK_SERVE_WORKERS` environment
    /// variable (the deployment override), then auto-sizing (one
    /// thread per available core, floor 2, **no upper clamp** — an
    /// earlier revision silently capped the pool at 8, starving wide
    /// hosts).
    pub workers: usize,
    /// Longest accepted command line, in bytes; longer lines get a
    /// typed `ERR proto` reply and are discarded to the next newline
    /// (see [`crate::frame`]).
    pub max_line_len: usize,
}

impl Default for TransportConfig {
    /// Auto worker count, 64 KiB line bound; reads no environment.
    fn default() -> Self {
        TransportConfig {
            transport: Transport::EventLoop,
            workers: 0,
            max_line_len: 64 * 1024,
        }
    }
}

/// Serving-thread count, by precedence: an explicit
/// [`TransportConfig::workers`], then `ANYK_SERVE_WORKERS` (`env`),
/// then one thread per available core with a floor of 2 (so one long
/// command never leaves nobody polling on a single-core box) and **no
/// upper clamp**. A zero or junk environment value is a [`BindError`],
/// not a silent correction.
fn resolve_workers(explicit: usize, env: Option<&str>) -> Result<usize, BindError> {
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
    Ok(std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(2)
        .max(2))
}

/// A running TCP server. Dropping the handle (or calling
/// [`shutdown`](Server::shutdown)) stops the server and closes its
/// established connections.
///
/// ```
/// use anyk_engine::Engine;
/// use anyk_serve::{Server, Service, TcpClient, TransportConfig};
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
    /// What `shutdown` wakes...
    poller: Arc<polling::Poller>,
    /// ...and joins.
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral test port)
    /// and start serving with [`TransportConfig::default`].
    pub fn bind(service: Service, addr: &str) -> Result<Server, BindError> {
        Server::bind_with(service, addr, TransportConfig::default())
    }

    /// Bind with explicit tuning. Fails with a typed [`BindError`] on
    /// socket errors or an invalid thread count (see
    /// [`TransportConfig::workers`] for the sizing precedence).
    pub fn bind_with(
        service: Service,
        addr: &str,
        config: TransportConfig,
    ) -> Result<Server, BindError> {
        // Validate the count before touching the socket: a bad worker
        // config should fail identically whether or not the port binds.
        let env = std::env::var("ANYK_SERVE_WORKERS").ok();
        let workers = resolve_workers(config.workers, env.as_deref())?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let (poller, threads) = event_loop::spawn(
            service,
            listener,
            Arc::clone(&stop),
            workers,
            config.max_line_len,
        )?;
        Ok(Server {
            addr,
            stop,
            poller,
            threads,
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
        let _ = self.poller.notify();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
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
    ///
    /// `line` must be one command: a blank line gets no reply at all
    /// (the server skips it) and a line break makes it two commands
    /// with two replies, the second of which would be read as the
    /// answer to the *next* `send`. Both are refused with
    /// [`InvalidInput`](std::io::ErrorKind::InvalidInput) before
    /// anything is written; [`send_raw`](TcpClient::send_raw) with
    /// [`read_reply`](TcpClient::read_reply) is how to pipeline.
    pub fn send(&mut self, line: &str) -> std::io::Result<String> {
        let refuse = |why| Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, why));
        if line.trim().is_empty() {
            return refuse("a blank line is not a command: the server sends no reply to it");
        }
        if line.contains('\n') {
            return refuse("one command per send: a line break would leave a reply unread");
        }
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

    /// Read one `END`-terminated reply block. A reply that sits whole
    /// in the reader's buffer — any page does — is scanned for its
    /// terminator in place, checked as UTF-8 once and copied out once,
    /// at its exact size.
    pub fn read_reply(&mut self) -> std::io::Result<String> {
        use crate::wire::is_terminator;
        let invalid = |e| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        // What earlier buffers held of this reply, and where its last,
        // unfinished line starts (only a reply longer than the buffer,
        // or one that arrived in pieces, gets here).
        let mut block: Vec<u8> = Vec::new();
        let mut line_start = 0;
        loop {
            let buf = self.reader.fill_buf()?;
            if buf.is_empty() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-reply",
                ));
            }
            // `at`: one past the last whole line of `buf` looked at.
            let (mut at, mut done) = (0, false);
            for line in buf.split_inclusive(|&b| b == b'\n') {
                if done || line.last() != Some(&b'\n') {
                    break;
                }
                done = if at == 0 && line_start < block.len() {
                    is_terminator(&[&block[line_start..], line].concat())
                } else {
                    is_terminator(line)
                };
                at += line.len();
            }
            let take = if done { at } else { buf.len() };
            if done && block.is_empty() {
                let reply = std::str::from_utf8(&buf[..take]).map(str::to_owned);
                self.reader.consume(take);
                return reply.map_err(invalid);
            }
            block.extend_from_slice(&buf[..take]);
            if at > 0 {
                line_start = block.len() - (take - at);
            }
            self.reader.consume(take);
            if done {
                return String::from_utf8(block).map_err(|e| invalid(e.utf8_error()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_resolution_precedence() {
        // Explicit transport config wins over everything.
        assert_eq!(resolve_workers(3, Some("7")).unwrap(), 3);
        // Then the environment...
        assert_eq!(resolve_workers(0, Some("7")).unwrap(), 7);
        // ...then auto: per-core with a floor of 2.
        let auto = resolve_workers(0, None).unwrap();
        assert!(auto >= 2);
    }

    #[test]
    fn worker_resolution_has_no_upper_clamp() {
        // The old auto path clamped to 2..=8; explicit sizes must pass
        // through untouched well past that cap.
        assert_eq!(resolve_workers(64, None).unwrap(), 64);
        assert_eq!(resolve_workers(0, Some("32")).unwrap(), 32);
    }

    #[test]
    fn worker_resolution_rejects_zero_and_junk() {
        for bad in ["0", "", "eight", "-2", "3.5"] {
            let err = resolve_workers(0, Some(bad)).unwrap_err();
            assert!(
                matches!(&err, BindError::InvalidWorkersEnv { value } if value == bad),
                "expected InvalidWorkersEnv for {bad:?}, got {err:?}"
            );
            assert!(err.to_string().contains("ANYK_SERVE_WORKERS"));
        }
    }
}
