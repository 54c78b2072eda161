//! Incremental line framing: how the transport turns a TCP byte
//! stream into protocol command lines.
//!
//! A [`LineFramer`] accumulates arbitrary byte chunks
//! ([`feed`](LineFramer::feed)) and yields complete lines
//! ([`next_line`](LineFramer::next_line)) — one line per `\n`, with a
//! trailing `\r` stripped so `nc -C`/telnet-style clients work.
//! Chunk boundaries are invisible: a command split across ten TCP
//! segments and ten commands pipelined into one segment frame
//! identically (property-tested against batch `\n`-splitting).
//!
//! The framer is also the protocol's first line of defense: a line
//! longer than the configured bound yields a typed
//! [`FrameError::Oversized`] instead of buffering without limit, and
//! the framer then *discards* bytes until the next `\n` so the
//! connection can keep serving subsequent commands. The error is
//! rendered with [`encode_frame_error`].

use std::collections::VecDeque;

/// A transport-level framing failure (before parsing ever runs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// A command line exceeded the transport's configured byte bound;
    /// the rest of the line (up to the next `\n`) was discarded.
    Oversized {
        /// The configured maximum line length, in bytes.
        limit: usize,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { limit } => {
                write!(f, "line exceeds {limit} bytes")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Render a framing error as a wire block: `ERR proto: <msg>` + `END`.
/// The counterpart of [`respond`](crate::wire::respond) for a line
/// that never reached the parser.
pub fn encode_frame_error(err: &FrameError) -> String {
    format!("ERR proto: {err}\nEND\n")
}

/// The incremental framer: feed bytes in, pull lines out. One per
/// connection; a few hundred bytes of state until a line grows.
///
/// ```
/// use anyk_serve::frame::LineFramer;
///
/// let mut framer = LineFramer::new(1024);
/// framer.feed(b"STATS;\nNEXT 5");     // one whole line + a partial
/// assert_eq!(framer.next_line(), Some(Ok("STATS;".to_string())));
/// assert_eq!(framer.next_line(), None); // the partial waits
/// framer.feed(b" ON 0;\r\n");           // completed (CRLF works too)
/// assert_eq!(framer.next_line(), Some(Ok("NEXT 5 ON 0;".to_string())));
/// ```
#[derive(Debug)]
pub struct LineFramer {
    max_line_len: usize,
    /// Bytes of the current (incomplete) line.
    partial: Vec<u8>,
    /// Completed lines (or framing errors) not yet pulled.
    ready: VecDeque<Result<String, FrameError>>,
    /// Inside an oversized line: drop bytes until the next `\n`.
    discarding: bool,
}

impl LineFramer {
    /// A framer enforcing `max_line_len` bytes per line (the newline
    /// itself is not counted).
    pub fn new(max_line_len: usize) -> LineFramer {
        LineFramer {
            max_line_len,
            partial: Vec::new(),
            ready: VecDeque::new(),
            discarding: false,
        }
    }

    /// Append a chunk of raw bytes (a TCP segment, a read() return —
    /// any split). Completed lines become pullable via
    /// [`next_line`](LineFramer::next_line).
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            if self.discarding {
                if b == b'\n' {
                    self.discarding = false;
                }
                continue;
            }
            if b == b'\n' {
                let mut line = std::mem::take(&mut self.partial);
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                self.ready
                    .push_back(Ok(String::from_utf8_lossy(&line).into_owned()));
                continue;
            }
            if self.partial.len() >= self.max_line_len {
                // The line just outgrew the bound: emit one typed
                // error, forget the prefix, skip to the next newline.
                self.partial.clear();
                self.discarding = true;
                self.ready.push_back(Err(FrameError::Oversized {
                    limit: self.max_line_len,
                }));
                continue;
            }
            self.partial.push(b);
        }
    }

    /// Pull the next completed line (`\n`-terminated input with the
    /// terminator and any trailing `\r` stripped), or the framing
    /// error that replaced it. `None` means: feed more bytes.
    pub fn next_line(&mut self) -> Option<Result<String, FrameError>> {
        self.ready.pop_front()
    }

    /// End-of-stream: the peer closed without a final `\n`. A pending
    /// partial line becomes a complete line (matching what a blocking
    /// line reader would have yielded at EOF); an oversized line
    /// already reported its error when it crossed the bound, so its
    /// swallowed tail is simply dropped.
    pub fn finish(&mut self) {
        self.discarding = false;
        if !self.partial.is_empty() {
            let line = std::mem::take(&mut self.partial);
            self.ready
                .push_back(Ok(String::from_utf8_lossy(&line).into_owned()));
        }
    }

    /// Bytes buffered for the current incomplete line.
    pub fn buffered(&self) -> usize {
        self.partial.len()
    }

    /// True when a partial line (or an oversized discard) is pending —
    /// i.e. the peer stopped mid-command.
    pub fn mid_line(&self) -> bool {
        !self.partial.is_empty() || self.discarding
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Drain everything currently pullable.
    fn drain(f: &mut LineFramer) -> Vec<Result<String, FrameError>> {
        std::iter::from_fn(|| f.next_line()).collect()
    }

    #[test]
    fn partial_line_across_many_chunks() {
        let mut f = LineFramer::new(64);
        for chunk in [b"SEL" as &[u8], b"ECT R(", b"a,b)", b";"] {
            f.feed(chunk);
            assert_eq!(f.next_line(), None, "no line until the newline");
            assert!(f.mid_line());
        }
        f.feed(b"\n");
        assert_eq!(f.next_line(), Some(Ok("SELECT R(a,b);".to_string())));
        assert!(!f.mid_line());
        assert_eq!(f.buffered(), 0);
    }

    #[test]
    fn pipelined_commands_in_one_chunk() {
        let mut f = LineFramer::new(64);
        f.feed(b"STATS;\nNEXT 1 ON 0;\r\nCLOSE 0;\n");
        assert_eq!(
            drain(&mut f),
            vec![
                Ok("STATS;".to_string()),
                Ok("NEXT 1 ON 0;".to_string()),
                Ok("CLOSE 0;".to_string()),
            ]
        );
    }

    #[test]
    fn oversized_line_yields_typed_error_and_resyncs() {
        let mut f = LineFramer::new(8);
        f.feed(b"0123456789abcdef"); // already over the bound, no newline yet
        assert_eq!(f.next_line(), Some(Err(FrameError::Oversized { limit: 8 })));
        assert_eq!(f.next_line(), None);
        // Still discarding: more oversized bytes produce no second error.
        f.feed(b"garbage-continues");
        assert_eq!(f.next_line(), None);
        // The newline resyncs; the next command frames cleanly.
        f.feed(b"\nSTATS;\n");
        assert_eq!(drain(&mut f), vec![Ok("STATS;".to_string())]);
    }

    #[test]
    fn finish_yields_the_unterminated_tail_as_a_line() {
        // `printf 'STATS;' | nc` half-closes without a newline: the
        // command must still be served, like a blocking line reader
        // would at EOF.
        let mut f = LineFramer::new(64);
        f.feed(b"SELECT R(a,b);\nSTATS;");
        assert_eq!(f.next_line(), Some(Ok("SELECT R(a,b);".to_string())));
        assert_eq!(f.next_line(), None);
        f.finish();
        assert_eq!(f.next_line(), Some(Ok("STATS;".to_string())));
        assert!(!f.mid_line());
        // An oversized tail already reported its error; finish drops
        // the swallowed remainder without a second error.
        let mut f = LineFramer::new(4);
        f.feed(b"0123456789");
        assert_eq!(f.next_line(), Some(Err(FrameError::Oversized { limit: 4 })));
        f.finish();
        assert_eq!(f.next_line(), None);
        assert!(!f.mid_line());
    }

    #[test]
    fn exactly_max_len_is_allowed() {
        let mut f = LineFramer::new(6);
        f.feed(b"STATS;\n");
        assert_eq!(f.next_line(), Some(Ok("STATS;".to_string())));
    }

    #[test]
    fn frame_error_renders_as_a_proto_err_block() {
        let err = FrameError::Oversized { limit: 4096 };
        assert_eq!(
            encode_frame_error(&err),
            "ERR proto: line exceeds 4096 bytes\nEND\n"
        );
    }

    /// Line alphabet for the round-trip property (anything but the
    /// frame terminators `\n`/`\r`).
    const CHARSET: &[u8] = b"abcdefXYZ0189 ,();=RANKSELCT";

    proptest! {
        /// The incremental framer must agree with batch splitting for
        /// every chunking of every in-bounds input: feed the rendered
        /// stream in random pieces, get exactly `split('\n')` back.
        #[test]
        fn incremental_framing_matches_batch_split(
            specs in proptest::collection::vec(
                proptest::collection::vec(0usize..CHARSET.len(), 0..40), 0..12),
            cuts in proptest::collection::vec(0usize..64, 0..12),
        ) {
            let lines: Vec<String> = specs
                .iter()
                .map(|idx| idx.iter().map(|&i| CHARSET[i] as char).collect())
                .collect();
            let mut stream = Vec::new();
            for l in &lines {
                stream.extend_from_slice(l.as_bytes());
                stream.push(b'\n');
            }
            // Random chunk boundaries over the byte stream.
            let mut f = LineFramer::new(64);
            let mut fed = 0usize;
            let mut got = Vec::new();
            for &cut in &cuts {
                let end = (fed + cut).min(stream.len());
                f.feed(&stream[fed..end]);
                fed = end;
                while let Some(item) = f.next_line() {
                    got.push(item.expect("in-bounds lines never error"));
                }
            }
            f.feed(&stream[fed..]);
            while let Some(item) = f.next_line() {
                got.push(item.expect("in-bounds lines never error"));
            }
            prop_assert_eq!(got, lines);
            prop_assert!(!f.mid_line(), "every line was newline-terminated");
        }
    }
}
