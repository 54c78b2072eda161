//! # anyk-obs — observability core for the any-k serving stack
//!
//! Std-only, allocation-light, **no network**: a lock-free tracing
//! core the rest of the workspace instruments itself with.
//!
//! * [`clock`] — the injected [`Clock`] trait. This crate is the only
//!   place allowed to call `Instant::now` (the `timing-discipline`
//!   lint rule enforces it workspace-wide), so every other crate
//!   times itself through a clock handle and tests can run on the
//!   deterministic [`ManualClock`].
//! * [`hist`] — the 32-bucket power-of-two latency [`Histogram`]:
//!   one relaxed `fetch_add` a sample, percentiles on read.
//! * [`trace`] — the [`Stage`] taxonomy (parse → admission → prepare
//!   → spawn → pull → merge → encode), the POD [`QueryTrace`] record,
//!   and the fixed-capacity [`TraceRing`]: relaxed-atomic slot claim
//!   plus a seqlock-style publish, readable without locks and torn
//!   reads detected and discarded.
//! * [`registry`] — [`ObsRegistry`]: per-route × per-ranking labeled
//!   counter/histogram cells, the trace ring, a bounded slow-query
//!   log, and the clock, behind one `Arc` shared by engine and
//!   server. `ANYK_OBS=off` disables recording (the hot paths check
//!   one bool).

pub mod clock;
pub mod hist;
pub mod registry;
pub mod trace;

pub use clock::{manual_clock, monotonic_clock, Clock, ManualClock, MonotonicClock};
pub use hist::{Histogram, HIST_BUCKETS};
pub use registry::{rank_id, route_id, ObsRegistry, RouteCell, SlowLog, RANKS, ROUTES};
pub use trace::{QueryTrace, RingStats, Stage, TraceRing, MAX_TRACE_MEMBERS, STAGES, TRACE_WORDS};
