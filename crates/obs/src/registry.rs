//! [`ObsRegistry`]: the per-process observability hub — labeled
//! per-route × per-ranking cells, engine-side histograms, the trace
//! ring, a bounded slow-query log, and the injected clock.
//!
//! One registry instance per engine (so a sharded deployment has one
//! per shard — their histograms merge bucket-wise for `STATS`) plus
//! one per service (ring + slow log + route cells). Recording is
//! gated on a single `enabled` bool set at construction from
//! `ANYK_OBS` (`off`/`0` disables).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::clock::{monotonic_clock, Clock};
use crate::hist::Histogram;
use crate::trace::{QueryTrace, RingStats, TraceRing};

/// Planner route labels, in stable order (`QueryTrace::route` /
/// [`RouteCell`] indices point here). Must stay in sync with the
/// engine's `Route::label` strings.
pub const ROUTES: [&str; 4] = ["acyclic", "triangle", "cycle", "decomposed"];

/// Ranking labels, in stable order (mirrors `RankSpec::ALL`).
pub const RANKS: [&str; 5] = ["sum", "max", "min", "prod", "lex"];

/// Index of `label` in [`ROUTES`] (0 — "acyclic" — for unknown
/// labels, which cannot occur for plans the engine actually emits).
pub fn route_id(label: &str) -> u64 {
    ROUTES.iter().position(|r| *r == label).unwrap_or(0) as u64
}

/// Index of `label` in [`RANKS`] (0 for unknown).
pub fn rank_id(label: &str) -> u64 {
    RANKS.iter().position(|r| *r == label).unwrap_or(0) as u64
}

/// One route × ranking telemetry cell.
#[derive(Debug, Default)]
pub struct RouteCell {
    /// Queries answered on this route × ranking.
    pub queries: AtomicU64,
    /// Answers streamed out.
    pub answers: AtomicU64,
    /// Time-to-first-answer distribution (µs).
    pub ttf: Histogram,
}

/// A bounded, newest-first log of slow queries (traces whose total
/// wall time crossed the service's threshold). Mutex-guarded — this
/// path only runs for already-slow queries, so a lock is noise-free.
#[derive(Debug)]
pub struct SlowLog {
    cap: usize,
    entries: Mutex<VecDeque<QueryTrace>>,
}

impl SlowLog {
    pub fn new(cap: usize) -> SlowLog {
        SlowLog {
            cap: cap.max(1),
            entries: Mutex::new(VecDeque::new()),
        }
    }

    pub fn push(&self, trace: QueryTrace) {
        let mut entries = self.entries.lock().unwrap_or_else(PoisonError::into_inner);
        if entries.len() == self.cap {
            entries.pop_back();
        }
        entries.push_front(trace);
    }

    /// Newest first.
    pub fn snapshot(&self) -> Vec<QueryTrace> {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .copied()
            .collect()
    }

    pub fn len(&self) -> usize {
        self.entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Default trace-ring capacity.
pub const DEFAULT_RING_CAPACITY: usize = 256;
/// Default slow-log capacity.
pub const DEFAULT_SLOW_CAPACITY: usize = 64;

/// The observability hub. Cheap to share (`Arc`), lock-free on every
/// recording path, and a no-op throughout when disabled.
#[derive(Debug)]
pub struct ObsRegistry {
    enabled: bool,
    clock: Arc<dyn Clock>,
    ring: TraceRing,
    slow: SlowLog,
    cells: Vec<RouteCell>, // ROUTES.len() × RANKS.len(), row-major by route
    prepare: Histogram,
    delay: Histogram,
    ids: AtomicU64,
}

impl ObsRegistry {
    /// Real clock, enabled unless `ANYK_OBS` says `off`/`0`.
    pub fn from_env() -> ObsRegistry {
        Self::with_enabled(env_enabled(), monotonic_clock())
    }

    /// Enabled, on the given clock (tests inject a `ManualClock`).
    pub fn new(clock: Arc<dyn Clock>) -> ObsRegistry {
        Self::with_enabled(true, clock)
    }

    pub fn with_enabled(enabled: bool, clock: Arc<dyn Clock>) -> ObsRegistry {
        ObsRegistry {
            enabled,
            clock,
            ring: TraceRing::new(DEFAULT_RING_CAPACITY),
            slow: SlowLog::new(DEFAULT_SLOW_CAPACITY),
            cells: (0..ROUTES.len() * RANKS.len())
                .map(|_| RouteCell::default())
                .collect(),
            prepare: Histogram::default(),
            delay: Histogram::default(),
            ids: AtomicU64::new(1),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Current reading of the injected clock (µs since its origin).
    /// Usable even when recording is disabled — the server still needs
    /// time for TTLs and deadlines.
    pub fn now_us(&self) -> u64 {
        self.clock.now_us()
    }

    /// Next trace id (monotonic, never 0).
    pub fn next_id(&self) -> u64 {
        self.ids.fetch_add(1, Ordering::Relaxed)
    }

    /// The cell for a route × ranking pair (by [`ROUTES`]/[`RANKS`]
    /// index, as carried in a [`QueryTrace`]).
    pub fn cell(&self, route: u64, rank: u64) -> &RouteCell {
        let r = (route as usize).min(ROUTES.len() - 1);
        let k = (rank as usize).min(RANKS.len() - 1);
        &self.cells[r * RANKS.len() + k]
    }

    /// Record a completed query into its route × ranking cell.
    pub fn record_query(&self, route: u64, rank: u64, answers: u64, ttf_us: Option<u64>) {
        if !self.enabled {
            return;
        }
        let cell = self.cell(route, rank);
        cell.queries.fetch_add(1, Ordering::Relaxed);
        cell.answers.fetch_add(answers, Ordering::Relaxed);
        if let Some(us) = ttf_us {
            cell.ttf.record(us.max(1));
        }
    }

    /// Record one `Engine::prepare` wall time.
    pub fn record_prepare(&self, us: u64) {
        if self.enabled {
            self.prepare.record(us.max(1));
        }
    }

    /// Record one sampled inter-answer delay.
    pub fn record_delay(&self, us: u64) {
        if self.enabled {
            self.delay.record(us.max(1));
        }
    }

    /// The prepare-time distribution (this registry only; merge
    /// across shards with [`Histogram::merged`]).
    pub fn prepare_hist(&self) -> &Histogram {
        &self.prepare
    }

    /// The sampled per-pull delay distribution.
    pub fn delay_hist(&self) -> &Histogram {
        &self.delay
    }

    /// Publish a completed trace to the ring (and the slow log when
    /// its total crosses `slow_threshold_us`; 0 disables the log).
    pub fn publish(&self, trace: &QueryTrace, slow_threshold_us: u64) {
        if !self.enabled {
            return;
        }
        self.ring.publish(trace);
        if slow_threshold_us > 0 && trace.total_us >= slow_threshold_us {
            self.slow.push(*trace);
        }
    }

    /// The most recent `n` traces, newest first.
    pub fn recent(&self, n: usize) -> Vec<QueryTrace> {
        self.ring.recent(n)
    }

    /// The slow-query log, newest first.
    pub fn slow(&self) -> Vec<QueryTrace> {
        self.slow.snapshot()
    }

    pub fn ring_stats(&self) -> RingStats {
        self.ring.stats()
    }
}

fn env_enabled() -> bool {
    match std::env::var("ANYK_OBS") {
        Ok(v) => {
            let v = v.to_ascii_lowercase();
            v != "off" && v != "0" && v != "false"
        }
        Err(_) => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::manual_clock;

    #[test]
    fn route_and_rank_ids_round_trip() {
        for (i, r) in ROUTES.iter().enumerate() {
            assert_eq!(route_id(r), i as u64);
        }
        for (i, k) in RANKS.iter().enumerate() {
            assert_eq!(rank_id(k), i as u64);
        }
        assert_eq!(route_id("nonsense"), 0);
    }

    #[test]
    fn cells_accumulate_per_route_per_rank() {
        let reg = ObsRegistry::new(manual_clock(0));
        reg.record_query(1, 2, 10, Some(100));
        reg.record_query(1, 2, 5, None);
        reg.record_query(0, 0, 1, Some(7));
        let cell = reg.cell(1, 2);
        assert_eq!(cell.queries.load(Ordering::Relaxed), 2);
        assert_eq!(cell.answers.load(Ordering::Relaxed), 15);
        assert_eq!(cell.ttf.count(), 1);
        assert_eq!(reg.cell(3, 4).queries.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn disabled_registry_records_nothing_but_still_tells_time() {
        let clock = manual_clock(42);
        let reg = ObsRegistry::with_enabled(false, clock.clone());
        assert_eq!(reg.now_us(), 42);
        reg.record_query(0, 0, 3, Some(5));
        reg.record_prepare(10);
        reg.record_delay(10);
        reg.publish(&QueryTrace::default(), 1);
        assert_eq!(reg.cell(0, 0).queries.load(Ordering::Relaxed), 0);
        assert_eq!(reg.prepare_hist().count(), 0);
        assert_eq!(reg.delay_hist().count(), 0);
        assert!(reg.recent(8).is_empty());
        assert!(reg.slow().is_empty());
    }

    #[test]
    fn slow_log_is_bounded_and_thresholded() {
        let log = SlowLog::new(2);
        for total_us in [10, 20, 30] {
            log.push(QueryTrace {
                total_us,
                ..QueryTrace::default()
            });
        }
        let got = log.snapshot();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].total_us, 30);
        assert_eq!(got[1].total_us, 20);

        let reg = ObsRegistry::new(manual_clock(0));
        let fast = QueryTrace {
            total_us: 5,
            ..QueryTrace::default()
        };
        let slow = QueryTrace {
            total_us: 500,
            ..QueryTrace::default()
        };
        reg.publish(&fast, 100);
        reg.publish(&slow, 100);
        assert_eq!(reg.slow().len(), 1);
        assert_eq!(reg.slow()[0].total_us, 500);
        assert_eq!(reg.recent(8).len(), 2);
    }
}
