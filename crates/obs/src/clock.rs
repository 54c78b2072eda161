//! Injected time: the [`Clock`] trait and its two implementations.
//!
//! The workspace's `timing-discipline` lint permits `Instant::now` /
//! `SystemTime::now` **only in this crate**, so library and server
//! code receive time as `Arc<dyn Clock>` and report microseconds since
//! the clock's origin. Tests swap in [`ManualClock`] and advance time
//! explicitly — deterministic TTL, deadline, and trace timings.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A monotonic microsecond source. Implementations must never go
/// backwards; only differences of `now_us` readings are meaningful
/// (origins differ between clock instances).
pub trait Clock: Send + Sync + fmt::Debug {
    /// Microseconds elapsed since this clock's origin.
    fn now_us(&self) -> u64;
}

/// The real clock: microseconds since construction, via
/// `Instant::now` — the only call sites in the workspace.
#[derive(Debug)]
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    pub fn new() -> Self {
        MonotonicClock {
            origin: Instant::now(),
        }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicClock {
    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }
}

/// A deterministic test clock: time moves only when told to.
#[derive(Debug, Default)]
pub struct ManualClock {
    us: AtomicU64,
}

impl ManualClock {
    pub fn new(start_us: u64) -> Self {
        ManualClock {
            us: AtomicU64::new(start_us),
        }
    }

    /// Advance the clock by `us` microseconds.
    pub fn advance(&self, us: u64) {
        self.us.fetch_add(us, Ordering::SeqCst);
    }

    /// Jump the clock to an absolute reading.
    pub fn set(&self, us: u64) {
        self.us.store(us, Ordering::SeqCst);
    }
}

impl Clock for ManualClock {
    fn now_us(&self) -> u64 {
        self.us.load(Ordering::SeqCst)
    }
}

/// A fresh shared real clock.
pub fn monotonic_clock() -> Arc<dyn Clock> {
    Arc::new(MonotonicClock::new())
}

/// A fresh shared manual clock (returned concretely so tests keep a
/// handle to `advance`).
pub fn manual_clock(start_us: u64) -> Arc<ManualClock> {
    Arc::new(ManualClock::new(start_us))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_never_goes_backwards() {
        let clock = MonotonicClock::new();
        let mut prev = clock.now_us();
        for _ in 0..1000 {
            let now = clock.now_us();
            assert!(now >= prev);
            prev = now;
        }
    }

    #[test]
    fn manual_clock_is_deterministic() {
        let clock = ManualClock::new(5);
        assert_eq!(clock.now_us(), 5);
        clock.advance(10);
        assert_eq!(clock.now_us(), 15);
        clock.set(3);
        assert_eq!(clock.now_us(), 3);
    }
}
