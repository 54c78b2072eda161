//! The lock-free power-of-two latency histogram, moved here from the
//! server so every layer shares one implementation.

use std::sync::atomic::{AtomicU64, Ordering};

/// Power-of-two latency buckets (µs): bucket `i` counts samples in
/// `[2^i, 2^(i+1))`; the last bucket absorbs the tail. 32 buckets
/// reach past 71 minutes — far beyond any sane page latency.
pub const HIST_BUCKETS: usize = 32;

/// A lock-free fixed-bucket latency histogram: `record` is one relaxed
/// `fetch_add`, percentiles are computed on read (the `STATS` path),
/// so the per-page hot path never takes a lock or allocates.
#[derive(Debug)]
pub struct Histogram {
    counts: [AtomicU64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    pub fn record(&self, us: u64) {
        let bucket = (us.max(1).ilog2() as usize).min(HIST_BUCKETS - 1);
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// The inclusive upper bound of bucket `i`, in µs.
    pub fn upper_bound(i: usize) -> u64 {
        (1u64 << (i + 1)) - 1
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.counts[i].load(Ordering::Relaxed))
    }

    /// The latency below which fraction `p` of samples fall, estimated
    /// by **linear interpolation within the containing power-of-two
    /// bucket**: the sample's rank inside the bucket positions it
    /// between the bucket's bounds, assuming samples spread uniformly
    /// there. (Reporting the raw upper bound overstates a median
    /// sitting at a bucket's lower edge by up to 2×.) The open-ended
    /// top bucket has no interior to interpolate, so it still reports
    /// its conservative upper bound. 0 while the histogram is empty.
    pub fn percentile(&self, p: f64) -> u64 {
        let counts = self.snapshot();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            if cum + c >= target && c > 0 {
                if i == HIST_BUCKETS - 1 {
                    return Self::upper_bound(i);
                }
                // Bucket i covers [2^i, 2^(i+1)); rank (1-based) of the
                // target sample within it interpolates across that span.
                let lo = 1u64 << i;
                let span = lo;
                let rank = target - cum;
                return (lo + (rank * span) / c).min(Self::upper_bound(i));
            }
            cum += c;
        }
        Self::upper_bound(HIST_BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The percentile-semantics pins that previously lived in the
    // server crate — moved with the implementation.
    #[test]
    fn percentile_interpolates_within_buckets() {
        let h = Histogram::default();
        for _ in 0..49 {
            h.record(1);
        }
        for _ in 0..51 {
            h.record(512);
        }
        assert_eq!(h.percentile(0.50), 522);
    }

    #[test]
    fn percentile_edges_and_tail() {
        let h = Histogram::default();
        for _ in 0..89 {
            h.record(1);
        }
        for _ in 0..10 {
            h.record(1000);
        }
        h.record(0); // clamps to 1µs
        assert_eq!(h.percentile(0.95), 768);
        assert_eq!(h.percentile(0.99), 972);
    }

    #[test]
    fn top_bucket_reports_upper_bound() {
        let h = Histogram::default();
        h.record(u64::MAX);
        assert_eq!(h.percentile(0.5), Histogram::upper_bound(HIST_BUCKETS - 1));
    }

    #[test]
    fn empty_percentile_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.count(), 0);
    }
}
