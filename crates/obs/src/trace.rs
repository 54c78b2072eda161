//! Query traces and the lock-free trace ring.
//!
//! A [`QueryTrace`] is a plain-old-data record of one completed query:
//! which route × ranking it took, per-[`Stage`] wall times, actual
//! cardinality vs the requested limit, cache/index provenance, and
//! merge fan-in. Completed traces are published into a fixed-capacity
//! [`TraceRing`]:
//!
//! * **claim** — a writer takes a slot with one relaxed `fetch_add`
//!   on the ring head (no CAS loop, no lock);
//! * **publish** — the slot is guarded seqlock-style by a per-slot
//!   sequence word (odd = write in progress). The payload is stored
//!   as relaxed `AtomicU64` words, so a concurrent read is always
//!   well-defined; the sequence re-check detects (and discards) torn
//!   snapshots.
//!
//! Writers never wait: if a slot is still held by a straggler from a
//! previous lap, the claim is counted in `dropped` and abandoned —
//! telemetry may drop under pathological contention, but it may never
//! stall the query path. The accounting invariant `claims ==
//! published + dropped` is what the concurrency tests pin.

use std::sync::atomic::{fence, AtomicU64, Ordering};

/// Number of [`Stage`]s in the taxonomy.
pub const STAGES: usize = 7;

/// Per-member merge fan-in rows are recorded for up to this many
/// members (delta terms); a wider merge still traces its totals, just
/// not the split past them.
pub const MAX_TRACE_MEMBERS: usize = 8;

/// The life of a query, in order. Every stage is a contiguous span of
/// the same wall-clock interval, so the stage times of a trace sum to
/// its total exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Lexing + parsing the command text.
    Parse,
    /// Waiting on / acquiring the admission semaphore.
    Admission,
    /// Plan-cache lookup, routing, index acquisition, operator build.
    Prepare,
    /// Materializing the ranked stream object (post-prepare).
    Spawn,
    /// Pulling answers out of the stream.
    Pull,
    /// Tournament-merge work attributable to merge fan-in.
    Merge,
    /// Rendering protocol bytes.
    Encode,
}

impl Stage {
    pub const ALL: [Stage; STAGES] = [
        Stage::Parse,
        Stage::Admission,
        Stage::Prepare,
        Stage::Spawn,
        Stage::Pull,
        Stage::Merge,
        Stage::Encode,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Admission => "admission",
            Stage::Prepare => "prepare",
            Stage::Spawn => "spawn",
            Stage::Pull => "pull",
            Stage::Merge => "merge",
            Stage::Encode => "encode",
        }
    }
}

/// Cache provenance of a prepared plan.
pub const CACHE_MISS: u64 = 0;
/// See [`CACHE_MISS`].
pub const CACHE_HIT: u64 = 1;

/// One completed query, as published to the ring. Fixed-size POD —
/// no heap, `Copy` — so it serializes to a constant number of `u64`
/// words for the seqlock slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryTrace {
    /// Monotonic id (registry-assigned).
    pub id: u64,
    /// Planner route, as a [`crate::registry::ROUTES`] index.
    pub route: u64,
    /// Ranking, as a [`crate::registry::RANKS`] index.
    pub rank: u64,
    /// [`CACHE_HIT`] or [`CACHE_MISS`].
    pub cache: u64,
    /// Index provenance: 0 = n/a, 1 = cached, 2 = built.
    pub index: u64,
    /// Tournament-tree depth of the merge (0 when none ran).
    pub merge_depth: u64,
    /// Answers actually produced.
    pub rows: u64,
    /// Answers requested (page limit).
    pub limit: u64,
    /// End-to-end wall time, µs.
    pub total_us: u64,
    /// Per-stage wall times, µs, indexed by [`Stage::ALL`] order.
    pub stage_us: [u64; STAGES],
    /// Rows pulled from each merge member (first
    /// [`MAX_TRACE_MEMBERS`]).
    pub member_rows: [u64; MAX_TRACE_MEMBERS],
}

/// Words per serialized trace: 9 scalars + stages + member rows.
pub const TRACE_WORDS: usize = 9 + STAGES + MAX_TRACE_MEMBERS;

impl QueryTrace {
    /// Sum of the per-stage times (µs).
    pub fn stage_sum_us(&self) -> u64 {
        self.stage_us.iter().sum()
    }

    fn to_words(self) -> [u64; TRACE_WORDS] {
        let mut w = [0u64; TRACE_WORDS];
        w[0] = self.id;
        w[1] = self.route;
        w[2] = self.rank;
        w[3] = self.cache;
        w[4] = self.index;
        w[5] = self.merge_depth;
        w[6] = self.rows;
        w[7] = self.limit;
        w[8] = self.total_us;
        w[9..9 + STAGES].copy_from_slice(&self.stage_us);
        w[9 + STAGES..].copy_from_slice(&self.member_rows);
        w
    }

    fn from_words(w: &[u64; TRACE_WORDS]) -> QueryTrace {
        let mut t = QueryTrace {
            id: w[0],
            route: w[1],
            rank: w[2],
            cache: w[3],
            index: w[4],
            merge_depth: w[5],
            rows: w[6],
            limit: w[7],
            total_us: w[8],
            ..QueryTrace::default()
        };
        t.stage_us.copy_from_slice(&w[9..9 + STAGES]);
        t.member_rows.copy_from_slice(&w[9 + STAGES..]);
        t
    }
}

/// One ring slot: a seqlock. `seq` is even when the payload is
/// consistent, odd while a writer holds it; a slot on lap `turn`
/// moves `2·turn → 2·turn+1 → 2·turn+2`. The payload itself is
/// atomic words, so concurrent access is race-free by construction —
/// the sequence check only decides whether a snapshot is *consistent*.
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; TRACE_WORDS],
}

impl Default for Slot {
    fn default() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Point-in-time ring accounting; `claims == published + dropped`
/// once all in-flight publishes have finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingStats {
    pub capacity: usize,
    pub claims: u64,
    pub published: u64,
    pub dropped: u64,
}

/// The fixed-capacity, lock-free ring of completed query traces.
#[derive(Debug)]
pub struct TraceRing {
    slots: Box<[Slot]>,
    head: AtomicU64,
    published: AtomicU64,
    dropped: AtomicU64,
}

impl TraceRing {
    /// `capacity` is clamped to at least 1.
    pub fn new(capacity: usize) -> TraceRing {
        let capacity = capacity.max(1);
        TraceRing {
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            head: AtomicU64::new(0),
            published: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Publish one trace. Returns `false` when the claimed slot was
    /// still held by a writer from another lap (the trace is dropped
    /// rather than waiting — the query path must never stall on
    /// telemetry).
    pub fn publish(&self, trace: &QueryTrace) -> bool {
        let cap = self.slots.len() as u64;
        let claim = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(claim % cap) as usize];
        let turn = claim / cap;
        let open = 2 * turn;
        // Acquire pairs with the Release of the previous lap's close,
        // so we observe that lap's payload stores as completed.
        if slot
            .seq
            .compare_exchange(open, open + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        for (word, value) in slot.words.iter().zip(trace.to_words()) {
            word.store(value, Ordering::Relaxed);
        }
        // Release publishes the payload stores before the slot reads
        // as consistent again.
        slot.seq.store(open + 2, Ordering::Release);
        self.published.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Read the slot holding ring position `claim`, if it currently
    /// holds a consistent snapshot of that lap (or a later one — the
    /// freshest consistent payload wins).
    fn read_slot(&self, claim: u64) -> Option<QueryTrace> {
        let cap = self.slots.len() as u64;
        let slot = &self.slots[(claim % cap) as usize];
        // Bounded retries: under a write burst we'd rather skip a
        // trace than spin.
        for _ in 0..4 {
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 {
                return None; // never written
            }
            if before % 2 == 1 {
                continue; // write in progress
            }
            let words: [u64; TRACE_WORDS] =
                std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            // Order the payload loads before the sequence re-check.
            fence(Ordering::Acquire);
            let after = slot.seq.load(Ordering::Relaxed);
            if before == after {
                return Some(QueryTrace::from_words(&words));
            }
        }
        None
    }

    /// The most recent `n` consistent traces, newest first. Slots mid
    /// write (or overwritten while reading) are skipped, never torn.
    pub fn recent(&self, n: usize) -> Vec<QueryTrace> {
        let head = self.head.load(Ordering::Acquire);
        let window = head.min(self.slots.len() as u64);
        let mut out = Vec::with_capacity(n.min(window as usize));
        let mut claim = head;
        while out.len() < n && claim > head - window {
            claim -= 1;
            if let Some(t) = self.read_slot(claim) {
                out.push(t);
            }
        }
        out
    }

    pub fn stats(&self) -> RingStats {
        RingStats {
            capacity: self.slots.len(),
            claims: self.head.load(Ordering::Relaxed),
            published: self.published.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: u64) -> QueryTrace {
        let mut t = QueryTrace {
            id,
            route: id % 4,
            rank: id % 5,
            cache: id % 2,
            index: id % 3,
            merge_depth: 1,
            rows: 10 + id,
            limit: 10,
            total_us: 100 * id + 7,
            ..QueryTrace::default()
        };
        for (i, s) in t.stage_us.iter_mut().enumerate() {
            *s = id + i as u64;
        }
        t.member_rows[0] = id;
        t.member_rows[1] = id * 2;
        t
    }

    #[test]
    fn words_round_trip() {
        for id in [0, 1, 7, 1 << 40] {
            let t = trace(id);
            assert_eq!(QueryTrace::from_words(&t.to_words()), t);
        }
    }

    #[test]
    fn recent_returns_newest_first_and_respects_capacity() {
        let ring = TraceRing::new(4);
        assert!(ring.recent(8).is_empty());
        for id in 0..6 {
            assert!(ring.publish(&trace(id)));
        }
        let got = ring.recent(8);
        let ids: Vec<u64> = got.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![5, 4, 3, 2]);
        assert_eq!(ring.recent(2).len(), 2);
        assert_eq!(ring.recent(2)[0].id, 5);
    }

    #[test]
    fn accounting_claims_equal_published_plus_dropped() {
        let ring = TraceRing::new(2);
        for id in 0..100 {
            ring.publish(&trace(id));
        }
        let s = ring.stats();
        assert_eq!(s.claims, 100);
        assert_eq!(s.published + s.dropped, s.claims);
        assert_eq!(s.dropped, 0, "single-threaded publishes never contend");
    }

    /// A loom-style deterministic interleaving, std-only: a writer is
    /// frozen mid-publish (seq left odd) by driving the slot protocol
    /// by hand; readers must skip the slot and a same-slot claim from
    /// the next lap must drop, not corrupt.
    #[test]
    fn interleaved_half_published_slot_is_invisible_and_drops_contender() {
        let ring = TraceRing::new(1);
        assert!(ring.publish(&trace(1)));
        assert_eq!(ring.recent(1)[0].id, 1);

        // Freeze a lap-1 writer mid-publish: claim ring position 1 and
        // take its seqlock (2 → 3) without completing the payload.
        let claim = ring.head.fetch_add(1, Ordering::Relaxed);
        assert_eq!(claim, 1);
        let slot = &ring.slots[0];
        slot.seq
            .compare_exchange(2, 3, Ordering::Acquire, Ordering::Relaxed)
            .expect("writer takes the slot");
        slot.words[0].store(999, Ordering::Relaxed); // half-written id

        // Reader: the in-progress slot yields nothing — never a torn
        // trace with id 999.
        assert!(ring.recent(4).is_empty());

        // A lap-2 writer mapping to the same slot finds seq != 4: it
        // must drop and account, not spin or overwrite.
        assert!(!ring.publish(&trace(2)));
        let s = ring.stats();
        assert_eq!(s.dropped, 1);
        assert_eq!(s.claims, 3);

        // The frozen writer finishes; its payload becomes visible.
        for (word, value) in slot.words.iter().zip(trace(7).to_words()) {
            word.store(value, Ordering::Relaxed);
        }
        slot.seq.store(4, Ordering::Release);
        ring.published.fetch_add(1, Ordering::Relaxed);
        let got = ring.recent(4);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0], trace(7));
        let s = ring.stats();
        assert_eq!(s.published + s.dropped, s.claims);
    }

    #[test]
    fn concurrent_publishers_and_reader_no_torn_reads_no_drift() {
        use std::sync::atomic::AtomicBool;
        let ring = TraceRing::new(8);
        let stop = AtomicBool::new(false);
        // Set by the reader at its first trace. Every writer waits for
        // it half-way through, so reads overlap writes however the
        // threads are scheduled (a busy two-core host ran all four
        // writers to completion before the reader's first scan).
        let overlapped = AtomicBool::new(false);
        const WRITERS: u64 = 4;
        const PER_WRITER: u64 = 2000;
        std::thread::scope(|scope| {
            for w in 0..WRITERS {
                let (ring, overlapped) = (&ring, &overlapped);
                scope.spawn(move || {
                    for i in 0..PER_WRITER {
                        while i == PER_WRITER / 2 && !overlapped.load(Ordering::Relaxed) {
                            std::thread::yield_now();
                        }
                        ring.publish(&trace(w * PER_WRITER + i));
                    }
                });
            }
            let reader = scope.spawn(|| {
                let mut seen = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    for t in ring.recent(8) {
                        seen += 1;
                        // Torn-read detector: every field of a valid
                        // trace is derived from its id (see `trace`),
                        // so any mixed-lap snapshot fails this check.
                        assert_eq!(t, trace(t.id), "torn read escaped the seqlock");
                    }
                    overlapped.store(seen > 0, Ordering::Relaxed);
                }
                seen
            });
            // Writers finish, then the reader drains once more.
            while ring.stats().claims < WRITERS * PER_WRITER {
                std::hint::spin_loop();
            }
            stop.store(true, Ordering::Relaxed);
            let seen = reader.join().expect("reader");
            assert!(seen > 0, "reader observed traces while writing");
        });
        let s = ring.stats();
        assert_eq!(s.claims, WRITERS * PER_WRITER);
        assert_eq!(
            s.published + s.dropped,
            s.claims,
            "lost-slot accounting drift"
        );
        // Quiesced: the last ring-full of published traces reads clean.
        assert_eq!(ring.recent(8).len() as u64, 8u64.min(s.published));
    }
}
