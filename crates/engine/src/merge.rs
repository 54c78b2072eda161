//! Fan-in glue around the one ranked merge ([`anyk_core::RankedMerge`]):
//! every union a [`PreparedQuery`](crate::PreparedQuery) can hold —
//! the delta terms of a delta-backed prepare, or the parts of a
//! [`ShardedEngine`](crate::ShardedEngine) partition — streams through
//! [`merge_members`], which feeds the members to a single tournament
//! tree and keeps per-member telemetry ([`MergeFanIn`]).
//!
//! The merge wraps each member in [`CanonicalOrder`] (equal-cost runs
//! re-emitted sorted by output tuple — lookahead bounded by the largest
//! tie group) and breaks cost ties by (output tuple, member index).
//! Because all query variables are output variables and the members
//! partition the answer multiset, equal tuples are interchangeable — so
//! the merged stream is the *canonical* ranked stream: byte-identical
//! to a single engine's canonical form no matter how many members
//! produced it ([`RankedStream::canonical_ties`]).

use crate::rank::Cost;
use crate::stream::{ErasedAnswers, ErasedStream, RankedAnswer, RankedStream};
use anyk_core::{AnyK, CanonicalOrder, RankedMerge};
use anyk_obs::Clock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Live fan-in telemetry for one merged stream: how many rows each
/// member (a delta term) fed the tournament merge, the merge tree's
/// depth (the per-answer comparison cost is one root-to-leaf replay),
/// and — when recording is enabled — the wall time of the priming
/// round.
#[derive(Debug)]
pub struct MergeFanIn {
    rows: Vec<AtomicU64>,
    depth: u32,
    merge_us: AtomicU64,
}

impl MergeFanIn {
    fn new(members: usize) -> MergeFanIn {
        MergeFanIn {
            rows: (0..members).map(|_| AtomicU64::new(0)).collect(),
            depth: if members <= 1 {
                0
            } else {
                (members - 1).ilog2() + 1
            },
            merge_us: AtomicU64::new(0),
        }
    }

    /// Rows pulled from each member so far, read as they stand.
    /// Includes each member's buffered head and its tie-run lookahead,
    /// so the sum can exceed the answers emitted.
    pub fn rows(&self) -> impl Iterator<Item = u64> + '_ {
        self.rows.iter().map(|r| r.load(Ordering::Relaxed))
    }

    /// Number of members feeding the merge: the delta terms of a
    /// delta-backed prepare, or the parts of a sharded one.
    pub fn members(&self) -> usize {
        self.rows.len()
    }

    /// Tournament-tree depth: ⌈log₂ members⌉; 0 for a single member.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Wall time of the merge's priming round, µs: the first head (and
    /// tie run) of every member plus the tree build — where lazy-heap
    /// builds of materialized leaves land. 0 until the first pull, and
    /// when recording is disabled. Per-answer replays are not timed
    /// (that would be a clock read per answer); they stay in the pull
    /// stage.
    pub fn merge_us(&self) -> u64 {
        self.merge_us.load(Ordering::Relaxed)
    }
}

/// One member of the merge: credits every answer it hands over to its
/// row count.
struct Counted {
    inner: ErasedAnswers,
    fan_in: Arc<MergeFanIn>,
    member: usize,
}

impl Iterator for Counted {
    type Item = RankedAnswer;

    fn next(&mut self) -> Option<RankedAnswer> {
        let a = self.inner.next()?;
        self.fan_in.rows[self.member].fetch_add(1, Ordering::Relaxed);
        Some(a)
    }
}

impl AnyK for Counted {
    type Cost = Cost;
}

/// The merged cursor: [`RankedMerge`] plus the one-shot priming timer.
struct Merged {
    merge: RankedMerge<Counted>,
    fan_in: Arc<MergeFanIn>,
    /// `Some` until the first pull when recording is enabled.
    clock: Option<Arc<dyn Clock>>,
}

impl Iterator for Merged {
    type Item = RankedAnswer;

    fn next(&mut self) -> Option<RankedAnswer> {
        if let Some(clock) = self.clock.take() {
            let t0 = clock.now_us();
            self.merge.prime();
            self.fan_in
                .merge_us
                .store(clock.now_us().saturating_sub(t0), Ordering::Relaxed);
        }
        self.merge.next()
    }
}

/// A merge holds its leaves' head answers, so its pages are taken from
/// `next`.
impl ErasedStream for Merged {}

/// Merge `members` — streams that partition the answer multiset — into
/// one canonical ranked stream over a single tournament tree. Spawning
/// is shell-only: no member is pulled until the first `next()`. With a
/// `clock`, the priming round's wall time lands in the returned
/// handle's [`MergeFanIn::merge_us`].
pub(crate) fn merge_members(
    members: Vec<ErasedAnswers>,
    clock: Option<Arc<dyn Clock>>,
) -> (ErasedAnswers, Arc<MergeFanIn>) {
    let fan_in = Arc::new(MergeFanIn::new(members.len()));
    let streams = members
        .into_iter()
        .enumerate()
        .map(|(member, inner)| Counted {
            inner,
            fan_in: Arc::clone(&fan_in),
            member,
        })
        .collect();
    let merged = Merged {
        merge: RankedMerge::new(streams),
        fan_in: Arc::clone(&fan_in),
        clock,
    };
    (Box::new(merged), fan_in)
}

impl RankedStream {
    /// Re-emit this stream with equal-cost tie groups in the canonical
    /// order (sorted by output tuple). Costs and the answer multiset
    /// are untouched; lookahead is bounded by the largest tie group.
    /// A merged stream (delta-backed or sharded) is *already*
    /// canonical — this adapter puts a single-engine stream into the
    /// same total order, making the two byte-comparable.
    pub fn canonical_ties(self) -> RankedStream {
        RankedStream {
            inner: Box::new(CanonicalOrder::new(self.inner)),
            plan: self.plan,
        }
    }
}

/// Tie runs are buffered as answers, so pages are taken from `next`.
impl ErasedStream for CanonicalOrder<Cost, ErasedAnswers> {}
