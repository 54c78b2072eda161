//! Fan-in glue around the one ranked merge ([`anyk_core::RankedMerge`]):
//! every union a [`PreparedQuery`](crate::PreparedQuery) can hold —
//! shard parts, delta terms, or shards × terms flattened together —
//! streams through [`merge_leaves`], which feeds the leaves to a single
//! tournament tree and keeps per-member telemetry ([`ShardFanIn`]).
//!
//! The merge wraps each leaf in [`CanonicalOrder`] (equal-cost runs
//! re-emitted sorted by output tuple — lookahead bounded by the largest
//! tie group) and breaks cost ties by (output tuple, leaf index).
//! Because all query variables are output variables and the leaves
//! partition the answer multiset, equal tuples are interchangeable — so
//! the merged stream is the *canonical* ranked stream: byte-identical
//! to a single engine's canonical form no matter how many leaves
//! produced it ([`RankedStream::canonical_ties`]).

use crate::rank::Cost;
use crate::stream::{ErasedAnswers, ErasedStream, RankedAnswer, RankedStream};
use anyk_core::{AnyK, CanonicalOrder, RankedMerge};
use anyk_obs::Clock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Live fan-in telemetry for one merged stream: how many rows each
/// top-level member (shard) fed the tournament merge, the merge tree's
/// depth (the per-answer comparison cost is one root-to-leaf replay),
/// and — when recording is enabled — the wall time of the priming
/// round.
#[derive(Debug)]
pub struct ShardFanIn {
    rows: Vec<AtomicU64>,
    depth: u32,
    merge_us: AtomicU64,
}

impl ShardFanIn {
    fn new(members: usize, leaves: usize) -> ShardFanIn {
        ShardFanIn {
            rows: (0..members).map(|_| AtomicU64::new(0)).collect(),
            depth: if leaves <= 1 {
                0
            } else {
                (leaves - 1).ilog2() + 1
            },
            merge_us: AtomicU64::new(0),
        }
    }

    /// Rows pulled from each member so far, read as they stand (a
    /// shard's delta terms count towards the shard). Includes each
    /// leaf's buffered head and its tie-run lookahead, so the sum can
    /// exceed the answers emitted.
    pub fn rows(&self) -> impl Iterator<Item = u64> + '_ {
        self.rows.iter().map(|r| r.load(Ordering::Relaxed))
    }

    /// Number of top-level members feeding the merge: the shards of a
    /// sharded prepare, or the delta terms of a one-engine union.
    pub fn shards(&self) -> usize {
        self.rows.len()
    }

    /// Tournament-tree depth: ⌈log₂ leaves⌉ over the flattened
    /// (shards × delta terms) leaves; 0 for a single leaf.
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Wall time of the merge's priming round, µs: the first head (and
    /// tie run) of every leaf plus the tree build — where lazy-heap
    /// builds of materialized leaves land. 0 until the first pull, and
    /// when recording is disabled. Per-answer replays are not timed
    /// (that would be a clock read per answer); they stay in the pull
    /// stage.
    pub fn merge_us(&self) -> u64 {
        self.merge_us.load(Ordering::Relaxed)
    }
}

/// One leaf of the merge: credits every answer it hands over to its
/// top-level member's row count.
struct Counted {
    inner: ErasedAnswers,
    fan_in: Arc<ShardFanIn>,
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
    fan_in: Arc<ShardFanIn>,
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

/// Merge `leaves` — `(top-level member, stream)` pairs that partition
/// the answer multiset — into one canonical ranked stream over a single
/// tournament tree. Spawning is shell-only: no leaf is pulled until the
/// first `next()`. With a `clock`, the priming round's wall time lands
/// in the returned handle's [`ShardFanIn::merge_us`].
pub(crate) fn merge_leaves(
    leaves: Vec<(usize, ErasedAnswers)>,
    members: usize,
    clock: Option<Arc<dyn Clock>>,
) -> (ErasedAnswers, Arc<ShardFanIn>) {
    let fan_in = Arc::new(ShardFanIn::new(members, leaves.len()));
    let streams = leaves
        .into_iter()
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
    /// A merged stream (sharded or delta-backed) is *already*
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
