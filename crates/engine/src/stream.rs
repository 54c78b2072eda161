//! The erased ranked stream every route funnels into.

use crate::plan::Plan;
use crate::rank::Cost;
use anyk_core::slab::AnswerSlab;
use anyk_obs::ObsRegistry;
use std::sync::Arc;

/// One answer from the unified engine: erased cost + output tuple
/// (one [`Value`](anyk_storage::Value) per query variable, in `VarId`
/// order). The core answer type at the erased [`Cost`] — answers cross
/// the engine boundary, the ranked merge and the wire encoder without
/// conversion.
pub type RankedAnswer = anyk_core::RankedAnswer<Cost>;

/// What every route's enumerator is erased into: answers one at a
/// time, or a page of them written as rows of a slab.
pub(crate) trait ErasedStream: Iterator<Item = RankedAnswer> + Send {
    /// Append up to `n` more answers to `page`, in order; returns how
    /// many — fewer than `n` only when the stream is exhausted. This
    /// default takes them from `next`; a lone enumerator writes each
    /// row in place instead.
    fn fill(&mut self, page: &mut AnswerSlab<Cost>, n: usize) -> usize {
        for got in 0..n {
            match self.next() {
                Some(a) => page.push(a.cost, &a.values),
                None => return got,
            }
        }
        n
    }
}

/// The boxed [`ErasedStream`] a [`RankedStream`] drives.
pub(crate) type ErasedAnswers = Box<dyn ErasedStream>;

/// A planner-routed ranked enumeration stream: answers arrive in
/// non-decreasing cost order, one at a time, any `k`, without fixing
/// `k` in advance (the any-k contract, erased over route and ranking).
///
/// The stream is `Send` (its state is heaps/cursors over `Arc`-shared
/// prepared data), so it can be handed to a worker thread; it is *not*
/// `Sync` — for concurrent serving, spawn one stream per thread from a
/// shared [`PreparedQuery`](crate::PreparedQuery).
pub struct RankedStream {
    pub(crate) inner: ErasedAnswers,
    /// Shared with the prepared query that spawned the stream.
    pub(crate) plan: Arc<Plan>,
}

impl std::fmt::Debug for RankedStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankedStream")
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

impl RankedStream {
    /// The plan that produced this stream.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The first `k` answers (fewer if the query has fewer). The
    /// stream advances: a second `top_k(k)` returns the *next* k.
    pub fn top_k(&mut self, k: usize) -> Vec<RankedAnswer> {
        self.next_batch(k)
    }

    /// An empty page for this stream's answers with room for `rows`
    /// of them: what [`fill`](Self::fill) writes into.
    pub fn page(&self, rows: usize) -> AnswerSlab<Cost> {
        AnswerSlab::with_capacity(self.plan.query.num_vars(), rows)
    }

    /// Pull up to `n` more answers into `page` as rows — a cost beside
    /// one value per query variable — without a vector per answer.
    /// Returns how many were appended; fewer than `n` means the stream
    /// is exhausted. Same answers, same order as [`Iterator::next`].
    ///
    /// # Panics
    ///
    /// If `page` is not a page of this stream's width
    /// ([`page`](Self::page) makes one).
    pub fn fill(&mut self, page: &mut AnswerSlab<Cost>, n: usize) -> usize {
        assert_eq!(
            page.arity(),
            self.plan.query.num_vars(),
            "a page holds one value per query variable"
        );
        self.inner.fill(page, n)
    }

    /// Pull up to `n` more answers.
    pub fn next_batch(&mut self, n: usize) -> Vec<RankedAnswer> {
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            match self.inner.next() {
                Some(a) => out.push(a),
                None => break,
            }
        }
        out
    }
}

impl Iterator for RankedStream {
    type Item = RankedAnswer;

    fn next(&mut self) -> Option<RankedAnswer> {
        self.inner.next()
    }
}

impl anyk_core::AnyK for RankedStream {
    type Cost = Cost;
}

/// Sample the inter-answer delay once per this many pulls: the
/// sampler reads the clock only at window edges, so per-answer
/// instrumentation cost is one increment and one branch.
pub(crate) const SAMPLE_EVERY: u64 = 16;

/// The per-pull delay sampler wrapped around an instrumented stream:
/// every [`SAMPLE_EVERY`]th pull it records the window's mean
/// per-answer delay into the registry's delay histogram.
struct SampledPulls {
    inner: ErasedAnswers,
    obs: Arc<ObsRegistry>,
    pulls: u64,
    window_start_us: u64,
}

impl SampledPulls {
    /// Count `pulled` answers; they never cross a window edge.
    fn pulled(&mut self, pulled: u64) {
        self.pulls += pulled;
        if pulled > 0 && self.pulls.is_multiple_of(SAMPLE_EVERY) {
            let now = self.obs.now_us();
            let window = now.saturating_sub(self.window_start_us);
            self.obs.record_delay(window / SAMPLE_EVERY);
            self.window_start_us = now;
        }
    }
}

impl Iterator for SampledPulls {
    type Item = RankedAnswer;

    fn next(&mut self) -> Option<RankedAnswer> {
        let item = self.inner.next();
        self.pulled(u64::from(item.is_some()));
        item
    }
}

impl ErasedStream for SampledPulls {
    /// The inner stream's `fill`, one sampling window at a time.
    fn fill(&mut self, page: &mut AnswerSlab<Cost>, n: usize) -> usize {
        let mut got = 0;
        while got < n {
            let to_edge = SAMPLE_EVERY - self.pulls % SAMPLE_EVERY;
            let want = (n - got).min(to_edge as usize);
            let pulled = self.inner.fill(page, want);
            self.pulled(pulled as u64);
            got += pulled;
            if pulled < want {
                break;
            }
        }
        got
    }
}

impl RankedStream {
    /// Wrap this stream with the registry's per-pull delay sampler —
    /// or return it untouched when `obs` is not recording. Answers and
    /// order are untouched; only timing is observed. The engine
    /// applies this automatically on its own streaming paths; it is
    /// public for callers assembling streams from
    /// [`PreparedQuery::stream_traced`](crate::PreparedQuery::stream_traced).
    pub fn sampled(self, obs: &Arc<ObsRegistry>) -> RankedStream {
        if !obs.enabled() {
            return self;
        }
        RankedStream {
            inner: Box::new(SampledPulls {
                inner: self.inner,
                obs: Arc::clone(obs),
                pulls: 0,
                window_start_us: obs.now_us(),
            }),
            plan: self.plan,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{AnyKVariant, IndexUse, Plan, Route};
    use crate::rank::RankSpec;
    use anyk_query::cq::triangle_query;
    use anyk_storage::{Value, Weight};

    struct Canned(std::vec::IntoIter<f64>);

    impl Iterator for Canned {
        type Item = RankedAnswer;

        fn next(&mut self) -> Option<RankedAnswer> {
            self.0.next().map(|c| RankedAnswer {
                cost: Cost::Scalar(Weight::new(c)),
                values: vec![Value::Int(1)],
            })
        }
    }

    impl ErasedStream for Canned {}

    fn dummy_stream(costs: Vec<f64>) -> RankedStream {
        RankedStream {
            inner: Box::new(Canned(costs.into_iter())),
            plan: Arc::new(Plan {
                query: triangle_query(),
                route: Route::Triangle,
                rank: RankSpec::Sum,
                variant: Some(AnyKVariant::default()),
                width: 1.5,
                index: IndexUse::Built,
                deltas: 0,
            }),
        }
    }

    #[test]
    fn batching_advances() {
        let mut s = dummy_stream(vec![1.0, 2.0, 3.0]);
        assert_eq!(s.plan().route.label(), "triangle");
        let first = s.top_k(2);
        assert_eq!(first.len(), 2);
        assert_eq!(first[0].cost.scalar(), Some(1.0));
        assert_eq!(first[0].ints(), vec![1]);
        let rest = s.next_batch(5);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].cost.scalar(), Some(3.0));
        assert!(s.next_batch(1).is_empty());
    }

    #[test]
    fn iterator_contract() {
        let s = dummy_stream(vec![0.5, 0.25]);
        let all: Vec<_> = s.collect();
        assert_eq!(all.len(), 2);
    }
}
