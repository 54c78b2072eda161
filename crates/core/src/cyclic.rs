//! Ranked enumeration for **cyclic** queries (§3 + §4): decompose, run
//! T-DP per tree, merge ranked streams.
//!
//! * Triangle: fractional hypertree width 1.5 — materialize all
//!   triangles with Generic-Join in O~(n^1.5) (worst-case optimal)
//!   into one [`AnswerSlab`], then rank row ids lazily
//!   ([`LazySortedAnswers`]): the slab is the only copy of the answers,
//!   shared by the first stream's id heap and by the sorted id column
//!   that replaces it; a row is copied out when a stream emits it.
//! * Everything else is a **union of T-DP trees** ([`Trees`]): a list
//!   of acyclic cases ([`anyk_join::cases`]) with disjoint answers, one
//!   [`TdpInstance`] per case, one plain [`AnyKPart`] / [`AnyKRec`] per
//!   instance, merged by a [`RankedUnion`]. A simple ℓ-cycle's
//!   submodular-width case split ([`cycle_trees`]) gives many trees for
//!   preprocessing O~(n^(2−1/⌈ℓ/2⌉)) and delay O~(1) — O~(n^1.5) at
//!   ℓ = 4: for small `k`, the k lightest 4-cycles cost about as much
//!   as the Boolean query, the paper's §1 headline; a tree
//!   decomposition ([`crate::decomposed::ghd_trees`]) gives one tree at
//!   O~(n^fhw).
//!
//! Ranking functions must be **commutative** here (sum/max/min/prod):
//! the per-case queries serialize the original atoms in different
//! orders, so order-sensitive rankings (lexicographic) are not
//! well-defined across cases. Order-sensitive rankings *are* served on
//! cyclic queries one level up: the engine routes them to the
//! materialized artifact ([`wco_ranked_materialize`] combines weights
//! in canonical atom order, which is well-defined for any ranking).

use crate::answer::{AnyK, RankedAnswer};
use crate::part::AnyKPart;
use crate::ranking::RankingFunction;
use crate::rec::AnyKRec;
use crate::slab::{AnswerSlab, SlabHeap};
use crate::succorder::SuccessorKind;
use crate::tdp::{TdpError, TdpInstance};
use crate::union::RankedUnion;
use anyk_join::cases::TreeCase;
use anyk_join::cycle::cycle_cases_provider;
use anyk_join::generic_join::generic_join_with;
use anyk_query::cq::{triangle_query, ConjunctiveQuery};
use anyk_storage::{BuildEachTime, IndexProvider, Relation, Value};
use std::ops::{ControlFlow, Range};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};

/// Materialize every answer of `q` worst-case-optimally (Generic-Join)
/// with its cost under `R`, combining tuple weights in **atom order** —
/// well-defined for the commutative rankings the cyclic routes accept.
/// This is both the triangle plan's materialization step and the
/// materialize-then-sort batch baseline for cyclic routes. Answers land
/// in the slab in the join's emission order.
pub fn wco_ranked_materialize<R: RankingFunction>(
    q: &ConjunctiveQuery,
    rels: &[Relation],
) -> AnswerSlab<R::Cost> {
    wco_ranked_materialize_with::<R>(q, rels, &BuildEachTime)
}

/// [`wco_ranked_materialize`] with trie construction delegated to a
/// shared [`IndexProvider`] — a warm index catalog turns the
/// materialization's index-build phase into lookups.
pub fn wco_ranked_materialize_with<R: RankingFunction>(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    indexes: &dyn IndexProvider,
) -> AnswerSlab<R::Cost> {
    let mut slab = AnswerSlab::new(q.num_vars());
    generic_join_with(q, rels, None, indexes, &mut |binding, rows| {
        let mut cost = R::identity();
        for (a, &r) in rows.iter().enumerate() {
            cost = R::combine(&cost, &R::lift(rels[a].weight(r)));
        }
        slab.push(cost, binding);
        ControlFlow::Continue(())
    });
    slab
}

/// Ranked enumeration of triangles: Generic-Join materialization (the
/// width-1.5 single bag) + lazy heap ranking — the first stream of
/// [`prepare_triangle`].
///
/// # Panics
///
/// If there are more than 2³² triangles — use [`prepare_triangle`] for
/// the typed error.
pub fn triangle_ranked<R: RankingFunction>(rels: &[Relation]) -> LazySortedStream<R::Cost> {
    prepare_triangle::<R>(rels)
        .unwrap_or_else(|e| panic!("triangle materialization failed: {e:?}; use prepare_triangle"))
        .stream()
}

/// A ranked answer set **sorted once and shared**: the prepared form of
/// every materialize-then-sort plan (the triangle route, and the batch
/// baseline on cyclic routes). Construction pays the `O(r log r)` sort
/// of a row-id column over the slab; each [`SortedAnswers::stream`] is
/// then a cursor over the shared `Arc`s — any number of streams, on any
/// thread, in any order — that copies a row out when it emits it.
#[derive(Debug, Clone)]
pub struct SortedAnswers<C> {
    slab: Arc<AnswerSlab<C>>,
    /// The slab's row ids in `(cost, values)` order — a deterministic
    /// total order, so concurrent streams are byte-identical even among
    /// cost ties.
    order: Arc<[u32]>,
}

impl<C: Ord + Clone + std::fmt::Debug> SortedAnswers<C> {
    /// Sort the slab's row ids into the shared prepared form.
    /// [`TdpError::TooLarge`](crate::tdp::TdpError) past 2³² answers.
    pub fn new(mut slab: AnswerSlab<C>) -> Result<Self, crate::tdp::TdpError> {
        let order = slab.sorted(slab.row_ids()?);
        slab.shrink_to_fit();
        Ok(SortedAnswers {
            slab: Arc::new(slab),
            order: order.into(),
        })
    }

    /// Total number of answers.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True iff the query has no answers.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// A fresh independent cursor over the shared sorted answers.
    pub fn stream(&self) -> SortedStream<C> {
        SortedStream {
            answers: self.clone(),
            pos: 0,
        }
    }
}

/// An independent cursor over a [`SortedAnswers`] instance.
pub struct SortedStream<C> {
    answers: SortedAnswers<C>,
    pos: usize,
}

impl<C> SortedStream<C> {
    /// The slab row the cursor stands on, stepping past it.
    #[inline]
    fn next_row(&mut self) -> Option<usize> {
        let &row = self.answers.order.get(self.pos)?;
        self.pos += 1;
        Some(row as usize)
    }
}

impl<C: Ord + Clone + std::fmt::Debug> Iterator for SortedStream<C> {
    type Item = RankedAnswer<C>;

    fn next(&mut self) -> Option<Self::Item> {
        let row = self.next_row()?;
        Some(self.answers.slab.answer(row))
    }
}

impl<C: Ord + Clone + std::fmt::Debug + Send + Sync> AnyK for SortedStream<C> {
    type Cost = C;

    fn next_into(&mut self, out: &mut [Value]) -> Option<C> {
        let row = self.next_row()?;
        Some(self.answers.slab.copy_row(row, out))
    }
}

/// A materialized answer set whose `O(r log r)` sort is **deferred**:
/// the prepared form of the triangle route.
///
/// Construction stores the worst-case-optimally materialized slab
/// unsorted (the row count is checked and the slab's growth slack
/// given back; no answer is touched). The
/// **first** stream runs a lazy binary heap of row ids over it — `O(r)`
/// heapify + `O(log r)` per pop, so a one-shot top-k caller pays
/// `O(r + k log r)` instead of the full sort. The shared sorted id
/// column is installed *background-free* the moment it pays for itself:
///
/// * when the first stream **exhausts**, its emission order *is* the
///   sorted order, so the column is installed without any extra sort;
/// * when a **second stream spawns** while the answers are still
///   unsorted, the spawn pays the one-time sort and every stream from
///   then on is a cursor.
///
/// Both the heap and the sort order row ids by `(cost, values)` through
/// the one shared slab, so all streams — lazy first stream included —
/// are byte-identical, ties and all, and no upgrade copies an answer.
/// Whichever fills the column first — a second spawn's sort or the
/// first stream's emission order — fills it for all; the other finds
/// it filled. `Clone + Send + Sync`: clones share the state, any
/// thread may spawn streams.
#[derive(Debug, Clone)]
pub struct LazySortedAnswers<C> {
    slab: Arc<AnswerSlab<C>>,
    /// The slab's row ids, checked once at construction.
    ids: Range<u32>,
    /// Whether the lazy-heap first stream is out (the next spawn, while
    /// `order` is empty, pays the sort).
    first_spawned: Arc<AtomicBool>,
    /// The shared sorted id column: the slab's row ids in `(cost,
    /// values)` order, filled once.
    order: Arc<OnceLock<Arc<[u32]>>>,
}

impl<C: Ord + Clone + std::fmt::Debug> LazySortedAnswers<C> {
    /// Hold a materialized slab without sorting it.
    /// [`TdpError::TooLarge`](crate::tdp::TdpError) past 2³² answers:
    /// the streams order 32-bit row ids, and a count that does not fit
    /// is refused here rather than truncated there.
    pub fn new(mut slab: AnswerSlab<C>) -> Result<Self, crate::tdp::TdpError> {
        slab.shrink_to_fit();
        Ok(LazySortedAnswers {
            ids: slab.row_ids()?,
            slab: Arc::new(slab),
            first_spawned: Arc::default(),
            order: Arc::default(),
        })
    }

    /// These answers followed by `more`'s, as a fresh artifact whose
    /// sort is deferred again — what a refresh after an append installs
    /// instead of materializing the whole set again: joins are
    /// multilinear, so the answers a batch adds are the join over that
    /// batch alone. `self` is untouched; its streams, open or yet to
    /// spawn, keep the slab they have. Heap and sort order rows by
    /// `(cost, values)`, total up to exact duplicates, so the result
    /// streams byte for byte what one materialization over the
    /// concatenated inputs streams, whatever state `self` was in.
    /// [`TdpError::TooLarge`] when the sum passes 2³² answers.
    pub fn extend(&self, more: &Self) -> Result<Self, TdpError> {
        let mut slab = AnswerSlab::clone(&self.slab);
        slab.extend(&more.slab);
        LazySortedAnswers::new(slab)
    }

    /// Total number of answers.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// True iff the query has no answers.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// True once the shared sorted artifact has been installed (i.e.
    /// the deferred sort has been paid — by a second stream spawn or a
    /// first-stream exhaustion). Laziness diagnostic: a prepared
    /// triangle that has only served one partial top-k stream must
    /// still report `false`.
    pub fn is_sorted(&self) -> bool {
        self.order.get().is_some()
    }

    /// The shared sorted artifact, its id column filled by `order`
    /// unless it already is.
    fn sorted(&self, order: impl FnOnce() -> Vec<u32>) -> SortedAnswers<C> {
        SortedAnswers {
            slab: Arc::clone(&self.slab),
            order: Arc::clone(self.order.get_or_init(|| order().into())),
        }
    }

    /// Spawn a ranked stream. The first spawn is the lazy heap; later
    /// spawns upgrade to (or reuse) the shared sorted artifact.
    pub fn stream(&self) -> LazySortedStream<C> {
        let inner = if self.is_sorted() || self.first_spawned.swap(true, AtomicOrdering::AcqRel) {
            // A cursor; a second spawn while unsorted pays the sort.
            LazyInner::Cursor(self.sorted(|| self.slab.sorted(self.ids.clone())).stream())
        } else {
            LazyInner::Heap {
                heap: SlabHeap::new(&self.slab, self.ids.clone()),
                emitted: Vec::new(),
                answers: self.clone(),
            }
        };
        LazySortedStream { inner }
    }
}

/// A stream off a [`LazySortedAnswers`]: either the lazy-heap first
/// stream (which installs the sorted artifact when it exhausts) or a
/// cursor over the installed [`SortedAnswers`].
pub struct LazySortedStream<C: Ord> {
    inner: LazyInner<C>,
}

enum LazyInner<C: Ord> {
    Heap {
        /// Row ids ordered by `(cost, values)` through `answers.slab` —
        /// exactly the order [`SortedAnswers`] sorts by, so heap
        /// emission matches the cursors' order, ties included.
        heap: SlabHeap,
        /// Row ids in emission = sorted order: on exhaustion this *is*
        /// the sorted artifact's id column (no re-sort, no copies).
        /// Abandoned (and freed) as soon as `answers.order` is filled
        /// by a concurrent spawn.
        emitted: Vec<u32>,
        answers: LazySortedAnswers<C>,
    },
    Cursor(SortedStream<C>),
}

impl<C: Ord + Clone + std::fmt::Debug> LazySortedStream<C> {
    /// The slab every row id of this stream refers to.
    fn slab(&self) -> &AnswerSlab<C> {
        match &self.inner {
            LazyInner::Heap { answers, .. } => &answers.slab,
            LazyInner::Cursor(c) => &c.answers.slab,
        }
    }

    /// The slab row of the next answer in `(cost, values)` order.
    #[inline]
    fn next_row(&mut self) -> Option<usize> {
        let (heap, emitted, answers) = match &mut self.inner {
            LazyInner::Cursor(c) => return c.next_row(),
            LazyInner::Heap {
                heap,
                emitted,
                answers,
            } => (heap, emitted, answers),
        };
        if let Some(row) = heap.pop(&answers.slab) {
            if answers.is_sorted() {
                // A sibling spawn already installed the sorted
                // artifact: the buffer can never be used — free it and
                // stop accumulating.
                if !emitted.is_empty() {
                    *emitted = Vec::new();
                }
            } else {
                emitted.push(row);
            }
            return Some(row as usize);
        }
        // Exhausted: the emission order is the sorted order — fill the
        // column with it, no extra sort (unless a concurrent second
        // spawn already filled it; the buffer is partial in that case,
        // and goes unread).
        let done = answers.sorted(|| std::mem::take(emitted));
        // Degrade to an exhausted cursor so repeated `next()` calls
        // stay cheap and re-install nothing.
        let pos = done.len();
        self.inner = LazyInner::Cursor(SortedStream { answers: done, pos });
        None
    }
}

impl<C: Ord + Clone + std::fmt::Debug> Iterator for LazySortedStream<C> {
    type Item = RankedAnswer<C>;

    fn next(&mut self) -> Option<Self::Item> {
        let row = self.next_row()?;
        Some(self.slab().answer(row))
    }
}

impl<C: Ord + Clone + std::fmt::Debug + Send + Sync> AnyK for LazySortedStream<C> {
    type Cost = C;

    fn next_into(&mut self, out: &mut [Value]) -> Option<C> {
        let row = self.next_row()?;
        Some(self.slab().copy_row(row, out))
    }
}

/// The prepared triangle plan: all triangles materialized
/// worst-case-optimally, the sort deferred ([`LazySortedAnswers`]) —
/// a one-shot top-k first stream pays `O(r + k log r)`, repeated
/// streams share the sorted artifact installed on upgrade.
pub fn prepare_triangle<R: RankingFunction>(
    rels: &[Relation],
) -> Result<LazySortedAnswers<R::Cost>, crate::tdp::TdpError> {
    prepare_triangle_with::<R>(rels, &BuildEachTime)
}

/// [`prepare_triangle`] with trie construction delegated to a shared
/// [`IndexProvider`].
pub fn prepare_triangle_with<R: RankingFunction>(
    rels: &[Relation],
    indexes: &dyn IndexProvider,
) -> Result<LazySortedAnswers<R::Cost>, crate::tdp::TdpError> {
    assert_eq!(rels.len(), 3);
    LazySortedAnswers::new(wco_ranked_materialize_with::<R>(
        &triangle_query(),
        rels,
        indexes,
    ))
}

/// The prepared form of every any-k plan: the T-DP instances of a
/// union of trees — one for an acyclic query or a GHD plan, one per
/// case of a cycle's split — each behind an `Arc`, so any number of
/// ranked streams (PART or REC, on any thread) enumerate from one
/// preprocessing pass. Every instance writes the original query's
/// output columns itself ([`TdpInstance::prepare_case`]), so a stream
/// over the union is a plain [`RankedUnion`] of plain enumerators.
/// The list is shared too: a clone is one reference count.
#[derive(Clone)]
pub struct Trees<R: RankingFunction>(Arc<[Arc<TdpInstance<R>>]>);

/// The union of one tree: an acyclic query's own instance.
impl<R: RankingFunction> From<TdpInstance<R>> for Trees<R> {
    fn from(tree: TdpInstance<R>) -> Self {
        Trees([Arc::new(tree)].into())
    }
}

impl<R: RankingFunction> Trees<R> {
    /// Run T-DP preprocessing once per case. The cases' answer sets
    /// must be disjoint: the union does not de-duplicate.
    pub fn prepare(cases: Vec<TreeCase>) -> Result<Self, TdpError> {
        (cases.into_iter())
            .map(|case| TdpInstance::prepare_case(case).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()
            .map(|trees| Trees(trees.into()))
    }

    /// The prepared trees, in case order.
    pub fn trees(&self) -> &[Arc<TdpInstance<R>>] {
        &self.0
    }

    /// A lone tree with an open root, `batch`'s rows added at it
    /// ([`TdpInstance::extend_root`]); `None` for any other union.
    pub fn extend_root(&self, batch: &Relation) -> Option<Result<Self, TdpError>> {
        match self.trees() {
            [tree] if tree.has_open_root() => Some(tree.extend_root(batch).map(Trees::from)),
            _ => None,
        }
    }

    /// A fresh ranked stream driven by ANYK-PART with successor order
    /// `kind`, enumerating from the shared prepared trees.
    pub fn part(&self, kind: SuccessorKind) -> RankedUnion<AnyKPart<R>> {
        let trees = self.0.iter();
        RankedUnion::new(trees.map(|t| AnyKPart::new(Arc::clone(t), kind)).collect())
    }

    /// A fresh ranked stream driven by ANYK-REC.
    pub fn rec(&self) -> RankedUnion<AnyKRec<R>> {
        let trees = self.0.iter();
        RankedUnion::new(trees.map(|t| AnyKRec::new(Arc::clone(t))).collect())
    }
}

/// The ℓ-cycle's submodular-width union-of-trees plan, prepared: the
/// case split of [`anyk_join::cycle`] over `rels = [R1, …, Rℓ]` at heavy
/// cutoff `threshold` (see
/// [`anyk_query::cycles::cycle_heavy_threshold`]), tries resolved
/// through `indexes`, T-DP run once per case. Output variables are
/// `(x1, …, xℓ)`; cost = ranking over all ℓ edge weights. The
/// light-light case merges pre-joined edge weights under `R`'s
/// weight-level `⊗`, so any scalar ranking ranks correctly; rankings
/// without one (lexicographic) get
/// [`TdpError::NonCollapsibleRanking`].
pub fn cycle_trees<R: RankingFunction>(
    rels: &[Relation],
    threshold: usize,
    indexes: &dyn IndexProvider,
) -> Result<Trees<R>, TdpError> {
    let dioid = R::weight_dioid().ok_or(TdpError::NonCollapsibleRanking)?;
    let cases = cycle_cases_provider(rels, threshold, dioid.combine, indexes);
    Trees::prepare(cases)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::{MaxCost, SumCost};
    use anyk_join::generic_join::generic_join_materialize;
    use anyk_query::cq::cycle_query;
    use anyk_storage::{RelationBuilder, Schema};

    fn edge_rel(rows: &[(i64, i64, f64)]) -> Relation {
        let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
        for &(x, y, w) in rows {
            b.push_ints(&[x, y], w);
        }
        b.finish()
    }

    /// Oracle: all 4-cycle answers with summed costs via Generic-Join.
    fn oracle_sorted(rels: &[Relation]) -> Vec<(f64, Vec<i64>)> {
        let q = cycle_query(4);
        let (res, _) = generic_join_materialize(&q, rels, None);
        let mut out: Vec<(f64, Vec<i64>)> = (0..res.len() as u32)
            .map(|i| {
                (
                    res.weight(i).get(),
                    res.row(i).iter().map(|v| v.int()).collect(),
                )
            })
            .collect();
        out.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        out
    }

    fn c4<R: RankingFunction>(rels: &[Relation], thr: usize) -> Trees<R> {
        cycle_trees(rels, thr, &BuildEachTime).unwrap()
    }

    fn run_part(rels: &[Relation], thr: usize, kind: SuccessorKind) -> Vec<(f64, Vec<i64>)> {
        c4::<SumCost>(rels, thr)
            .part(kind)
            .map(|a| {
                (
                    a.cost.get(),
                    a.values.iter().map(|v| v.int()).collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    fn check_instance(rows: &[(i64, i64, f64)], thresholds: &[usize]) {
        let e = edge_rel(rows);
        let rels = vec![e.clone(), e.clone(), e.clone(), e];
        let oracle = oracle_sorted(&rels);
        for &thr in thresholds {
            for kind in [SuccessorKind::Lazy, SuccessorKind::Take2] {
                let mut got = run_part(&rels, thr, kind);
                // Multiset equality + non-decreasing costs.
                assert!(
                    got.windows(2).all(|w| w[0].0 <= w[1].0),
                    "not sorted (thr {thr})"
                );
                got.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
                assert_eq!(got, oracle, "thr {thr} kind {kind:?}");
            }
            // REC engine too.
            let mut got: Vec<(f64, Vec<i64>)> = c4::<SumCost>(&rels, thr)
                .rec()
                .map(|a| {
                    (
                        a.cost.get(),
                        a.values.iter().map(|v| v.int()).collect::<Vec<_>>(),
                    )
                })
                .collect();
            assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
            got.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
            assert_eq!(got, oracle, "rec thr {thr}");
        }
    }

    #[test]
    fn small_cycle() {
        check_instance(
            &[(1, 2, 0.5), (2, 3, 1.0), (3, 4, 0.25), (4, 1, 2.0)],
            &[0, 1, 100],
        );
    }

    #[test]
    fn hub_instance() {
        // Dyadic weights: the case plans combine the four edge weights
        // in a different order than the Generic-Join oracle, so weights
        // must be exactly summable for bitwise cost comparison.
        let mut rows = Vec::new();
        for i in 2..8 {
            rows.push((1, i, 0.25 * i as f64));
            rows.push((i, 1, 0.125 * i as f64));
        }
        check_instance(&rows, &[0, 2, 3, 100]);
    }

    #[test]
    fn bidirectional_pairs() {
        check_instance(
            &[
                (1, 2, 1.0),
                (2, 1, 0.5),
                (2, 3, 0.25),
                (3, 2, 2.0),
                (1, 3, 0.125),
                (3, 1, 4.0),
            ],
            &[0, 1, 2, 100],
        );
    }

    #[test]
    fn triangle_ranked_matches_sorted_gj() {
        let e = edge_rel(&[
            (1, 2, 0.5),
            (2, 3, 1.0),
            (3, 1, 0.25),
            (2, 1, 2.0),
            (1, 3, 0.125),
            (3, 2, 0.75),
        ]);
        let rels = vec![e.clone(), e.clone(), e];
        let q = triangle_query();
        let (res, _) = generic_join_materialize(&q, &rels, None);
        let mut expect: Vec<f64> = (0..res.len() as u32).map(|i| res.weight(i).get()).collect();
        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let got: Vec<f64> = triangle_ranked::<SumCost>(&rels)
            .map(|a| a.cost.get())
            .collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn lazy_sorted_first_stream_defers_the_sort() {
        let e = edge_rel(&[
            (1, 2, 0.5),
            (2, 3, 1.0),
            (3, 1, 0.25),
            (2, 1, 2.0),
            (1, 3, 0.125),
            (3, 2, 0.75),
        ]);
        let rels = vec![e.clone(), e.clone(), e];
        let lazy = prepare_triangle::<SumCost>(&rels).unwrap();
        assert!(!lazy.is_sorted(), "prepare must not pay the sort");
        assert!(!lazy.is_empty());

        // First stream: lazy heap; a partial top-k pull leaves the
        // sort unpaid.
        let mut s1 = lazy.stream();
        let first = s1.next().expect("has answers");
        assert!(!lazy.is_sorted(), "k=1 must not pay the sort");

        // Second spawn pays the one-time sort and installs the shared
        // artifact; its stream is byte-identical to the first one.
        let s2: Vec<_> = lazy.stream().map(|a| (a.cost, a.values)).collect();
        assert!(lazy.is_sorted(), "second spawn installs the artifact");
        let mut s1_all: Vec<_> = vec![(first.cost, first.values)];
        s1_all.extend(s1.map(|a| (a.cost, a.values)));
        assert_eq!(s1_all, s2, "heap stream == sorted cursor, ties included");
        assert!(s2.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn lazy_sorted_exhaustion_installs_artifact() {
        let e = edge_rel(&[
            (1, 2, 0.5),
            (2, 3, 1.0),
            (3, 1, 0.25),
            (1, 3, 0.125),
            (3, 2, 0.75),
            (2, 1, 4.0),
        ]);
        let rels = vec![e.clone(), e.clone(), e];
        let lazy = prepare_triangle::<SumCost>(&rels).unwrap();
        let mut s1 = lazy.stream();
        let all: Vec<_> = (&mut s1).map(|a| (a.cost, a.values)).collect();
        assert!(!all.is_empty());
        assert!(
            lazy.is_sorted(),
            "a drained first stream installs the sorted artifact for free"
        );
        assert!(s1.next().is_none(), "exhausted stream stays exhausted");
        let again: Vec<_> = lazy.stream().map(|a| (a.cost, a.values)).collect();
        assert_eq!(all, again, "cursor replays the first stream exactly");
    }

    #[test]
    fn lazy_sorted_empty_answer_set() {
        // No triangles at all: both the heap path and the installed
        // artifact must behave.
        let e = edge_rel(&[(1, 2, 0.5), (2, 3, 1.0)]);
        let rels = vec![e.clone(), e.clone(), e];
        let lazy = prepare_triangle::<SumCost>(&rels).unwrap();
        assert!(lazy.is_empty());
        assert!(lazy.stream().next().is_none());
        assert!(lazy.is_sorted(), "empty first stream exhausts immediately");
        assert!(lazy.stream().next().is_none());
    }

    #[test]
    fn an_extended_artifact_streams_what_one_over_the_concatenated_slab_does() {
        use anyk_storage::Value;
        // Cost ties across the two slabs, and an exact duplicate of an
        // old row among the new ones.
        let slab = |rows: &[(i64, [i64; 2])]| {
            let mut s = AnswerSlab::new(2);
            for (c, r) in rows {
                s.push(*c, &[Value::Int(r[0]), Value::Int(r[1])]);
            }
            s
        };
        let old_rows = [
            (5, [1, 1]),
            (2, [9, 0]),
            (2, [3, 7]),
            (7, [0, 0]),
            (1, [4, 4]),
        ];
        let new_rows = [(2, [3, 7]), (2, [0, 8]), (6, [2, 2]), (0, [5, 5])];
        let drain = |lazy: &LazySortedAnswers<i64>| -> Vec<_> {
            lazy.stream().map(|a| (a.cost, a.values)).collect()
        };
        let want =
            drain(&LazySortedAnswers::new(slab(&[&old_rows[..], &new_rows[..]].concat())).unwrap());
        assert_eq!(want.len(), 9);
        assert_eq!(
            want[2..5].iter().map(|a| a.0).collect::<Vec<_>>(),
            [2, 2, 2]
        );
        assert_eq!(want[3], want[4], "the duplicate comes out twice");
        let more = LazySortedAnswers::new(slab(&new_rows)).unwrap();

        // Extended while sorted.
        let sorted = LazySortedAnswers::new(slab(&old_rows)).unwrap();
        let before = drain(&sorted);
        assert!(sorted.is_sorted());
        let extended = sorted.extend(&more).unwrap();
        assert!(!extended.is_sorted(), "the sort is deferred again");
        assert_eq!(drain(&extended), want, "lazy-heap first stream");
        assert_eq!(drain(&extended), want, "cursor over the installed order");
        assert_eq!(drain(&sorted), before, "the extended artifact is untouched");

        // Extended while its lazy-heap first stream is half drained.
        let lazy = LazySortedAnswers::new(slab(&old_rows)).unwrap();
        let mut first = lazy.stream();
        let head: Vec<_> = (&mut first).take(2).map(|a| (a.cost, a.values)).collect();
        let extended = lazy.extend(&more).unwrap();
        assert!(!lazy.is_sorted() && !extended.is_sorted());
        let mut early = extended.stream();
        let early_head: Vec<_> = (&mut early).take(4).map(|a| (a.cost, a.values)).collect();
        assert_eq!(drain(&extended), want, "second spawn pays the sort");
        let early_all: Vec<_> = early_head
            .into_iter()
            .chain(early.map(|a| (a.cost, a.values)))
            .collect();
        assert_eq!(early_all, want, "heap stream across the install");
        let first_all: Vec<_> = head
            .into_iter()
            .chain(first.map(|a| (a.cost, a.values)))
            .collect();
        assert_eq!(first_all, before, "the open stream finishes on its slab");

        // An extension of an extension, and by nothing.
        let twice = extended.extend(&more).unwrap();
        assert_eq!(twice.len(), 13);
        let none = LazySortedAnswers::new(slab(&[])).unwrap();
        assert_eq!(drain(&extended.extend(&none).unwrap()), want);
    }

    #[test]
    fn an_extension_past_32_bit_row_ids_is_refused() {
        // Zero-sized costs and zero-width rows: doubling copies nothing.
        let mut slab: AnswerSlab<()> = AnswerSlab::new(0);
        slab.push((), &[]);
        for _ in 0..31 {
            let half = slab.clone();
            slab.extend(&half);
        }
        assert_eq!(slab.len(), 1 << 31);
        let half = LazySortedAnswers::new(slab).unwrap();
        assert_eq!(
            half.extend(&half).map(|_| ()),
            Err(TdpError::TooLarge { len: 1 << 32 })
        );
    }

    #[test]
    fn c4_max_ranking_matches_wco_oracle() {
        // Regression: the light-light case used to merge pre-joined
        // edge weights with `+` regardless of ranking, so Max costs
        // came out as max(w1+w4, w2+w3) instead of max of all four.
        let e = edge_rel(&[
            (1, 2, 0.5),
            (2, 3, 1.0),
            (3, 4, 0.25),
            (4, 1, 2.0),
            (2, 1, 0.125),
            (1, 4, 3.0),
            (4, 2, 0.75),
            (2, 4, 1.5),
        ]);
        let rels = vec![e.clone(), e.clone(), e.clone(), e];
        let mut want: Vec<f64> = wco_ranked_materialize::<MaxCost>(&cycle_query(4), &rels)
            .costs()
            .iter()
            .map(|c| c.get())
            .collect();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(!want.is_empty());
        for thr in [0, 1, 2, 100] {
            let got: Vec<f64> = c4::<MaxCost>(&rels, thr)
                .part(SuccessorKind::Lazy)
                .map(|a| a.cost.get())
                .collect();
            assert_eq!(got, want, "thr {thr}");
        }
    }

    #[test]
    fn longer_cycles_match_the_wco_oracle_under_sum_and_max() {
        // A hub (heavy on every split attribute at small thresholds), a
        // light tail, a repeated row; dyadic weights.
        let mut rows = vec![(20, 21, 0.5), (21, 20, 0.25), (20, 21, 0.5)];
        for i in 2..7 {
            rows.push((1, i, 0.25 * i as f64));
            rows.push((i, 1, 0.125 * i as f64));
        }
        rows.extend([(2, 3, 1.0), (3, 4, 0.5), (4, 2, 0.75), (3, 2, 2.0)]);
        let e = edge_rel(&rows);
        fn sorted_costs<C: Ord + Clone>(slab: AnswerSlab<C>) -> Vec<C> {
            let mut costs = slab.costs().to_vec();
            costs.sort();
            costs
        }
        for l in 5..=7 {
            let rels = vec![e.clone(); l];
            let q = cycle_query(l);
            let want_sum = sorted_costs(wco_ranked_materialize::<SumCost>(&q, &rels));
            let want_max = sorted_costs(wco_ranked_materialize::<MaxCost>(&q, &rels));
            assert!(want_sum.len() > 50, "l = {l}");
            for thr in [0, 2, 3, 100] {
                let sum = cycle_trees::<SumCost>(&rels, thr, &BuildEachTime).unwrap();
                let got: Vec<_> = sum.part(SuccessorKind::Lazy).map(|a| a.cost).collect();
                assert_eq!(got, want_sum, "sum, l = {l}, thr {thr}");
                let got: Vec<_> = sum.rec().map(|a| a.cost).collect();
                assert_eq!(got, want_sum, "sum rec, l = {l}, thr {thr}");
                let max = cycle_trees::<MaxCost>(&rels, thr, &BuildEachTime).unwrap();
                let got: Vec<_> = max.part(SuccessorKind::Eager).map(|a| a.cost).collect();
                assert_eq!(got, want_max, "max, l = {l}, thr {thr}");
            }
        }
    }

    #[test]
    fn lex_on_c4_is_a_typed_rejection() {
        let e = edge_rel(&[(1, 2, 0.5), (2, 3, 1.0), (3, 4, 0.25), (4, 1, 2.0)]);
        let rels = vec![e.clone(), e.clone(), e.clone(), e];
        let err = match cycle_trees::<crate::ranking::LexCost>(&rels, 1, &BuildEachTime) {
            Err(e) => e,
            Ok(_) => panic!("lex must be rejected on the C4 plan"),
        };
        assert_eq!(err, TdpError::NonCollapsibleRanking);
    }
}
