//! Prepared queries: route + preprocess **once**, stream **many** times.
//!
//! The paper's complexity split is `O~(n)`–`O~(n^w)` preprocessing +
//! cheap per-answer delay. A [`PreparedQuery`] is that split reified:
//! it owns the prepared phase (reduced relations, T-DP state, or the
//! materialized sorted answers) behind `Arc`s, and every call to
//! [`PreparedQuery::stream`] spawns an independent ranked stream whose
//! cost is the *delay side only*. `PreparedQuery` is `Clone + Send +
//! Sync`: hand clones to as many threads as you like; all of them
//! enumerate from the same shared preprocessing pass.
//!
//! The contract on the any-k routes, under the default variant:
//! `prepare` is `O~(n)` (`O~(n^w)` cyclic); `stream()` is `O(1)` per
//! T-DP instance — one for acyclic and GHD plans, one per case tree of
//! a cycle's union, one per member of a delta union — whatever
//! `n` is; the first stream to deviate through a join-key group sorts
//! that group once, for all streams and threads; each answer then costs
//! `O(log k)`.

use crate::error::EngineError;
use crate::merge::MergeFanIn;
use crate::plan::{AnyKVariant, Plan, Route};
use crate::rank::{Cost, IntoCost, RankSpec};
use crate::stream::{ErasedAnswers, ErasedStream, RankedAnswer, RankedStream};

use anyk_core::batch::materialize_ranked;
use anyk_core::cyclic::{
    cycle_trees, prepare_triangle_with, wco_ranked_materialize_with, LazySortedAnswers, Trees,
};
use anyk_core::decomposed::ghd_trees;
use anyk_core::part::AnyKPart;
use anyk_core::ranking::{LexCost, MaxCost, MinCost, ProdCost, RankingFunction, SumCost};
use anyk_core::rec::AnyKRec;
use anyk_core::slab::AnswerSlab;
use anyk_core::succorder::SuccessorKind;
use anyk_core::tdp::TdpInstance;
use anyk_core::AnyK;
use anyk_obs::{Clock, ObsRegistry};
use anyk_query::join_tree::JoinTree;
use anyk_storage::{IndexProvider, Relation};
use std::sync::Arc;

/// A query that has been routed and preprocessed exactly once, ready to
/// serve any number of independent ranked streams.
///
/// Obtained from [`Engine::prepare`](crate::Engine::prepare) (or
/// [`QueryRequest::prepare`](crate::QueryRequest::prepare)). The
/// prepared state is a snapshot: later catalog updates on the engine do
/// not affect it — streams keep serving the data the query was prepared
/// against. Cloning is cheap (shared `Arc` internals) and the type is
/// `Send + Sync`, so one prepared query can serve concurrent request
/// threads:
///
/// ```
/// use anyk_engine::{Engine, RankSpec};
/// use anyk_query::cq::path_query;
/// use anyk_storage::{Catalog, RelationBuilder, Schema};
///
/// let mut catalog = Catalog::new();
/// let mut r = RelationBuilder::new(Schema::new(["a", "b"]));
/// r.push_ints(&[1, 10], 0.3);
/// r.push_ints(&[2, 10], 0.1);
/// catalog.register("R1", r.finish());
/// let mut s = RelationBuilder::new(Schema::new(["b", "c"]));
/// s.push_ints(&[10, 100], 0.5);
/// catalog.register("R2", s.finish());
/// let engine = Engine::new(catalog);
///
/// // Preprocess once...
/// let prepared = engine.prepare(path_query(2), RankSpec::Sum).unwrap();
/// // ...then stream as many times as you like, even from many threads.
/// let first: Vec<_> = prepared.stream().top_k(1);
/// let handles: Vec<_> = (0..4)
///     .map(|_| {
///         let p = prepared.clone();
///         std::thread::spawn(move || p.stream().top_k(1))
///     })
///     .collect();
/// for h in handles {
///     assert_eq!(h.join().unwrap(), first);
/// }
/// ```
#[derive(Clone)]
pub struct PreparedQuery {
    /// One plan per prepared query: clones, the streams they spawn and
    /// the terms of a union all share it.
    plan: Arc<Plan>,
    inner: PreparedInner,
}

impl std::fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

/// A prepared query is one preprocessed route artifact or a union of
/// prepared queries whose answer multisets partition its own: ranked
/// enumeration is closed under disjoint union, so the terms of the
/// telescoping base-⊎-delta decomposition and the parts of a
/// [`ShardedEngine`](crate::ShardedEngine) partition take one shape.
#[derive(Clone)]
enum PreparedInner {
    Leaf(PreparedLeaf),
    Union(Arc<[PreparedQuery]>),
}

/// The monomorphized prepared state, one arm per [`RankSpec`].
#[derive(Clone)]
enum PreparedLeaf {
    Sum(PreparedRoute<SumCost>),
    Max(PreparedRoute<MaxCost>),
    Min(PreparedRoute<MinCost>),
    Prod(PreparedRoute<ProdCost>),
    Lex(PreparedRoute<LexCost>),
}

/// What preprocessing produced. Everything is behind an `Arc`: a
/// stream borrows nothing and copies nothing at spawn time.
#[derive(Clone)]
enum PreparedRoute<R: RankingFunction> {
    /// Every any-k plan: a union of shared T-DP instances (reduced
    /// relations, groups, bottom-up costs) that PART and REC both
    /// enumerate from — one tree for an acyclic query or a GHD plan,
    /// one per case of a cycle's split. Each instance writes the
    /// query's output columns itself.
    Trees(Trees<R>),
    /// Every materialized-answer plan — the triangle route, `Batch`
    /// plans on any route, and non-commutative rankings on cyclic
    /// routes — with the sort **deferred**: prepare is materialize-only
    /// (`O(r)`), the first stream is a lazy heap (`O(r)` build), and
    /// the shared sorted artifact is installed when a second stream
    /// spawns or the first one exhausts.
    LazySorted(LazySortedAnswers<R::Cost>),
}

impl<R: RankingFunction> PreparedRoute<R> {
    /// For materialized artifacts ([`PreparedRoute::LazySorted`]): is
    /// the `O(r log r)` sort still deferred? `None` on non-materialized
    /// routes.
    fn sort_deferred(&self) -> Option<bool> {
        match self {
            PreparedRoute::LazySorted(lazy) => Some(!lazy.is_sorted()),
            _ => None,
        }
    }
}

impl PreparedQuery {
    /// Run the preprocessing phase for `plan` over `rels` (shared
    /// handles resolved from the catalog). `batch` selects the
    /// materialize-then-sort artifact instead of the any-k structures.
    /// Cyclic routes resolve their tries through `indexes` — the
    /// catalog's shared [`anyk_storage::IndexCatalog`] on the engine
    /// path, so a warm catalog turns prepare's index-build portion into
    /// lookups.
    pub(crate) fn build(
        plan: Arc<Plan>,
        rels: Vec<Relation>,
        batch: bool,
        indexes: &dyn IndexProvider,
    ) -> Result<Self, EngineError> {
        let leaf = match plan.rank {
            RankSpec::Sum => {
                PreparedLeaf::Sum(build_route::<SumCost>(&plan, rels, batch, indexes)?)
            }
            RankSpec::Max => {
                PreparedLeaf::Max(build_route::<MaxCost>(&plan, rels, batch, indexes)?)
            }
            RankSpec::Min => {
                PreparedLeaf::Min(build_route::<MinCost>(&plan, rels, batch, indexes)?)
            }
            RankSpec::Prod => {
                PreparedLeaf::Prod(build_route::<ProdCost>(&plan, rels, batch, indexes)?)
            }
            RankSpec::Lex => {
                PreparedLeaf::Lex(build_route::<LexCost>(&plan, rels, batch, indexes)?)
            }
        };
        Ok(PreparedQuery {
            plan,
            inner: PreparedInner::Leaf(leaf),
        })
    }

    /// Compose prepared queries whose answers partition this query's —
    /// the terms of the telescoping base-⊎-delta decomposition, or
    /// per-shard parts — into one prepared query whose streams merge the
    /// members canonically through one tournament tree. `plan` is the
    /// facade plan: it reports the original query. A union of one
    /// member is that member — its own plan, tie order and page fill,
    /// with no merge around it.
    pub(crate) fn union(plan: Arc<Plan>, members: Vec<PreparedQuery>) -> PreparedQuery {
        let members = match <[PreparedQuery; 1]>::try_from(members) {
            Ok([member]) => return member,
            Err(members) => members,
        };
        PreparedQuery {
            plan,
            inner: PreparedInner::Union(members.into()),
        }
    }

    /// This term with the answers of `more` behind its own: `more` is
    /// the same [`build`](Self::build) over the same relations with one
    /// of them replaced by the rows appended to it since, so by
    /// multilinearity of the join the result holds exactly what a build
    /// over the grown relation would. `None` unless both are single
    /// materialized artifacts ([`PreparedRoute::LazySorted`]) under one
    /// ranking — T-DP state has no such concatenation.
    pub(crate) fn extend(&self, more: &PreparedQuery) -> Option<Result<Self, EngineError>> {
        let (PreparedInner::Leaf(old), PreparedInner::Leaf(new)) = (&self.inner, &more.inner)
        else {
            return None;
        };
        use {PreparedLeaf as L, PreparedRoute::LazySorted as Lazy};
        let leaf = match (old, new) {
            (L::Sum(Lazy(a)), L::Sum(Lazy(b))) => a.extend(b).map(|x| L::Sum(Lazy(x))),
            (L::Max(Lazy(a)), L::Max(Lazy(b))) => a.extend(b).map(|x| L::Max(Lazy(x))),
            (L::Min(Lazy(a)), L::Min(Lazy(b))) => a.extend(b).map(|x| L::Min(Lazy(x))),
            (L::Prod(Lazy(a)), L::Prod(Lazy(b))) => a.extend(b).map(|x| L::Prod(Lazy(x))),
            (L::Lex(Lazy(a)), L::Lex(Lazy(b))) => a.extend(b).map(|x| L::Lex(Lazy(x))),
            _ => return None,
        };
        Some(leaf.map_err(EngineError::from).map(|leaf| PreparedQuery {
            plan: Arc::clone(&more.plan),
            inner: PreparedInner::Leaf(leaf),
        }))
    }

    /// An acyclic any-k term over `rels` on `tree` — the plan's join
    /// tree rooted at a delta term's delta atom — with every slot but
    /// the root reduced bottom-up only, so that
    /// [`extend_root`](Self::extend_root) can add the atom's next
    /// batches ([`TdpInstance::prepare_rooted`]).
    pub(crate) fn build_rooted(
        plan: Arc<Plan>,
        rels: Vec<Relation>,
        tree: &JoinTree,
    ) -> Result<Self, EngineError> {
        fn trees<R: RankingFunction>(
            plan: &Plan,
            rels: Vec<Relation>,
            tree: &JoinTree,
        ) -> Result<PreparedRoute<R>, EngineError> {
            let inst = TdpInstance::<R>::prepare_rooted(&plan.query, tree, rels)?;
            Ok(PreparedRoute::Trees(inst.into()))
        }
        let leaf = match plan.rank {
            RankSpec::Sum => PreparedLeaf::Sum(trees(&plan, rels, tree)?),
            RankSpec::Max => PreparedLeaf::Max(trees(&plan, rels, tree)?),
            RankSpec::Min => PreparedLeaf::Min(trees(&plan, rels, tree)?),
            RankSpec::Prod => PreparedLeaf::Prod(trees(&plan, rels, tree)?),
            RankSpec::Lex => PreparedLeaf::Lex(trees(&plan, rels, tree)?),
        };
        Ok(PreparedQuery {
            plan,
            inner: PreparedInner::Leaf(leaf),
        })
    }

    /// This term with `batch`'s rows added at its root, under `plan`:
    /// `None` unless it is a [`build_rooted`](Self::build_rooted) term
    /// ([`anyk_core::cyclic::Trees::extend_root`]). Only the root is
    /// built; every other slot's state is shared with this term.
    pub(crate) fn extend_root(
        &self,
        plan: Arc<Plan>,
        batch: &Relation,
    ) -> Option<Result<Self, EngineError>> {
        let PreparedInner::Leaf(leaf) = &self.inner else {
            return None;
        };
        use {PreparedLeaf as L, PreparedRoute::Trees as T};
        let leaf = match leaf {
            L::Sum(T(t)) => t.extend_root(batch)?.map(|t| L::Sum(T(t))),
            L::Max(T(t)) => t.extend_root(batch)?.map(|t| L::Max(T(t))),
            L::Min(T(t)) => t.extend_root(batch)?.map(|t| L::Min(T(t))),
            L::Prod(T(t)) => t.extend_root(batch)?.map(|t| L::Prod(T(t))),
            L::Lex(T(t)) => t.extend_root(batch)?.map(|t| L::Lex(T(t))),
            _ => return None,
        };
        Some(leaf.map_err(EngineError::from).map(|leaf| PreparedQuery {
            plan,
            inner: PreparedInner::Leaf(leaf),
        }))
    }

    /// The plan this query was prepared under (route, ranking, width).
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The prepared queries this one merges: the delta terms of a
    /// delta-backed prepare (or the per-shard parts of a sharded one),
    /// just `self` when it is not a union.
    pub fn parts(&self) -> &[PreparedQuery] {
        match &self.inner {
            PreparedInner::Leaf(_) => std::slice::from_ref(self),
            PreparedInner::Union(members) => members,
        }
    }

    /// Does this prepared artifact hold a full materialized answer set
    /// (the triangle route, and every `Batch` plan)? A refresh extends
    /// such a term by the join over the new batches alone.
    pub fn holds_materialized_answers(&self) -> bool {
        // Exactly the artifacts that have a sort to defer.
        self.sort_deferred().is_some()
    }

    /// For materialized artifacts: `Some(true)` while the `O(r log r)`
    /// sort is still deferred (the lazy-heap first-stream window —
    /// on the triangle route, on every `Batch` plan, and on cyclic
    /// plans under a non-commutative ranking), `Some(false)` once the
    /// shared sorted artifact is installed. `None` on any-k routes,
    /// which never materialize. Diagnostic for the serving-grade TTF
    /// guarantee: a prepared materialized plan that has served one
    /// partial top-k stream must still report `Some(true)`.
    pub fn sort_deferred(&self) -> Option<bool> {
        // A union defers while any member still does; all-None (pure
        // any-k members) stays None.
        match &self.inner {
            PreparedInner::Leaf(leaf) => leaf.sort_deferred(),
            PreparedInner::Union(members) => (members.iter())
                .filter_map(PreparedQuery::sort_deferred)
                .reduce(|a, b| a || b),
        }
    }

    /// Spawn a fresh independent ranked stream over the shared prepared
    /// state. Costs only the stream shell — a one-candidate heap per
    /// T-DP instance, independent of the input size; a union's members
    /// are not pulled until the first `next()` — never the
    /// preprocessing, and never a per-stream copy or re-organization of
    /// a relation: successor orders are built once in the shared state,
    /// by whichever stream first needs them.
    pub fn stream(&self) -> RankedStream {
        self.spawn(None).0
    }

    /// [`stream`](Self::stream) plus, for a union, its live
    /// [`MergeFanIn`] handle: per-member rows pulled, tournament depth,
    /// and — when `obs` is recording — the priming round's wall time
    /// on `obs`'s clock. `None` when this query is not a union.
    pub fn stream_traced(&self, obs: &ObsRegistry) -> (RankedStream, Option<Arc<MergeFanIn>>) {
        self.spawn(obs.enabled().then(|| Arc::clone(obs.clock())))
    }

    /// A handle on this prepared query whose plan records `requested`
    /// as the effective variant (the prepared artifact is shared — only
    /// the stream-time enumerator choice differs). Plans with a single
    /// implementation (`variant == None`: the triangle route, and
    /// non-commutative rankings on cyclic routes) stay variant-free —
    /// no requested variant affects what runs. The plan is copied only
    /// when the variant it records is not already `requested`.
    pub(crate) fn adopt_variant(&self, requested: AnyKVariant) -> PreparedQuery {
        let mut p = self.clone();
        let variant = p.plan.variant.map(|_| requested);
        if variant != p.plan.variant {
            p.plan = Arc::new(Plan {
                variant,
                ..Plan::clone(&p.plan)
            });
        }
        p
    }

    /// Spawn a stream driving the plan's any-k variant over the shared
    /// artifact. `Batch` requests are prepared as
    /// [`PreparedRoute::LazySorted`], so the variant only selects among
    /// PART successor orders and REC here. A union spawns every member
    /// under the facade plan's variant and merges them through one
    /// tournament tree with the deterministic (cost, tuple, member)
    /// tie-break, so the merged stream is canonical by construction.
    fn spawn(&self, clock: Option<Arc<dyn Clock>>) -> (RankedStream, Option<Arc<MergeFanIn>>) {
        let variant = self.plan.variant.unwrap_or_default();
        let (inner, fan_in) = self.spawn_erased(variant, clock);
        let plan = Arc::clone(&self.plan);
        (RankedStream { inner, plan }, fan_in)
    }

    /// [`spawn`](Self::spawn)'s answers under `variant`, before they
    /// are paired with a plan.
    fn spawn_erased(
        &self,
        variant: AnyKVariant,
        clock: Option<Arc<dyn Clock>>,
    ) -> (ErasedAnswers, Option<Arc<MergeFanIn>>) {
        match &self.inner {
            PreparedInner::Leaf(leaf) => (leaf.spawn(variant), None),
            PreparedInner::Union(members) => {
                let members = (members.iter())
                    .map(|member| member.spawn_erased(variant, None).0)
                    .collect();
                let (inner, fan_in) = crate::merge::merge_members(members, clock);
                (inner, Some(fan_in))
            }
        }
    }
}

impl PreparedLeaf {
    fn sort_deferred(&self) -> Option<bool> {
        match self {
            PreparedLeaf::Sum(r) => r.sort_deferred(),
            PreparedLeaf::Max(r) => r.sort_deferred(),
            PreparedLeaf::Min(r) => r.sort_deferred(),
            PreparedLeaf::Prod(r) => r.sort_deferred(),
            PreparedLeaf::Lex(r) => r.sort_deferred(),
        }
    }

    fn spawn(&self, variant: AnyKVariant) -> ErasedAnswers {
        match self {
            PreparedLeaf::Sum(r) => stream_route(r, variant),
            PreparedLeaf::Max(r) => stream_route(r, variant),
            PreparedLeaf::Min(r) => stream_route(r, variant),
            PreparedLeaf::Prod(r) => stream_route(r, variant),
            PreparedLeaf::Lex(r) => stream_route(r, variant),
        }
    }
}

/// A concrete any-k enumerator behind the engine's answer type.
struct Erased<I>(I);

impl<I: AnyK> Iterator for Erased<I>
where
    I::Cost: IntoCost,
{
    type Item = RankedAnswer;

    fn next(&mut self) -> Option<RankedAnswer> {
        self.0.next().map(|a| RankedAnswer {
            cost: a.cost.into_cost(),
            values: a.values,
        })
    }
}

impl<I: AnyK + Send> ErasedStream for Erased<I>
where
    I::Cost: IntoCost,
{
    /// Rows written where they stay ([`AnyK::next_into`]): natively by
    /// a lone PART or REC enumerator and by a materialized artifact's
    /// streams, through `next` by a union of trees.
    fn fill(&mut self, page: &mut AnswerSlab<Cost>, n: usize) -> usize {
        for got in 0..n {
            let next = |row: &mut [_]| self.0.next_into(row).map(IntoCost::into_cost);
            if !page.push_with(next) {
                return got;
            }
        }
        n
    }
}

/// Erase a concrete any-k enumerator into the engine's answer type.
fn erase<I>(it: I) -> ErasedAnswers
where
    I: AnyK + Send + 'static,
    I::Cost: IntoCost,
{
    Box::new(Erased(it))
}

/// Build the prepared artifact for one route under a concrete ranking.
fn build_route<R>(
    plan: &Plan,
    rels: Vec<Relation>,
    batch: bool,
    indexes: &dyn IndexProvider,
) -> Result<PreparedRoute<R>, EngineError>
where
    R: RankingFunction,
    R::Cost: IntoCost,
{
    // Every materialize-then-rank artifact defers its sort: prepare is
    // materialize-only (`O(r)`), the first stream is a lazy heap, and
    // the shared sorted artifact installs when it pays for itself.
    // Cyclic routes also take this path for rankings without a
    // weight-level view (lexicographic): the per-case/bag plans cannot
    // collapse tuple weights, but the materialized answers rank fine
    // under the canonical atom-order serialization.
    let wco_lazy = |rels: &[Relation]| {
        LazySortedAnswers::new(wco_ranked_materialize_with::<R>(&plan.query, rels, indexes))
            .map(PreparedRoute::LazySorted)
    };
    Ok(match &plan.route {
        Route::Acyclic { tree } => {
            if batch {
                // Materialize via Yannakakis (weights combined in
                // serialization order: valid for Lex too), defer the
                // sort, share.
                PreparedRoute::LazySorted(LazySortedAnswers::new(materialize_ranked::<R>(
                    &plan.query,
                    tree,
                    rels,
                ))?)
            } else {
                PreparedRoute::Trees(TdpInstance::<R>::prepare(&plan.query, tree, rels)?.into())
            }
        }
        // The triangle plan is materialize-then-rank with the sort
        // deferred; Batch and any-k requests share the same artifact.
        Route::Triangle => PreparedRoute::LazySorted(prepare_triangle_with::<R>(&rels, indexes)?),
        Route::Cycle { threshold, .. } => {
            if batch || R::weight_dioid().is_none() {
                wco_lazy(&rels)?
            } else {
                PreparedRoute::Trees(cycle_trees(&rels, *threshold, indexes)?)
            }
        }
        Route::Decomposed { decomp } => {
            if batch || R::weight_dioid().is_none() {
                wco_lazy(&rels)?
            } else {
                PreparedRoute::Trees(ghd_trees(&plan.query, &rels, decomp, indexes)?)
            }
        }
    })
}

/// Spawn one erased stream from a prepared route artifact.
fn stream_route<R>(route: &PreparedRoute<R>, variant: AnyKVariant) -> ErasedAnswers
where
    R: RankingFunction,
    R::Cost: IntoCost,
{
    let part_kind = |v: AnyKVariant| match v {
        AnyKVariant::Part(kind) => kind,
        _ => SuccessorKind::Eager,
    };
    match route {
        // A one-input arrival-order merge is the identity: a lone tree
        // is streamed as the enumerator itself.
        PreparedRoute::Trees(trees) => match (trees.trees(), variant) {
            ([tree], AnyKVariant::Rec) => erase(AnyKRec::new(Arc::clone(tree))),
            ([tree], v) => erase(AnyKPart::new(Arc::clone(tree), part_kind(v))),
            (_, AnyKVariant::Rec) => erase(trees.rec()),
            (_, v) => erase(trees.part(part_kind(v))),
        },
        PreparedRoute::LazySorted(lazy) => erase(lazy.stream()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_query::cq::path_query;
    use anyk_storage::{Catalog, RelationBuilder, Schema};

    fn edge_rel(rows: impl IntoIterator<Item = (i64, i64, f64)>) -> Relation {
        let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
        for (x, y, w) in rows {
            b.push_ints(&[x, y], w);
        }
        b.finish()
    }

    #[test]
    fn a_union_of_one_is_its_member() {
        let mut catalog = Catalog::new();
        catalog.register("R1", edge_rel([(1, 2, 0.5), (3, 2, 0.5)]));
        catalog.register("R2", edge_rel([(2, 9, 0.5), (2, 8, 0.5)]));
        let engine = crate::Engine::new(catalog);
        let member = engine.prepare(path_query(2), RankSpec::Sum).unwrap();
        let facade = Arc::new(Plan::clone(member.plan()));
        let one = PreparedQuery::union(facade, vec![member.clone()]);
        assert!(matches!(one.inner, PreparedInner::Leaf(_)), "no merge");
        assert!(std::ptr::eq(one.plan(), member.plan()), "not the facade");
        assert_eq!(one.parts().len(), 1);
        assert!(one.stream_traced(engine.obs()).1.is_none());
        let want: Vec<_> = member.stream().collect();
        assert_eq!(one.stream().collect::<Vec<_>>(), want);
    }
}
