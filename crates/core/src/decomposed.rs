//! Ranked enumeration for **arbitrary cyclic queries** through a tree
//! decomposition — the general `O~(n^fhw + r·polylog)` pipeline of §3 +
//! §4: materialize decomposition bags (worst-case-optimally), then run
//! any-k over the acyclic bag-level query.
//!
//! This complements [`crate::cyclic`]:
//!
//! * [`crate::cyclic::c4_ranked_part`] uses the 4-cycle's *submodular
//!   width* union-of-trees plan (preprocessing n^1.5);
//! * [`decomposed_ranked_part`] works for every query but pays the
//!   (possibly higher) fractional hypertree width — fhw = 2 for the
//!   4-cycle. Experiment E13 measures exactly this gap (the reason §3
//!   calls submodular width "the current frontier").

use crate::answer::{AnyK, RankedAnswer};
use crate::part::AnyKPart;
use crate::ranking::RankingFunction;
use crate::rec::AnyKRec;
use crate::succorder::SuccessorKind;
use crate::tdp::TdpInstance;
use anyk_join::decomposed::ghd_plan_provider;
use anyk_query::cq::ConjunctiveQuery;
use anyk_query::decompose::{fhw_exact, fhw_greedy, Decomposition};
use anyk_query::hypergraph::Hypergraph;
use anyk_storage::{BuildEachTime, IndexProvider, Relation};
use std::sync::Arc;

/// An any-k stream whose answers are re-ordered from bag-query variable
/// order back to the original query's `VarId` order.
pub struct DecomposedRanked<I: AnyK> {
    inner: I,
    /// `perm[v]` = bag-query VarId of original variable `v`.
    perm: Vec<usize>,
}

impl<I: AnyK> Iterator for DecomposedRanked<I> {
    type Item = RankedAnswer<I::Cost>;

    fn next(&mut self) -> Option<Self::Item> {
        let a = self.inner.next()?;
        let values = self.perm.iter().map(|&p| a.values[p]).collect();
        Some(RankedAnswer {
            cost: a.cost,
            values,
        })
    }
}

impl<I: AnyK> DecomposedRanked<I> {
    /// Wrap an any-k stream over a bag query with the permutation that
    /// maps bag-query variable order back to the original query's.
    pub fn new(inner: I, perm: Vec<usize>) -> Self {
        DecomposedRanked { inner, perm }
    }
}

impl<I: AnyK> AnyK for DecomposedRanked<I> {
    type Cost = I::Cost;
}

fn var_permutation(q: &ConjunctiveQuery, bag_query: &ConjunctiveQuery) -> Vec<usize> {
    (0..q.num_vars())
        .map(|v| {
            bag_query
                .var(q.var_name(v))
                .expect("bags cover every variable")
        })
        .collect()
}

/// The prepared GHD plan: bags materialized worst-case-optimally, the
/// bag-level T-DP run once, the instance shared behind an `Arc` — any
/// number of PART/REC streams (on any thread) enumerate from one
/// `O~(n^fhw)` preprocessing pass.
#[derive(Clone)]
pub struct PreparedDecomposed<R: RankingFunction> {
    inst: Arc<TdpInstance<R>>,
    perm: Vec<usize>,
}

impl<R: RankingFunction> PreparedDecomposed<R> {
    /// Materialize the bags of `decomp` and run T-DP once. Bag weights
    /// are merged under `R`'s weight-level `⊗`, so any scalar ranking
    /// ranks correctly; rankings without one (lexicographic) get
    /// [`TdpError::NonCollapsibleRanking`](crate::tdp::TdpError).
    pub fn prepare(
        q: &ConjunctiveQuery,
        rels: &[Relation],
        decomp: &Decomposition,
    ) -> Result<Self, crate::tdp::TdpError> {
        Self::prepare_with(q, rels, decomp, &BuildEachTime)
    }

    /// [`PreparedDecomposed::prepare`] with trie construction delegated
    /// to a shared [`IndexProvider`] — every bag's worst-case-optimal
    /// materialization resolves its tries through it.
    pub fn prepare_with(
        q: &ConjunctiveQuery,
        rels: &[Relation],
        decomp: &Decomposition,
        indexes: &dyn IndexProvider,
    ) -> Result<Self, crate::tdp::TdpError> {
        let dioid = R::weight_dioid().ok_or(crate::tdp::TdpError::NonCollapsibleRanking)?;
        let plan = ghd_plan_provider(q, rels, decomp, dioid.identity, dioid.combine, indexes);
        let perm = var_permutation(q, &plan.bag_query);
        let inst = TdpInstance::<R>::prepare(&plan.bag_query, &plan.bag_tree, plan.bag_relations)?;
        Ok(PreparedDecomposed {
            inst: Arc::new(inst),
            perm,
        })
    }

    /// A fresh ranked stream driven by ANYK-PART with successor order
    /// `kind`, enumerating from the shared prepared instance.
    pub fn stream_part(&self, kind: SuccessorKind) -> DecomposedRanked<AnyKPart<R>> {
        DecomposedRanked {
            inner: AnyKPart::new(Arc::clone(&self.inst), kind),
            perm: self.perm.clone(),
        }
    }

    /// A fresh ranked stream driven by ANYK-REC.
    pub fn stream_rec(&self) -> DecomposedRanked<AnyKRec<R>> {
        DecomposedRanked {
            inner: AnyKRec::new(Arc::clone(&self.inst)),
            perm: self.perm.clone(),
        }
    }
}

/// Ranked enumeration of a (possibly cyclic) query through `decomp`,
/// driven by ANYK-PART. Ranking must be commutative (see
/// [`crate::cyclic`] for why lexicographic is excluded on decomposed
/// plans).
///
/// # Panics
///
/// If `R` has no weight-level view ([`RankingFunction::weight_dioid`]
/// is `None`, e.g. [`LexCost`](crate::ranking::LexCost)) — use
/// [`try_decomposed_ranked_part`] for the typed error.
pub fn decomposed_ranked_part<R: RankingFunction>(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    decomp: &Decomposition,
    kind: SuccessorKind,
) -> DecomposedRanked<AnyKPart<R>> {
    try_decomposed_ranked_part(q, rels, decomp, kind).unwrap_or_else(|e| {
        panic!("GHD plan preparation failed: {e:?}; use try_decomposed_ranked_part")
    })
}

/// Fallible form of [`decomposed_ranked_part`]: surfaces a bag
/// query/tree mismatch or an unsupported (non-collapsible) ranking as
/// a [`TdpError`](crate::tdp::TdpError) instead of panicking (the seam
/// the engine layer routes through).
pub fn try_decomposed_ranked_part<R: RankingFunction>(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    decomp: &Decomposition,
    kind: SuccessorKind,
) -> Result<DecomposedRanked<AnyKPart<R>>, crate::tdp::TdpError> {
    Ok(PreparedDecomposed::prepare(q, rels, decomp)?.stream_part(kind))
}

/// Ranked enumeration through `decomp`, driven by ANYK-REC.
///
/// # Panics
///
/// If `R` has no weight-level view (see [`decomposed_ranked_part`]) —
/// use [`try_decomposed_ranked_rec`] for the typed error.
pub fn decomposed_ranked_rec<R: RankingFunction>(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    decomp: &Decomposition,
) -> DecomposedRanked<AnyKRec<R>> {
    try_decomposed_ranked_rec(q, rels, decomp).unwrap_or_else(|e| {
        panic!("GHD plan preparation failed: {e:?}; use try_decomposed_ranked_rec")
    })
}

/// Fallible form of [`decomposed_ranked_rec`].
pub fn try_decomposed_ranked_rec<R: RankingFunction>(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    decomp: &Decomposition,
) -> Result<DecomposedRanked<AnyKRec<R>>, crate::tdp::TdpError> {
    Ok(PreparedDecomposed::prepare(q, rels, decomp)?.stream_rec())
}

/// Pick a decomposition for `q` automatically: exact fhw for queries
/// with <= 9 variables, greedy min-fill beyond (exact search is
/// exponential in the variable count).
pub fn auto_decomposition(q: &ConjunctiveQuery) -> Decomposition {
    let h = Hypergraph::of_query(q);
    if q.num_vars() <= 9 {
        fhw_exact(&h)
    } else {
        fhw_greedy(&h)
    }
}

/// Convenience: pick a decomposition automatically via
/// [`auto_decomposition`] and enumerate ranked answers with
/// ANYK-PART(Lazy) under the caller's ranking function `R`.
pub fn ranked_auto<R: RankingFunction>(
    q: &ConjunctiveQuery,
    rels: &[Relation],
) -> DecomposedRanked<AnyKPart<R>> {
    let decomp = auto_decomposition(q);
    decomposed_ranked_part::<R>(q, rels, &decomp, SuccessorKind::Lazy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::{MaxCost, SumCost};
    use anyk_join::generic_join::generic_join_materialize;
    use anyk_query::cq::{cycle_query, triangle_query};
    use anyk_storage::{RelationBuilder, Schema};

    fn edge_rel(rows: &[(i64, i64, f64)]) -> Relation {
        let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
        for &(x, y, w) in rows {
            b.push_ints(&[x, y], w);
        }
        b.finish()
    }

    /// Sorted oracle (costs + tuples) via Generic-Join; inputs must be
    /// duplicate-free and weights dyadic for exact comparison.
    fn oracle(q: &ConjunctiveQuery, rels: &[Relation]) -> Vec<(f64, Vec<i64>)> {
        let (res, _) = generic_join_materialize(q, rels, None);
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

    fn check(q: &ConjunctiveQuery, rels: &[Relation]) {
        let want = oracle(q, rels);
        let h = Hypergraph::of_query(q);
        let d = fhw_exact(&h);
        for engine in ["part", "rec", "auto"] {
            let mut got: Vec<(f64, Vec<i64>)> = match engine {
                "part" => decomposed_ranked_part::<SumCost>(q, rels, &d, SuccessorKind::Take2)
                    .map(|a| {
                        (
                            a.cost.get(),
                            a.values.iter().map(|v| v.int()).collect::<Vec<_>>(),
                        )
                    })
                    .collect(),
                "rec" => decomposed_ranked_rec::<SumCost>(q, rels, &d)
                    .map(|a| {
                        (
                            a.cost.get(),
                            a.values.iter().map(|v| v.int()).collect::<Vec<_>>(),
                        )
                    })
                    .collect(),
                _ => ranked_auto::<SumCost>(q, rels)
                    .map(|a| {
                        (
                            a.cost.get(),
                            a.values.iter().map(|v| v.int()).collect::<Vec<_>>(),
                        )
                    })
                    .collect(),
            };
            assert!(
                got.windows(2).all(|w| w[0].0 <= w[1].0),
                "{engine}: not sorted"
            );
            got.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
            assert_eq!(got.len(), want.len(), "{engine}: cardinality");
            for ((gc, gv), (wc, wv)) in got.iter().zip(&want) {
                assert!((gc - wc).abs() < 1e-9, "{engine}: cost {gc} vs {wc}");
                assert_eq!(gv, wv, "{engine}: tuple");
            }
        }
    }

    #[test]
    fn triangle_ranked_via_ghd() {
        let e = edge_rel(&[
            (1, 2, 0.5),
            (2, 3, 1.0),
            (3, 1, 0.25),
            (2, 1, 2.0),
            (1, 3, 0.125),
            (3, 2, 4.0),
        ]);
        check(&triangle_query(), &[e.clone(), e.clone(), e]);
    }

    #[test]
    fn four_cycle_ranked_via_ghd() {
        let e = edge_rel(&[
            (1, 2, 0.5),
            (2, 3, 1.0),
            (3, 4, 0.25),
            (4, 1, 2.0),
            (2, 1, 0.75),
            (1, 4, 0.375),
        ]);
        check(&cycle_query(4), &[e.clone(), e.clone(), e.clone(), e]);
    }

    #[test]
    fn six_cycle_ranked_via_ghd() {
        // fhw(C6) = 2: this is a query the C4-specific plan cannot touch.
        let e = edge_rel(&[
            (1, 2, 0.5),
            (2, 3, 1.0),
            (3, 4, 0.25),
            (4, 5, 0.125),
            (5, 6, 2.0),
            (6, 1, 0.0625),
            (2, 1, 1.5),
            (4, 3, 0.75),
        ]);
        check(
            &cycle_query(6),
            &[e.clone(), e.clone(), e.clone(), e.clone(), e.clone(), e],
        );
    }

    #[test]
    fn max_ranking_via_ghd_matches_wco_oracle() {
        // Regression: bag materialization used to sum assigned atoms'
        // weights regardless of ranking, corrupting Max/Min/Prod costs
        // whenever a bag covered more than one atom.
        let e = edge_rel(&[
            (1, 2, 0.5),
            (2, 3, 1.0),
            (3, 1, 0.25),
            (1, 3, 2.0),
            (3, 2, 0.125),
            (2, 1, 4.0),
        ]);
        let rels = vec![e.clone(), e.clone(), e];
        let q = triangle_query();
        let h = Hypergraph::of_query(&q);
        let d = fhw_exact(&h);
        let mut want: Vec<f64> = crate::cyclic::wco_ranked_materialize::<MaxCost>(&q, &rels)
            .costs()
            .iter()
            .map(|c| c.get())
            .collect();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(!want.is_empty());
        let got: Vec<f64> = decomposed_ranked_part::<MaxCost>(&q, &rels, &d, SuccessorKind::Lazy)
            .map(|a| a.cost.get())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn lex_via_ghd_is_a_typed_rejection() {
        let e = edge_rel(&[(1, 2, 0.5), (2, 3, 1.0), (3, 1, 0.25)]);
        let rels = vec![e.clone(), e.clone(), e];
        let q = triangle_query();
        let h = Hypergraph::of_query(&q);
        let d = fhw_exact(&h);
        let err = match PreparedDecomposed::<crate::ranking::LexCost>::prepare(&q, &rels, &d) {
            Err(e) => e,
            Ok(_) => panic!("lex must be rejected on decomposed plans"),
        };
        assert_eq!(err, crate::tdp::TdpError::NonCollapsibleRanking);
    }
}
