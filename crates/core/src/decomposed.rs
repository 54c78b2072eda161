//! Ranked enumeration for **arbitrary cyclic queries** through a tree
//! decomposition — the general `O~(n^fhw + r·polylog)` pipeline of §3 +
//! §4: materialize decomposition bags (worst-case-optimally), then run
//! any-k over the acyclic bag-level query.
//!
//! [`ghd_trees`] is the one-tree instance of the union-of-trees shape
//! ([`crate::cyclic::Trees`]); it complements
//! [`crate::cyclic::cycle_trees`]:
//!
//! * `cycle_trees` uses a simple ℓ-cycle's *submodular width*
//!   union-of-trees plan (preprocessing n^(2−1/⌈ℓ/2⌉), n^1.5 at ℓ = 4);
//! * `ghd_trees` works for every query but pays the (possibly higher)
//!   fractional hypertree width — fhw = 2 for every cycle.
//!   `tests/paper_claims.rs` (E13) counts exactly this gap in landed
//!   rows (the reason §3 calls submodular width "the current
//!   frontier").

use crate::cyclic::Trees;
use crate::ranking::RankingFunction;
use crate::tdp::TdpError;
use anyk_join::decomposed::ghd_plan_provider;
use anyk_query::cq::ConjunctiveQuery;
use anyk_query::decompose::{fhw_exact, fhw_greedy, Decomposition};
use anyk_query::hypergraph::Hypergraph;
use anyk_storage::{IndexProvider, Relation};

/// The GHD plan of a (possibly cyclic) query, prepared: the bags of
/// `decomp` materialized worst-case-optimally (tries resolved through
/// `indexes`) and T-DP run once over the bag tree — one tree, whose
/// answers come out in `q`'s `VarId` order. Bag weights are merged
/// under `R`'s weight-level `⊗`, so any scalar ranking ranks correctly;
/// rankings without one (lexicographic — see [`crate::cyclic`] for why
/// it is excluded on decomposed plans) get
/// [`TdpError::NonCollapsibleRanking`].
pub fn ghd_trees<R: RankingFunction>(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    decomp: &Decomposition,
    indexes: &dyn IndexProvider,
) -> Result<Trees<R>, TdpError> {
    let dioid = R::weight_dioid().ok_or(TdpError::NonCollapsibleRanking)?;
    let plan = ghd_plan_provider(q, rels, decomp, dioid.identity, dioid.combine, indexes);
    Trees::prepare(vec![plan])
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::{MaxCost, SumCost};
    use crate::succorder::SuccessorKind;
    use anyk_join::generic_join::generic_join_materialize;
    use anyk_query::cq::{cycle_query, triangle_query};
    use anyk_storage::{BuildEachTime, RelationBuilder, Schema};

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
        let pairs = |a: crate::RankedAnswer<anyk_storage::Weight>| {
            let values: Vec<i64> = a.values.iter().map(|v| v.int()).collect();
            (a.cost.get(), values)
        };
        let trees = ghd_trees::<SumCost>(q, rels, &d, &BuildEachTime).unwrap();
        let auto = ghd_trees::<SumCost>(q, rels, &auto_decomposition(q), &BuildEachTime).unwrap();
        for engine in ["part", "rec", "auto"] {
            let mut got: Vec<(f64, Vec<i64>)> = match engine {
                "part" => trees.part(SuccessorKind::Take2).map(pairs).collect(),
                "rec" => trees.rec().map(pairs).collect(),
                _ => auto.part(SuccessorKind::Lazy).map(pairs).collect(),
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
        // fhw(C6) = 2, against subw 5/3 on the cycle route.
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
        let got: Vec<f64> = (ghd_trees::<MaxCost>(&q, &rels, &d, &BuildEachTime).unwrap())
            .part(SuccessorKind::Lazy)
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
        let err = match ghd_trees::<crate::ranking::LexCost>(&q, &rels, &d, &BuildEachTime) {
            Err(e) => e,
            Ok(_) => panic!("lex must be rejected on decomposed plans"),
        };
        assert_eq!(err, TdpError::NonCollapsibleRanking);
    }
}
