//! Ranking functions as *selective dioids* (Part 3 of the paper: "What
//! types of ranking functions can be supported efficiently?").
//!
//! A ranking function combines the weights of an answer's input tuples
//! into a totally ordered cost. Any-k algorithms need exactly three
//! properties, captured by [`RankingFunction`]:
//!
//! 1. a **total order** on costs (`Cost: Ord`),
//! 2. an **associative combine** with identity (a monoid) — commutativity
//!    is *not* required: all combines happen in the join tree's
//!    serialization order, which is what lets [`LexCost`] work,
//! 3. **monotonicity**: `a <= a'` implies `combine(a, b) <= combine(a',
//!    b)` and `combine(b, a) <= combine(b, a')` — the principle of
//!    optimality that dynamic programming needs.
//!
//! Together with the selective order (`min`) this is the "selective
//! dioid" structure of the companion paper. Crucially, **no inverse is
//! required**: T-DP's deviation costs are computed with prefix/suffix
//! aggregates rather than subtraction, so `max` (which has no inverse)
//! is supported.

use anyk_storage::Weight;
use std::cmp::Ordering;
use std::fmt::{self, Debug};

/// The weight-level view of a scalar ranking: an `(identity, combine)`
/// pair on raw [`Weight`]s mirroring the cost dioid, satisfying
///
/// * `lift(combine(a, b)) == combine(lift(a), lift(b))`, and
/// * `lift(identity) == identity()`.
///
/// Plans that **pre-join input tuples** — a cycle's light-light
/// bags (`anyk_join::cycle`) and GHD bag materialization
/// (`anyk_join::decomposed`) — must collapse several tuple weights
/// into the single weight slot of a derived tuple; this view is what
/// lets them do so under *any* scalar ranking instead of baking in
/// `+`. Rankings whose costs cannot round-trip through one weight
/// (lexicographic: costs concatenate) have no such view and cannot
/// drive weight-merging plans — the planner already rejects them on
/// cyclic routes.
#[derive(Debug, Clone, Copy)]
pub struct WeightDioid {
    /// `lift(identity)` must equal the cost dioid's identity.
    pub identity: Weight,
    /// Weight-level `⊗`, commuting with `lift`.
    pub combine: fn(Weight, Weight) -> Weight,
}

/// A ranking function over tuple weights. See module docs for the laws;
/// they are property-tested in this module.
///
/// Both the function and its cost are `Send + Sync`: prepared any-k
/// state ([`TdpInstance`](crate::tdp::TdpInstance) and the materialized
/// cyclic plans) is shared across threads by the serving layer, so
/// everything it stores — costs included — must be shareable.
pub trait RankingFunction: Clone + Send + Sync + 'static {
    /// Totally ordered cost; smaller = better (ranked earlier).
    type Cost: Clone + Ord + Debug + Send + Sync;

    /// Lift one tuple weight into a cost.
    fn lift(w: Weight) -> Self::Cost;

    /// The identity element of `combine`.
    fn identity() -> Self::Cost;

    /// Monotone associative combination (`⊗` of the dioid).
    fn combine(a: &Self::Cost, b: &Self::Cost) -> Self::Cost;

    /// The weight-level view of this ranking, or `None` when costs
    /// cannot be collapsed into a single weight (see [`WeightDioid`]).
    /// Defaults to `None` — the safe answer; scalar rankings override.
    fn weight_dioid() -> Option<WeightDioid> {
        None
    }
}

/// Rank by the **sum** of tuple weights (the paper's default: "top-k
/// lightest 4-cycles" sums edge weights).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SumCost;

impl RankingFunction for SumCost {
    type Cost = Weight;

    #[inline]
    fn lift(w: Weight) -> Weight {
        w
    }

    #[inline]
    fn identity() -> Weight {
        Weight::ZERO
    }

    #[inline]
    fn combine(a: &Weight, b: &Weight) -> Weight {
        Weight::new(a.get() + b.get())
    }

    fn weight_dioid() -> Option<WeightDioid> {
        Some(WeightDioid {
            identity: Weight::ZERO,
            combine: |a, b| Weight::new(a.get() + b.get()),
        })
    }
}

/// Rank by the **maximum** tuple weight (bottleneck ranking). `max` has
/// no inverse — this is the ranking function that rules out
/// subtraction-based deviation costs and motivates the prefix/suffix
/// formulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaxCost;

impl RankingFunction for MaxCost {
    type Cost = Weight;

    #[inline]
    fn lift(w: Weight) -> Weight {
        w
    }

    #[inline]
    fn identity() -> Weight {
        Weight::new(f64::NEG_INFINITY)
    }

    #[inline]
    fn combine(a: &Weight, b: &Weight) -> Weight {
        (*a).max(*b)
    }

    fn weight_dioid() -> Option<WeightDioid> {
        Some(WeightDioid {
            identity: Weight::new(f64::NEG_INFINITY),
            combine: |a, b| a.max(b),
        })
    }
}

/// Rank by the **minimum** tuple weight, ascending (answers whose best
/// edge is lightest come first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MinCost;

impl RankingFunction for MinCost {
    type Cost = Weight;

    #[inline]
    fn lift(w: Weight) -> Weight {
        w
    }

    #[inline]
    fn identity() -> Weight {
        Weight::new(f64::INFINITY)
    }

    #[inline]
    fn combine(a: &Weight, b: &Weight) -> Weight {
        (*a).min(*b)
    }

    fn weight_dioid() -> Option<WeightDioid> {
        Some(WeightDioid {
            identity: Weight::new(f64::INFINITY),
            combine: |a, b| a.min(b),
        })
    }
}

/// Rank by the **product** of tuple weights. Monotone only for
/// non-negative weights — lifting a negative weight panics in debug
/// builds (probability-style workloads satisfy this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProdCost;

impl RankingFunction for ProdCost {
    type Cost = Weight;

    #[inline]
    fn lift(w: Weight) -> Weight {
        debug_assert!(w.get() >= 0.0, "ProdCost requires non-negative weights");
        w
    }

    #[inline]
    fn identity() -> Weight {
        Weight::new(1.0)
    }

    #[inline]
    fn combine(a: &Weight, b: &Weight) -> Weight {
        Weight::new(a.get() * b.get())
    }

    fn weight_dioid() -> Option<WeightDioid> {
        Some(WeightDioid {
            identity: Weight::new(1.0),
            combine: |a, b| Weight::new(a.get() * b.get()),
        })
    }
}

/// **Lexicographic** ranking: compare the sequence of tuple weights in
/// the join tree's serialization order, position by position. The cost
/// is the concatenated weight vector ([`LexWeights`]); `combine` is
/// concatenation — associative and monotone but *not* commutative,
/// which is fine (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LexCost;

impl RankingFunction for LexCost {
    type Cost = LexWeights;

    #[inline]
    fn lift(w: Weight) -> LexWeights {
        LexWeights::from(&[w][..])
    }

    #[inline]
    fn identity() -> LexWeights {
        LexWeights::from(&[][..])
    }

    #[inline]
    fn combine(a: &LexWeights, b: &LexWeights) -> LexWeights {
        LexWeights::concat(a.as_slice(), b.as_slice())
    }
}

/// Weights a [`LexWeights`] holds in place before it spills to the
/// heap: a path or star of up to four atoms costs no allocation.
const LEX_INLINE: usize = 4;

/// A lexicographic cost: an answer's tuple weights in serialization
/// order. Up to four weights live in place, a longer vector on the
/// heap; every reader goes through [`as_slice`](Self::as_slice), and
/// `Ord`/`Eq` are exactly `Vec<Weight>`'s (position by position, a
/// proper prefix first).
#[derive(Clone)]
pub struct LexWeights(Repr);

#[derive(Clone)]
enum Repr {
    /// `buf[..len]` are the weights; the rest is padding.
    Inline {
        len: u8,
        buf: [Weight; LEX_INLINE],
    },
    Spilled(Vec<Weight>),
}

impl LexWeights {
    /// `a` followed by `b`.
    #[inline]
    fn concat(a: &[Weight], b: &[Weight]) -> LexWeights {
        let len = a.len() + b.len();
        match u8::try_from(len) {
            Ok(short) if len <= LEX_INLINE => {
                // An element loop: `copy_from_slice` at a length known
                // only at run time is a `memcpy` call each.
                let mut buf = [Weight::ZERO; LEX_INLINE];
                for (to, &w) in buf.iter_mut().zip(a.iter().chain(b)) {
                    *to = w;
                }
                LexWeights(Repr::Inline { len: short, buf })
            }
            _ => {
                let mut out = Vec::with_capacity(len);
                out.extend_from_slice(a);
                out.extend_from_slice(b);
                LexWeights(Repr::Spilled(out))
            }
        }
    }

    /// The weights, in serialization order.
    #[inline]
    pub fn as_slice(&self) -> &[Weight] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Spilled(v) => v,
        }
    }
}

impl From<&[Weight]> for LexWeights {
    fn from(ws: &[Weight]) -> Self {
        LexWeights::concat(ws, &[])
    }
}

impl From<LexWeights> for Vec<Weight> {
    /// A spilled vector moves out as it is; an inline one is copied.
    fn from(ws: LexWeights) -> Self {
        match ws.0 {
            Repr::Spilled(v) => v,
            Repr::Inline { len, buf } => buf[..usize::from(len)].to_vec(),
        }
    }
}

impl PartialEq for LexWeights {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for LexWeights {}

impl PartialOrd for LexWeights {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for LexWeights {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl Debug for LexWeights {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn w(x: f64) -> Weight {
        Weight::new(x)
    }

    #[test]
    fn sum_basics() {
        let a = SumCost::lift(w(1.5));
        let b = SumCost::lift(w(2.0));
        assert_eq!(SumCost::combine(&a, &b), w(3.5));
        assert_eq!(SumCost::combine(&a, &SumCost::identity()), a);
    }

    #[test]
    fn max_basics() {
        let a = MaxCost::lift(w(1.5));
        let b = MaxCost::lift(w(2.0));
        assert_eq!(MaxCost::combine(&a, &b), w(2.0));
        assert_eq!(MaxCost::combine(&a, &MaxCost::identity()), a);
    }

    #[test]
    fn min_basics() {
        let a = MinCost::lift(w(1.5));
        let b = MinCost::lift(w(2.0));
        assert_eq!(MinCost::combine(&a, &b), w(1.5));
        assert_eq!(MinCost::combine(&b, &MinCost::identity()), b);
    }

    #[test]
    fn lex_has_no_weight_dioid() {
        // Lexicographic costs concatenate — they cannot round-trip
        // through a single weight, so weight-merging plans must be
        // unreachable for them.
        assert!(LexCost::weight_dioid().is_none());
    }

    #[test]
    fn lex_ordering() {
        let ab = LexCost::combine(&LexCost::lift(w(1.0)), &LexCost::lift(w(5.0)));
        let ab2 = LexCost::combine(&LexCost::lift(w(1.0)), &LexCost::lift(w(2.0)));
        let b = LexCost::combine(&LexCost::lift(w(2.0)), &LexCost::lift(w(0.0)));
        assert!(ab2 < ab);
        assert!(ab < b);
        assert_eq!(LexCost::combine(&LexCost::identity(), &ab), ab);
    }

    fn weights(xs: &[i32]) -> Vec<Weight> {
        xs.iter().map(|&x| w(f64::from(x))).collect()
    }

    #[test]
    fn lex_weights_spill_past_four_and_keep_every_weight() {
        for len in 0..=6 {
            let ws = weights(&(0..len).collect::<Vec<_>>());
            let lex = LexWeights::from(&ws[..]);
            assert!(matches!(lex.0, Repr::Inline { .. }) == (len <= 4), "{len}");
            assert_eq!(lex.as_slice(), &ws[..]);
            assert_eq!(Vec::from(lex), ws);
        }
        // Two inline halves concatenate into a spilled cost.
        let (a, b) = (weights(&[1, 2, 3]), weights(&[4, 5, 6]));
        let ab = LexCost::combine(&LexWeights::from(&a[..]), &LexWeights::from(&b[..]));
        assert_eq!(ab.as_slice(), &[a, b].concat()[..]);
        // A proper prefix ranks first, inline or spilled.
        let lex = |xs: &[i32]| LexWeights::from(&weights(xs)[..]);
        assert!(lex(&[1]) < lex(&[1, 2]));
        assert!(lex(&[1, 2, 3, 4]) < lex(&[1, 2, 3, 4, 0]));
        assert!(lex(&[1, 2, 3, 4, 0]) < lex(&[1, 2, 3, 5]));
        assert!(lex(&[]) < lex(&[-9]));
        assert_eq!(
            format!("{:?}", lex(&[1, 2])),
            format!("{:?}", weights(&[1, 2]))
        );
    }

    /// Check monotonicity + associativity + identity for a dioid.
    fn laws<R: RankingFunction>(xs: &[f64]) {
        // The weight-level view, if any, must commute with `lift`.
        if let Some(d) = R::weight_dioid() {
            assert_eq!(R::lift(d.identity), R::identity());
            for &a in xs {
                for &b in xs {
                    assert_eq!(
                        R::lift((d.combine)(w(a), w(b))),
                        R::combine(&R::lift(w(a)), &R::lift(w(b))),
                        "weight dioid must commute with lift"
                    );
                }
            }
        }
        let costs: Vec<R::Cost> = xs.iter().map(|&x| R::lift(w(x))).collect();
        for a in &costs {
            // identity
            assert_eq!(&R::combine(a, &R::identity()), a);
            assert_eq!(&R::combine(&R::identity(), a), a);
            for b in &costs {
                for c in &costs {
                    // associativity
                    assert_eq!(
                        R::combine(&R::combine(a, b), c),
                        R::combine(a, &R::combine(b, c))
                    );
                    // monotonicity in both arguments
                    if a <= b {
                        assert!(R::combine(a, c) <= R::combine(b, c));
                        assert!(R::combine(c, a) <= R::combine(c, b));
                    }
                }
            }
        }
    }

    // Weights are drawn as quarter-integers (dyadic rationals): float
    // arithmetic on them is exact, so the associativity law can be
    // checked with bitwise equality.
    fn dyadic(xs: &[i32]) -> Vec<f64> {
        xs.iter().map(|&x| x as f64 / 4.0).collect()
    }

    proptest! {
        #[test]
        fn sum_laws(xs in prop::collection::vec(-400i32..400, 1..5)) {
            laws::<SumCost>(&dyadic(&xs));
        }

        #[test]
        fn max_laws(xs in prop::collection::vec(-400i32..400, 1..5)) {
            laws::<MaxCost>(&dyadic(&xs));
        }

        #[test]
        fn min_laws(xs in prop::collection::vec(-400i32..400, 1..5)) {
            laws::<MinCost>(&dyadic(&xs));
        }

        #[test]
        fn prod_laws(xs in prop::collection::vec(0i32..64, 1..5)) {
            laws::<ProdCost>(&dyadic(&xs));
        }

        #[test]
        fn lex_laws(xs in prop::collection::vec(-400i32..400, 1..5)) {
            laws::<LexCost>(&dyadic(&xs));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Lengths 0–6 across the inline/spill boundary, from a range
        /// of five values so that shared prefixes and equal pairs are
        /// common: `Ord`, `Eq` and concatenation are `Vec<Weight>`'s.
        #[test]
        fn lex_weights_order_as_weight_vectors(
            a in prop::collection::vec(-2i32..3, 0..7),
            b in prop::collection::vec(-2i32..3, 0..7),
            cut in 0usize..7,
        ) {
            let (va, vb) = (weights(&a), weights(&b));
            let prefix = &va[..cut.min(va.len())];
            let (la, lb) = (LexWeights::from(&va[..]), LexWeights::from(&vb[..]));
            let lp = LexWeights::from(prefix);
            prop_assert_eq!(la.cmp(&lb), va.cmp(&vb));
            prop_assert_eq!(la == lb, va == vb);
            prop_assert_eq!(lp.cmp(&la), prefix.cmp(&va[..]));
            prop_assert_eq!(lp == la, prefix == &va[..]);
            let ab = LexCost::combine(&la, &lb);
            prop_assert_eq!(ab.as_slice(), &[va, vb].concat()[..]);
        }
    }
}
