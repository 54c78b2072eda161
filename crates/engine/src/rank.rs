//! Runtime-selectable ranking functions and the type-erased cost that
//! lets one [`RankedStream`](crate::RankedStream) serve every ranking.
//!
//! The core crate fixes the ranking function at compile time (`R:
//! RankingFunction` everywhere). A serving facade cannot: the ranking
//! arrives with the request. [`RankSpec`] is the runtime enum; the
//! engine monomorphizes internally (one match arm per spec) and erases
//! the concrete cost into [`Cost`].

use anyk_core::LexWeights;
use anyk_storage::Weight;
use std::cmp::Ordering;
use std::fmt;

/// A ranking function chosen at runtime.
///
/// | spec | combines weights by | commutative | cyclic plans |
/// |-------|--------------------|-------------|--------------|
/// | `Sum` | `+` (the paper's default) | yes | yes |
/// | `Max` | bottleneck maximum | yes | yes |
/// | `Min` | minimum, ascending | yes | yes |
/// | `Prod`| `×` (non-negative weights) | yes | yes |
/// | `Lex` | lexicographic over the serialization order | **no** | via materialization |
///
/// `Lex` weights serialize in join-tree pre-order on the acyclic
/// route; cyclic routes cannot drive their any-k case plans with a
/// non-commutative ranking, so there `Lex` runs off the materialized
/// answer set with weights serialized in **canonical atom order**
/// (the query's atom order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RankSpec {
    /// Sum of tuple weights (the paper's default ranking).
    #[default]
    Sum,
    /// Maximum tuple weight (bottleneck).
    Max,
    /// Minimum tuple weight, ascending.
    Min,
    /// Product of tuple weights (requires non-negative weights).
    Prod,
    /// Lexicographic comparison of the weight vector: join-tree
    /// serialization order on acyclic routes, canonical atom order on
    /// cyclic routes (which serve it from materialized answers).
    Lex,
}

impl RankSpec {
    /// Is `combine` commutative? Cyclic routes (union-of-trees, GHD
    /// bags) serialize atoms in per-case orders, so their any-k plans
    /// require a commutative ranking — non-commutative rankings fall
    /// back to the materialized (`Batch`-style) artifact there.
    pub fn is_commutative(self) -> bool {
        !matches!(self, RankSpec::Lex)
    }

    /// All specs, for exhaustive tests and CLI parsing.
    pub const ALL: [RankSpec; 5] = [
        RankSpec::Sum,
        RankSpec::Max,
        RankSpec::Min,
        RankSpec::Prod,
        RankSpec::Lex,
    ];

    /// Parse a case-insensitive name (`"sum"`, `"max"`, ...).
    pub fn parse(s: &str) -> Option<RankSpec> {
        let names = RankSpec::ALL.iter().map(|spec| (spec.label(), *spec));
        let aliases = [
            ("product", RankSpec::Prod),
            ("lexicographic", RankSpec::Lex),
        ];
        names
            .chain(aliases)
            .find_map(|(name, spec)| s.eq_ignore_ascii_case(name).then_some(spec))
    }

    /// The canonical lowercase name: what [`Display`](fmt::Display)
    /// writes and [`parse`](Self::parse) reads back.
    pub fn label(self) -> &'static str {
        match self {
            RankSpec::Sum => "sum",
            RankSpec::Max => "max",
            RankSpec::Min => "min",
            RankSpec::Prod => "prod",
            RankSpec::Lex => "lex",
        }
    }
}

impl fmt::Display for RankSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A type-erased ranking cost: scalar for `Sum`/`Max`/`Min`/`Prod`,
/// weight vector for `Lex`. One stream never mixes the two variants;
/// the cross-variant order exists only to keep `Ord` total.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cost {
    /// A single combined weight.
    Scalar(Weight),
    /// The per-slot weight vector of a lexicographic ranking.
    Lex(Vec<Weight>),
}

impl Cost {
    /// The scalar value, if this is a scalar cost.
    pub fn scalar(&self) -> Option<f64> {
        match self {
            Cost::Scalar(w) => Some(w.get()),
            Cost::Lex(_) => None,
        }
    }

    /// The weight vector, if this is a lexicographic cost.
    pub fn lex(&self) -> Option<&[Weight]> {
        match self {
            Cost::Lex(v) => Some(v),
            Cost::Scalar(_) => None,
        }
    }
}

impl PartialOrd for Cost {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cost {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Cost::Scalar(a), Cost::Scalar(b)) => a.cmp(b),
            (Cost::Lex(a), Cost::Lex(b)) => a.cmp(b),
            (Cost::Scalar(_), Cost::Lex(_)) => Ordering::Less,
            (Cost::Lex(_), Cost::Scalar(_)) => Ordering::Greater,
        }
    }
}

impl fmt::Display for Cost {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cost::Scalar(w) => write!(f, "{w}"),
            Cost::Lex(v) => {
                write!(f, "[")?;
                for (i, w) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{w}")?;
                }
                write!(f, "]")
            }
        }
    }
}

/// Conversion from a concrete ranking-function cost into the erased
/// [`Cost`]. Implemented for the two cost types the core rankings use.
pub trait IntoCost {
    /// Erase into [`Cost`].
    fn into_cost(self) -> Cost;
}

impl IntoCost for Weight {
    fn into_cost(self) -> Cost {
        Cost::Scalar(self)
    }
}

impl IntoCost for LexWeights {
    fn into_cost(self) -> Cost {
        Cost::Lex(self.into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for spec in RankSpec::ALL {
            assert_eq!(RankSpec::parse(&spec.to_string()), Some(spec));
        }
        assert_eq!(RankSpec::parse("SUM"), Some(RankSpec::Sum));
        assert_eq!(RankSpec::parse("bogus"), None);
    }

    #[test]
    fn commutativity_flags() {
        assert!(RankSpec::Sum.is_commutative());
        assert!(!RankSpec::Lex.is_commutative());
    }

    #[test]
    fn cost_order_and_accessors() {
        let a = Cost::Scalar(Weight::new(1.0));
        let b = Cost::Scalar(Weight::new(2.0));
        assert!(a < b);
        assert_eq!(a.scalar(), Some(1.0));
        assert!(a.lex().is_none());

        let la = Cost::Lex(vec![Weight::new(1.0), Weight::new(5.0)]);
        let lb = Cost::Lex(vec![Weight::new(1.0), Weight::new(6.0)]);
        assert!(la < lb);
        assert_eq!(la.lex().map(<[Weight]>::len), Some(2));
        assert!(a < la, "cross-variant order is total");
        assert_eq!(a.to_string(), "1");
    }
}
