//! Plans: what the planner decided and why.
//!
//! A [`Plan`] is produced before any enumeration work happens. It
//! records the chosen [`Route`] (which algorithm family runs), the
//! relevant width, and renders through `anyk_query::explain` so a
//! caller can log or inspect the decision.

use crate::rank::RankSpec;
use anyk_core::succorder::SuccessorKind;
use anyk_query::cq::ConjunctiveQuery;
use anyk_query::decompose::Decomposition;
use anyk_query::explain::{explain_decomposition, explain_join_tree};
use anyk_query::join_tree::JoinTree;
use std::fmt;

/// Which any-k machinery drives enumeration on a per-tree basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnyKVariant {
    /// ANYK-PART (Lawler–Murty partitioning) with a successor order.
    /// `Part(Eager)` is the default: its orders live in the shared
    /// prepared state, so streams spawn in `O(1)`.
    Part(SuccessorKind),
    /// ANYK-REC (recursive enumeration, memoized suffix streams).
    Rec,
    /// Materialize-then-sort baseline: Yannakakis + sort on acyclic
    /// routes, worst-case-optimal (Generic-Join) materialization + sort
    /// on cyclic routes. Useful for oracle comparisons and as the
    /// TTF-vs-TT(last) counterpoint in experiments.
    Batch,
}

impl Default for AnyKVariant {
    /// ANYK-PART with the Eager successor order. The companion paper
    /// prefers Lazy for a *single* stream, where Eager's sort is thrown
    /// away with the stream. A prepared query keeps each group's
    /// sort in its shared T-DP state and amortises it over every stream
    /// it serves, so that trade no longer applies — and Eager walks the
    /// same `(cost, row)` chain as Lazy, so the answers are identical.
    fn default() -> Self {
        AnyKVariant::Part(SuccessorKind::Eager)
    }
}

/// Engine-level execution options, all runtime-switchable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineOpts {
    /// Which any-k variant drives each tree of the plan.
    pub variant: AnyKVariant,
}

/// Whether the shared tries this plan's route requests were already
/// resident in the catalog's [`anyk_storage::IndexCatalog`] when the
/// plan was made. Rendered in `EXPLAIN` as `index = cached|built|n/a`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexUse {
    /// The route does not consult the shared index catalog (acyclic
    /// T-DP plans build their own per-node structures).
    NotApplicable,
    /// Every shared trie the route unconditionally requests was
    /// already resident: prepare is an index *lookup*, not a build.
    Cached,
    /// At least one requested trie (or a private prefilter trie) must
    /// be built during prepare.
    Built,
}

impl IndexUse {
    /// Short label for `EXPLAIN` output and tests.
    pub fn label(&self) -> &'static str {
        match self {
            IndexUse::NotApplicable => "n/a",
            IndexUse::Cached => "cached",
            IndexUse::Built => "built",
        }
    }
}

/// The route the planner chose for a query.
#[derive(Debug, Clone)]
pub enum Route {
    /// α-acyclic: GYO join tree + T-DP + the chosen any-k variant.
    /// Preprocessing `O~(n)`, delay `O~(1)` — width 1.
    Acyclic {
        /// The GYO-produced join tree.
        tree: JoinTree,
    },
    /// The triangle query: worst-case-optimal materialization of the
    /// single width-1.5 bag (Generic-Join), ranked lazily via a heap.
    Triangle,
    /// A simple cycle of length `len` ≥ 4: submodular-width
    /// union-of-trees plan (heavy/light case split at `threshold` over
    /// the attributes inside the cycle's two half-chains), one any-k
    /// stream per case, merged. Preprocessing `O~(n^(2−1/⌈len/2⌉))` —
    /// subw beats fhw 2; `O~(n^1.5)` at `len` = 4.
    Cycle {
        /// Number of atoms ℓ.
        len: usize,
        /// Heavy-degree cutoff Δ (the smallest `t` with `t^⌈ℓ/2⌉ ≥ n`).
        threshold: usize,
    },
    /// Any other cyclic query: GHD decomposition, bags materialized
    /// worst-case-optimally, any-k over the acyclic bag query.
    /// Preprocessing `O~(n^fhw)`.
    Decomposed {
        /// The chosen decomposition.
        decomp: Decomposition,
    },
}

impl Route {
    /// Short label for logs and tests.
    pub fn label(&self) -> &'static str {
        match self {
            Route::Acyclic { .. } => "acyclic",
            Route::Triangle => "triangle",
            Route::Cycle { .. } => "cycle",
            Route::Decomposed { .. } => "decomposed",
        }
    }
}

/// What the planner decided for one query: route, ranking, variant,
/// and the width governing preprocessing cost.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The planned query.
    pub query: ConjunctiveQuery,
    /// The chosen route.
    pub route: Route,
    /// The runtime ranking.
    pub rank: RankSpec,
    /// The any-k variant that will drive enumeration — `None` when the
    /// plan has a single implementation no variant choice affects:
    /// [`Route::Triangle`] (worst-case-optimal materialization + lazy
    /// heap), and cyclic routes under a non-commutative ranking (which
    /// serve the materialized artifact under canonical atom order).
    pub variant: Option<AnyKVariant>,
    /// The width governing preprocessing: 1 for acyclic, the
    /// submodular width for the specialized cycle plans, the
    /// decomposition's fractional hypertree width otherwise.
    pub width: f64,
    /// Were the route's shared tries already catalog-resident at
    /// planning time ([`IndexUse::Cached`]), or will prepare have to
    /// build at least one ([`IndexUse::Built`])?
    pub index: IndexUse,
    /// How many delta-backed atom occurrences this plan unions in: the
    /// prepared query merges `deltas + 1` ranked streams (`0` — the
    /// common case — means a single stream over base payloads only).
    /// Rendered in `EXPLAIN` as `deltas = n`.
    pub deltas: usize,
}

impl Plan {
    /// Render the plan: route header plus the `query::explain`
    /// rendering of the underlying tree or decomposition.
    pub fn explain(&self) -> String {
        let variant = match &self.variant {
            Some(v) => format!("{v:?}"),
            None => "n/a (materialized heap)".to_string(),
        };
        let mut out = format!(
            "plan: route = {}, rank = {}, variant = {}, width = {:.3}, index = {}, \
             deltas = {}\n  {}\n",
            self.route.label(),
            self.rank,
            variant,
            self.width,
            self.index.label(),
            self.deltas,
            self.query,
        );
        match &self.route {
            Route::Acyclic { tree } => {
                for line in explain_join_tree(&self.query, tree).lines() {
                    out.push_str("  ");
                    out.push_str(line);
                    out.push('\n');
                }
            }
            Route::Triangle => {
                out.push_str(
                    "  materialize all triangles worst-case-optimally (Generic-Join, \
                     O~(n^1.5)), then rank via lazy heap\n",
                );
            }
            Route::Cycle { len, threshold } => {
                out.push_str(&format!(
                    "  cycle({len}) threshold={threshold} width={:.3}: union-of-trees case \
                     split, one any-k stream per case, k-way merged\n",
                    self.width
                ));
            }
            Route::Decomposed { decomp } => {
                for line in explain_decomposition(&self.query, decomp).lines() {
                    out.push_str("  ");
                    out.push_str(line);
                    out.push('\n');
                }
            }
        }
        out
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.explain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use anyk_query::cq::{path_query, triangle_query};
    use anyk_query::gyo::{gyo_reduce, GyoResult};

    #[test]
    fn acyclic_plan_renders_tree() {
        let q = path_query(3);
        let tree = match gyo_reduce(&q) {
            GyoResult::Acyclic(t) => t,
            _ => unreachable!(),
        };
        let plan = Plan {
            query: q,
            route: Route::Acyclic { tree },
            rank: RankSpec::Sum,
            variant: Some(AnyKVariant::default()),
            width: 1.0,
            index: IndexUse::NotApplicable,
            deltas: 0,
        };
        let text = plan.explain();
        assert!(text.contains("route = acyclic"), "{text}");
        assert!(text.contains("R2("), "{text}");
        assert!(text.contains("width = 1.000"), "{text}");
        assert!(text.contains("index = n/a"), "{text}");
        assert!(text.contains("deltas = 0"), "{text}");
    }

    #[test]
    fn triangle_plan_mentions_wco() {
        let plan = Plan {
            query: triangle_query(),
            route: Route::Triangle,
            rank: RankSpec::Max,
            variant: None,
            width: 1.5,
            index: IndexUse::Built,
            deltas: 2,
        };
        assert!(plan.to_string().contains("Generic-Join"));
        assert!(plan.to_string().contains("variant = n/a"));
        assert!(plan.to_string().contains("index = built"));
        assert!(plan.to_string().contains("deltas = 2"));
    }
}
