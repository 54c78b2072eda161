//! # anyk-join
//!
//! Batch join algorithms from Part 2 of *Optimal Join Algorithms Meet
//! Top-k*:
//!
//! * [`semijoin`] — semi-join reductions and the **full reducer** over a
//!   join tree (Bernstein–Chiu; the preprocessing that puts an acyclic
//!   database into a globally consistent state), by sort-merge over
//!   join-key tries, and the join-key groups that fall out of it.
//! * [`yannakakis`] — the O~(n + r) acyclic join algorithm, with
//!   materializing, streaming, and counting variants.
//! * [`binary`] — textbook left-deep binary join plans: the provably
//!   suboptimal baseline whose intermediate results can be
//!   asymptotically larger than the output (§3's triangle example).
//! * [`generic_join`](mod@generic_join) — the worst-case optimal Generic-Join (Ngo–Ré–
//!   Rudra), matching the AGM bound via per-variable leapfrog
//!   intersection of tries.
//! * [`leapfrog`] — Leapfrog Triejoin (Veldhuizen), the same worst-case
//!   optimality in the classic trie-iterator formulation; an
//!   independent implementation the tests cross-check against.
//! * [`boolean`] — Boolean query evaluation with early exit, including
//!   O~(n^(2−1/⌈ℓ/2⌉)) ℓ-cycle detection through the submodular-width
//!   plan (O~(n^1.5) for the 4-cycle).
//! * [`cases`] — the one shape of every decomposed plan: a list of
//!   acyclic cases, each knowing where its columns go in the original
//!   output; Boolean and batch execution over such a list.
//! * [`cycle`] — the union-of-trees case split for the simple ℓ-cycle,
//!   any ℓ: heavy/light over the attributes inside the two half-chains,
//!   many cases with disjoint answers, bag semantics. [`c4`] is its
//!   ℓ = 4 entry point.
//! * [`decomposed`] — general O~(n^fhw) preprocessing for *any* cyclic
//!   query: materialize decomposition bags into one case over the bag
//!   tree.
//! * [`nested_loop`] — the brute-force oracle used by the test suite.

pub mod binary;
pub mod boolean;
pub mod c4;
pub mod cases;
pub mod cycle;
pub mod decomposed;
pub mod generic_join;
pub mod leapfrog;
pub mod nested_loop;
pub mod semijoin;
pub mod yannakakis;

pub use binary::{binary_join, BinaryJoinStats};
pub use cases::{cases_exist, cases_join, CaseOut, TreeCase};
pub use decomposed::{decomposed_boolean, decomposed_join, ghd_plan, ghd_plan_with};
pub use generic_join::{
    generic_join, generic_join_materialize, generic_join_trie_requests, GenericJoinStats,
};
pub use leapfrog::{leapfrog_materialize, leapfrog_triejoin};
pub use semijoin::full_reducer;
pub use yannakakis::{yannakakis_count, yannakakis_for_each, yannakakis_join};
