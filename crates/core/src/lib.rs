//! # anyk-core
//!
//! **Ranked enumeration over join queries ("any-k")** — the paper's
//! central topic (Part 3 of *Optimal Join Algorithms Meet Top-k*,
//! SIGMOD 2020): return join answers one by one in ranking order,
//! minimizing the time to the k-th answer *for every k simultaneously*,
//! without knowing k in advance.
//!
//! ## Architecture
//!
//! * [`ranking`] — ranking functions as selective dioids (sum, max, min,
//!   product, lexicographic).
//! * [`tdp`] — T-DP preprocessing shared by all engines: full reducer,
//!   pre-order serialization, join-key groups, bottom-up optimal
//!   subtree costs.
//! * [`part`] — **ANYK-PART** (Lawler–Murty partitioning) with five
//!   successor orders ([`succorder`]): Eager, All, Take2, Lazy, Quick.
//! * [`rec`] — **ANYK-REC** (recursive enumeration with memoized shared
//!   suffix streams, the k-shortest-path lineage).
//! * [`batch`] — join-then-sort / join-then-heap baselines.
//! * [`union`] + [`cyclic`] — the one prepared shape of every any-k
//!   plan, a union of T-DP trees ([`Trees`]) merged into one global
//!   ranked stream: many trees for a simple cycle's submodular-width
//!   case split, one for an acyclic query — plus the triangle's WCO
//!   materialization.
//! * [`decomposed`] — the one-tree plan for *arbitrary* cyclic queries
//!   through tree decompositions (pays fhw instead of subw).
//! * [`unranked`] — constant-delay *unordered* enumeration (the §4
//!   baseline that ranked enumeration adds ordering on top of).
//! * [`ksp`] — k-shortest paths as a thin adapter (the classic special
//!   case and an independent oracle).
//!
//! ## Quick example
//!
//! ```
//! use anyk_core::{AnyK, part::AnyKPart, succorder::SuccessorKind,
//!                 ranking::SumCost, tdp::TdpInstance};
//! use anyk_query::cq::path_query;
//! use anyk_query::gyo::{gyo_reduce, GyoResult};
//! use anyk_storage::{Relation, RelationBuilder, Schema};
//!
//! let q = path_query(2);
//! let tree = match gyo_reduce(&q) { GyoResult::Acyclic(t) => t, _ => unreachable!() };
//! let mk = |rows: &[(i64, i64, f64)], cols: [&str; 2]| {
//!     let mut b = RelationBuilder::new(Schema::new(cols));
//!     for &(x, y, w) in rows { b.push_ints(&[x, y], w); }
//!     b.finish()
//! };
//! let rels = vec![
//!     mk(&[(1, 2, 1.0), (1, 3, 0.5)], ["a", "b"]),
//!     mk(&[(2, 5, 1.0), (3, 6, 0.25)], ["b", "c"]),
//! ];
//! let inst = TdpInstance::<SumCost>::prepare(&q, &tree, rels).unwrap();
//! let answers: Vec<_> = AnyKPart::new(inst, SuccessorKind::Lazy).collect();
//! assert_eq!(answers.len(), 2);
//! assert!(answers[0].cost <= answers[1].cost);
//! ```

pub mod answer;
pub mod batch;
pub mod cyclic;
pub mod decomposed;
pub mod ksp;
pub mod part;
pub mod ranking;
pub mod rec;
pub mod slab;
pub mod succorder;
pub mod tdp;
pub mod union;
pub mod unranked;

pub use answer::{AnyK, RankedAnswer};
pub use batch::{materialize_ranked, BatchHeap, BatchSorted};
pub use cyclic::{
    cycle_trees, prepare_triangle, triangle_ranked, wco_ranked_materialize, LazySortedAnswers,
    LazySortedStream, SortedAnswers, SortedStream, Trees,
};
pub use decomposed::{auto_decomposition, ghd_trees};
pub use ksp::{k_shortest_paths, LayeredDag};
pub use part::AnyKPart;
pub use ranking::{
    LexCost, LexWeights, MaxCost, MinCost, ProdCost, RankingFunction, SumCost, WeightDioid,
};
pub use rec::AnyKRec;
pub use slab::AnswerSlab;
pub use succorder::SuccessorKind;
pub use tdp::{TdpError, TdpInstance};
pub use union::{CanonicalOrder, RankedMerge, RankedUnion, TournamentTree};
pub use unranked::UnrankedEnum;
