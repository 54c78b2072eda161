//! # anyk — Optimal Join Algorithms Meet Top-k
//!
//! A Rust implementation of the algorithm families surveyed in
//! *"Optimal Join Algorithms Meet Top-k"* (Tziavelis, Gatterbauer,
//! Riedewald — SIGMOD 2020): classic top-k (Fagin/Threshold/NRA,
//! rank-join), (worst-case) optimal joins (Yannakakis, Generic-Join,
//! decompositions, AGM bound), and their intersection — **ranked
//! enumeration ("any-k")** over join queries.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`engine`] — **the unified entry point**: a planner-routed
//!   [`Engine`](engine::Engine) that turns any conjunctive query plus
//!   a runtime [`RankSpec`](engine::RankSpec) into a
//!   [`RankedStream`](engine::RankedStream).
//! * [`serve`] — the query **service**: a textual ranked-CQ language
//!   (`SELECT R(x,y), S(y,z) RANK BY sum LIMIT 10;`), one service-wide
//!   cursor table with TTL deadlines + admission control,
//!   and a line protocol over TCP — an event-driven readiness
//!   transport on epoll — or the in-process
//!   [`LocalClient`](serve::LocalClient). See
//!   `docs/ARCHITECTURE.md` for the full layer map.
//! * [`storage`] — relational substrate (values, relations, indexes,
//!   tries).
//! * [`query`] — conjunctive queries, hypergraphs, acyclicity,
//!   decompositions, widths, the AGM bound.
//! * [`join`] — batch joins: Yannakakis, binary plans, Generic-Join,
//!   Boolean evaluation, the 4-cycle union-of-trees plan.
//! * [`topk`] — classic top-k: FA, TA, NRA, HRJN rank-join, J*.
//! * [`core`] — any-k ranked enumeration: T-DP, ANYK-PART (Eager / All /
//!   Take2 / Lazy / Quick), ANYK-REC, batch baselines, cyclic plans.
//! * [`workloads`] — seeded synthetic generators for every experiment.
//!
//! ## Quickstart
//!
//! Register relations in a catalog, hand the engine a query and a
//! ranking, and pull answers cheapest-first. The planner routes by
//! query shape (GYO + T-DP for acyclic queries, specialized cyclic
//! plans otherwise) — no algorithm selection required:
//!
//! ```
//! use anyk::prelude::*;
//!
//! let mut catalog = Catalog::new();
//! let mut r = RelationBuilder::new(Schema::new(["a", "b"]));
//! r.push_ints(&[1, 10], 0.3);
//! r.push_ints(&[2, 10], 0.1);
//! catalog.register("R", r.finish());
//! let mut s = RelationBuilder::new(Schema::new(["b", "c"]));
//! s.push_ints(&[10, 100], 0.5);
//! s.push_ints(&[10, 200], 0.05);
//! catalog.register("S", s.finish());
//!
//! let engine = Engine::new(catalog);
//! let q = QueryBuilder::new()
//!     .atom("R", &["a", "b"])
//!     .atom("S", &["b", "c"])
//!     .build();
//!
//! // Ranked answers arrive one by one, cheapest first, no k needed
//! // upfront; the ranking function is a runtime value.
//! let mut stream = engine.query(q).rank_by(RankSpec::Sum).plan()?;
//! let first = stream.next().unwrap();
//! let second = stream.next().unwrap();
//! assert!(first.cost <= second.cost);
//! assert_eq!(first.ints(), vec![2, 10, 200]); // 0.1 + 0.05
//! # Ok::<(), anyk::engine::EngineError>(())
//! ```
//!
//! The hand-wired layers ([`core`], [`join`], …) remain public for
//! benchmarks and for callers that need one specific algorithm.

/// One-stop imports for typical usage.
///
/// ```
/// use anyk::prelude::*;
/// let q = path_query(2);
/// assert!(is_acyclic(&q));
/// ```
pub mod prelude {
    pub use anyk_core::{
        AnyK, AnyKPart, AnyKRec, BatchHeap, BatchSorted, LexCost, MaxCost, MinCost, ProdCost,
        RankingFunction, SuccessorKind, SumCost, TdpInstance, UnrankedEnum,
    };
    pub use anyk_engine::{
        AnyKVariant, Cost, Engine, EngineError, EngineOpts, Plan, PreparedQuery, RankSpec,
        RankedAnswer, RankedStream, Route, ShardedEngine,
    };
    pub use anyk_query::cq::{
        chorded_cycle_query, cycle_query, path_query, star_query, triangle_query, QueryBuilder,
    };
    pub use anyk_query::gyo::{gyo_reduce, is_acyclic, GyoResult};
    pub use anyk_serve::{BindError, LocalClient, ServeError, Service, ServiceConfig};
    pub use anyk_storage::{
        Catalog, Relation, RelationBuilder, Schema, StorageError, Value, Weight,
    };
    pub use anyk_workloads::graphs::WeightDist;
    pub use anyk_workloads::patterns::{path_instance, star_instance};
}

pub use anyk_core as core;
pub use anyk_engine as engine;
pub use anyk_join as join;
pub use anyk_query as query;
pub use anyk_serve as serve;
pub use anyk_storage as storage;
pub use anyk_topk as topk;
pub use anyk_workloads as workloads;
