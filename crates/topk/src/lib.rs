//! # anyk-topk
//!
//! Classic top-k algorithms from Part 1 of *Optimal Join Algorithms Meet
//! Top-k*: the middleware family (Fagin's Algorithm, the Threshold
//! Algorithm, No-Random-Access) and the top-k join family (HRJN
//! rank-join operators, a J*-style A* search).
//!
//! ## Two cost models, two conventions
//!
//! The **middleware model** ([`lists`], [`fa`], [`ta`], [`nra`]) follows
//! the literature: `m` ranked lists over a shared object-id space,
//! scores sorted *descending* (higher = better), cost = number of sorted
//! plus random accesses. This is the model in which TA is
//! instance-optimal, and the model the paper criticizes for ignoring
//! join cost.
//!
//! The **join model** ([`rank_join`], [`jstar`]) uses the same
//! convention as `anyk-core`: tuple weights, *lower = better*, inputs
//! sorted ascending — so rank-join and any-k run on identical workloads
//! and can be compared head-to-head in the RAM model
//! (`tests/paper_claims.rs`, E08: when the top answer needs tuples deep
//! in the lists, rank-join's buffered intermediate state blows up while
//! any-k stays linear).

pub mod ca;
pub mod fa;
pub mod jstar;
pub mod lists;
pub mod nra;
pub mod rank_join;
pub mod ta;

pub use ca::combined_topk;
pub use fa::fagin_topk;
pub use jstar::jstar_topk;
pub use lists::{Aggregation, ObjectId, RankedLists};
pub use nra::nra_topk;
pub use rank_join::{RankJoin, RjTuple, SortedScan};
pub use ta::threshold_topk;
