//! Experiment implementations: E14, E15, E17 and E20 assert claims
//! about the engine. The paper's own claims are counted assertions in
//! the facade's `tests/paper_claims.rs`.
//!
//! Each experiment is a `run(scale)` function printing its table(s);
//! `scale` multiplies input sizes (default 1.0; use 0.1 for a quick
//! smoke run).

pub mod e14_engine_routing;
pub mod e15_prepared_serving;
pub mod e17_index_catalog;
pub mod e20_live_appends;

/// An experiment: its id and its `run(scale)`.
pub type Experiment = (&'static str, fn(f64));

/// Every experiment, by id, in order.
pub const ALL: [Experiment; 4] = [
    ("e14", e14_engine_routing::run),
    ("e15", e15_prepared_serving::run),
    ("e17", e17_index_catalog::run),
    ("e20", e20_live_appends::run),
];
