//! # anyk-bench
//!
//! The experiment harness that asserts the engine's own claims (E14,
//! E15, E17, E20). The quantitative claims of *Optimal Join Algorithms
//! Meet Top-k* are held as counted assertions in the facade's
//! `tests/paper_claims.rs`, not here.
//!
//! Run all experiments:
//!
//! ```text
//! cargo run -p anyk-bench --release --bin experiments -- all
//! cargo run -p anyk-bench --release --bin experiments -- e14 e15 --scale 0.5
//! ```
//!
//! Absolute numbers are machine-dependent; each experiment asserts the
//! shape of its claim (who wins, a bounded ratio) and prints the raw
//! numbers beside it. Timings with spread, a host reference and a
//! parent/change comparison are the standalone `benchmark/` package's
//! job (`anykbench`).

pub mod exp;
pub mod util;
