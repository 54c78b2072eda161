//! # anyk-bench
//!
//! The experiment harness that regenerates the quantitative claims of
//! *Optimal Join Algorithms Meet Top-k* (E1–E13) and asserts the
//! engine's own claims (E14, E15, E17, E20).
//!
//! Run all experiments:
//!
//! ```text
//! cargo run -p anyk-bench --release --bin experiments -- all
//! cargo run -p anyk-bench --release --bin experiments -- e1 e5 --scale 0.5
//! ```
//!
//! Absolute numbers are machine-dependent; the experiments report the
//! *shapes* the paper claims (fitted log-log slopes, crossovers, who
//! wins) alongside raw numbers. Timings with spread, a host reference
//! and a parent/change comparison are the standalone `benchmark/`
//! package's job (`anykbench`).

pub mod exp;
pub mod util;
