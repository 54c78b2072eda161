//! # anyk-bench
//!
//! The experiment harness that regenerates every quantitative claim of
//! *Optimal Join Algorithms Meet Top-k* (experiment index E1–E12 in
//! DESIGN.md / EXPERIMENTS.md).
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
//! wins) alongside raw numbers, and EXPERIMENTS.md records one full run.

pub mod exp;
pub mod util;
