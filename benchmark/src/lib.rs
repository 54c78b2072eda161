//! anykbench — a fixed-work benchmark of the any-k stack, driven from
//! outside through public functions only. See `benchmark/README.md`
//! for the metric and workload definitions.

pub mod alloc;
pub mod compare;
pub mod harness;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod oracle;
pub mod pin;
pub mod run;
pub mod stats;
pub mod workloads;
