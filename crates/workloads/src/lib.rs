//! # anyk-workloads
//!
//! Seeded, reproducible synthetic workloads for the counted claims in
//! `tests/` and the `benchmark/` workloads. The paper is a tutorial and evaluates on synthetic
//! graph-pattern workloads (plus the adversarial instances its
//! complexity arguments are built on); this crate generates:
//!
//! * [`graphs`] — random weighted edge relations (uniform or Zipf-skewed
//!   endpoints, several weight distributions).
//! * [`patterns`] — ready-to-run instances of path / star / cycle
//!   queries over those relations.
//! * [`adversarial`] — the §3 worst-case triangle instance, the
//!   anti-correlated rank-join inputs, and bottom-heavy paths where
//!   sorted-access top-k algorithms degrade.
//! * [`middleware`] — ranked-list instances for FA / TA / NRA.
//! * [`dag`] — layered DAGs for the k-shortest-path adapter.
//!
//! Everything takes an explicit `seed`; identical seeds produce
//! identical workloads on every platform (we use `StdRng`, which is
//! seedable and portable).

pub mod adversarial;
pub mod dag;
pub mod graphs;
pub mod middleware;
pub mod patterns;

pub use adversarial::{anticorrelated_pair, bottom_heavy_path, worst_case_triangle};
pub use graphs::{random_edge_relation, WeightDist};
pub use patterns::{cycle_instance, path_instance, star_instance, AcyclicInstance};
