//! The four workloads. Each is a seeded, pre-generated operation list
//! that a round executes whole, from an identical starting state.

pub mod cold_cyclic;
pub mod drain_deep;
pub mod live_writes;
pub mod serve_pages;

use crate::harness::Workload;
use crate::layers::{LayerInputs, LayerQuery};
use anyk_engine::RankSpec;
use anyk_query::cq::ConjunctiveQuery;
use anyk_storage::{Catalog, Relation};

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["serve_pages", "drain_deep", "cold_cyclic", "live_writes"];

/// Generate workload `name` from `seed` at `scale` (1.0 = as gated).
pub fn generate(name: &str, seed: u64, scale: f64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "serve_pages" => Box::new(serve_pages::ServePages::generate(seed, scale)),
        "drain_deep" => Box::new(drain_deep::DrainDeep::generate(seed, scale)),
        "cold_cyclic" => Box::new(cold_cyclic::ColdCyclic::generate(seed, scale)),
        "live_writes" => Box::new(live_writes::LiveWrites::generate(seed, scale)),
        _ => return None,
    })
}

/// A catalog holding `relations` as `R1`, `R2`, ….
fn numbered_catalog(relations: &[Relation]) -> Catalog {
    let mut catalog = Catalog::new();
    for (i, rel) in relations.iter().enumerate() {
        catalog.register(format!("R{}", i + 1), rel.clone());
    }
    catalog
}

/// Layer-suite inputs of a workload over `R1..R4`: the triangle kernels
/// run over the first three relations, the rest over all four.
fn numbered_layer_inputs(
    relations: &[Relation],
    queries: impl Iterator<Item = (ConjunctiveQuery, RankSpec)>,
) -> LayerInputs {
    let r = |i: usize| relations[i].clone();
    LayerInputs {
        catalog: numbered_catalog(relations),
        queries: queries.map(|(cq, rank)| LayerQuery { cq, rank }).collect(),
        triangle: [r(0), r(1), r(2)],
        four: [r(0), r(1), r(2), r(3)],
    }
}
