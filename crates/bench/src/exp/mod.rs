//! Experiment implementations: E1–E13 regenerate the paper's figures
//! and tables, E14, E15, E17 and E20 assert claims about the engine
//! built on them.
//!
//! Each experiment is a `run(scale)` function printing its table(s);
//! `scale` multiplies input sizes (default 1.0; use 0.25 for a quick
//! smoke run, 2.0+ for sharper slope estimates).

pub mod e01_triangle_wco;
pub mod e02_yannakakis;
pub mod e03_boolean_c4;
pub mod e04_topk_c4;
pub mod e05_ttk_curves;
pub mod e06_delay;
pub mod e07_middleware;
pub mod e08_rankjoin_vs_anyk;
pub mod e09_part_vs_rec;
pub mod e10_ranking_functions;
pub mod e11_variants_table;
pub mod e12_widths_table;
pub mod e13_subw_vs_fhw;
pub mod e14_engine_routing;
pub mod e15_prepared_serving;
pub mod e17_index_catalog;
pub mod e20_live_appends;

/// All experiment ids in order.
pub const ALL: [&str; 17] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e17", "e20",
];

/// Dispatch one experiment by id.
pub fn run(id: &str, scale: f64) -> bool {
    match id {
        "e1" => e01_triangle_wco::run(scale),
        "e2" => e02_yannakakis::run(scale),
        "e3" => e03_boolean_c4::run(scale),
        "e4" => e04_topk_c4::run(scale),
        "e5" => e05_ttk_curves::run(scale),
        "e6" => e06_delay::run(scale),
        "e7" => e07_middleware::run(scale),
        "e8" => e08_rankjoin_vs_anyk::run(scale),
        "e9" => e09_part_vs_rec::run(scale),
        "e10" => e10_ranking_functions::run(scale),
        "e11" => e11_variants_table::run(scale),
        "e12" => e12_widths_table::run(scale),
        "e13" => e13_subw_vs_fhw::run(scale),
        "e14" => e14_engine_routing::run(scale),
        "e15" => e15_prepared_serving::run(scale),
        "e17" => e17_index_catalog::run(scale),
        "e20" => e20_live_appends::run(scale),
        _ => return false,
    }
    true
}
