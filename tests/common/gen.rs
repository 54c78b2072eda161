//! The one instance generator the oracle, property, and concurrency
//! tests all share (previously three near-identical copies).
//!
//! All generators emit **dyadic** weights (small multiples of powers
//! of two): sums and small products of dyadics are exact in `f64`, so
//! cost comparisons against the oracle are bitwise even though the
//! engine and the oracle combine weights in different orders.

use anyk::prelude::*;
use proptest::prelude::*;

/// Proptest config whose case count can be raised from the
/// environment (`ANYK_PROPTEST_CASES`) — CI runs the oracle and cyclic
/// property suites with more cases than a local `cargo test`.
pub fn cases_from_env(default_cases: u32) -> ProptestConfig {
    let cases = std::env::var("ANYK_PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default_cases);
    ProptestConfig::with_cases(cases)
}

/// Random binary relation over a small domain with dyadic weights
/// (multiples of 1/4 below 16).
pub fn arb_relation(max_rows: usize, domain: i64) -> impl Strategy<Value = Relation> {
    prop::collection::vec((0..domain, 0..domain, 0i32..64), 1..=max_rows).prop_map(|rows| {
        let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
        for (x, y, w) in rows {
            b.push_ints(&[x, y], w as f64 / 4.0);
        }
        b.finish()
    })
}

/// Deterministic pseudo-random edge relation (xorshift64) with dyadic
/// weights — the fixed-seed flavor for tests that need reproducible
/// instances without a proptest runner (concurrency tests, fixtures).
pub fn scrambled_edges(n: u64, domain: i64, seed: u64) -> Relation {
    let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
    let mut x = seed | 1;
    for _ in 0..n {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let a = (x % domain as u64) as i64;
        let c = ((x >> 17) % domain as u64) as i64;
        let w = ((x >> 37) % 64) as f64 / 8.0;
        b.push_ints(&[a, c], w);
    }
    b.finish()
}

/// Small fixed edge relation from explicit rows — fixture helper.
pub fn edge_rel(rows: &[(i64, i64, f64)]) -> Relation {
    let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
    for &(x, y, w) in rows {
        b.push_ints(&[x, y], w);
    }
    b.finish()
}

/// Hub-skewed edges for the cycle route: two hubs (1 and 9) joined to
/// each other and, both ways, to the fan nodes 2..=5 — out-degree 5 —
/// over a light remainder (fan nodes have out-degree 2, the odd ring
/// 20→21→22→20 with a chord has at most 2), with two rows that repeat
/// the values of another. At the ~26 rows of this fixture a 5-, 6- or
/// 7-cycle splits at Δ = 3, so both hubs are heavy on every split
/// attribute and everything else is light.
pub fn hub_edges() -> Vec<(i64, i64, f64)> {
    let mut rows = vec![(1, 9, 0.5), (9, 1, 0.25)];
    for (hub, step) in [(1, 0.125), (9, 0.25)] {
        for i in 2..=5 {
            rows.push((hub, i, step * i as f64));
            rows.push((i, hub, step * (7 - i) as f64));
        }
    }
    rows.extend([(20, 21, 0.5), (21, 22, 0.25), (22, 20, 0.75), (20, 22, 1.0)]);
    // Duplicate-valued rows: one light, one on a hub.
    rows.extend([(21, 22, 0.375), (1, 2, 1.5)]);
    rows
}

/// A sparse edge set for the cycle route's lone-tree path: the
/// circulant i → i+1, i → i+2 over nine nodes, plus one row repeating
/// the values of another — out-degree at most 3 = Δ for a 5-, 6- or
/// 7-cycle over these 19 rows, so no value is heavy.
pub fn sparse_ring_edges() -> Vec<(i64, i64, f64)> {
    let mut rows = Vec::new();
    for i in 0..9 {
        rows.push((i, (i + 1) % 9, 0.25 * (i % 4) as f64 + 0.125));
        rows.push((i, (i + 2) % 9, 0.5 * (i % 3) as f64));
    }
    rows.push((0, 1, 0.75));
    rows
}

/// The labels of the union-of-trees cases the planner's cycle route
/// makes of `rels` (an ℓ-cycle instance), heavy values stripped:
/// `heavy-x1`, `light-x1,heavy-x2`, …, `light-light`, deduplicated in
/// case order.
pub fn cycle_case_kinds(rels: &[Relation]) -> Vec<String> {
    use anyk::join::cycle::cycle_cases;
    use anyk::query::cycles::cycle_heavy_threshold;
    let n = rels.iter().map(Relation::len).max().unwrap_or(0);
    let threshold = cycle_heavy_threshold(n, rels.len());
    let mut kinds: Vec<String> = (cycle_cases(rels, threshold).iter())
        .map(|case| case.label.split('=').next().unwrap().to_string())
        .collect();
    kinds.dedup();
    kinds
}

/// The random acyclic query shapes the property tests draw from:
/// `star == 0` → an `n`-path, otherwise an `n`-star.
pub fn shaped_acyclic_query(star: usize, n: usize) -> anyk::query::cq::ConjunctiveQuery {
    if star == 0 {
        path_query(n)
    } else {
        star_query(n)
    }
}

/// A snowflake query: a 3-star whose first two arms extend by one more
/// hop — the third acyclic shape (beyond path/star) the oracle suite
/// pins.
pub fn snowflake_query() -> anyk::query::cq::ConjunctiveQuery {
    QueryBuilder::new()
        .atom("S1", &["c", "a1"])
        .atom("S2", &["c", "a2"])
        .atom("S3", &["c", "a3"])
        .atom("P1", &["a1", "b1"])
        .atom("P2", &["a2", "b2"])
        .build()
}
