//! `PreparedQuery::stream()` is O(1): what a warm spawn allocates —
//! how many blocks and how many bytes — does not depend on the input
//! size. Counted with a test-local allocator rather than timed, so the
//! pin is exact on any machine.
//!
//! Before successor orders moved into the shared T-DP state, every
//! stream copied and organized its root group at spawn (one `(cost,
//! row)` per row, a `Vec<Weight>` clone per row under lex), once per
//! case tree on the 4-cycle route.
//!
//! A warm drain, counted the same way, allocates one block per answer
//! on every any-k route.

mod common;
#[path = "common/counting.rs"]
mod counting;

use anyk::prelude::*;
use anyk::query::cq::ConjunctiveQuery;
use common::gen::scrambled_edges;
use counting::counted;

/// (blocks, bytes) one `stream()` allocates on a warm prepared query
/// over `edges`-row relations of constant degree 10.
fn spawn_allocations(q: &ConjunctiveQuery, rank: RankSpec, edges: u64) -> (u64, u64) {
    let rels = (0..q.num_atoms() as u64)
        .map(|i| scrambled_edges(edges, edges as i64 / 10, 2 * i + 1))
        .collect();
    let engine = Engine::from_query_bindings(q, rels);
    let prepared = engine.prepare(q.clone(), rank).expect("prepare");
    // Warm: the first stream's first answers build the orders they touch.
    assert_eq!(prepared.stream().take(5).count(), 5, "instance has answers");
    counted(|| prepared.stream()).0
}

#[test]
fn a_warm_spawn_allocates_the_same_at_every_input_size() {
    for (label, q, rank) in [
        ("path-3 sum", path_query(3), RankSpec::Sum),
        ("path-3 lex", path_query(3), RankSpec::Lex),
        ("4-cycle sum", cycle_query(4), RankSpec::Sum),
    ] {
        let small = spawn_allocations(&q, rank, 1_000);
        let large = spawn_allocations(&q, rank, 16_000);
        assert!(small.0 > 0, "{label}: a stream shell is allocated");
        assert_eq!(
            small, large,
            "{label}: (blocks, bytes) of stream() at n = 1 000 and at n = 16 000"
        );
    }
}

/// Blocks per answer over a warm 2 000-answer drain of a prepared query
/// over 1 000-row relations of constant degree 10, counted after the
/// stream's first `skip` answers.
fn drain_blocks_per_answer(q: &ConjunctiveQuery, skip: usize) -> f64 {
    let rels = (0..q.num_atoms() as u64)
        .map(|i| scrambled_edges(1_000, 100, 2 * i + 1))
        .collect();
    let engine = Engine::from_query_bindings(q, rels);
    let prepared = engine.prepare(q.clone(), RankSpec::Sum).expect("prepare");
    // Warm: a first drain builds every shared order the second touches.
    assert_eq!(prepared.stream().take(skip + 2_000).count(), skip + 2_000);
    let mut stream = prepared.stream();
    assert_eq!(stream.by_ref().take(skip).count(), skip);
    let ((blocks, _), drained) = counted(|| stream.take(2_000).count());
    assert_eq!(drained, 2_000);
    blocks as f64 / 2_000.0
}

/// One block per answer — its `values` — on every any-k route: the
/// T-DP instance writes each tuple straight into the final output
/// columns (the rest is the enumerator's slabs doubling). At 7897235
/// this function read 1.0225 on the acyclic route and 2.0225 / 2.0235
/// on the 4-cycle / 5-cycle routes, whose case and permutation wrappers
/// collected every answer a second time; it now reads 1.0225, 1.0215
/// and — on the GHD route, which the chorded 5-cycle takes — 1.0235.
///
/// The 5-cycle takes the cycle route, and at mean degree 10 = Δ a
/// third of the values are heavy: a union of over a hundred trees, each
/// with an enumerator whose slabs start empty, so the stream's first
/// answers pay the early doublings a hundred times over: 2.2 blocks
/// per answer over the first 2 000, 1.17 over answers 4 001 to 6 000 —
/// still one block per answer plus doublings, now of a hundred small
/// slabs instead of one large one.
#[test]
fn a_warm_drain_allocates_one_block_per_answer_on_every_route() {
    for (label, q, skip, bound) in [
        ("path-3", path_query(3), 0, 1.03),
        ("4-cycle", cycle_query(4), 0, 1.03),
        ("chorded 5-cycle", chorded_cycle_query(5), 0, 1.03),
        ("5-cycle", cycle_query(5), 4_000, 1.25),
    ] {
        let per_answer = drain_blocks_per_answer(&q, skip);
        assert!(
            per_answer <= bound,
            "{label}: {per_answer} blocks per answer"
        );
    }
}
