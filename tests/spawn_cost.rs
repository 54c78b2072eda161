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
//! on every any-k route, and two under a lexicographic ranking: the
//! engine's erased cost is a vector.
//!
//! What a first answer asks is the serving split of preprocessing and
//! delay as counts: on path-3 Sum a warm PART stream's first answer
//! asks the same at every `n`, at least ten times less than a cold
//! `plan()`'s, which grows with `n`. A warm REC stream is spawned at
//! the same cost at every `n`, but its first answer is not: it seeds
//! the root group's frontier with every member, so its bytes follow
//! the reduced root relation (see `core::rec`'s module doc).

mod common;
#[path = "common/counting.rs"]
mod counting;

use anyk::prelude::*;
use anyk::query::cq::ConjunctiveQuery;
use common::gen::scrambled_edges;
use counting::counted;

/// A fresh engine over `edges`-row relations of constant degree 10,
/// one per atom of `q`.
fn engine_over(q: &ConjunctiveQuery, edges: u64) -> Engine {
    let rels = (0..q.num_atoms() as u64)
        .map(|i| scrambled_edges(edges, edges as i64 / 10, 2 * i + 1))
        .collect();
    Engine::from_query_bindings(q, rels)
}

/// (blocks, bytes) one `stream()` allocates on a warm prepared query
/// over `edges`-row relations of constant degree 10.
fn spawn_allocations(q: &ConjunctiveQuery, rank: RankSpec, edges: u64) -> (u64, u64) {
    let engine = engine_over(q, edges);
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

/// Edges per relation of the first-answer ladder.
const FIRST_ANSWER_NS: [u64; 3] = [1_000, 16_000, 64_000];

/// (blocks, bytes) on path-3 Sum under `variant` over `edges`-row
/// relations: of a warm `stream()` alone, of a warm `stream()` plus its
/// first answer, and of a cold `plan()` plus its first answer on a
/// fresh engine.
fn first_answer_allocations(variant: AnyKVariant, edges: u64) -> [(u64, u64); 3] {
    let q = path_query(3);
    let cold_engine = engine_over(&q, edges);
    let (cold, first) = counted(|| {
        let query = cold_engine.query(q.clone()).rank_by(RankSpec::Sum);
        query.with_variant(variant).plan().expect("plan").next()
    });
    assert!(first.is_some(), "the instance has answers");
    let engine = engine_over(&q, edges);
    let query = engine.query(q).rank_by(RankSpec::Sum);
    let prepared = query.with_variant(variant).prepare().expect("prepare");
    // Warm: the first stream's first answer builds the orders it touches.
    assert!(prepared.stream().next().is_some());
    let (spawn, _) = counted(|| prepared.stream());
    let (warm, first) = counted(|| prepared.stream().next());
    assert!(first.is_some());
    [spawn, warm, cold]
}

#[test]
fn a_prepared_first_answer_allocates_the_same_at_every_n_and_a_tenth_of_a_cold_plan() {
    let [small, mid, large] =
        FIRST_ANSWER_NS.map(|n| first_answer_allocations(AnyKVariant::default(), n));
    let (warm, cold) = ([small[1], mid[1], large[1]], [small[2], mid[2], large[2]]);
    assert!(
        warm.iter().all(|&w| w == warm[0]),
        "(blocks, bytes) of a warm stream() + first answer at n = {FIRST_ANSWER_NS:?}: {warm:?}"
    );
    assert!(
        cold[0].1 >= 10 * warm[0].1 && cold[0].1 < cold[1].1 && cold[1].1 < cold[2].1,
        "bytes of a cold plan() + first answer {cold:?} against a warm one's {warm:?} \
         at n = {FIRST_ANSWER_NS:?}"
    );
}

#[test]
fn a_prepared_rec_stream_spawns_the_same_at_every_n() {
    let [small, mid, large] =
        FIRST_ANSWER_NS.map(|n| first_answer_allocations(AnyKVariant::Rec, n));
    let (spawn, first) = ([small[0], mid[0], large[0]], [small[1], mid[1], large[1]]);
    let cold = [small[2], mid[2], large[2]];
    assert!(
        spawn.iter().all(|&s| s == spawn[0]),
        "(blocks, bytes) of a warm REC stream() at n = {FIRST_ANSWER_NS:?}: {spawn:?}"
    );
    // Its first answer asks a bounded number of blocks, but the root
    // group's frontier is one heap entry per member: the bytes follow
    // the reduced root relation, about an eighth of a cold plan's. A
    // REC stream that seeds its frontier lazily turns this into an
    // equality like the PART one above.
    assert!(
        first.iter().all(|&(blocks, _)| blocks <= 64)
            && first[0].1 < first[2].1
            && first.iter().zip(&cold).all(|(w, c)| 5 * w.1 <= c.1),
        "(blocks, bytes) of a warm REC stream() + first answer {first:?} against a cold \
         plan()'s {cold:?} at n = {FIRST_ANSWER_NS:?}"
    );
}

/// (blocks, bytes) per answer over a warm 2 000-answer drain of a
/// prepared query under `rank` over 1 000-row relations of constant
/// degree 10, counted after the stream's first `skip` answers.
fn drain_per_answer(q: &ConjunctiveQuery, rank: RankSpec, skip: usize) -> (f64, f64) {
    let rels = (0..q.num_atoms() as u64)
        .map(|i| scrambled_edges(1_000, 100, 2 * i + 1))
        .collect();
    let engine = Engine::from_query_bindings(q, rels);
    let prepared = engine.prepare(q.clone(), rank).expect("prepare");
    // Warm: a first drain builds every shared order the second touches.
    assert_eq!(prepared.stream().take(skip + 2_000).count(), skip + 2_000);
    let mut stream = prepared.stream();
    assert_eq!(stream.by_ref().take(skip).count(), skip);
    let ((blocks, bytes), drained) = counted(|| stream.take(2_000).count());
    assert_eq!(drained, 2_000);
    (blocks as f64 / 2_000.0, bytes as f64 / 2_000.0)
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
        let (per_answer, _) = drain_per_answer(&q, RankSpec::Sum, skip);
        assert!(
            per_answer <= bound,
            "{label}: {per_answer} blocks per answer"
        );
    }
}

/// Answers a deep drain skips before it is counted: past its first
/// arena and heap doublings.
const DEEP_SKIP: usize = 2_000;

/// A Lex drain asks two blocks per answer: its `values` and the erased
/// cost's vector. Before the enumerator kept only rows per solution,
/// with each popped solution's prefix and suffix costs a vector apiece,
/// this read 11.0 on path-4 and 9.0 on star-3 (19.0 / 15.0 unoptimized);
/// it now reads 2.0005 on both. The slack is the existing drain test's,
/// for the slabs' doublings.
#[test]
fn a_warm_lex_drain_allocates_two_blocks_per_answer() {
    for (label, q) in [("path-4", path_query(4)), ("star-3", star_query(3))] {
        let (per_answer, _) = drain_per_answer(&q, RankSpec::Lex, DEEP_SKIP);
        assert!(
            per_answer <= 2.03,
            "{label} lex: {per_answer} blocks per answer"
        );
    }
}

/// A Sum drain asks, per answer, its `values` (a `Value` per variable)
/// and 32 bytes per slot for what the doubling arena and candidate heap
/// take. While the arena kept each popped solution's prefix and suffix
/// costs this read 391.3 bytes on path-4 and 227.8 on star-3 (bounds
/// 208 and 160); it now reads 178.3 and 96.8.
#[test]
fn a_warm_sum_drain_asks_its_rows_bytes_and_little_more() {
    for (label, q) in [("path-4", path_query(4)), ("star-3", star_query(3))] {
        let (_, bytes) = drain_per_answer(&q, RankSpec::Sum, DEEP_SKIP);
        let bound = q.num_vars() * std::mem::size_of::<Value>() + 32 * q.num_atoms();
        assert!(
            bytes <= bound as f64,
            "{label} sum: {bytes} bytes per answer, bound {bound}"
        );
    }
}
