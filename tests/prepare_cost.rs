//! A cold triangle `prepare` + top-10 allocates a number of blocks that
//! does not follow the answer count: trie levels, the answer slab and
//! the first stream's id heap are each a handful of vectors that grow
//! by doubling. Counted with a test-local allocator rather than timed,
//! so the pin is exact on any machine.
//!
//! Before join output landed in slabs, every materialized triangle was
//! its own `Vec<Value>` (and the first stream's heap held one `Arc`
//! clone per answer), so the block count grew by one per answer.
//!
//! The same holds for T-DP preprocessing — a cold 4-cycle `prepare` +
//! top-10 and a bare path `TdpInstance::prepare`: per join-tree edge two
//! key tries, three run vectors and the slot's CSR groups, whatever the
//! row count. While the reducer and the grouping hashed, every distinct
//! join key was an owned `Box<[Value]>` (several times over) and the
//! counts followed `n`: at the parent commit (d815e40) the 4-cycle op
//! below took 14 408 blocks at 1 600 edges per relation and 52 961 at
//! 6 400, the path prepare 23 322 at 2 000 rows and 184 415 at 16 000.
//! Since `Trie::build` sorts one packed record per row and counts a
//! level's nodes before it allocates the level, the 4-cycle op takes 406
//! and 422 blocks (555 and 602 before), the path prepare 210 and 225
//! (332 and 383), the triangle op 257 and 263 (329 and 359): the pins
//! below are ceilings on the small instance and on the growth.
//!
//! The cold 5-cycle — the cycle route's union of trees — is pinned the
//! same way: blocks follow the join-tree edges summed over the cases of
//! the heavy/light split, not the rows of the light bags, and those
//! bags stay within the `n·Δ^(h−1)` each that the plan's exponent
//! rests on.
//!
//! Pins in bytes: while `Trie::build` runs it never holds more than 16
//! bytes per row beyond the trie it returns — the `u64` sort records
//! and the counting passes' scratch copy of them, which is freed before
//! the first level is allocated. A cold T-DP prepare of the 4-cycle's
//! light-light case — reducer, compaction, grouping, subtree costs —
//! asks at most twice the bytes of the two join-key tries it sorts
//! (1.31× at 1 600 edges per relation, 1.25× at 16 000), in some ninety
//! blocks whatever the rows.

mod common;

use anyk::prelude::*;
use common::gen::scrambled_edges;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the calling thread's allocations; the test harness runs
/// tests on threads of their own, so counts do not mix.
struct Counting;

thread_local! {
    /// Blocks this thread has asked for. `const`-initialized and
    /// without a destructor, so touching it never allocates.
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread holds (it may free what another allocated),
    /// and the most it has held.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    /// Bytes this thread has asked for, freed or not (a reallocation
    /// counts its new size).
    static ASKED: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread may still free memory while it is torn down.
    let _ = BLOCKS.try_with(|b| b.set(b.get() + 1));
}

fn resize(from: usize, to: usize) {
    if to > 0 {
        let _ = ASKED.try_with(|asked| asked.set(asked.get() + to as u64));
    }
    let _ = LIVE.try_with(|live| {
        live.set(live.get() - from as isize + to as isize);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the counter
// beside it neither allocates nor touches the blocks.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        resize(0, layout.size());
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize(layout.size(), 0);
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        resize(layout.size(), new_size);
        // SAFETY: the caller's contract, passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(triangles, blocks)` of one cold op — fresh engine, prepare,
/// top-10 — over three `edges`-row relations on `nodes` node ids.
fn cold_triangle(edges: u64, nodes: i64) -> (usize, u64) {
    let q = triangle_query();
    let rels: Vec<Relation> = (1..=3)
        .map(|seed| scrambled_edges(edges, nodes, seed))
        .collect();
    let triangles = anyk::core::cyclic::wco_ranked_materialize::<SumCost>(&q, &rels).len();
    let before = BLOCKS.get();
    let engine = Engine::from_query_bindings(&q, rels);
    let prepared = engine.prepare(q, RankSpec::Sum).expect("prepare");
    let top = prepared.stream().top_k(10);
    let after = BLOCKS.get();
    assert_eq!(top.len(), 10, "the instance has at least ten triangles");
    (triangles, after - before)
}

#[test]
fn a_cold_triangle_allocates_by_doublings_not_by_answers() {
    // 8x the edges at twice the degree: about 8x the triangles.
    let (few, small) = cold_triangle(1_000, 100);
    let (many, large) = cold_triangle(8_000, 400);
    assert!(
        many > 4 * few && many - few > 2_000,
        "the larger instance has thousands more triangles ({few} vs {many})"
    );
    // Growing 8x costs every doubling vector three more reallocations;
    // there are about a dozen of them (two levels in each of three
    // tries, the slab's two columns, hash tables of the catalog).
    assert!(
        small <= 288 && large <= small + 24,
        "blocks of a cold prepare + top-10: {small} for {few} triangles, {large} for {many}"
    );
}

/// Blocks of one cold 4-cycle op — fresh engine, prepare, top-10 — over
/// four `edges`-row relations of mean degree 4.
fn cold_cycle4(edges: u64) -> u64 {
    let q = cycle_query(4);
    let rels: Vec<Relation> = (1..=4)
        .map(|seed| scrambled_edges(edges, (edges / 4) as i64, seed))
        .collect();
    let before = BLOCKS.get();
    let engine = Engine::from_query_bindings(&q, rels);
    let prepared = engine.prepare(q, RankSpec::Sum).expect("prepare");
    let top = prepared.stream().top_k(10);
    let after = BLOCKS.get();
    assert_eq!(top.len(), 10, "the instance has at least ten 4-cycles");
    after - before
}

#[test]
fn a_cold_four_cycle_allocates_by_edges_of_the_plan_not_by_rows() {
    // 4x the edges: 4x the rows in the light-light bags, 4x the
    // distinct join keys T-DP groups them by.
    let (small, large) = (cold_cycle4(1_600), cold_cycle4(6_400));
    assert!(
        small <= 448 && large <= small + 24,
        "blocks of a cold 4-cycle prepare + top-10: {small} at 1 600 edges, {large} at 6 400"
    );
}

/// One cold 5-cycle op — fresh engine, prepare, top-10 — over five
/// `edges`-row relations of mean degree 3 (the benchmark's
/// `cold_cyclic` class 2 at 105): `(blocks, plan edges, light bag rows,
/// n·Δ^(h−1))`, the plan edges being the join-tree edges summed over
/// the cases of the split.
fn cold_cycle5(edges: u64) -> (u64, usize, usize, usize) {
    use anyk::join::cycle::cycle_cases;
    use anyk::query::cycles::cycle_heavy_threshold;
    let q = cycle_query(5);
    let rels: Vec<Relation> = (1..=5)
        .map(|seed| scrambled_edges(edges, (edges / 3) as i64, seed))
        .collect();
    let delta = cycle_heavy_threshold(edges as usize, 5);
    let cases = cycle_cases(&rels, delta);
    let plan_edges = cases.iter().map(|c| c.relations.len() - 1).sum();
    let light = cases.last().expect("a light-light case");
    assert_eq!(light.label, "light-light");
    let bag_rows = light.relations.iter().map(Relation::len).sum();
    drop(cases);
    let before = BLOCKS.get();
    let engine = Engine::from_query_bindings(&q, rels);
    let prepared = engine.prepare(q, RankSpec::Sum).expect("prepare");
    let top = prepared.stream().top_k(10);
    let after = BLOCKS.get();
    assert_eq!(top.len(), 10, "the instance has at least ten 5-cycles");
    (
        after - before,
        plan_edges,
        bag_rows,
        edges as usize * delta * delta,
    )
}

#[test]
fn a_cold_five_cycle_allocates_by_edges_of_the_plan_and_fills_bags_within_the_bound() {
    // 105 edges is the benchmark's instance: Δ = 5 against a mean
    // degree of 3 leaves a few heavy values per split attribute, so the
    // plan is some ten 5-atom paths beside the two-bag tree. At 64x the
    // edges Δ = 19 and the light-light tree is alone over bags a
    // hundred times as long — in a sixth of the blocks.
    let mut measured = Vec::new();
    for edges in [105, 840, 6_720] {
        let (blocks, plan_edges, bag_rows, bound) = cold_cycle5(edges);
        assert!(
            bag_rows <= 2 * bound,
            "{edges} edges: {bag_rows} rows in the two light bags, n·Δ² = {bound}"
        );
        assert!(
            blocks <= 512 + 80 * plan_edges as u64,
            "{edges} edges: {blocks} blocks for {plan_edges} plan edges, {bag_rows} bag rows"
        );
        measured.push((plan_edges, bag_rows));
    }
    assert!(
        measured[0].0 > 4 * measured[2].0 && measured[2].1 > 50 * measured[0].1,
        "the small instance has the edges, the large one the rows: {measured:?}"
    );
}

/// `(reduced rows, blocks)` of one cold `TdpInstance::prepare` over a
/// 4-path of `rows`-row relations.
fn cold_path4(rows: u64) -> (usize, u64) {
    let q = path_query(4);
    let GyoResult::Acyclic(tree) = gyo_reduce(&q) else {
        unreachable!("a path is acyclic");
    };
    let rels: Vec<Relation> = (1..=4)
        .map(|seed| scrambled_edges(rows, (rows / 2) as i64, seed))
        .collect();
    let before = BLOCKS.get();
    let inst = TdpInstance::<SumCost>::prepare(&q, &tree, rels).expect("prepare");
    let after = BLOCKS.get();
    (inst.reduced_input_size(), after - before)
}

#[test]
fn a_cold_path_prepare_allocates_by_slots_not_by_rows() {
    let (few, small) = cold_path4(2_000);
    let (many, large) = cold_path4(16_000);
    assert!(
        few > 1_000 && many > 6 * few,
        "the reducer keeps rows in proportion ({few} vs {many})"
    );
    assert!(
        small <= 240 && large <= small + 24,
        "blocks of a cold path4 T-DP prepare: {small} for {few} kept rows, {large} for {many}"
    );
}

#[test]
fn a_trie_build_holds_sixteen_bytes_a_row_beyond_its_trie() {
    use anyk::storage::Trie;
    for rows in [1_000usize, 20_000] {
        let rel = scrambled_edges(rows as u64, (rows / 4) as i64, 5);
        let before = LIVE.get();
        PEAK.set(before);
        let trie = Trie::build(&rel, &[0, 1]);
        let (held, most) = (LIVE.get() - before, PEAK.get() - before);
        assert!(
            Trie::build_packed(&rel, &[0, 1]).is_some() && held > 0,
            "node ids pack, and the trie is on this thread's books"
        );
        assert!(
            most <= held + 16 * rows as isize + 1024,
            "{rows} rows: {most} bytes at the peak of the build, {held} in the trie"
        );
        drop(trie);
    }
}

/// (blocks, bytes) the calling thread asks for while `f` runs.
fn asked(f: impl FnOnce()) -> (u64, u64) {
    let before = (BLOCKS.get(), ASKED.get());
    f();
    (BLOCKS.get() - before.0, ASKED.get() - before.1)
}

/// One cold T-DP prepare of the 4-cycle's light-light case — two
/// pre-joined bags on a two-column key, uniquely owned as the cycle
/// route hands them to prepare — over four `edges`-row relations of
/// mean degree 4: `[prepare, key tries]`, the (blocks, bytes) of
/// `TdpInstance::prepare` and of the two join-key `Trie::build`s over
/// the same bags, and the bags' rows.
fn light_light_prepare(edges: usize) -> ([(u64, u64); 2], usize) {
    use anyk::join::c4::c4_cases_provider;
    use anyk::join::semijoin::join_key_positions;
    use anyk::query::cycles::heavy_threshold;
    use anyk::storage::{BuildEachTime, Trie};
    use anyk::workloads::graphs::random_edge_relation;
    let rels: Vec<Relation> = (0..4)
        .map(|i| random_edge_relation(edges, edges as u64 / 4, WeightDist::Uniform, None, 1901 + i))
        .collect();
    let merge = |a: Weight, b: Weight| Weight::new(a.get() + b.get());
    let mut cases = c4_cases_provider(&rels, heavy_threshold(edges), merge, &BuildEachTime);
    let case = cases.pop().expect("the light-light case comes last");
    assert_eq!(case.label, "light-light");
    let bag_rows = case.relations.iter().map(Relation::len).sum();
    let child = (0..case.tree.len())
        .find(|&n| case.tree.node(n).parent.is_some())
        .expect("two bags, one edge");
    let parent = case.tree.node(child).parent.expect("a child");
    let (cpos, ppos) = join_key_positions(&case.query, &case.tree, child);
    let (crel, prel) = (
        &case.relations[case.tree.node(child).atom],
        &case.relations[case.tree.node(parent).atom],
    );
    let tries = asked(|| drop((Trie::build(crel, &cpos), Trie::build(prel, &ppos))));
    let prepare = asked(|| {
        TdpInstance::<SumCost>::prepare(&case.query, &case.tree, case.relations).expect("prepare");
    });
    ([prepare, tries], bag_rows)
}

#[test]
fn a_cold_tdp_prepare_asks_at_most_twice_its_key_tries() {
    let mut measured = Vec::new();
    for edges in [1_600, 6_400, 16_000] {
        let ([prepare, tries], bag_rows) = light_light_prepare(edges);
        assert!(
            prepare.1 <= 2 * tries.1,
            "{edges} edges, {bag_rows} bag rows: a cold prepare asks {prepare:?} \
             (blocks, bytes), its two key tries {tries:?}"
        );
        measured.push((bag_rows, prepare.0));
    }
    assert!(
        measured[2].0 > 8 * measured[0].0 && measured.iter().all(|&(_, blocks)| blocks <= 128),
        "(bag rows, prepare blocks): the rows grow, the blocks do not: {measured:?}"
    );
}

/// A 64-row batch for `R1`, every row joining `R2` on one of its 1 000
/// keys.
fn r1_batch(step: i64) -> Relation {
    let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
    for i in 0..64 {
        let row = step * 64 + i;
        b.push_ints(&[10_000 + row, row * 7 % 1_000], (row % 13) as f64 / 8.0);
    }
    b.finish()
}

/// Bytes allocated by the first and by the fifth 64-row append to `R1`
/// of a warm `R1(x, y) ⋈ R2(y, z)` path: 1 024 `R1` rows, `partner`
/// `R2` rows over 1 000 join keys. Each append refreshes the cached
/// plan on the appending thread.
fn path_append_bytes(partner: i64) -> (u64, u64) {
    let edges = |rows: i64, key: &dyn Fn(i64) -> (i64, i64)| {
        let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
        for i in 0..rows {
            let (x, y) = key(i);
            b.push_ints(&[x, y], (i % 11) as f64 / 4.0);
        }
        b.finish()
    };
    let mut catalog = Catalog::new();
    catalog.register("R1", edges(1_024, &|i| (i, i % 1_000)));
    catalog.register("R2", edges(partner, &|i| (i % 1_000, i)));
    let engine = Engine::new(catalog);
    let path = QueryBuilder::new()
        .atom("R1", &["x", "y"])
        .atom("R2", &["y", "z"])
        .build();
    let top = |engine: &Engine| {
        let prepared = engine.prepare(path.clone(), RankSpec::Sum);
        prepared.expect("prepare").stream().top_k(10)
    };
    top(&engine);
    let append = |step: i64| {
        let batch = r1_batch(step);
        let before = ASKED.get();
        engine.append("R1", batch).expect("append");
        let asked = ASKED.get() - before;
        assert_eq!(top(&engine).len(), 10);
        asked
    };
    let first = append(0);
    let mut fifth = 0;
    for step in 1..5 {
        fifth = append(step);
    }
    let w = engine.write_stats();
    assert_eq!(
        (w.terms_extended, w.terms_rebuilt, w.compactions),
        (4, 1, 0)
    );
    (first, fifth)
}

#[test]
fn a_warm_path_refresh_allocates_for_the_batch_not_for_its_partner() {
    // The first append builds R1's delta term from nothing: R2's side
    // of it — key runs, groups, subtree costs — is sorted and laid out
    // once, at |R2| (as is every term after a compaction, which swaps
    // the base under all of them). Every later append extends that
    // term at its root and shares R2's side, so what it allocates
    // follows the batch and R1's delta tail, whatever R2 holds.
    let sizes = [4_000, 16_000, 64_000];
    let (first, later): (Vec<u64>, Vec<u64>) = sizes.iter().map(|&n| path_append_bytes(n)).unzip();
    assert!(
        first[2] > first[0] + 16 * (sizes[2] - sizes[0]) as u64,
        "the first delta term is built at |R2|: {first:?} bytes at {sizes:?} rows"
    );
    let (least, most) = (later.iter().min(), later.iter().max());
    assert!(
        most.zip(least)
            .is_some_and(|(most, least)| most - least <= 256),
        "a later refresh allocates the same bytes at every |R2|: {later:?} at {sizes:?} rows"
    );
    assert!(
        later[0] < first[0] / 2,
        "{later:?} against a first build of {first:?}"
    );
}
