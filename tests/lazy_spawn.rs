//! Laziness regression pins for the serving path: stream spawn must
//! cost work proportional to the answers pulled, never to the input.
//!
//! The assertions use **counting hooks** (stream-shell / successor-
//! order allocation counters on the core enumerators, the deferred-
//! sort state machine on the triangle artifact) rather than wall-clock
//! time, so they are deterministic on any machine:
//!
//! * `AnyKRec` allocates zero group/tuple stream shells at spawn and
//!   only `o(n)` of them for a small-`k` pull (this PR);
//! * `AnyKPart` spawns without building a successor order; the shared
//!   instance builds each on first touch, once for all streams;
//! * the triangle route's prepared artifact defers its `O(r log r)`
//!   sort past any number of partial first-stream pulls;
//! * a merged stream (shards, delta terms, the 4-cycle's case trees)
//!   pulls nothing from any member until its first `next()`.

mod common;

use anyk::prelude::*;
use common::gen::scrambled_edges;
use std::sync::Arc;

/// A path-3 T-DP instance big enough that O(n) spawn work would be
/// unmistakable next to the per-answer counters.
fn big_path_instance() -> Arc<anyk::core::TdpInstance<SumCost>> {
    let q = path_query(3);
    let rels = vec![
        scrambled_edges(8_000, 2_000, 1),
        scrambled_edges(8_000, 2_000, 2),
        scrambled_edges(8_000, 2_000, 3),
    ];
    let tree = match gyo_reduce(&q) {
        GyoResult::Acyclic(t) => t,
        _ => unreachable!(),
    };
    Arc::new(TdpInstance::<SumCost>::prepare(&q, &tree, rels).expect("path instance"))
}

#[test]
fn prepared_rec_stream_spawn_is_lazy() {
    let inst = big_path_instance();
    let n = inst.reduced_input_size();
    assert!(n > 10_000, "instance must be large to be telling (n = {n})");

    let mut rec = AnyKRec::new(Arc::clone(&inst));
    assert_eq!(
        rec.allocated_group_streams() + rec.allocated_tuple_streams(),
        0,
        "spawning a prepared REC stream must allocate no per-tuple state"
    );

    let k = 5;
    for i in 0..k {
        assert!(rec.next().is_some(), "answer {i}");
    }
    let touched = rec.allocated_group_streams() + rec.allocated_tuple_streams();
    assert!(
        touched * 20 < n,
        "k={k} pulls must touch o(n) streams: touched {touched}, n {n}"
    );
}

#[test]
fn prepared_part_stream_spawn_builds_no_order() {
    // The default successor order lives in the shared instance: a
    // spawn builds none of it, and each pop touches at most one group
    // per slot. (The instance is this test's own, so the instance-wide
    // counter sees this stream only.)
    let inst = big_path_instance();
    let n = inst.reduced_input_size();

    let mut part = AnyKPart::new(Arc::clone(&inst), SuccessorKind::Eager);
    assert_eq!(inst.built_orders(), 0, "spawn builds no order");

    let k = 5;
    for i in 0..k {
        assert!(part.next().is_some(), "answer {i}");
    }
    let touched = inst.built_orders();
    assert_eq!(part.touched_groups(), touched);
    assert!(
        (1..=k * inst.num_slots()).contains(&touched),
        "k={k} pulls on {} slots touched {touched} groups",
        inst.num_slots()
    );
    assert!(touched * 20 < n, "touched {touched} vs n {n}");
}

#[test]
fn rec_and_part_lazy_streams_agree_on_the_prefix() {
    // Laziness must not change what is enumerated: both enumerators
    // over one shared instance produce the same cost prefix.
    let inst = big_path_instance();
    let k = 50;
    let rec: Vec<f64> = AnyKRec::new(Arc::clone(&inst))
        .take(k)
        .map(|a| a.cost.get())
        .collect();
    let part: Vec<f64> = AnyKPart::new(Arc::clone(&inst), SuccessorKind::Lazy)
        .take(k)
        .map(|a| a.cost.get())
        .collect();
    assert_eq!(rec.len(), k);
    assert_eq!(rec, part);
}

#[test]
fn triangle_one_shot_topk_never_pays_the_sort() {
    let e = scrambled_edges(400, 30, 7);
    let q = triangle_query();
    let engine = Engine::from_query_bindings(&q, vec![e.clone(), e.clone(), e]);

    // The ad-hoc one-shot path: plan() + top-k. The first stream off
    // the (cached) prepared artifact is the lazy heap.
    let handle = engine.prepare(q.clone(), RankSpec::Sum).expect("prepare");
    assert!(handle.holds_materialized_answers());
    assert_eq!(
        handle.sort_deferred(),
        Some(true),
        "prepare materializes but must not sort"
    );

    let mut s1 = engine.query(q.clone()).plan().expect("plan");
    let top = s1.top_k(3);
    assert_eq!(top.len(), 3);
    assert_eq!(
        handle.sort_deferred(),
        Some(true),
        "a partial top-k pull must not pay the O(r log r) sort"
    );

    // The second stream spawn pays the one-time sort...
    let s2: Vec<_> = engine.query(q.clone()).plan().expect("plan").collect();
    assert_eq!(
        handle.sort_deferred(),
        Some(false),
        "the second stream installs the shared sorted artifact"
    );
    // ...and the interrupted first stream continues in the same order.
    let mut all1: Vec<_> = top;
    all1.extend(s1);
    assert_eq!(
        all1, s2,
        "lazy first stream == sorted cursor, ties included"
    );
}

#[test]
fn lazy_to_sorted_upgrade_is_byte_identical_when_every_cost_ties() {
    // Every edge weighs the same, so every triangle costs the same and
    // the whole order rests on the `(cost, values)` tie-break the id
    // heap and the sorted id column share. Duplicate edges add exact
    // duplicate answers on top.
    let mut edges: Vec<(i64, i64, f64)> = Vec::new();
    for u in 0..7 {
        for v in 0..7 {
            if (u * 3 + v * 5) % 4 != 0 {
                edges.push((u, v, 0.5));
            }
        }
    }
    edges.extend([(1, 2, 0.5), (2, 1, 0.5)]);
    edges.reverse(); // materialization order is far from sorted
    let e = common::gen::edge_rel(&edges);
    let q = triangle_query();
    let prepare = || {
        Engine::from_query_bindings(&q, vec![e.clone(), e.clone(), e.clone()])
            .prepare(q.clone(), RankSpec::Sum)
            .expect("prepare")
    };

    // Upgrade by a second spawn, the first stream mid-way.
    let by_spawn = prepare();
    let mut first = by_spawn.stream();
    let mut all_first = first.top_k(17);
    assert_eq!(by_spawn.sort_deferred(), Some(true));
    let second: Vec<_> = by_spawn.stream().collect();
    assert_eq!(by_spawn.sort_deferred(), Some(false));
    all_first.extend(first);
    assert_eq!(
        all_first, second,
        "heap stream == cursor across the upgrade"
    );

    // Upgrade by exhausting the first stream: its emission order is
    // installed as the artifact.
    let by_exhaustion = prepare();
    let drained: Vec<_> = by_exhaustion.stream().collect();
    assert_eq!(by_exhaustion.sort_deferred(), Some(false));
    let replay: Vec<_> = by_exhaustion.stream().collect();
    assert_eq!(drained, replay, "cursor replays the exhausted heap stream");
    assert_eq!(drained, second, "both upgrades install the same order");

    assert!(second.len() > 100, "the fixture has plenty of triangles");
    assert!(second.windows(2).all(|w| w[0].cost == w[1].cost));
    assert!(
        second.windows(2).all(|w| w[0].values <= w[1].values),
        "all costs tie: the order is the values' order"
    );
    assert!(
        second.windows(2).any(|w| w[0].values == w[1].values),
        "duplicate edges give exact duplicate answers"
    );
}

#[test]
fn non_materialized_routes_report_no_sort_state() {
    let q = path_query(2);
    let engine = Engine::from_query_bindings(
        &q,
        vec![scrambled_edges(100, 10, 3), scrambled_edges(100, 10, 5)],
    );
    let tdp = engine.prepare(q.clone(), RankSpec::Sum).expect("prepare");
    assert!(!tdp.holds_materialized_answers());
    assert_eq!(tdp.sort_deferred(), None);

    // A Batch plan materializes without sorting (deferred like the
    // triangle route).
    let batch = engine
        .query(q)
        .with_variant(AnyKVariant::Batch)
        .prepare()
        .expect("prepare");
    assert!(batch.holds_materialized_answers());
    assert_eq!(batch.sort_deferred(), Some(true));
}

#[test]
fn batch_artifacts_defer_their_sort_on_every_route() {
    // The triangle route's deferred-sort machinery generalizes to the
    // `Batch` artifact of the acyclic, cycle, and GHD routes:
    // prepare is materialize-only, a partial first stream never pays
    // the O(r log r) sort, and the second spawn installs the shared
    // sorted artifact without changing any answer.
    let e = scrambled_edges(200, 12, 11);
    let shapes: [(&str, anyk::query::cq::ConjunctiveQuery, usize); 4] = [
        ("acyclic", path_query(2), 2),
        ("cycle", cycle_query(4), 4),
        ("cycle", cycle_query(5), 5),
        ("decomposed", chorded_cycle_query(5), 6),
    ];
    for (route, q, m) in shapes {
        let rels: Vec<Relation> = (0..m).map(|_| e.clone()).collect();
        let engine = Engine::from_query_bindings(&q, rels);
        let handle = engine
            .query(q.clone())
            .with_variant(AnyKVariant::Batch)
            .prepare()
            .expect("prepare");
        assert_eq!(handle.plan().route.label(), route);
        assert!(handle.holds_materialized_answers(), "{route}");
        assert_eq!(
            handle.sort_deferred(),
            Some(true),
            "{route}: batch prepare must materialize without sorting"
        );

        let mut s1 = handle.stream();
        let top = s1.top_k(3);
        assert!(!top.is_empty(), "{route}: instance must have answers");
        assert_eq!(
            handle.sort_deferred(),
            Some(true),
            "{route}: a partial top-k pull must not pay the sort"
        );

        // Second spawn pays the one-time sort; both streams agree,
        // ties included.
        let s2: Vec<_> = handle.stream().collect();
        assert_eq!(
            handle.sort_deferred(),
            Some(false),
            "{route}: the second stream installs the sorted artifact"
        );
        let mut all1 = top;
        all1.extend(s1);
        assert_eq!(all1, s2, "{route}: lazy first stream == sorted cursor");
    }
}

/// A canned ranked stream that counts how many answers were pulled
/// from it — the member-side probe for the merge-laziness pins below.
struct Probe {
    costs: std::vec::IntoIter<f64>,
    pulled: Arc<std::sync::atomic::AtomicUsize>,
}

impl Iterator for Probe {
    type Item = anyk::core::RankedAnswer<Weight>;
    fn next(&mut self) -> Option<Self::Item> {
        let c = self.costs.next()?;
        self.pulled
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Some(anyk::core::RankedAnswer {
            cost: Weight::new(c),
            values: vec![Value::Int(c as i64)],
        })
    }
}

impl AnyK for Probe {
    type Cost = Weight;
}

#[test]
fn spawning_a_merged_stream_pulls_nothing_until_the_first_next() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    // The two core mergers — arrival order (the 4-cycle's union of
    // case trees) and canonical order (shards, delta terms): building
    // one is a shell; the first `next()` primes every member once.
    let probes = || {
        let pulled = Arc::new(AtomicUsize::new(0));
        let members: Vec<Probe> = [vec![1.0, 4.0], vec![2.0, 3.0], vec![]]
            .into_iter()
            .map(|costs| Probe {
                costs: costs.into_iter(),
                pulled: Arc::clone(&pulled),
            })
            .collect();
        (members, pulled)
    };
    let (members, pulled) = probes();
    let mut union = anyk::core::RankedUnion::new(members);
    assert_eq!(pulled.load(Ordering::Relaxed), 0, "RankedUnion::new pulled");
    assert_eq!(union.next().map(|a| a.cost.get()), Some(1.0));
    assert!(pulled.load(Ordering::Relaxed) >= 2, "first next() primes");
    let (members, pulled) = probes();
    let mut merge = anyk::core::RankedMerge::new(members);
    assert_eq!(pulled.load(Ordering::Relaxed), 0, "RankedMerge::new pulled");
    assert_eq!(merge.next().map(|a| a.cost.get()), Some(1.0));
    assert!(pulled.load(Ordering::Relaxed) >= 2, "first next() primes");

    // The engine's merged streams, observed through the fan-in row
    // counters: sharded, and a single engine's delta union.
    let q = path_query(2);
    let rels = vec![scrambled_edges(300, 20, 3), scrambled_edges(300, 20, 5)];
    let sharded = ShardedEngine::try_from_query_bindings(&q, rels.clone(), 3).expect("sharded");
    let single = Engine::from_query_bindings(&q, rels);
    let batch = scrambled_edges(10, 20, 7);
    single.append("R2", batch).expect("append");
    let merged = [
        ("sharded", sharded.prepare(&q, RankSpec::Sum)),
        ("delta-backed", single.prepare(q.clone(), RankSpec::Sum)),
    ];
    for (label, prepared) in merged {
        let prepared = prepared.expect("prepare");
        let (mut stream, fan_in) = prepared.stream_traced(single.obs());
        let fan_in = fan_in.expect("a union reports fan-in");
        assert_eq!(fan_in.members(), prepared.parts().len());
        let rows = || fan_in.rows().collect::<Vec<_>>();
        assert!(
            rows().iter().all(|&r| r == 0),
            "{label}: spawn pulled from a member: {:?}",
            rows()
        );
        assert!(stream.next().is_some());
        assert!(
            rows().iter().all(|&r| r >= 1),
            "{label}: the first next() primes every member: {:?}",
            rows()
        );
    }
}
