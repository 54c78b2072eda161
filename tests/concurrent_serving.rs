//! Concurrent serving: one `Engine` / one `PreparedQuery`, many
//! threads. Every thread must observe the *identical* ranked stream —
//! same costs, same tuples, same order (ties included) — because the
//! prepared state is immutable shared data and each stream is an
//! independent cursor/heap over it.

mod common;

use anyk::prelude::*;
use anyk::query::cq::ConjunctiveQuery;
use common::gen::scrambled_edges;
use std::sync::Barrier;
use std::thread;

fn answers(stream: impl Iterator<Item = RankedAnswer>) -> Vec<(Vec<i64>, Cost)> {
    stream.map(|a| (a.ints(), a.cost)).collect()
}

#[test]
fn threads_sharing_one_prepared_query_get_identical_streams() {
    let q = path_query(3);
    let rels = vec![
        scrambled_edges(300, 12, 3),
        scrambled_edges(300, 12, 5),
        scrambled_edges(300, 12, 7),
    ];
    let engine = Engine::from_query_bindings(&q, rels);
    let prepared = engine.prepare(q, RankSpec::Sum).expect("acyclic prepare");
    let baseline = answers(prepared.stream());
    assert!(!baseline.is_empty(), "instance must have answers");

    thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let p = prepared.clone();
                s.spawn(move || answers(p.stream()))
            })
            .collect();
        for h in handles {
            assert_eq!(
                h.join().expect("worker thread"),
                baseline,
                "every thread must see the identical ranked stream"
            );
        }
    });
}

#[test]
fn concurrent_first_touch_of_a_fresh_prepared_query() {
    // Successor orders are built in the shared prepared state by
    // whichever stream touches a group first. Eight threads released
    // together onto a prepared query no stream has touched yet race on
    // exactly that; every one of them must see the sequence a single
    // thread sees — on distinct weights and when every answer ties.
    let uniform: Vec<Relation> = (0..3).map(|i| scrambled_edges(600, 20, 17 + i)).collect();
    let all_ties: Vec<Relation> = (uniform.iter())
        .map(|r| {
            let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
            for row in 0..r.len() as u32 {
                b.push(r.row(row), Weight::new(1.0));
            }
            b.finish()
        })
        .collect();
    let q = path_query(3);
    for (fixture, rels) in [("uniform", uniform), ("all ties", all_ties)] {
        let fresh = || {
            Engine::from_query_bindings(&q, rels.clone())
                .prepare(q.clone(), RankSpec::Sum)
                .expect("acyclic prepare")
        };
        let top = |p: &PreparedQuery| answers(p.stream().take(200));
        let baseline = top(&fresh());
        assert_eq!(baseline.len(), 200, "{fixture}: instance too small");

        let prepared = fresh();
        let start = Barrier::new(8);
        thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        top(&prepared)
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().expect("worker thread"), baseline, "{fixture}");
            }
        });
    }
}

#[test]
fn threads_sharing_one_engine_plan_identically() {
    // The ad-hoc path: all threads go through the shared plan cache of
    // one engine (clones are handles to the same engine). Mix rankings
    // so threads exercise different cache entries concurrently.
    let q = path_query(2);
    let rels = vec![scrambled_edges(400, 15, 11), scrambled_edges(400, 15, 13)];
    let engine = Engine::from_query_bindings(&q, rels);
    let baselines: Vec<Vec<(Vec<i64>, Cost)>> = [RankSpec::Sum, RankSpec::Max, RankSpec::Lex]
        .iter()
        .map(|&r| answers(engine.query(q.clone()).rank_by(r).plan().unwrap()))
        .collect();

    thread::scope(|s| {
        let handles: Vec<_> = (0..9)
            .map(|i| {
                let engine = engine.clone();
                let q = q.clone();
                s.spawn(move || {
                    let rank = [RankSpec::Sum, RankSpec::Max, RankSpec::Lex][i % 3];
                    (
                        i % 3,
                        answers(engine.query(q).rank_by(rank).plan().unwrap()),
                    )
                })
            })
            .collect();
        for h in handles {
            let (which, got) = h.join().expect("worker thread");
            assert_eq!(got, baselines[which], "rank #{which}");
        }
    });
}

#[test]
fn concurrent_streams_over_prepared_cyclic_plans() {
    // The union-of-trees (4-cycle) and sorted-answers (triangle)
    // prepared artifacts are shared across threads too.
    let e = scrambled_edges(120, 8, 17);
    for (label, q, m) in [
        ("triangle", triangle_query(), 3usize),
        ("c4", cycle_query(4), 4),
    ] {
        let rels: Vec<Relation> = (0..m).map(|_| e.clone()).collect();
        let engine = Engine::from_query_bindings(&q, rels);
        let prepared = engine.prepare(q, RankSpec::Sum).expect("cyclic prepare");
        let baseline = answers(prepared.stream());
        thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let p = prepared.clone();
                    s.spawn(move || answers(p.stream()))
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().expect("worker"), baseline, "{label}");
            }
        });
    }
}

#[test]
fn concurrent_triangle_first_stream_races_the_upgrade() {
    // The triangle route's first stream is a lazy heap; any further
    // spawn installs the shared sorted artifact. Racing eight threads
    // through that state machine must still produce byte-identical
    // streams — ties included — whichever thread wins the heap.
    let e = scrambled_edges(150, 8, 41);
    let q = triangle_query();
    let engine = Engine::from_query_bindings(&q, vec![e.clone(), e.clone(), e]);
    let prepared = engine.prepare(q, RankSpec::Sum).expect("triangle prepare");
    assert_eq!(
        prepared.sort_deferred(),
        Some(true),
        "prepare must not pay the sort"
    );
    let results: Vec<Vec<(Vec<i64>, Cost)>> = thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let p = prepared.clone();
                s.spawn(move || answers(p.stream()))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });
    assert!(!results[0].is_empty(), "instance must have triangles");
    for r in &results[1..] {
        assert_eq!(r, &results[0], "lazy heap and sorted cursors agree");
    }
    assert_eq!(
        prepared.sort_deferred(),
        Some(false),
        "multiple spawns install the sorted artifact"
    );
}

#[test]
fn interleaved_pulls_do_not_interfere() {
    // Two streams over one prepared query advanced in lock-step must
    // not share cursor state.
    let q = path_query(2);
    let rels = vec![scrambled_edges(100, 6, 19), scrambled_edges(100, 6, 23)];
    let engine = Engine::from_query_bindings(&q, rels);
    let prepared = engine.prepare(q, RankSpec::Sum).unwrap();
    let expected = answers(prepared.stream());

    let mut a = prepared.stream();
    let mut b = prepared.stream();
    let mut got_a = Vec::new();
    let mut got_b = Vec::new();
    loop {
        let xa = a.next();
        let xb = b.next();
        assert_eq!(xa.is_some(), xb.is_some());
        match (xa, xb) {
            (Some(x), Some(y)) => {
                got_a.push((x.ints(), x.cost));
                got_b.push((y.ints(), y.cost));
            }
            _ => break,
        }
    }
    assert_eq!(got_a, expected);
    assert_eq!(got_b, expected);
}

#[test]
fn catalog_update_during_serving_is_snapshot_isolated() {
    // A prepared query keeps serving its snapshot while another thread
    // replaces the underlying relation; plans made after the update see
    // the new data (the update drops and refreshes the plan over R2).
    let q = path_query(2);
    let r1 = scrambled_edges(200, 10, 29);
    let r2 = scrambled_edges(200, 10, 31);
    let engine = Engine::from_query_bindings(&q, vec![r1, r2]);
    let prepared = engine.prepare(q.clone(), RankSpec::Sum).unwrap();
    let before = answers(prepared.stream());

    thread::scope(|s| {
        let updater = {
            let engine = engine.clone();
            s.spawn(move || engine.register("R2", scrambled_edges(50, 10, 37)))
        };
        // Serving from the prepared snapshot is undisturbed, whether
        // the update has landed or not.
        assert_eq!(answers(prepared.stream()), before);
        updater.join().expect("updater");
    });

    assert_eq!(
        answers(prepared.stream()),
        before,
        "prepared snapshot survives the catalog update"
    );
    let (fresh, report) = engine.query(q.clone()).prepare_report().unwrap();
    assert!(report.cache_hit, "the updater refreshed the plan");
    let fresh = answers(fresh.stream());
    assert_ne!(fresh, before, "new plans see the replaced relation");
    let reference = Engine::new((*engine.catalog()).clone());
    let want = answers(reference.prepare(q, RankSpec::Sum).unwrap().stream());
    assert_eq!(
        fresh, want,
        "the refreshed plan serves the replaced relation"
    );
}

#[test]
fn readers_building_shared_orders_while_a_writer_extends_the_root() {
    // Every append below extends the path's delta term at its root
    // (R1): the refreshed term shares R2's groups, costs and successor
    // orders with the one before it. Readers page streams of the
    // snapshot they prepared while the writer appends, so the orders
    // they build on first touch land in state the terms of other
    // snapshots read too. Every paged stream must be exactly its
    // snapshot's stream: base plus the batches appended before it.
    let q = path_query(2);
    let batches: Vec<Relation> = (0..12).map(|b| scrambled_edges(16, 20, 101 + b)).collect();
    let base = vec![scrambled_edges(200, 20, 41), scrambled_edges(200, 20, 43)];
    let engine = Engine::from_query_bindings(&q, base.clone());
    engine.prepare(q.clone(), RankSpec::Sum).unwrap();
    engine.append("R1", batches[0].clone()).unwrap();
    let snapshots: Vec<Vec<(Vec<i64>, Cost)>> = (1..=batches.len())
        .map(|j| {
            let r1 = Relation::concat(&[&base[..1], &batches[..j]].concat());
            let reference = Engine::from_query_bindings(&q, vec![r1, base[1].clone()]);
            let prepared = reference.prepare(q.clone(), RankSpec::Sum).unwrap();
            answers(prepared.stream().canonical_ties())
        })
        .collect();

    // Round `r`: every reader prepares snapshot `r` and takes its first
    // page; then the writer's append (and its refresh, which reads the
    // shared state) runs while the readers drain the rest.
    let (rounds, barrier) = (batches.len() - 1, Barrier::new(5));
    thread::scope(|s| {
        for _ in 0..4 {
            let (engine, q, barrier, snapshots) = (&engine, &q, &barrier, &snapshots);
            s.spawn(move || {
                for want in &snapshots[..rounds] {
                    let prepared = engine.prepare(q.clone(), RankSpec::Sum).unwrap();
                    let mut stream = prepared.stream();
                    let mut got = answers(stream.next_batch(50).into_iter());
                    barrier.wait();
                    loop {
                        let page = stream.next_batch(50);
                        if page.is_empty() {
                            break;
                        }
                        got.extend(answers(page.into_iter()));
                    }
                    assert_eq!(&got, want, "a page left its snapshot");
                    barrier.wait();
                }
            });
        }
        for batch in &batches[1..] {
            barrier.wait();
            engine.append("R1", batch.clone()).unwrap();
            barrier.wait();
        }
    });
    assert_eq!(
        engine.write_stats().terms_extended,
        batches.len() as u64 - 1,
        "every append after the first extended the delta term at its root"
    );
}

/// A cold cyclic query whose prepare lasts long enough that callers
/// released together all arrive while it runs.
fn slow_triangle() -> (Engine, ConjunctiveQuery) {
    let q = triangle_query();
    let e = scrambled_edges(6000, 300, 53);
    (
        Engine::from_query_bindings(&q, vec![e.clone(), e.clone(), e]),
        q,
    )
}

#[test]
fn concurrent_misses_of_one_query_prepare_once() {
    // Eight threads released together onto a cold query: the first
    // installs the prepare, the other seven wait on it and share its
    // plan, so the engine prepares the query exactly once.
    let (engine, q) = slow_triangle();
    let start = Barrier::new(8);
    let results: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let (engine, q, start) = (&engine, &q, &start);
                s.spawn(move || {
                    start.wait();
                    let (prepared, report) = engine.query(q.clone()).prepare_report().unwrap();
                    (answers(prepared.stream()), report.cache_hit)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });
    assert!(results[0].0.len() > 1000, "instance too small to overlap");
    for (got, _) in &results[1..] {
        assert_eq!(got, &results[0].0, "every caller streams the same bytes");
    }
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, 1, "one prepare for eight concurrent misses");
    assert_eq!(stats.hits, 7);
    assert_eq!(results.iter().filter(|(_, hit)| !hit).count(), 1);
}

#[test]
fn a_write_refresh_and_a_reader_miss_prepare_once_between_them() {
    // The writer replaces R2 and refreshes the triangle over it; a
    // reader that sees the new catalog prepares the same query while
    // that refresh runs, or after it. Between them the engine prepares
    // it once, and the reader streams the new data.
    let (engine, q) = slow_triangle();
    engine.prepare(q.clone(), RankSpec::Sum).unwrap();
    let new_r2 = scrambled_edges(6000, 300, 59);
    let misses = engine.cache_stats().misses;
    let got = thread::scope(|s| {
        let reader = s.spawn(|| {
            let replaced = |c: &Catalog| c.get("R2").is_some_and(|r| r.shares_payload(&new_r2));
            while !replaced(&engine.catalog()) {
                thread::yield_now();
            }
            answers(engine.prepare(q.clone(), RankSpec::Sum).unwrap().stream())
        });
        engine.register("R2", new_r2.clone());
        reader.join().expect("reader")
    });
    assert_eq!(engine.cache_stats().misses - misses, 1);
    assert_eq!(engine.write_stats().invalidated_plans, 1);
    let fresh = Engine::new((*engine.catalog()).clone());
    let want = answers(fresh.prepare(q, RankSpec::Sum).unwrap().stream());
    assert_eq!(got, want, "the reader streams the replaced relation");
}
