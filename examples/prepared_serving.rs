//! Prepared serving: route + preprocess a query **once**, then serve
//! many ranked streams — including from multiple threads — without
//! ever repeating the preprocessing.
//!
//! This is the paper's TTF-vs-TT(k) decomposition as an API: the
//! `O~(n)` phase (full reducer, T-DP) lives in a `PreparedQuery`; each
//! `stream()` afterwards pays only the per-answer delay side. The
//! engine is `Clone + Send + Sync`, relations are `Arc`-backed handles,
//! and a catalog update drops and re-prepares exactly the cached plans
//! that read what it changed, so no cached plan ever goes stale.
//!
//! Run with: `cargo run --example prepared_serving`

use anyk::prelude::*;
use std::thread;
use std::time::Instant;

fn main() -> Result<(), EngineError> {
    // --- 1. A mid-sized acyclic workload: a 3-path over random edges. -
    let inst = path_instance(3, 50_000, 5_000, WeightDist::Uniform, 7);
    let query = inst.query.clone();
    let engine = Engine::from_query_bindings(&query, inst.relations_clone());

    // --- 2. Prepare once: the engine routes and preprocesses here. ---
    let t0 = Instant::now();
    let prepared = engine.prepare(query.clone(), RankSpec::Sum)?;
    println!(
        "prepared `{query}` in {:?} (route = {})",
        t0.elapsed(),
        prepared.plan().route.label()
    );

    // --- 3. Stream many times: each stream is independent and cheap. -
    let t1 = Instant::now();
    let top3: Vec<Vec<i64>> = prepared
        .stream()
        .top_k(3)
        .iter()
        .map(|a| a.ints())
        .collect();
    println!("top-3 (fresh stream in {:?}): {top3:?}", t1.elapsed());

    // --- 4. Serve concurrently: clone handles into worker threads. ---
    // Clones share the prepared state; every thread sees the identical
    // ranked stream.
    let t2 = Instant::now();
    let counts: Vec<usize> = thread::scope(|s| {
        (0..4)
            .map(|_| {
                let p = prepared.clone();
                s.spawn(move || p.stream().top_k(1_000).len())
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("worker"))
            .collect()
    });
    println!(
        "4 threads × top-1000 from the shared prepared query in {:?}: {counts:?}",
        t2.elapsed()
    );

    // --- 5. Ad-hoc callers amortize automatically via the plan cache. -
    let t3 = Instant::now();
    let first = engine
        .query(query.clone())
        .rank_by(RankSpec::Sum)
        .plan()?
        .next();
    println!(
        "ad-hoc plan() after prepare hits the cache: first answer in {:?} ({:?})",
        t3.elapsed(),
        first.map(|a| a.ints())
    );

    // --- 6. A catalog update re-prepares the plans that read what it
    //        replaced; prepared state is a snapshot, new plans see new
    //        data. ---
    let before = engine.cache_stats();
    engine.register("R1", Relation::empty(Schema::new(["a", "b"])));
    let after = engine.cache_stats();
    println!(
        "after the update: {} cached plan(s), {} re-prepared by the writer",
        after.entries,
        after.misses - before.misses
    );
    assert!(
        prepared.stream().next().is_some(),
        "the prepared snapshot still serves the old data"
    );
    assert!(
        engine.query(query).plan()?.next().is_none(),
        "new plans see the emptied relation"
    );
    println!("prepared snapshot unaffected; fresh plans see the update");
    Ok(())
}
