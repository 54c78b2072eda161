//! The per-layer suite of the traced run.
//!
//! Nothing inside the program is traced yet, so nesting comes from a
//! **ladder**: the workload's queries are replayed at successively
//! lower boundaries — `TcpClient::send`, `LocalClient::send`,
//! `parse` + `Session::run` + `encode_response` separately,
//! `Engine::query().plan()` + `next_batch` — and a layer's self time is
//! its rung minus the rung below. Under the ladder, kernels of `core`,
//! `join` and `storage` are timed directly on the workload's relations.
//! Every call is wrapped in a span by the caller's [`Rec`].

use crate::alloc;
use crate::harness::{paged_query, PagedQuery, Rec, Rng, Wire};
use crate::stats::median;
use anyk_core::{AnyKPart, CanonicalOrder, RankedMerge, SuccessorKind, SumCost, TdpInstance};
use anyk_engine::{Engine, RankSpec, ShardedEngine};
use anyk_join::c4::c4_cases_provider;
use anyk_join::generic_join::generic_join_materialize_with;
use anyk_join::leapfrog::leapfrog_triejoin_with;
use anyk_query::cq::{cycle_query, path_query, ConjunctiveQuery};
use anyk_query::cycles::heavy_threshold;
use anyk_query::gyo::{gyo_reduce, GyoResult};
use anyk_serve::{
    encode_response, parse, Command, LineFramer, LocalClient, Response, Server, Service, Session,
    TcpClient, Transport, TransportConfig,
};
use anyk_storage::{
    Catalog, DeltaRelation, IndexCatalog, Relation, Trie, Value, Weight,
    DEFAULT_INDEX_CATALOG_BYTES,
};
use std::hint::black_box;
use std::ops::ControlFlow;
use std::time::Instant;

const PAGE: usize = 10;
const PAGES: usize = 5;
/// Answers pulled where a per-answer cost is measured.
const DEEP: usize = 20_000;
/// Rows per append in the write probe (as in `live_writes`).
const BATCH_ROWS: usize = 64;

#[derive(Clone)]
pub struct LayerQuery {
    pub cq: ConjunctiveQuery,
    pub rank: RankSpec,
}

/// What a workload hands the suite: its catalog, its distinct queries,
/// and which of its relations the kernels run over.
pub struct LayerInputs {
    pub catalog: Catalog,
    pub queries: Vec<LayerQuery>,
    /// Binary edge relations for the triangle kernels and the trie.
    pub triangle: [Relation; 3],
    /// Binary edge relations for the 4-cycle case split, T-DP and any-k.
    pub four: [Relation; 4],
}

/// `(metric name, value)` pairs, units from [`crate::metrics`].
pub type Values = Vec<(&'static str, f64)>;

/// Median duration of `f` in µs: at least `min_reps` calls, then more
/// until `budget_ms` is spent (64 at most), each inside a span.
fn time_us<T>(
    rec: &mut Rec,
    name: &'static str,
    min_reps: usize,
    budget_ms: u64,
    mut f: impl FnMut() -> T,
) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps
        || (samples.len() < 64 && started.elapsed().as_millis() < u128::from(budget_ms))
    {
        let span = rec.enter(name);
        let t = Instant::now();
        black_box(f());
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        rec.exit(span, 0);
    }
    median(&samples)
}

/// Pull up to `n` answers; returns ns per answer.
fn pull_ns<I: Iterator>(rec: &mut Rec, name: &'static str, mut it: I, n: usize) -> f64 {
    let span = rec.enter(name);
    let t = Instant::now();
    let mut got = 0usize;
    while got < n {
        match it.next() {
            Some(a) => {
                black_box(a);
                got += 1;
            }
            None => break,
        }
    }
    let ns = t.elapsed().as_nanos() as f64;
    rec.exit(span, got as u64);
    ns / got.max(1) as f64
}

fn tdp_instance(rec: &mut Rec, rels: &[Relation]) -> Option<TdpInstance<SumCost>> {
    let q = path_query(rels.len());
    let GyoResult::Acyclic(tree) = gyo_reduce(&q) else {
        return None;
    };
    let span = rec.enter("core.tdp_prepare");
    let inst = TdpInstance::<SumCost>::prepare(&q, &tree, rels.to_vec()).ok();
    rec.exit(span, 0);
    inst
}

fn storage_join_core(inp: &LayerInputs, rec: &mut Rec, out: &mut Values) {
    // storage: one trie over the first relation, then seeks into it.
    let rel = &inp.triangle[0];
    let build_us = time_us(rec, "storage.trie_build", 5, 300, || {
        Trie::build(rel, &[0, 1])
    });
    out.push(("storage.trie_build_us", build_us));
    out.push((
        "storage.trie_build_rows_per_s",
        rel.len() as f64 / (build_us / 1e6),
    ));
    let trie = Trie::build(rel, &[0, 1]);
    let root = trie.root();
    let nodes = node_span(rel);
    let mut rng = Rng::new(rel.len() as u64);
    let probes: Vec<Value> = (0..200_000)
        .map(|_| Value::Int(rng.below(nodes) as i64))
        .collect();
    let span = rec.enter("storage.trie_seek");
    let t = Instant::now();
    let mut acc = 0u32;
    for &v in &probes {
        acc = acc.wrapping_add(trie.seek(root, root.start, v));
    }
    black_box(acc);
    out.push((
        "storage.trie_seek_ns",
        t.elapsed().as_nanos() as f64 / probes.len() as f64,
    ));
    rec.exit(span, probes.len() as u64);

    // storage: fold a delta tail of 16 batches into the base.
    let mut rng = Rng::new(7);
    let batches: Vec<Relation> = (0..16)
        .map(|_| rng.insert_batch(BATCH_ROWS, nodes).1)
        .collect();
    let delta = |batches: &[Relation]| {
        let mut d = DeltaRelation::new(rel.clone());
        for b in batches {
            d.push(b.clone());
        }
        d
    };
    let d = delta(&batches);
    out.push((
        "storage.delta_flatten_us",
        time_us(rec, "storage.delta_flatten", 5, 200, || d.flatten()),
    ));
    out.push((
        "storage.compact_us",
        time_us(rec, "storage.compact", 5, 200, || {
            let mut d = delta(&batches);
            d.compact()
        }),
    ));

    // join: kernels over warm shared tries, so seek/intersect is what
    // is timed, not the trie build above.
    let tri = cycle_query(3);
    let idx = IndexCatalog::with_capacity(DEFAULT_INDEX_CATALOG_BYTES);
    let mut rows = 0usize;
    let gj_us = time_us(rec, "join.gj_materialize", 3, 400, || {
        let (r, stats) = generic_join_materialize_with(&tri, &inp.triangle, None, &idx);
        rows = r.len();
        stats
    });
    out.push(("join.gj_materialize_us", gj_us));
    out.push(("join.gj_rows_per_s", rows as f64 / (gj_us / 1e6)));
    out.push((
        "join.lftj_us",
        time_us(rec, "join.lftj", 3, 400, || {
            let mut n = 0u64;
            leapfrog_triejoin_with(&tri, &inp.triangle, None, &idx, &mut |_, _| {
                n += 1;
                ControlFlow::Continue(())
            });
            n
        }),
    ));
    let threshold = heavy_threshold(inp.four[0].len());
    out.push((
        "join.c4_cases_us",
        time_us(rec, "join.c4_cases", 2, 400, || {
            c4_cases_provider(
                &inp.four,
                threshold,
                |a, b| Weight::new(a.get() + b.get()),
                &idx,
            )
            .len()
        }),
    ));

    // core: T-DP over a 3-path, then the enumerators on top of it.
    let path = &inp.four[..3];
    out.push((
        "core.tdp_prepare_us",
        time_us(rec, "core.tdp_prepare_timed", 3, 400, || {
            tdp_instance(&mut Rec::default(), path).is_some()
        }),
    ));
    let instances: Vec<std::sync::Arc<TdpInstance<SumCost>>> = (0..4)
        .filter_map(|i| {
            let rels: Vec<Relation> = (0..3).map(|j| inp.four[(i + j) % 4].clone()).collect();
            tdp_instance(rec, &rels).map(std::sync::Arc::new)
        })
        .collect();
    let part = |i: usize| AnyKPart::new(std::sync::Arc::clone(&instances[i]), SuccessorKind::Lazy);
    if instances.len() == 4 {
        out.push((
            "core.anyk_next_ns",
            pull_ns(rec, "core.anyk_part", part(0), DEEP),
        ));
        out.push((
            "core.merge_next_ns",
            pull_ns(
                rec,
                "core.ranked_merge",
                RankedMerge::new((0..4).map(part).collect()),
                DEEP,
            ),
        ));
        out.push((
            "core.canonical_order_ns",
            pull_ns(
                rec,
                "core.canonical_order",
                CanonicalOrder::new(part(0)),
                DEEP,
            ),
        ));
    }
}

/// One past the largest node id in `rel`'s first column.
fn node_span(rel: &Relation) -> u64 {
    let max = rel.iter().filter_map(|(_, row, _)| row[0].as_int()).max();
    max.map_or(1, |m| m as u64 + 1)
}

fn engine_layer(inp: &LayerInputs, rec: &mut Rec, out: &mut Values) {
    let first = &inp.queries[0];
    // query: routing and planning only.
    let engine = Engine::new(inp.catalog.fork_with_fresh_indexes());
    let mut plan_us = Vec::new();
    for q in &inp.queries {
        plan_us.push(time_us(rec, "query.plan", 5, 20, || {
            engine.query(q.cq.clone()).rank_by(q.rank).explain().is_ok()
        }));
    }
    out.push(("query.plan_us", median(&plan_us)));

    // engine: cold prepare (fresh engine, fresh indexes), then hits.
    let mut cold = Vec::new();
    for _ in 0..2 {
        for q in &inp.queries {
            let fresh = Engine::new(inp.catalog.fork_with_fresh_indexes());
            let span = rec.enter("engine.prepare_cold");
            let t = Instant::now();
            black_box(fresh.prepare(q.cq.clone(), q.rank).is_ok());
            cold.push(t.elapsed().as_secs_f64() * 1e6);
            rec.exit(span, 0);
        }
    }
    out.push(("engine.prepare_cold_us", median(&cold)));
    let (mut hit, mut spawn) = (Vec::new(), Vec::new());
    for q in &inp.queries {
        let Ok(prepared) = engine.prepare(q.cq.clone(), q.rank) else {
            continue;
        };
        hit.push(time_us(rec, "engine.prepare_hit", 20, 10, || {
            engine.prepare(q.cq.clone(), q.rank).is_ok()
        }));
        spawn.push(time_us(rec, "engine.stream_spawn", 20, 10, || {
            prepared.stream()
        }));
    }
    out.push(("engine.prepare_hit_us", median(&hit)));
    out.push(("engine.stream_spawn_us", median(&spawn)));

    // engine + alloc: a deep pull on the first query.
    if let Ok(prepared) = engine.prepare(first.cq.clone(), first.rank) {
        let before = alloc::snapshot();
        let span = rec.enter("engine.deep_pull");
        let t = Instant::now();
        let mut stream = prepared.stream();
        let mut n = 0usize;
        while n < DEEP {
            let batch = stream.next_batch(1_000);
            if batch.is_empty() {
                break;
            }
            n += batch.len();
        }
        let ns = t.elapsed().as_nanos() as f64;
        rec.exit(span, n as u64);
        let after = alloc::snapshot();
        let direct_ns = ns / n.max(1) as f64;
        out.push(("engine.pull_ns_per_answer", direct_ns));
        out.push((
            "alloc.drain_per_answer",
            (after.count - before.count) as f64 / n.max(1) as f64,
        ));
        out.push((
            "alloc.drain_bytes_per_answer",
            (after.bytes - before.bytes) as f64 / n.max(1) as f64,
        ));

        // Sharded fan-in, measured here because no workload gates it.
        let sharded_ns = |rec: &mut Rec, shards: usize, name: &'static str| {
            let sharded = ShardedEngine::new(inp.catalog.fork_with_fresh_indexes(), shards).ok()?;
            let prepared = sharded.prepare(&first.cq, first.rank).ok()?;
            Some(pull_ns(rec, name, prepared.stream(), DEEP))
        };
        let n2 = sharded_ns(rec, 2, "engine.shard_n2_pull").unwrap_or(f64::NAN);
        let n1 = sharded_ns(rec, 1, "engine.shard_n1_pull").unwrap_or(f64::NAN);
        out.push(("engine.shard_merge_ns_per_answer", n2));
        out.push(("engine.shard_n1_overhead_ratio", n1 / direct_ns));
    }
}

/// The write probe: appends to the first query's first relation with
/// every query's plan warm, so refresh-on-append is inside the timing.
fn write_probe(inp: &LayerInputs, rec: &mut Rec, out: &mut Values) {
    let target = inp.queries[0].cq.atom(0).relation.clone();
    let Some(rel) = inp.catalog.get(&target) else {
        return;
    };
    let nodes = node_span(rel);
    let mut rng = Rng::new(11);
    let batches: Vec<(String, Relation)> = (0..24)
        .map(|_| rng.insert_batch(BATCH_ROWS, nodes))
        .collect();
    let warm = |engine: &Engine| {
        for q in &inp.queries {
            black_box(engine.prepare(q.cq.clone(), q.rank).is_ok());
        }
    };

    let engine = Engine::new(inp.catalog.fork_with_fresh_indexes());
    warm(&engine);
    let mut append_us = Vec::new();
    for (_, batch) in &batches {
        let span = rec.enter("engine.append");
        let t = Instant::now();
        black_box(engine.append(&target, batch.clone()).is_ok());
        append_us.push(t.elapsed().as_secs_f64() * 1e6);
        rec.exit(span, BATCH_ROWS as u64);
    }
    let span = rec.enter("engine.compact");
    black_box(engine.compact(&target).is_ok());
    rec.exit(span, 0);
    out.push(("engine.append_p50_us", median(&append_us)));
    out.push((
        "engine.compactions",
        engine.write_stats().compactions as f64,
    ));

    let engine = Engine::new(inp.catalog.fork_with_fresh_indexes());
    warm(&engine);
    let service = Service::new(engine);
    let mut client = LocalClient::new(&service);
    let mut write_us = Vec::new();
    for (rows, _) in &batches {
        let line = format!("INSERT INTO {target} VALUES {rows};");
        let span = rec.enter("server.local_insert");
        let t = Instant::now();
        let reply = client.send(&line);
        write_us.push(t.elapsed().as_secs_f64() * 1e6);
        rec.exit(span, BATCH_ROWS as u64);
        black_box(reply);
    }
    out.push(("server.write_p50_us", median(&write_us)));
}

fn us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Rung 2 for one op: the three server functions called separately.
/// Returns `(parse, run, encode, frame)` totals in µs and rows encoded.
fn split_op(session: &mut Session, q: &PagedQuery, rec: &mut Rec) -> Option<([f64; 4], usize)> {
    let mut total = [0.0; 4];
    let mut rows = 0;
    let mut line = q.select.clone();
    let mut framer = LineFramer::new(64 * 1024);
    for step in 0..=q.pages {
        let span = rec.enter("server.frame");
        let t = Instant::now();
        framer.feed(line.as_bytes());
        framer.feed(b"\n");
        let framed = framer.next_line()?.ok()?;
        total[3] += us(t);
        rec.exit(span, 0);

        let span = rec.enter("server.parse");
        let t = Instant::now();
        let cmd: Command = parse(&framed).ok()?;
        total[0] += us(t);
        rec.exit(span, 0);

        let span = rec.enter("server.session_run");
        let t = Instant::now();
        let resp = session.run(cmd).ok()?;
        total[1] += us(t);
        rec.exit(span, 0);

        let span = rec.enter("server.encode");
        let t = Instant::now();
        black_box(encode_response(&resp));
        total[2] += us(t);
        let cursor = match &resp {
            Response::Page(page) => {
                rows += page.answers.len();
                rec.exit(span, page.answers.len() as u64);
                page.cursor
            }
            _ => {
                rec.exit(span, 0);
                None
            }
        };
        // After the CLOSE, or once the stream has run dry (a query with
        // fewer than k answers closes its own cursor), the op is over.
        let Some(cursor) = cursor.filter(|_| step < q.pages) else {
            break;
        };
        line = if step + 1 < q.pages {
            format!("NEXT {} ON {cursor};", q.page)
        } else {
            format!("CLOSE {cursor};")
        };
    }
    Some((total, rows))
}

fn ladder(inp: &LayerInputs, rec: &mut Rec, out: &mut Values) -> Option<()> {
    let queries: Vec<PagedQuery> = inp
        .queries
        .iter()
        .enumerate()
        .map(|(i, q)| PagedQuery::new(i, &q.cq, q.rank, PAGE, PAGES))
        .collect();
    let engine = Engine::new(inp.catalog.fork_with_fresh_indexes());
    let service = Service::new(engine.clone());
    let mut local = LocalClient::new(&service);
    let mut session = service.session();
    for q in &queries {
        paged_query(&mut local, q, &mut Rec::default());
    }

    // alloc: the warm page path in-process, before any server thread
    // exists, so the counts are this thread's alone.
    let before = alloc::snapshot();
    let mut answers = 0u64;
    for q in &queries {
        answers += paged_query(&mut local, q, &mut Rec::default()).rows;
    }
    let after = alloc::snapshot();
    out.push((
        "alloc.per_answer",
        (after.count - before.count) as f64 / answers.max(1) as f64,
    ));
    out.push((
        "alloc.bytes_per_answer",
        (after.bytes - before.bytes) as f64 / answers.max(1) as f64,
    ));

    let server = Server::bind_with(
        service.clone(),
        "127.0.0.1:0",
        TransportConfig {
            transport: Transport::EventLoop,
            workers: 2,
            ..TransportConfig::default()
        },
    )
    .ok()?;
    let mut tcp = TcpClient::connect(server.addr()).ok()?;

    // Per-op totals of each rung, µs.
    let (mut r_tcp, mut r_local, mut r_engine) = (Vec::new(), Vec::new(), Vec::new());
    let mut split: [Vec<f64>; 4] = Default::default();
    let (mut select_us, mut page_us) = (Vec::new(), Vec::new());
    let (mut noop_tcp, mut noop_local) = (Vec::new(), Vec::new());
    let mut encoded_rows = 0usize;
    let passes = (216 / queries.len()).max(8);
    for _ in 0..passes {
        // One pass per rung, interleaved so drift hits all rungs alike.
        for q in &queries {
            let rung = rec.enter("rung.tcp");
            let t = Instant::now();
            let got = paged_query(&mut tcp, q, rec);
            r_tcp.push(us(t));
            rec.exit(rung, got.rows);
            select_us.push(got.ttf_ns as f64 / 1e3);
            page_us.push((got.ttk_ns - got.ttf_ns) as f64 / 1e3 / (q.pages - 1) as f64);
        }
        for q in &queries {
            let rung = rec.enter("rung.local");
            let t = Instant::now();
            let got = paged_query(&mut local, q, rec);
            r_local.push(us(t));
            rec.exit(rung, got.rows);
        }
        for q in &queries {
            let rung = rec.enter("rung.split");
            let (total, rows) = split_op(&mut session, q, rec)?;
            rec.exit(rung, rows as u64);
            encoded_rows += rows;
            for (acc, v) in split.iter_mut().zip(total) {
                acc.push(v);
            }
        }
        for q in &inp.queries {
            let rung = rec.enter("rung.engine");
            let t = Instant::now();
            let span = rec.enter("engine.plan");
            let mut stream = engine.query(q.cq.clone()).rank_by(q.rank).plan().ok()?;
            rec.exit(span, 0);
            let mut rows = 0;
            for _ in 0..PAGES {
                let span = rec.enter("engine.next_batch");
                let n = stream.next_batch(PAGE).len();
                rec.exit(span, n as u64);
                rows += n;
            }
            drop(stream);
            r_engine.push(us(t));
            rec.exit(rung, rows as u64);
        }
        // The bare round trip: a request that enumerates nothing and
        // whose reply is about as long as a page, over TCP minus
        // in-process.
        for q in &queries {
            let explain = format!("EXPLAIN {}", q.select);
            let t = Instant::now();
            black_box(tcp.request(&explain));
            noop_tcp.push(us(t));
            let t = Instant::now();
            black_box(local.request(&explain));
            noop_local.push(us(t));
        }
    }
    drop(tcp);

    // The same ops from two client threads on the away CPU while the
    // server's threads stay home: the one place where client-side and
    // server-side work run in parallel and every wake-up crosses CPUs.
    // Reported, not gated: rounds placed like this spread 12-14 % within
    // a run against 4 % with everything on the home CPU.
    let addr = server.addr();
    let t = Instant::now();
    let rows: u64 = std::thread::scope(|s| {
        let clients: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    crate::pin::move_to_away();
                    let mut tcp = TcpClient::connect(addr).ok()?;
                    let mut rows = 0;
                    for _ in 0..passes {
                        for q in &queries {
                            rows += paged_query(&mut tcp, q, &mut Rec::default()).rows;
                        }
                    }
                    Some(rows)
                })
            })
            .collect();
        clients
            .into_iter()
            .filter_map(|c| c.join().ok().flatten())
            .sum()
    });
    out.push((
        "server.two_cpu_answers_per_s",
        rows as f64 / t.elapsed().as_secs_f64(),
    ));
    drop(server);

    let ops = split[0].len();
    let [parse_us, run_us, encode_us, frame_us] = split.map(|v| median(&v));
    let round_trip_us = (median(&noop_tcp) - median(&noop_local)).max(0.0);
    let top = median(&r_tcp);
    // Independent parts of one op: the three server functions, framing,
    // and one bare round trip per request (SELECT, NEXTs, CLOSE).
    let parts = parse_us + run_us + encode_us + frame_us + round_trip_us * (PAGES + 1) as f64;
    out.push(("server.parse_us", parse_us));
    out.push(("server.session_us", run_us - median(&r_engine)));
    out.push((
        "server.encode_ns_per_answer",
        encode_us * 1e3 * ops as f64 / encoded_rows.max(1) as f64,
    ));
    out.push(("server.frame_us", frame_us));
    out.push(("server.transport_us", top - median(&r_local)));
    out.push(("server.select_p50_us", median(&select_us)));
    out.push(("server.page_p50_us", median(&page_us)));
    out.push(("bench.ladder_residual_ratio", (top - parts).abs() / top));

    let cache = engine.cache_stats();
    let index = engine.index_stats();
    out.push(("engine.cache_hit_rate", cache.hit_rate()));
    out.push((
        "storage.index_hit_rate",
        index.hits as f64 / (index.hits + index.misses).max(1) as f64,
    ));
    out.push(("storage.index_builds", index.builds as f64));
    out.push((
        "storage.index_resident_mb",
        index.resident_bytes as f64 / alloc::MIB,
    ));
    println!(
        "ladder (us/op, p50): tcp {top:.1} | local {:.1} | parse {parse_us:.1} + run {run_us:.1} + \
         encode {encode_us:.1} + frame {frame_us:.1} + {} x round trip {round_trip_us:.1} = {parts:.1} \
         | engine {:.1}",
        median(&r_local),
        PAGES + 1,
        median(&r_engine)
    );
    Some(())
}

/// Run the whole suite; spans go to `rec`'s tracer.
pub fn run(inp: &LayerInputs, rec: &mut Rec) -> Values {
    let mut out = Values::new();
    if inp.queries.is_empty() {
        return out;
    }
    storage_join_core(inp, rec, &mut out);
    engine_layer(inp, rec, &mut out);
    write_probe(inp, rec, &mut out);
    if ladder(inp, rec, &mut out).is_none() {
        eprintln!("ladder: a rung failed; its metrics are missing");
    }
    out
}
