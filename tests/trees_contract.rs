//! The stream-identity contract of the any-k routes **across commits**:
//! FNV digests of the full emitted streams — every output tuple and
//! every cost's bits, in emission order — recorded by running these
//! very functions at 7897235, before acyclic, GHD and 4-cycle plans
//! became one "union of T-DP trees" shape whose instances write the
//! output columns themselves. The 4-cycle rows have not moved since,
//! through the generalisation of its case split to every ℓ-cycle. The
//! 5- and 6-cycle rows were re-recorded when those queries left the
//! GHD route for the cycle route (bag semantics: their instances hold
//! duplicate-valued rows, which the GHD bags collapsed), and are
//! checked against the worst-case-optimal materialization below; the
//! chorded twins pin the GHD route with digests recorded at 51f9b4d.
//!
//! The serve/shard/delta byte-identity suites compare two paths of one
//! commit; they cannot see an emission order that moves on both paths
//! at once. This can: a changed tie order, a remapped column or a cost
//! combined in another order changes a digest.

use anyk::core::UnrankedEnum;
use anyk::join::c4::c4_cases_provider;
use anyk::join::cases::TreeCase;
use anyk::prelude::*;
use anyk::query::cq::ConjunctiveQuery;
use anyk::query::cycles::heavy_threshold;
use anyk::storage::BuildEachTime;

/// `rows` pseudo-random edges over `domain` nodes, weights from
/// {0, ¼, ½, ¾} so cost ties are everywhere, plus a fan of `fan` edges
/// out of and into every hub node.
fn edges(rows: u64, domain: u64, seed: u64, hubs: &[i64], fan: i64) -> Relation {
    let mut b = RelationBuilder::new(Schema::new(["u", "v"]));
    let mut x = seed | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    for _ in 0..rows {
        let x = next();
        let (u, v) = ((x % domain) as i64, ((x >> 17) % domain) as i64);
        b.push_ints(&[u, v], ((x >> 37) % 4) as f64 / 4.0);
    }
    for &hub in hubs {
        for i in 0..fan {
            b.push_ints(&[hub, i], (next() % 4) as f64 / 4.0);
            b.push_ints(&[i, hub], (next() % 4) as f64 / 4.0);
        }
    }
    b.finish()
}

fn instance(
    atoms: u64,
    rows: u64,
    domain: u64,
    seed: u64,
    hubs: &[i64],
    fan: i64,
) -> Vec<Relation> {
    (0..atoms)
        .map(|i| edges(rows, domain, seed + 977 * i, hubs, fan))
        .collect()
}

/// FNV-1a over an emitted sequence: values, then the cost's bits.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn answer(&mut self, values: &[Value], cost: f64) {
        for v in values {
            self.word(v.int() as u64);
        }
        self.word(cost.to_bits());
    }
}

/// `(answers, digest)` of the engine's stream for `q` under `rank`,
/// once per enumerator: the five PART successor kinds, then REC.
fn route_digests(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    rank: RankSpec,
    route: &str,
) -> Vec<(usize, u64)> {
    (route_streams(q, rels, rank, route).iter())
        .map(|answers| {
            let mut d = Digest::new();
            for a in answers {
                d.answer(&a.values, a.cost.scalar().expect("scalar ranking"));
            }
            (answers.len(), d.0)
        })
        .collect()
}

/// The engine's full stream for `q` under `rank`, once per enumerator:
/// the five PART successor kinds, then REC.
fn route_streams(
    q: &ConjunctiveQuery,
    rels: &[Relation],
    rank: RankSpec,
    route: &str,
) -> Vec<Vec<RankedAnswer>> {
    let engine = Engine::from_query_bindings(q, rels.to_vec());
    let variants = (SuccessorKind::ALL_KINDS.iter())
        .map(|&kind| AnyKVariant::Part(kind))
        .chain([AnyKVariant::Rec]);
    variants
        .map(|variant| {
            let stream = (engine.query(q.clone()))
                .rank_by(rank)
                .with_variant(variant)
                .plan()
                .expect("plan");
            assert_eq!(stream.plan().route.label(), route);
            stream.collect()
        })
        .collect()
}

fn five_cycle() -> Vec<Relation> {
    instance(5, 40, 7, 3, &[], 0)
}

fn six_cycle() -> Vec<Relation> {
    instance(6, 30, 6, 11, &[], 0)
}

/// `cycle` plus a chord relation for `R(ℓ+1)(x1,x3)`.
fn chorded(mut cycle: Vec<Relation>, seed: u64) -> Vec<Relation> {
    cycle.push(edges(30, 7, seed, &[], 0));
    cycle
}

/// The 4-cycle instance with hubs: heavy values on `x1` *and* on `x3`,
/// and a light-light remainder.
fn heavy_four_cycle() -> Vec<Relation> {
    instance(4, 40, 8, 42, &[100, 101], 12)
}

/// A 4-cycle instance without heavy values: one case, one tree.
fn light_four_cycle() -> Vec<Relation> {
    instance(4, 200, 40, 7, &[], 0)
}

/// Every fixture of the digest table: `(label, query, relations,
/// route)`, in the table's row order (two rankings a fixture).
fn fixtures() -> Vec<(&'static str, ConjunctiveQuery, Vec<Relation>, &'static str)> {
    vec![
        (
            "4-cycle, heavy",
            cycle_query(4),
            heavy_four_cycle(),
            "cycle",
        ),
        (
            "4-cycle, one tree",
            cycle_query(4),
            light_four_cycle(),
            "cycle",
        ),
        ("5-cycle", cycle_query(5), five_cycle(), "cycle"),
        ("6-cycle", cycle_query(6), six_cycle(), "cycle"),
        (
            "path4",
            path_query(4),
            instance(4, 30, 5, 42, &[], 0),
            "acyclic",
        ),
        (
            "star3",
            star_query(3),
            instance(3, 40, 6, 7, &[], 0),
            "acyclic",
        ),
        (
            "chorded 5-cycle",
            chorded_cycle_query(5),
            chorded(five_cycle(), 5),
            "decomposed",
        ),
        (
            "chorded 6-cycle",
            chorded_cycle_query(6),
            chorded(six_cycle(), 13),
            "decomposed",
        ),
    ]
}

/// The 4-cycle case split the engine's planner makes of `rels`.
fn cases(rels: &[Relation]) -> Vec<TreeCase> {
    let threshold = heavy_threshold(rels.iter().map(Relation::len).max().unwrap());
    let sum = |a: Weight, b: Weight| Weight::new(a.get() + b.get());
    c4_cases_provider(rels, threshold, sum, &BuildEachTime)
}

fn case_labels(rels: &[Relation]) -> Vec<String> {
    (cases(rels).into_iter()).map(|case| case.label).collect()
}

#[test]
fn every_route_emits_the_bytes_recorded_before_the_routes_were_one_shape() {
    #[rustfmt::skip]
    const GOLDEN: [[(usize, u64); 6]; 16] = [
        [(3116, 0xe03c4eeba1b0dd13), (3116, 0x15044e3fa4549683), (3116, 0x19ff5e050717e65b), (3116, 0xe03c4eeba1b0dd13), (3116, 0xe03c4eeba1b0dd13), (3116, 0x94fd8b4948e5611b)],
        [(3116, 0xe9b2ebd28dda9b4d), (3116, 0xbf3f75501db01f6d), (3116, 0x769e263f50fe37e9), (3116, 0xe9b2ebd28dda9b4d), (3116, 0xe9b2ebd28dda9b4d), (3116, 0x733fb040ea18a945)],
        [(576, 0xea33a4e3cb664d2c), (576, 0xd0344243b38bce58), (576, 0xdd6ae7192acbb8c0), (576, 0xea33a4e3cb664d2c), (576, 0xea33a4e3cb664d2c), (576, 0x17a6b6d2e613b914)],
        [(576, 0xc64ced8b0717177c), (576, 0xd6858dd750786f1c), (576, 0xd92cf2dfde1f3918), (576, 0xc64ced8b0717177c), (576, 0xc64ced8b0717177c), (576, 0x877a19b8037e3cf8)],
        [(6580, 0x2a0cb07c766e0fba), (6580, 0xa19cb8760fc0b81e), (6580, 0xed26d01f2d2dc3f6), (6580, 0x2a0cb07c766e0fba), (6580, 0x2a0cb07c766e0fba), (6580, 0xd306b87b6379688e)],
        [(6580, 0xcac6730abbb4cc46), (6580, 0xdb44555727305e6e), (6580, 0xc96e6ae7defcccd2), (6580, 0xcac6730abbb4cc46), (6580, 0xcac6730abbb4cc46), (6580, 0x3e77df674330efca)],
        [(15456, 0x2c3bca6100a66d17), (15456, 0x526ad1b52a512663), (15456, 0x2b85261490bba6ff), (15456, 0x2c3bca6100a66d17), (15456, 0x2c3bca6100a66d17), (15456, 0xb98302ac3aee061f)],
        [(15456, 0x5ad33bfbdc83306a), (15456, 0x9facdeb4a78733e6), (15456, 0x2648a95339e1ff82), (15456, 0x5ad33bfbdc83306a), (15456, 0x5ad33bfbdc83306a), (15456, 0x5b2c581fc81d3d92)],
        [(5692, 0xa846b789083e8a04), (5692, 0x13806fa78f7940a0), (5692, 0x360e9d49df60940c), (5692, 0xa846b789083e8a04), (5692, 0xa846b789083e8a04), (5692, 0xe81a9fdac42542b4)],
        [(5692, 0x7c1e4a894d3b5cde), (5692, 0x7513134651463f7a), (5692, 0x80c37005557c562a), (5692, 0x7c1e4a894d3b5cde), (5692, 0x7c1e4a894d3b5cde), (5692, 0x999042b318ba948e)],
        [(1607, 0x84671848635d2af7), (1607, 0x15566660cba0fc97), (1607, 0xbb05e21639884743), (1607, 0x84671848635d2af7), (1607, 0x84671848635d2af7), (1607, 0x356c19a6aca75253)],
        [(1607, 0x74eaacabf0348d9a), (1607, 0x510c60504e17527e), (1607, 0x76d545910fdddbea), (1607, 0x74eaacabf0348d9a), (1607, 0x74eaacabf0348d9a), (1607, 0x5f81a6d5f2043ffe)],
        [(413, 0x443043f3151f75fb), (413, 0xee0a0ea8d6f3197b), (413, 0x28d3f91bc9f3ab83), (413, 0x443043f3151f75fb), (413, 0x443043f3151f75fb), (413, 0x69d8f3c7e1d8fe27)],
        [(413, 0xb9692303be782429), (413, 0xc22343166652b175), (413, 0xe39a525543d1063d), (413, 0xb9692303be782429), (413, 0xb9692303be782429), (413, 0xd4c414d0dd867dd5)],
        [(635, 0xfcb43f2266105393), (635, 0xc880789b47ac122b), (635, 0xdf856b5902f45b3f), (635, 0xfcb43f2266105393), (635, 0xfcb43f2266105393), (635, 0xfdc44bcfe7603bab)],
        [(635, 0x1de0e6632f115a15), (635, 0x0f59191602761e0d), (635, 0x61e0bb2fb0bfb02d), (635, 0x1de0e6632f115a15), (635, 0x1de0e6632f115a15), (635, 0x1f63cd8cf13537ed)],
    ];

    let labels = case_labels(&heavy_four_cycle());
    for kind in ["heavy-x1=", "light-x1,heavy-x3=", "light-light"] {
        assert!(
            labels.iter().any(|l| l.starts_with(kind)),
            "the hub instance has a {kind} case: {labels:?}"
        );
    }
    assert_eq!(
        case_labels(&light_four_cycle()),
        ["light-light"],
        "the lone-tree path"
    );

    let inputs = fixtures();
    let mut got = Vec::new();
    for (label, q, rels, route) in &inputs {
        for rank in [RankSpec::Sum, RankSpec::Max] {
            let digests = route_digests(q, rels, rank, route);
            assert!(digests[0].0 > 300, "{label}: hundreds of answers");
            got.push((format!("{label} {rank:?}"), digests));
        }
    }
    let literal: Vec<String> = (got.iter())
        .map(|(_, ds)| {
            let row: Vec<String> = ds
                .iter()
                .map(|(n, d)| format!("({n}, {d:#018x})"))
                .collect();
            format!("        [{}],", row.join(", "))
        })
        .collect();
    for ((label, got), want) in got.iter().zip(GOLDEN) {
        assert_eq!(
            got[..],
            want[..],
            "{label}: Eager, All, Take2, Lazy, Quick, REC; all rows:\n{}",
            literal.join("\n")
        );
    }
}

/// `stream` drained through `fill`, pages of 1, 7, 10, 64 rows in turn:
/// every answer, and the sizes of the pages that came back short.
fn drain_by_pages(mut stream: RankedStream) -> (Vec<RankedAnswer>, Vec<(usize, usize)>) {
    let (mut answers, mut short) = (Vec::new(), Vec::new());
    for want in [1, 7, 10, 64].into_iter().cycle() {
        let mut page = stream.page(want);
        let got = stream.fill(&mut page, want);
        assert_eq!(page.len(), got, "fill reports what it appended");
        answers.extend((0..got).map(|i| page.answer(i)));
        if got < want {
            short.push((want, got));
            if short.len() == 3 {
                break;
            }
        }
    }
    (answers, short)
}

#[test]
fn a_page_filled_in_place_holds_what_repeated_next_returns() {
    // Every route × ranking × enumerator of the digest table, the
    // triangle's materialized artifact (lazy heap first, sorted cursor
    // after), a delta-backed union and a sharded one (both take the
    // default `fill` over `next`), each stream wrapped in the engine's
    // delay sampler: same rows, same order, and exhaustion reported
    // once — by the first short page — and for good.
    let variants = (SuccessorKind::ALL_KINDS.iter())
        .map(|&kind| AnyKVariant::Part(kind))
        .chain([AnyKVariant::Rec, AnyKVariant::Batch]);
    let triangle = (
        "triangle",
        cycle_query(3),
        instance(3, 60, 8, 5, &[], 0),
        "triangle",
    );
    for (label, q, rels, route) in fixtures().into_iter().chain([triangle]) {
        let engine = Engine::from_query_bindings(&q, rels);
        for rank in [RankSpec::Sum, RankSpec::Max, RankSpec::Lex] {
            for variant in variants.clone() {
                let spawn = || {
                    let request = engine.query(q.clone()).rank_by(rank);
                    request.with_variant(variant).plan().expect("plan")
                };
                assert_eq!(spawn().plan().route.label(), route);
                let by_next: Vec<RankedAnswer> = spawn().collect();
                let (by_fill, short) = drain_by_pages(spawn());
                let what = format!("{label} {rank:?} {variant:?}");
                assert!(by_next.len() > 100, "{what}: over a hundred answers");
                assert!(by_fill == by_next, "{what}: rows and their order");
                assert!(short[0].1 < short[0].0, "{what}: {short:?}");
                assert_eq!(short[1].1 + short[2].1, 0, "{what}: exhausted for good");
                // A page that ends on the last answer is full; the next
                // one is empty.
                let mut stream = spawn();
                let mut page = stream.page(by_next.len());
                assert_eq!(
                    stream.fill(&mut page, by_next.len()),
                    by_next.len(),
                    "{what}"
                );
                assert_eq!(
                    stream.fill(&mut page, 1),
                    0,
                    "{what}: nothing after the last"
                );
                assert_eq!(page.len(), by_next.len());
            }
        }
    }

    // Unions: the delta merge of a single engine and the shard merge
    // of a partition of its catalog.
    let q = path_query(4);
    let rels = instance(4, 30, 5, 42, &[], 0);
    let extra = edges(10, 5, 99, &[], 0);
    let single = Engine::from_query_bindings(&q, rels);
    single.append("R2", extra).expect("append");
    let sharded = ShardedEngine::new((*single.catalog()).clone(), 3).expect("three shards");
    for rank in [RankSpec::Sum, RankSpec::Lex] {
        let delta = || single.query(q.clone()).rank_by(rank).plan().expect("plan");
        assert_eq!(delta().plan().deltas, 1, "a delta-backed union");
        let by_next: Vec<RankedAnswer> = delta().collect();
        assert!(drain_by_pages(delta()).0 == by_next, "delta union {rank:?}");
        let shards = || sharded.prepare(&q, rank).expect("prepare").stream();
        let (by_fill, _) = drain_by_pages(shards());
        assert!(
            by_fill == shards().collect::<Vec<_>>(),
            "shard union {rank:?}"
        );
        assert_eq!(
            by_fill.len(),
            by_next.len(),
            "{rank:?}: same answers either way"
        );
    }
}

/// `(cost bits, values)` of every answer, sorted: a stream's multiset.
fn multiset(answers: impl Iterator<Item = (f64, Vec<Value>)>) -> Vec<(u64, Vec<Value>)> {
    let mut all: Vec<_> = answers.map(|(c, v)| (c.to_bits(), v)).collect();
    all.sort();
    all
}

#[test]
fn longer_cycle_streams_are_the_materialized_answers_in_cost_order() {
    // What justifies the re-recorded 5- and 6-cycle digests: every
    // enumerator's stream holds exactly the answers of the
    // worst-case-optimal join — one per combination of input rows —
    // with the same costs, in non-decreasing cost order. Only the order
    // inside a cost tie is the route's own. (The GHD route these
    // queries took before served each distinct answer once, at its
    // lightest cost: 952 and 1 501 answers where the instances, whose
    // relations repeat rows, have 6 580 and 15 456.)
    use anyk::core::cyclic::wco_ranked_materialize;
    fn want<R: RankingFunction<Cost = Weight>>(
        q: &ConjunctiveQuery,
        rels: &[Relation],
    ) -> Vec<(u64, Vec<Value>)> {
        let slab = wco_ranked_materialize::<R>(q, rels);
        multiset((0..slab.len()).map(|i| {
            let a = slab.answer(i);
            (a.cost.get(), a.values)
        }))
    }
    for (q, rels) in [
        (cycle_query(5), five_cycle()),
        (cycle_query(6), six_cycle()),
    ] {
        for rank in [RankSpec::Sum, RankSpec::Max] {
            let want = match rank {
                RankSpec::Sum => want::<SumCost>(&q, &rels),
                _ => want::<MaxCost>(&q, &rels),
            };
            for answers in route_streams(&q, &rels, rank, "cycle") {
                let costs: Vec<f64> = (answers.iter())
                    .map(|a| a.cost.scalar().expect("scalar ranking"))
                    .collect();
                assert!(
                    costs.windows(2).all(|w| w[0] <= w[1]),
                    "{rank:?}: cost order"
                );
                let got = multiset(costs.into_iter().zip(answers.into_iter().map(|a| a.values)));
                assert_eq!(got.len(), want.len(), "{rank:?}: cardinality");
                assert!(got == want, "{rank:?}: answers and costs");
            }
        }
    }
}

#[test]
fn the_unranked_odometer_over_a_case_tree_with_a_fixed_column() {
    const GOLDEN: (usize, u64) = (260, 0x0dd2_5b0d_4e65_9a76);

    let case = cases(&heavy_four_cycle())
        .into_iter()
        .find(|case| case.label.starts_with("light-x1,heavy-x3="))
        .expect("a heavy-x3 case");
    let inst = TdpInstance::<SumCost>::prepare_case(case).expect("prepare");
    let (mut d, mut n) = (Digest::new(), 0);
    for a in UnrankedEnum::new(inst) {
        n += 1;
        d.answer(&a.values, a.cost.get());
    }
    assert!(n > 100, "a case with over a hundred answers");
    assert_eq!((n, d.0), GOLDEN, "got ({n}, {:#018x})", d.0);
}
