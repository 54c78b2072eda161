//! Criterion benches for Part 3 (any-k): preprocessing, TT(1) and
//! TT(1000) per PART variant, REC, batch, and the cyclic C4 plan
//! (E4/E5/E9/E11).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use anyk_core::batch::BatchSorted;
use anyk_core::cyclic::cycle_trees;
use anyk_core::decomposed::ghd_trees;
use anyk_core::part::AnyKPart;
use anyk_core::ranking::SumCost;
use anyk_core::rec::AnyKRec;
use anyk_core::succorder::SuccessorKind;
use anyk_core::tdp::TdpInstance;
use anyk_query::cq::cycle_query;
use anyk_query::cycles::heavy_threshold;
use anyk_query::decompose::fhw_exact;
use anyk_query::hypergraph::Hypergraph;
use anyk_storage::BuildEachTime;
use anyk_workloads::adversarial::worst_case_triangle;
use anyk_workloads::graphs::WeightDist;
use anyk_workloads::patterns::path_instance;

fn bench_variants(c: &mut Criterion) {
    let inst = path_instance(4, 5000, 400, WeightDist::Uniform, 31);
    let mut g = c.benchmark_group("e11_variants_tt1000");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_millis(500));
    for kind in SuccessorKind::ALL_KINDS {
        g.bench_with_input(BenchmarkId::new(kind.name(), 5000), &inst, |b, inst| {
            b.iter(|| {
                let i = TdpInstance::<SumCost>::prepare(
                    &inst.query,
                    &inst.join_tree,
                    inst.relations_clone(),
                )
                .unwrap();
                black_box(AnyKPart::new(i, kind).take(1000).count())
            })
        });
    }
    g.bench_with_input(BenchmarkId::new("Rec", 5000), &inst, |b, inst| {
        b.iter(|| {
            let i = TdpInstance::<SumCost>::prepare(
                &inst.query,
                &inst.join_tree,
                inst.relations_clone(),
            )
            .unwrap();
            black_box(AnyKRec::new(i).take(1000).count())
        })
    });
    g.bench_with_input(BenchmarkId::new("BatchSorted", 5000), &inst, |b, inst| {
        b.iter(|| {
            black_box(
                BatchSorted::<SumCost>::new(&inst.query, &inst.join_tree, inst.relations_clone())
                    .take(1000)
                    .count(),
            )
        })
    });
    g.finish();
}

fn bench_ttf(c: &mut Criterion) {
    let inst = path_instance(4, 20_000, 2_000, WeightDist::Uniform, 99);
    let mut g = c.benchmark_group("e5_ttf");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.bench_function("anyk_part_lazy_TT1", |b| {
        b.iter(|| {
            let i = TdpInstance::<SumCost>::prepare(
                &inst.query,
                &inst.join_tree,
                inst.relations_clone(),
            )
            .unwrap();
            black_box(AnyKPart::new(i, SuccessorKind::Lazy).next())
        })
    });
    g.bench_function("batch_TT1", |b| {
        b.iter(|| {
            black_box(
                BatchSorted::<SumCost>::new(&inst.query, &inst.join_tree, inst.relations_clone())
                    .next(),
            )
        })
    });
    g.finish();
}

fn bench_cyclic(c: &mut Criterion) {
    let tri = worst_case_triangle(400, 11);
    let e = tri[0].clone();
    let rels = vec![e.clone(), e.clone(), e.clone(), e];
    let thr = heavy_threshold(rels[0].len());
    let mut g = c.benchmark_group("e4_c4_ranked");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_millis(500));
    for k in [1usize, 100] {
        g.bench_with_input(
            BenchmarkId::new("subw_union_of_trees", k),
            &rels,
            |b, rels| {
                b.iter(|| {
                    black_box(
                        (cycle_trees::<SumCost>(rels, thr, &BuildEachTime).unwrap())
                            .part(SuccessorKind::Lazy)
                            .take(k)
                            .count(),
                    )
                })
            },
        );
    }
    // E13 contrast: the single-tree fhw-2 plan on the same input.
    let q = cycle_query(4);
    let ghd = fhw_exact(&Hypergraph::of_query(&q));
    g.bench_with_input(
        BenchmarkId::new("fhw_single_tree", 100usize),
        &rels,
        |b, rels| {
            b.iter(|| {
                black_box(
                    (ghd_trees::<SumCost>(&q, rels, &ghd, &BuildEachTime).unwrap())
                        .part(SuccessorKind::Lazy)
                        .take(100)
                        .count(),
                )
            })
        },
    );
    g.finish();
}

criterion_group!(benches, bench_variants, bench_ttf, bench_cyclic);
criterion_main!(benches);
