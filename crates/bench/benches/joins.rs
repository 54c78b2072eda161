//! Criterion benches for Part 2 (optimal joins): triangle binary vs
//! Generic-Join (E1), Yannakakis vs binary on acyclic paths (E2), and
//! Boolean 4-cycle detection (E3).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use anyk_join::binary::binary_join;
use anyk_join::boolean::cycle_exists;
use anyk_join::generic_join::generic_join_materialize;
use anyk_join::leapfrog::leapfrog_materialize;
use anyk_join::yannakakis::yannakakis_join;
use anyk_query::cq::{path_query, triangle_query};
use anyk_query::cycles::heavy_threshold;
use anyk_query::gyo::{gyo_reduce, GyoResult};
use anyk_workloads::adversarial::worst_case_triangle;
use anyk_workloads::graphs::WeightDist;
use anyk_workloads::patterns::path_instance;

fn bench_triangle(c: &mut Criterion) {
    let q = triangle_query();
    let mut g = c.benchmark_group("e1_triangle");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_millis(500));
    for n in [400usize, 800, 1600] {
        let rels = worst_case_triangle(n, 42);
        g.bench_with_input(BenchmarkId::new("binary", n), &rels, |b, rels| {
            b.iter(|| black_box(binary_join(&q, rels, &[0, 1, 2])))
        });
        g.bench_with_input(BenchmarkId::new("generic_join", n), &rels, |b, rels| {
            b.iter(|| black_box(generic_join_materialize(&q, rels, None)))
        });
        g.bench_with_input(BenchmarkId::new("leapfrog", n), &rels, |b, rels| {
            b.iter(|| black_box(leapfrog_materialize(&q, rels, None)))
        });
    }
    g.finish();
}

fn bench_yannakakis(c: &mut Criterion) {
    let q = path_query(3);
    let tree = match gyo_reduce(&q) {
        GyoResult::Acyclic(t) => t,
        _ => unreachable!(),
    };
    let mut g = c.benchmark_group("e2_yannakakis");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_millis(500));
    for edges in [2000usize, 8000] {
        let inst = path_instance(3, edges, (edges / 10) as u64, WeightDist::Uniform, 7);
        g.bench_with_input(BenchmarkId::new("yannakakis", edges), &inst, |b, inst| {
            b.iter(|| black_box(yannakakis_join(&q, &tree, inst.relations_clone())))
        });
        g.bench_with_input(BenchmarkId::new("binary", edges), &inst, |b, inst| {
            b.iter(|| black_box(binary_join(&q, &inst.relations, &[0, 1, 2])))
        });
    }
    g.finish();
}

fn bench_c4_boolean(c: &mut Criterion) {
    let mut g = c.benchmark_group("e3_boolean_c4");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_millis(500));
    for n in [400usize, 800] {
        let tri = worst_case_triangle(n, 7);
        let e = tri[0].clone();
        let rels = vec![e.clone(), e.clone(), e.clone(), e];
        let thr = heavy_threshold(rels[0].len());
        g.bench_with_input(BenchmarkId::new("c4_detect", n), &rels, |b, rels| {
            b.iter(|| black_box(cycle_exists(rels, thr)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_triangle, bench_yannakakis, bench_c4_boolean);
criterion_main!(benches);
