//! Criterion microbenches for the storage substrate: trie build rates
//! (a one-level join-key trie and a two-level join trie) and the Fx hasher vs the std SipHash default.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::HashMap;
use std::hint::black_box;

use anyk_storage::{FxHashMap, Trie};
use anyk_workloads::graphs::{random_edge_relation, WeightDist};

fn bench_index_builds(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage_index_build");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_millis(500));
    for n in [10_000usize, 100_000] {
        let rel = random_edge_relation(n, (n / 10) as u64, WeightDist::Uniform, None, 3);
        g.bench_with_input(BenchmarkId::new("key_trie", n), &rel, |b, rel| {
            b.iter(|| black_box(Trie::build(rel, &[0])))
        });
        g.bench_with_input(BenchmarkId::new("trie", n), &rel, |b, rel| {
            b.iter(|| black_box(Trie::build(rel, &[0, 1])))
        });
    }
    g.finish();
}

fn bench_hashers(c: &mut Criterion) {
    let keys: Vec<u64> = (0..100_000u64)
        .map(|i| i.wrapping_mul(0x9e3779b9))
        .collect();
    let mut g = c.benchmark_group("storage_hashers");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(3));
    g.warm_up_time(std::time::Duration::from_millis(500));
    g.bench_function("fx_hash_map_insert_100k", |b| {
        b.iter(|| {
            let mut m: FxHashMap<u64, u64> = FxHashMap::default();
            for &k in &keys {
                m.insert(k, k);
            }
            black_box(m.len())
        })
    });
    g.bench_function("std_hash_map_insert_100k", |b| {
        b.iter(|| {
            let mut m: HashMap<u64, u64> = HashMap::new();
            for &k in &keys {
                m.insert(k, k);
            }
            black_box(m.len())
        })
    });
    g.finish();
}

criterion_group!(benches, bench_index_builds, bench_hashers);
criterion_main!(benches);
