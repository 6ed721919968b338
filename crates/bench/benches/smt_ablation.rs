//! Ablation: the three verification strategies on the same kernel, showing
//! why the domain-specific optimizations (C-level unrolling, spatial
//! splitting) matter for solver effort.

use criterion::{criterion_group, criterion_main, Criterion};
use lv_agents::vectorize_correct;
use lv_tv::{
    check_with_alive2_unroll, check_with_c_unroll, check_with_spatial_splitting, TvConfig,
};

fn bench(c: &mut Criterion) {
    let scalar = lv_tsvc::kernel("s212").unwrap().function();
    let candidate = vectorize_correct(&scalar).unwrap();
    let easy_scalar = lv_tsvc::kernel("s000").unwrap().function();
    let easy_candidate = vectorize_correct(&easy_scalar).unwrap();
    let config = TvConfig::default();

    let mut group = c.benchmark_group("verification_strategies");
    group.sample_size(10);
    group.bench_function("alive2_unroll_s212", |b| {
        b.iter(|| check_with_alive2_unroll(&scalar, &candidate, &config))
    });
    group.bench_function("c_unroll_s212", |b| {
        b.iter(|| check_with_c_unroll(&scalar, &candidate, &config))
    });
    group.bench_function("spatial_splitting_s000", |b| {
        b.iter(|| check_with_spatial_splitting(&easy_scalar, &easy_candidate, &config))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
