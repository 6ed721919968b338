//! Ablation: the three verification strategies on the same kernel, showing
//! why the domain-specific optimizations (C-level unrolling, spatial
//! splitting) matter for solver effort.

use criterion::{criterion_group, criterion_main, Criterion};
use lv_agents::vectorize_correct;
use lv_tv::{SymbolicStrategy, TvConfig, TvSession};

fn bench(c: &mut Criterion) {
    let scalar = lv_tsvc::kernel("s212").unwrap().function();
    let candidate = vectorize_correct(&scalar).unwrap();
    let easy_scalar = lv_tsvc::kernel("s000").unwrap().function();
    let easy_candidate = vectorize_correct(&easy_scalar).unwrap();
    let config = TvConfig::default();
    let run = |strategy: SymbolicStrategy, scalar, candidate| {
        strategy.run(scalar, candidate, &config, &mut TvSession::new())
    };

    let mut group = c.benchmark_group("verification_strategies");
    group.sample_size(10);
    group.bench_function("alive2_unroll_s212", |b| {
        b.iter(|| run(SymbolicStrategy::Alive2Unroll, &scalar, &candidate))
    });
    group.bench_function("c_unroll_s212", |b| {
        b.iter(|| run(SymbolicStrategy::CUnroll, &scalar, &candidate))
    });
    group.bench_function("spatial_splitting_s000", |b| {
        b.iter(|| {
            run(
                SymbolicStrategy::SpatialSplitting,
                &easy_scalar,
                &easy_candidate,
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
