//! The parallel batch engine on the full TSVC sweep: verifies that
//! `threads = N` produces verdicts identical to `threads = 1`, reports the
//! wall-clock win of the worker pool (visible on a multi-core runner), and
//! measures the verdict cache's hit-path speedup over re-verification.

use criterion::{criterion_group, criterion_main, Criterion};
use lv_bench::{sweep_jobs, sweep_tv_config};
use lv_core::{EngineConfig, PipelineConfig, VerdictCache, VerificationEngine};
use lv_interp::ChecksumConfig;
use std::sync::Arc;

fn sweep_pipeline() -> PipelineConfig {
    PipelineConfig {
        checksum: ChecksumConfig {
            trials: 1,
            n: 40,
            ..ChecksumConfig::default()
        },
        tv: sweep_tv_config(),
    }
}

fn bench(c: &mut Criterion) {
    let jobs = sweep_jobs();
    let sequential = VerificationEngine::new(EngineConfig::full(sweep_pipeline()).with_threads(1));
    let parallel = VerificationEngine::new(EngineConfig::full(sweep_pipeline()).with_threads(0));

    let base = sequential.run_batch(&jobs);
    let fanned = parallel.run_batch(&jobs);
    for (s, p) in base.jobs.iter().zip(&fanned.jobs) {
        assert_eq!(
            (&s.verdict, &s.stage, &s.detail),
            (&p.verdict, &p.stage, &p.detail),
            "thread count changed the verdict for {}",
            s.label
        );
    }
    println!(
        "\n=== engine sweep: {} TSVC jobs ===\nthreads=1: {:?}\nthreads={}: {:?} ({:.2}x)",
        jobs.len(),
        base.wall,
        fanned.threads,
        fanned.wall,
        base.wall.as_secs_f64() / fanned.wall.as_secs_f64().max(1e-9),
    );

    c.bench_function("engine_sweep_threads1", |b| {
        b.iter(|| sequential.run_batch(&jobs))
    });
    c.bench_function("engine_sweep_threadsN", |b| {
        b.iter(|| parallel.run_batch(&jobs))
    });

    // Warm-cache path: the first batch fills the cache, the timed loop is
    // all hits (hash + lookup, zero checksum/SMT work).
    let cache = Arc::new(VerdictCache::in_memory());
    let cached = VerificationEngine::new(
        EngineConfig::full(sweep_pipeline())
            .with_threads(1)
            .with_cache(cache.clone()),
    );
    let warmup = cached.run_batch(&jobs);
    assert_eq!(warmup.cache_misses, jobs.len());
    for (s, w) in base.jobs.iter().zip(&warmup.jobs) {
        assert_eq!(
            (&s.verdict, &s.stage, &s.detail),
            (&w.verdict, &w.stage, &w.detail),
            "the cache-filling run changed the verdict for {}",
            s.label
        );
    }
    c.bench_function("engine_sweep_warm_cache", |b| {
        b.iter(|| {
            let warm = cached.run_batch(&jobs);
            assert_eq!(warm.cache_hits, jobs.len());
            warm
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(3);
    targets = bench
}
criterion_main!(benches);
