//! `cold_sweep`: the Table 3 sweep in-process through `run_batch`, each
//! sweep with a fresh file-backed verdict cache, so every job runs the
//! cascade.

use crate::metrics::{self, peak_rss_mb};
use crate::oracle::{cached, Oracle};
use crate::trace::{self, Cascade, LatencyObserver, Layers};
use crate::workload::{self, JobSet, WORKERS};
use crate::{Args, Outcome};
use lv_core::{BatchReport, CacheKey, VerdictCache, VerificationEngine};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sweeps per second of `--seconds`: about the rate 2 workers sustain at
/// the default seed, so a run measures for roughly `--seconds`.
const SWEEPS_PER_SECOND: f64 = 7.0;

/// One sweep: its seeded jobs, and an engine with a fresh cache file.
struct Sweep {
    set: JobSet,
    engine: VerificationEngine,
    cache: Arc<VerdictCache>,
}

/// Set-up: seeded generation, rule-based vectorization, engine start and
/// cache open for every sweep of the run. Returns the sweeps, the time
/// spent generating, and the number of completions generated.
fn set_up(args: &Args, rounds: usize, dir: &Path) -> (Vec<Sweep>, Duration, usize) {
    let kernels = workload::kernels(args.smoke.then_some(workload::SMOKE_KERNELS));
    let mut gen = Duration::ZERO;
    let sweeps = (0..rounds)
        .map(|round| {
            let (set, spent) =
                workload::sweep_jobs(&kernels, workload::round_seed(args.seed, round));
            gen += spent;
            let path = dir.join(format!("cold-{}.cache", round));
            let _ = std::fs::remove_file(&path);
            let cache = Arc::new(VerdictCache::open(&path).expect("open a fresh cache file"));
            let config = workload::engine_config().with_cache(Arc::clone(&cache));
            Sweep {
                set,
                engine: VerificationEngine::new(config),
                cache,
            }
        })
        .collect();
    let cells = kernels.len() * workload::COMPLETIONS_PER_KERNEL * rounds;
    (sweeps, gen, cells)
}

/// Runs the workload; see [`crate::run_workload`].
pub fn run(args: &Args, dir: &Path) -> Outcome {
    let rounds = args.rounds(SWEEPS_PER_SECOND);
    let mut setup_times = Vec::new();
    let mut sweeps = Vec::new();
    let (mut gen, mut cells) = (Duration::ZERO, 0);
    for _ in 0..args.setup_repeats() {
        drop(std::mem::take(&mut sweeps));
        let start = Instant::now();
        (sweeps, gen, cells) = set_up(args, rounds, dir);
        setup_times.push(start.elapsed().as_secs_f64());
    }

    let observer = LatencyObserver::default();
    let start = Instant::now();
    let reports: Vec<BatchReport> = sweeps
        .iter()
        .map(|sweep| {
            let report = sweep.engine.run_batch_observed(&sweep.set.jobs, &observer);
            sweep.cache.persist().expect("persist the sweep cache");
            report
        })
        .collect();
    let wall = start.elapsed();
    let latencies = observer.take();
    let peak_rss = peak_rss_mb();

    let mut oracle = Oracle::default();
    for (sweep, report) in sweeps.iter().zip(&reports) {
        for ((job, rule_equal), got) in sweep
            .set
            .jobs
            .iter()
            .zip(&sweep.set.rule_equal)
            .zip(&report.jobs)
        {
            oracle.check(job, *rule_equal, &cached(got));
        }
    }
    let jobs = oracle.attempted;
    let layers = args.trace.then(|| {
        let mut layers = traced(&sweeps, &reports, &mut oracle);
        layers.untraced_wall = wall;
        layers.jobs = jobs;
        layers.gen = gen;
        layers.gen_cells = cells;
        layers
    });
    let metrics = metrics::end_to_end(&setup_times, wall, &latencies, &oracle, peak_rss);
    Outcome {
        units: latencies.len(),
        oracle,
        metrics,
        layers,
    }
}

/// Cache and cache-key calls one traced worker made.
#[derive(Debug, Default)]
struct CacheCalls {
    hash: Duration,
    get: Duration,
    gets: usize,
    insert: Duration,
    inserts: usize,
}

/// The traced phase: the same sweeps, each job run by the benchmark's own
/// 2 workers as the engine runs it (cache lookup, then the cascade stages
/// on the worker's own state, then cache insert), with every call timed.
/// Checks that every verdict and stage matches the untraced run.
fn traced(sweeps: &[Sweep], untraced: &[BatchReport], oracle: &mut Oracle) -> Layers {
    let cascade = Cascade::new();
    let fingerprint = workload::engine_config().semantic_fingerprint();
    let mut layers = Layers {
        threads: WORKERS,
        persist_timed: true,
        ..Layers::default()
    };
    let caches: Vec<VerdictCache> = sweeps
        .iter()
        .map(|sweep| {
            let path = sweep
                .cache
                .path()
                .expect("sweep caches are file-backed")
                .with_extension("traced");
            let _ = std::fs::remove_file(&path);
            let start = Instant::now();
            let cache = VerdictCache::open(path).expect("open a fresh cache file");
            layers.cache_open += start.elapsed();
            layers.cache_opens += 1;
            cache
        })
        .collect();

    let start = Instant::now();
    let mut verdicts = Vec::with_capacity(sweeps.len());
    for (sweep, cache) in sweeps.iter().zip(&caches) {
        let jobs = &sweep.set.jobs;
        let next = AtomicUsize::new(0);
        let work = || {
            let mut worker = trace::worker_state();
            let mut calls = CacheCalls::default();
            let mut out = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let t = Instant::now();
                let key = CacheKey {
                    scalar: lv_cir::structural_hash(&job.scalar),
                    candidate: workload::candidate_hash(&job.scalar, &job.candidate),
                    config: fingerprint,
                };
                calls.hash += t.elapsed();
                let t = Instant::now();
                let hit = cache.get(&key);
                calls.get += t.elapsed();
                calls.gets += 1;
                let verdict = hit.unwrap_or_else(|| {
                    let verdict = cascade.verify(job, &mut worker);
                    let t = Instant::now();
                    cache.insert(key, verdict.clone());
                    calls.insert += t.elapsed();
                    calls.inserts += 1;
                    verdict
                });
                out.push((i, verdict));
            }
            (calls, out)
        };
        let mut sweep_verdicts = Vec::with_capacity(jobs.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..WORKERS).map(|_| scope.spawn(work)).collect();
            for handle in handles {
                let (calls, out) = handle.join().expect("traced worker panicked");
                layers.key_hash += calls.hash;
                layers.cache_get += calls.get;
                layers.cache_gets += calls.gets;
                layers.cache_insert += calls.insert;
                layers.cache_inserts += calls.inserts;
                sweep_verdicts.extend(out);
            }
        });
        let t = Instant::now();
        cache.persist().expect("persist the traced sweep cache");
        layers.cache_persist += t.elapsed();
        layers.cache_persists += 1;
        sweep_verdicts.sort_by_key(|(i, _)| *i);
        verdicts.push(sweep_verdicts);
    }
    layers.traced_wall = start.elapsed();

    for (report, traced) in untraced.iter().zip(&verdicts) {
        for (job, (_, verdict)) in report.jobs.iter().zip(traced) {
            oracle.agree(&job.label, &cached(job), verdict, false);
        }
    }
    layers.stages = cascade.trace().totals();
    layers.front = cascade.trace().replay_front_end();
    layers
}
