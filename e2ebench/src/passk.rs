//! `passk_stream`: overlapped pass@k. One generator thread samples `k`
//! seeded completions per kernel under a simulated inference latency and
//! streams them into 2 engine workers as they are sampled.

use crate::metrics::{self, peak_rss_mb};
use crate::oracle::{cached, Oracle};
use crate::trace::{self, Cascade, LatencyObserver, Layers};
use crate::workload::{self, JobSet, Kernel, WORKERS};
use crate::{Args, Outcome};
use lv_agents::LlmConfig;
use lv_core::{BatchReport, Job, VerificationEngine};
use std::path::Path;
use std::time::{Duration, Instant};

/// Simulated per-completion inference latency: at the default seed, one
/// generator thread then takes about as long as the 2 workers verifying.
const LATENCY: Duration = Duration::from_micros(400);

/// Pass@k rounds per second of `--seconds`.
const ROUNDS_PER_SECOND: f64 = 7.0;

/// In-flight candidates the stream holds before generation blocks, as in
/// `lv-sweep run --generate`.
const QUEUE_CAPACITY: usize = 32;

/// Completions per kernel.
fn k(args: &Args) -> usize {
    if args.smoke {
        4
    } else {
        workload::PASSK_K
    }
}

fn llm(args: &Args, round: usize, latency: Duration) -> LlmConfig {
    LlmConfig {
        seed: workload::round_seed(args.seed, round),
        latency,
        ..LlmConfig::default()
    }
}

/// The jobs round `round` streams, sampled again outside any timed phase
/// (sampling is deterministic per cell), for the oracle.
fn round_jobs(args: &Args, kernels: &[Kernel], round: usize) -> JobSet {
    let llm = llm(args, round, Duration::ZERO);
    let mut set = JobSet::default();
    for (i, kernel) in kernels.iter().enumerate() {
        for j in 0..k(args) {
            let completion = lv_agents::sample_completion_cell(&kernel.scalar, &llm, i, j);
            let label = format!("{}#{}", kernel.name, j);
            set.push(
                kernel,
                Job::new(label, kernel.scalar.clone(), completion.candidate),
            );
        }
    }
    set
}

/// Runs the workload; see [`crate::run_workload`].
pub fn run(args: &Args, _dir: &Path) -> Outcome {
    let rounds = args.rounds(ROUNDS_PER_SECOND);
    let names = if args.smoke {
        workload::SMOKE_KERNELS
    } else {
        workload::PASSK_KERNELS
    };
    let mut setup_times = Vec::new();
    let mut set_up = None;
    for _ in 0..args.setup_repeats() {
        drop(set_up.take());
        let start = Instant::now();
        let kernels = workload::kernels(Some(names));
        let named: Vec<_> = kernels
            .iter()
            .map(|kernel| (kernel.name.to_string(), kernel.scalar.clone()))
            .collect();
        let engine = VerificationEngine::new(workload::engine_config());
        set_up = Some((kernels, named, engine));
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let (kernels, named, engine) = set_up.expect("at least one set-up");

    let k = k(args);
    let ks = [1, k];
    let observer = LatencyObserver::default();
    let start = Instant::now();
    let reports: Vec<BatchReport> = (0..rounds)
        .map(|round| {
            let llm = llm(args, round, LATENCY);
            lv_core::overlapped_pass_at_k_observed(
                &engine,
                &named,
                &llm,
                k,
                &ks,
                1,
                QUEUE_CAPACITY,
                &observer,
            )
            .report
        })
        .collect();
    let wall = start.elapsed();
    let latencies = observer.take();
    let peak_rss = peak_rss_mb();

    let mut oracle = Oracle::default();
    for (round, report) in reports.iter().enumerate() {
        let set = round_jobs(args, &kernels, round);
        for (i, got) in report.jobs.iter().enumerate() {
            oracle.check(&set.jobs[i], set.rule_equal[i], &cached(got));
        }
    }
    let jobs = oracle.attempted;
    let layers = args.trace.then(|| {
        let mut layers = traced(args, &kernels, &reports, &mut oracle);
        layers.untraced_wall = wall;
        layers.jobs = jobs;
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

/// The traced phase: the same rounds, streamed by a generator thread of
/// the benchmark's own that times each `sample_completion_cell` and stamps
/// each push into the `job_channel`, and drained by 2 workers of its own
/// that run the cascade stages on their own states, timing each call.
/// Checks every verdict and stage against the untraced run.
fn traced(
    args: &Args,
    kernels: &[Kernel],
    untraced: &[BatchReport],
    oracle: &mut Oracle,
) -> Layers {
    let cascade = Cascade::new();
    let k = k(args);
    let mut layers = Layers {
        threads: WORKERS,
        ..Layers::default()
    };
    let start = Instant::now();
    let mut verdicts = Vec::with_capacity(untraced.len());
    for round in 0..untraced.len() {
        let llm = llm(args, round, LATENCY);
        let (producer, source) = lv_core::job_channel(QUEUE_CAPACITY);
        let work = || {
            let mut worker = trace::worker_state();
            let mut out = Vec::new();
            while let Some((cell, (pushed, job))) = source.next() {
                let waited: Duration = Instant::now() - pushed;
                out.push((cell, cascade.verify(&job, &mut worker), waited));
            }
            out
        };
        let mut round_verdicts = Vec::with_capacity(kernels.len() * k);
        std::thread::scope(|scope| {
            let generator = scope.spawn(|| {
                let mut gen = Duration::ZERO;
                for cell in 0..kernels.len() * k {
                    let (i, j) = (cell / k, cell % k);
                    let kernel = &kernels[i];
                    let t = Instant::now();
                    let completion = lv_agents::sample_completion_cell(&kernel.scalar, &llm, i, j);
                    gen += t.elapsed();
                    let job = Job::new(
                        format!("{}#{}", kernel.name, j),
                        kernel.scalar.clone(),
                        completion.candidate,
                    );
                    producer.push(cell, (Instant::now(), job));
                }
                drop(producer);
                gen
            });
            let workers: Vec<_> = (0..WORKERS).map(|_| scope.spawn(work)).collect();
            for handle in workers {
                round_verdicts.extend(handle.join().expect("traced worker panicked"));
            }
            layers.gen += generator.join().expect("generator thread panicked");
        });
        layers.gen_cells += kernels.len() * k;
        round_verdicts.sort_by_key(|(cell, _, _)| *cell);
        verdicts.push(round_verdicts);
    }
    layers.traced_wall = start.elapsed();
    for (report, traced) in untraced.iter().zip(&verdicts) {
        for (job, (_, verdict, waited)) in report.jobs.iter().zip(traced) {
            oracle.agree(&job.label, &cached(job), verdict, false);
            layers.queue_waits.push(*waited);
        }
    }
    layers.stages = cascade.trace().totals();
    layers.front = cascade.trace().replay_front_end();
    layers
}
