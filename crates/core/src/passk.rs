//! The pass@k metric (Chen et al. 2021), adapted as in Section 4.1.2: a
//! completion "passes" when checksum-based testing labels it `Plausible`.
//!
//! Besides the estimator itself, this module hosts the **overlapped
//! pass@k driver** ([`overlapped_pass_at_k`]): seeded parallel candidate
//! generation (per-cell seeds via
//! [`lv_agents::derive_cell_seed`]) streaming into the engine's bounded
//! [`JobSource`](crate::JobSource) intake, so verification starts on the
//! first candidates while later ones are still being sampled. Scaling `k`
//! no longer pays generation as a dead serial prefix — and the result is
//! bit-identical to the unoverlapped [`generate_then_verify_pass_at_k`]
//! run at any generator/worker thread count, because every cell's draws
//! come from its own derived seed and the engine reassembles reports in
//! job-index order.

use crate::engine::{job_channel, parallel_map, BatchReport, Job, VerificationEngine};
use crate::observer::{BatchObserver, NoopObserver};
use lv_agents::{sample_completion_cell, LlmConfig};
use lv_cir::ast::Function;
use lv_interp::ChecksumClass;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The unbiased pass@k estimator for a single problem: given `n` samples of
/// which `c` are correct, `pass@k = 1 - C(n-c, k) / C(n, k)`.
pub fn pass_at_k(n: usize, c: usize, k: usize) -> f64 {
    if k == 0 || n == 0 {
        return 0.0;
    }
    if c == 0 {
        return 0.0;
    }
    if n.saturating_sub(c) < k {
        return 1.0;
    }
    // 1 - prod_{i=n-c+1..=n} (1 - k / i)
    let mut prod = 1.0f64;
    for i in (n - c + 1)..=n {
        prod *= 1.0 - k as f64 / i as f64;
    }
    1.0 - prod
}

/// Averages pass@k over a set of problems for each requested `k`.
pub fn pass_at_k_curve(correct_per_problem: &[usize], n: usize, ks: &[usize]) -> Vec<(usize, f64)> {
    ks.iter()
        .map(|&k| {
            let mean = if correct_per_problem.is_empty() {
                0.0
            } else {
                correct_per_problem
                    .iter()
                    .map(|&c| pass_at_k(n, c, k))
                    .sum::<f64>()
                    / correct_per_problem.len() as f64
            };
            (k, mean)
        })
        .collect()
}

/// The result of one pass@k pipeline run (overlapped or not).
#[derive(Debug)]
pub struct PassKRun {
    /// The engine's batch report, in job order: cell `(kernel i,
    /// completion j)` is job `i * k + j`, labeled `name#j`.
    pub report: BatchReport,
    /// Per-kernel count of completions whose checksum classification was
    /// `Plausible` — the pass@k notion of "correct" (Section 4.1.2).
    pub plausible_per_kernel: Vec<usize>,
    /// The averaged `(k, pass@k)` curve over the requested `ks`.
    pub curve: Vec<(usize, f64)>,
}

fn finish_run(report: BatchReport, kernels: usize, k: usize, ks: &[usize]) -> PassKRun {
    let mut plausible_per_kernel = vec![0usize; kernels];
    for (cell, job) in report.jobs.iter().enumerate() {
        if job.checksum == Some(ChecksumClass::Plausible) {
            plausible_per_kernel[cell / k.max(1)] += 1;
        }
    }
    PassKRun {
        curve: pass_at_k_curve(&plausible_per_kernel, k, ks),
        plausible_per_kernel,
        report,
    }
}

/// Streams `k` seeded completions per kernel into `engine` as they are
/// generated — verification overlaps generation instead of waiting for the
/// full candidate list.
///
/// `gen_threads` generator threads claim `(kernel, completion)` cells from
/// a shared cursor (0 = one per available CPU), sample each cell with its
/// [`lv_agents::derive_cell_seed`]-derived seed, and push the job into a
/// bounded channel with room for `queue_capacity` in-flight candidates
/// (backpressure, not a materialized batch). Output is bit-identical to
/// [`generate_then_verify_pass_at_k`] with the same `llm_config.seed` at
/// any generator or worker thread count.
pub fn overlapped_pass_at_k(
    engine: &VerificationEngine,
    kernels: &[(String, Function)],
    llm_config: &LlmConfig,
    k: usize,
    ks: &[usize],
    gen_threads: usize,
    queue_capacity: usize,
) -> PassKRun {
    overlapped_pass_at_k_observed(
        engine,
        kernels,
        llm_config,
        k,
        ks,
        gen_threads,
        queue_capacity,
        &NoopObserver,
    )
}

/// [`overlapped_pass_at_k`], streaming engine events to `observer` (job
/// indices are the cell indices `i * k + j`).
#[allow(clippy::too_many_arguments)]
pub fn overlapped_pass_at_k_observed(
    engine: &VerificationEngine,
    kernels: &[(String, Function)],
    llm_config: &LlmConfig,
    k: usize,
    ks: &[usize],
    gen_threads: usize,
    queue_capacity: usize,
    observer: &dyn BatchObserver,
) -> PassKRun {
    let cells = kernels.len().saturating_mul(k);
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let gen_threads = (if gen_threads == 0 { hw } else { gen_threads }).clamp(1, cells.max(1));
    let (producer, source) = job_channel(queue_capacity);
    let cursor = AtomicUsize::new(0);
    let report = std::thread::scope(|scope| {
        for _ in 0..gen_threads {
            let producer = producer.clone();
            let cursor = &cursor;
            scope.spawn(move || loop {
                let cell = cursor.fetch_add(1, Ordering::Relaxed);
                if cell >= cells {
                    break;
                }
                let (i, j) = (cell / k, cell % k);
                let (name, scalar) = &kernels[i];
                let completion = sample_completion_cell(scalar, llm_config, i, j);
                producer.push(
                    cell,
                    Job::new(
                        format!("{}#{}", name, j),
                        scalar.clone(),
                        completion.candidate,
                    ),
                );
            });
        }
        // The spawned generators hold their own clones; dropping the
        // original lets the channel close when the last generator exits.
        drop(producer);
        engine.run_stream_observed(&source, observer)
    });
    finish_run(report, kernels.len(), k, ks)
}

/// The seeded job list of `k` completions per kernel: cell `(kernel i,
/// completion j)` is job `i * k + j`, labeled `name#j`, its candidate
/// [`sample_completion_cell`]`(scalar, llm_config, i, j)`. The cells are
/// sampled by [`parallel_map`] on `gen_threads` threads (0 = one per
/// available CPU), which returns them in cell order, so the list is the
/// same at any thread count. It is the job list [`overlapped_pass_at_k`]
/// streams, so submitting it to a daemon (`lv-sweep submit --generate`)
/// verifies the cells `lv-sweep run --generate` verifies.
pub fn seeded_jobs(
    kernels: &[(String, Function)],
    llm_config: &LlmConfig,
    k: usize,
    gen_threads: usize,
) -> Vec<Job> {
    let cells: Vec<usize> = (0..kernels.len().saturating_mul(k)).collect();
    parallel_map(gen_threads, &cells, |&cell| {
        let (i, j) = (cell / k, cell % k);
        let (name, scalar) = &kernels[i];
        let completion = sample_completion_cell(scalar, llm_config, i, j);
        Job::new(
            format!("{}#{}", name, j),
            scalar.clone(),
            completion.candidate,
        )
    })
}

/// The unoverlapped reference: the full [`seeded_jobs`] list first, then
/// one [`VerificationEngine::run_batch`] — same jobs, same labels, same
/// verdicts as [`overlapped_pass_at_k`], but generation is a serial prefix
/// on the wall clock. This is the baseline arm of the pipeline identity
/// pins.
pub fn generate_then_verify_pass_at_k(
    engine: &VerificationEngine,
    kernels: &[(String, Function)],
    llm_config: &LlmConfig,
    k: usize,
    ks: &[usize],
    gen_threads: usize,
) -> PassKRun {
    let jobs = seeded_jobs(kernels, llm_config, k, gen_threads);
    let report = engine.run_batch(&jobs);
    finish_run(report, kernels.len(), k, ks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundary_cases() {
        assert_eq!(pass_at_k(10, 0, 5), 0.0);
        assert_eq!(pass_at_k(10, 10, 1), 1.0);
        assert_eq!(pass_at_k(0, 0, 1), 0.0);
        assert_eq!(pass_at_k(10, 3, 0), 0.0);
    }

    #[test]
    fn matches_closed_form_for_single_sample() {
        // With n samples, c correct, k = 1 the estimator equals c / n.
        for (n, c) in [(10usize, 3usize), (20, 7), (100, 42)] {
            let estimate = pass_at_k(n, c, 1);
            assert!((estimate - c as f64 / n as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn monotone_in_k_and_c() {
        assert!(pass_at_k(10, 3, 5) > pass_at_k(10, 3, 1));
        assert!(pass_at_k(10, 5, 3) > pass_at_k(10, 2, 3));
        assert_eq!(pass_at_k(10, 3, 8), 1.0, "k > n - c forces a hit");
    }

    #[test]
    fn curve_averages_problems() {
        let curve = pass_at_k_curve(&[0, 10], 10, &[1, 5]);
        assert_eq!(curve[0], (1, 0.5));
        assert_eq!(curve[1], (5, 0.5));
    }

    fn passk_kernels() -> Vec<(String, Function)> {
        [
            (
                "s000",
                "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }",
            ),
            (
                "vag",
                "void vag(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] * b[i]; } }",
            ),
        ]
        .iter()
        .map(|(name, src)| (name.to_string(), lv_cir::parse_function(src).unwrap()))
        .collect()
    }

    fn checksum_only_engine(threads: usize) -> VerificationEngine {
        use crate::engine::{ChecksumStage, VerificationStrategy};
        let stages: Vec<Box<dyn VerificationStrategy>> =
            vec![Box::new(ChecksumStage::new(Default::default()))];
        VerificationEngine::with_strategies(threads, stages)
    }

    #[test]
    fn overlapped_matches_generate_then_verify() {
        let kernels = passk_kernels();
        let config = LlmConfig::default();
        let ks = [1usize, 2, 4];
        let reference =
            generate_then_verify_pass_at_k(&checksum_only_engine(1), &kernels, &config, 4, &ks, 1);
        for (gen_threads, workers) in [(1usize, 1usize), (2, 2), (8, 8), (3, 1)] {
            let overlapped = overlapped_pass_at_k(
                &checksum_only_engine(workers),
                &kernels,
                &config,
                4,
                &ks,
                gen_threads,
                2,
            );
            assert_eq!(overlapped.curve, reference.curve);
            assert_eq!(
                overlapped.plausible_per_kernel,
                reference.plausible_per_kernel
            );
            assert_eq!(overlapped.report.jobs.len(), reference.report.jobs.len());
            for (a, b) in overlapped.report.jobs.iter().zip(&reference.report.jobs) {
                assert_eq!(a.label, b.label);
                assert_eq!(a.verdict, b.verdict);
                assert_eq!(a.stage, b.stage);
                assert_eq!(a.checksum, b.checksum);
                assert_eq!(a.detail, b.detail);
            }
        }
    }

    #[test]
    fn seeded_jobs_match_cell_by_cell_sampling_at_any_thread_count() {
        let kernels = passk_kernels();
        let config = LlmConfig::default();
        let k = 4;
        for threads in [1, 2, 3, 8] {
            let jobs = seeded_jobs(&kernels, &config, k, threads);
            assert_eq!(jobs.len(), kernels.len() * k);
            for (cell, job) in jobs.iter().enumerate() {
                let (i, j) = (cell / k, cell % k);
                let (name, scalar) = &kernels[i];
                assert_eq!(job.label, format!("{}#{}", name, j));
                assert_eq!(&job.scalar, scalar);
                assert_eq!(
                    job.candidate,
                    sample_completion_cell(scalar, &config, i, j).candidate,
                    "cell ({}, {}) differs at {} threads",
                    i,
                    j,
                    threads
                );
            }
        }
        assert!(seeded_jobs(&kernels, &config, 0, 2).is_empty());
    }

    #[test]
    fn overlapped_handles_an_empty_axis() {
        let kernels = passk_kernels();
        let run = overlapped_pass_at_k(
            &checksum_only_engine(2),
            &kernels,
            &LlmConfig::default(),
            0,
            &[1],
            2,
            2,
        );
        assert!(run.report.jobs.is_empty());
        assert_eq!(run.plausible_per_kernel, vec![0, 0]);
    }
}
