//! The parallel batch engine must be an observationally pure speed-up:
//! byte-identical verdicts, stages, and details for every thread count, and
//! equal to the sequential one-shot `check_equivalence` path — plus the
//! Algorithm 1 early-exit ordering pin. With a cache attached, every
//! distinct job runs its cascade once per run, whatever the worker count.

use llm_vectorizer_repro::agents::{sample_completion_batch, LlmConfig};
use llm_vectorizer_repro::cir::ast::Function;
use llm_vectorizer_repro::cir::parse_function;
use llm_vectorizer_repro::core::{
    check_equivalence, job_channel, BatchObserver, BatchReport, ChecksumStage, EngineConfig,
    EngineReuse, Equivalence, Job, JobReport, Stage, StrategyOutcome, SymbolicStage, VerdictCache,
    VerificationEngine, VerificationStrategy, WorkerState,
};
use llm_vectorizer_repro::tsvc::KERNELS;
use llm_vectorizer_repro::tv::{SymbolicStrategy, TvReuse, TvSession};
use lv_bench::{bitwise_select_jobs, small_budget_pipeline, REPRESENTATIVE_KERNELS};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One candidate per TSVC kernel from the synthetic LLM — a realistic mix of
/// correct, refutable, and non-compiling candidates across the whole suite.
fn suite_jobs() -> Vec<Job> {
    let scalars: Vec<_> = KERNELS.iter().map(|k| k.function()).collect();
    let batch = sample_completion_batch(&scalars, &LlmConfig::default(), 1);
    KERNELS
        .iter()
        .zip(&scalars)
        .zip(batch.completions.iter())
        .map(|((kernel, scalar), completions)| {
            Job::new(
                kernel.name,
                scalar.clone(),
                completions[0].candidate.clone(),
            )
        })
        .collect()
}

#[test]
fn parallel_engine_matches_sequential_check_equivalence_across_the_suite() {
    let pipeline = small_budget_pipeline();
    let jobs = suite_jobs();
    assert!(jobs.len() >= 60, "expected the whole embedded TSVC suite");

    let engine = VerificationEngine::new(EngineConfig::full(pipeline.clone()).with_threads(0));
    let batch = engine.run_batch(&jobs);

    let mut verdict_kinds = std::collections::HashSet::new();
    for (job, report) in jobs.iter().zip(&batch.jobs) {
        let sequential = check_equivalence(&job.scalar, &job.candidate, &pipeline);
        assert_eq!(
            report.verdict, sequential.verdict,
            "verdict for {}",
            job.label
        );
        assert_eq!(report.stage, sequential.stage, "stage for {}", job.label);
        assert_eq!(report.detail, sequential.detail, "detail for {}", job.label);
        verdict_kinds.insert(report.verdict);
    }
    // The sweep is only meaningful if it exercises more than one outcome.
    assert!(
        verdict_kinds.len() >= 2,
        "degenerate sweep: {:?}",
        verdict_kinds
    );
}

#[test]
fn thread_count_does_not_change_batch_reports() {
    let jobs: Vec<Job> = suite_jobs()
        .into_iter()
        .filter(|job| REPRESENTATIVE_KERNELS.contains(&job.label.as_str()))
        .collect();
    assert!(jobs.len() >= 8);

    let one = VerificationEngine::new(EngineConfig::full(small_budget_pipeline()).with_threads(1))
        .run_batch(&jobs);
    let many = VerificationEngine::new(EngineConfig::full(small_budget_pipeline()).with_threads(8))
        .run_batch(&jobs);
    assert_eq!(one.threads, 1);
    assert!(many.threads > 1);
    for (s, p) in one.jobs.iter().zip(&many.jobs) {
        assert_eq!(s.label, p.label);
        assert_eq!(s.verdict, p.verdict);
        assert_eq!(s.stage, p.stage);
        assert_eq!(s.detail, p.detail);
        assert_eq!(s.checksum, p.checksum);
    }
}

#[test]
fn checksum_refutation_short_circuits_before_any_symbolic_strategy() {
    // Algorithm 1 line 2: a candidate refuted by testing must never reach
    // the symbolic strategies. The trace pins both the ordering (checksum
    // first) and the early exit (nothing after it, zero SAT conflicts).
    let scalar = parse_function(
        "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }",
    )
    .unwrap();
    let wrong = parse_function(
        "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 2; } }",
    )
    .unwrap();
    let engine = VerificationEngine::new(EngineConfig::full(small_budget_pipeline()));
    let report = engine.check_one(&scalar, &wrong);

    assert_eq!(report.verdict, Equivalence::NotEquivalent);
    assert_eq!(report.stage, Stage::Checksum);
    assert_eq!(
        report.traces.len(),
        1,
        "no stage may run after the refutation"
    );
    assert_eq!(report.traces[0].stage, Stage::Checksum);
    assert!(report.traces[0].conclusive);
    assert_eq!(
        report.traces[0].conflicts, 0,
        "no SAT work before/at checksum"
    );

    // And a plausible candidate's trace starts with the checksum stage
    // before any symbolic stage appears.
    let good = parse_function(
        "void s000(int n, int *a, int *b) { int i; for (i = 0; i + 8 <= n; i += 8) { __m256i x = _mm256_loadu_si256((__m256i *)&b[i]); _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(x, _mm256_set1_epi32(1))); } for (; i < n; i++) { a[i] = b[i] + 1; } }",
    )
    .unwrap();
    let report = engine.check_one(&scalar, &good);
    assert_eq!(report.verdict, Equivalence::Equivalent, "{}", report.detail);
    assert_eq!(report.traces[0].stage, Stage::Checksum);
    assert!(!report.traces[0].conclusive);
    assert!(report.traces.len() >= 2);
    assert_ne!(report.stage, Stage::Checksum);
}

/// A stage run on a session of its own: every call starts from a fresh
/// solver, so no search state carries over from an earlier stage or job.
struct FreshSession {
    inner: SymbolicStage,
    reuse: TvReuse,
}

impl VerificationStrategy for FreshSession {
    fn stage(&self) -> Stage {
        self.inner.stage()
    }

    fn verify(
        &self,
        scalar: &Function,
        candidate: &Function,
        worker: &mut WorkerState,
    ) -> StrategyOutcome {
        // Keep the running totals the engine takes effort deltas from.
        let stats = worker.session.stats;
        worker.session = TvSession::with_reuse(self.reuse);
        worker.session.stats = stats;
        self.inner.verify(scalar, candidate, worker)
    }
}

/// The rule-based candidate plus three synthetic completions for each of
/// three conditional kernels, then the [`bitwise_select_jobs`], whose
/// Alive2 attempts run out of budget before C-unroll concludes on the same
/// instance.
fn budget_stopped_jobs() -> Vec<Job> {
    let names = ["vif", "s271", "s2711"];
    let scalars: Vec<Function> = names
        .iter()
        .map(|name| {
            llm_vectorizer_repro::tsvc::kernel(name)
                .expect("known kernel")
                .function()
        })
        .collect();
    let batch = sample_completion_batch(&scalars, &LlmConfig::default(), 3);
    let mut jobs = Vec::new();
    for ((name, scalar), completions) in names.iter().zip(&scalars).zip(&batch.completions) {
        let rule = llm_vectorizer_repro::agents::vectorize_correct(scalar).expect("supported");
        jobs.push(Job::new(format!("{}#rule", name), scalar.clone(), rule));
        for (j, completion) in completions.iter().enumerate() {
            jobs.push(Job::new(
                format!("{}#{}", name, j),
                scalar.clone(),
                completion.candidate.clone(),
            ));
        }
    }
    jobs.extend(bitwise_select_jobs());
    jobs
}

fn assert_same_verdicts(got: &BatchReport, want: &BatchReport, what: &str) {
    for (g, w) in got.jobs.iter().zip(&want.jobs) {
        assert_eq!(g.label, w.label);
        assert_eq!(g.verdict, w.verdict, "{}: verdict for {}", what, g.label);
        assert_eq!(g.stage, w.stage, "{}: stage for {}", what, g.label);
        assert_eq!(g.detail, w.detail, "{}: detail for {}", what, g.label);
        assert_eq!(g.checksum, w.checksum, "{}: checksum for {}", what, g.label);
    }
}

#[test]
fn warm_sessions_report_what_fresh_sessions_report() {
    let pipeline = small_budget_pipeline();
    let jobs = budget_stopped_jobs();
    let memo = EngineReuse { memo: true };
    // The shipped configuration: one warm session per worker, recycled
    // between queries with its blast memo kept (verdicts are thread-count
    // independent, so 2 workers keep it quick).
    let warm = VerificationEngine::new(
        EngineConfig::full(pipeline.clone())
            .with_threads(2)
            .with_reuse(memo),
    )
    .run_batch(&jobs);
    let fresh_stage = |strategy| -> Box<dyn VerificationStrategy> {
        Box::new(FreshSession {
            inner: SymbolicStage::new(strategy, pipeline.tv.clone()),
            reuse: memo.tv(),
        })
    };
    let fresh = VerificationEngine::with_strategies(
        2,
        vec![
            Box::new(ChecksumStage::new(pipeline.checksum.clone())),
            fresh_stage(SymbolicStrategy::Alive2Unroll),
            fresh_stage(SymbolicStrategy::CUnroll),
            fresh_stage(SymbolicStrategy::SpatialSplitting),
        ],
    )
    .run_batch(&jobs);

    assert_same_verdicts(&warm, &fresh, "warm vs fresh sessions");
    let shape = |r: &JobReport| -> Vec<(Stage, bool, u64, u64)> {
        r.traces
            .iter()
            .map(|t| (t.stage, t.conclusive, t.conflicts, t.clauses))
            .collect()
    };
    for (w, f) in warm.jobs.iter().zip(&fresh.jobs) {
        assert_eq!(shape(w), shape(f), "stage traces for {}", w.label);
    }
    // Each bitwise-select candidate stops Alive2 at its budget, and C-unroll
    // searches the identical instance from the start to the same total
    // conflict count a search continued from the Alive2 stop reached.
    let bitwise: Vec<String> = bitwise_select_jobs().into_iter().map(|j| j.label).collect();
    let cunroll: Vec<(&str, u64)> = warm
        .jobs
        .iter()
        .filter(|job| bitwise.contains(&job.label))
        .map(|job| {
            let alive2 = &job.traces[1];
            assert_eq!(alive2.stage, Stage::Alive2, "{}", job.label);
            assert_eq!(alive2.conflicts, pipeline.tv.alive2_budget.max_conflicts);
            let last = job.traces.last().expect("the cascade ran");
            assert_eq!((last.stage, last.conclusive), (Stage::CUnroll, true));
            (job.label.as_str(), last.conflicts)
        })
        .collect();
    assert_eq!(
        cunroll,
        [("vif#or", 1_024), ("vif#xor", 1_511), ("s271#or", 1_032)]
    );
}

/// Each representative suite job, `copies` times in adjacent slots, as a
/// sweep's rule-based candidate and its identical completions arrive.
/// Returns the jobs and the number of distinct cache keys among them.
fn duplicated_jobs(copies: usize) -> (Vec<Job>, usize) {
    let base: Vec<Job> = suite_jobs()
        .into_iter()
        .filter(|job| REPRESENTATIVE_KERNELS.contains(&job.label.as_str()))
        .collect();
    assert!(base.len() >= 8);
    let jobs = base
        .iter()
        .flat_map(|job| std::iter::repeat_n(job, copies).cloned())
        .collect();
    // Every base job checks a different scalar, so each has its own key.
    (jobs, base.len())
}

fn cached_engine(threads: usize) -> VerificationEngine {
    VerificationEngine::new(
        EngineConfig::full(small_budget_pipeline())
            .with_threads(threads)
            .with_cache(Arc::new(VerdictCache::in_memory())),
    )
}

/// Counts `job_started` and `job_finished` per job index.
struct PerIndexObserver {
    started: Vec<AtomicUsize>,
    finished: Vec<AtomicUsize>,
}

impl PerIndexObserver {
    fn new(jobs: usize) -> PerIndexObserver {
        PerIndexObserver {
            started: (0..jobs).map(|_| AtomicUsize::new(0)).collect(),
            finished: (0..jobs).map(|_| AtomicUsize::new(0)).collect(),
        }
    }

    fn assert_once_each(&self, what: &str) {
        for (index, (started, finished)) in self.started.iter().zip(&self.finished).enumerate() {
            let counts = (
                started.load(Ordering::SeqCst),
                finished.load(Ordering::SeqCst),
            );
            assert_eq!(counts, (1, 1), "{what}: job {index} started/finished");
        }
    }
}

impl BatchObserver for PerIndexObserver {
    fn job_started(&self, index: usize, _job: &Job) {
        self.started[index].fetch_add(1, Ordering::SeqCst);
    }

    fn job_finished(&self, index: usize, _report: &JobReport) {
        self.finished[index].fetch_add(1, Ordering::SeqCst);
    }
}

/// The hit/miss/stage counts that must not depend on the worker count.
fn counts(batch: &BatchReport) -> (usize, usize, usize) {
    (batch.cache_misses, batch.cache_hits, batch.stage_runs())
}

fn assert_same_reports(got: &BatchReport, want: &BatchReport, what: &str) {
    assert_eq!(got.jobs.len(), want.jobs.len(), "{what}");
    for (g, w) in got.jobs.iter().zip(&want.jobs) {
        assert_eq!(g.label, w.label, "{what}");
        assert_eq!(g.verdict, w.verdict, "{what}: {}", g.label);
        assert_eq!(g.stage, w.stage, "{what}: {}", g.label);
        assert_eq!(g.detail, w.detail, "{what}: {}", g.label);
        assert_eq!(g.checksum, w.checksum, "{what}: {}", g.label);
    }
    for report in got.jobs.iter().filter(|r| r.cache_hit) {
        assert!(report.traces.is_empty(), "{what}: {} hit", report.label);
    }
}

#[test]
fn cached_batches_verify_each_distinct_job_once_at_any_worker_count() {
    let (jobs, distinct) = duplicated_jobs(4);
    let one = cached_engine(1).run_batch(&jobs);
    assert_eq!(one.cache_misses, distinct);
    assert_eq!(one.cache_hits, jobs.len() - distinct);
    assert!(one.stage_runs() >= distinct);
    for threads in [2, 8] {
        let batch = cached_engine(threads).run_batch(&jobs);
        assert_eq!(batch.threads, threads);
        assert_eq!(counts(&batch), counts(&one), "{threads} workers");
        assert_same_reports(&batch, &one, &format!("{threads} workers"));
    }
}

#[test]
fn streamed_duplicates_follow_the_running_copy_and_finish_once_each() {
    let (jobs, distinct) = duplicated_jobs(4);
    let want = cached_engine(1).run_batch(&jobs);
    for threads in [1, 2, 8] {
        let observer = PerIndexObserver::new(jobs.len());
        // Every job is queued before the workers start, so adjacent copies
        // are claimed at once.
        let (producer, source) = job_channel(jobs.len());
        for (index, job) in jobs.iter().enumerate() {
            producer.push(index, job.clone());
        }
        drop(producer);
        let streamed = cached_engine(threads).run_stream_observed(&source, &observer);
        let what = format!("stream at {threads} workers");
        observer.assert_once_each(&what);
        assert_eq!(streamed.cache_misses, distinct, "{what}");
        assert_eq!(counts(&streamed), counts(&want), "{what}");
        assert_same_reports(&streamed, &want, &what);
    }
}

#[test]
fn concurrent_batches_on_one_engine_each_get_every_report() {
    let (jobs, distinct) = duplicated_jobs(3);
    let want = cached_engine(1).run_batch(&jobs);
    let engine = cached_engine(2);
    let observers = [
        PerIndexObserver::new(jobs.len()),
        PerIndexObserver::new(jobs.len()),
    ];
    let batches: Vec<BatchReport> = std::thread::scope(|scope| {
        let runs: Vec<_> = observers
            .iter()
            .map(|observer| scope.spawn(|| engine.run_batch_observed(&jobs, observer)))
            .collect();
        runs.into_iter().map(|run| run.join().unwrap()).collect()
    });
    for (batch, observer) in batches.iter().zip(&observers) {
        observer.assert_once_each("concurrent batch");
        assert_same_reports(batch, &want, "concurrent batch");
        assert_eq!(batch.cache_hits + batch.cache_misses, jobs.len());
        assert!(batch.cache_misses <= distinct);
    }
    // A key both calls missed at once runs in each call, but never twice
    // within one.
    let misses: usize = batches.iter().map(|b| b.cache_misses).sum();
    assert!(
        (distinct..=2 * distinct).contains(&misses),
        "{misses} misses"
    );
}

#[test]
fn an_engine_without_a_cache_runs_every_duplicate() {
    let (jobs, _) = duplicated_jobs(4);
    let batch =
        VerificationEngine::new(EngineConfig::full(small_budget_pipeline()).with_threads(8))
            .run_batch(&jobs);
    assert_eq!((batch.cache_hits, batch.cache_misses), (0, 0));
    for report in &batch.jobs {
        assert!(!report.cache_hit, "{}", report.label);
        assert!(!report.traces.is_empty(), "{} ran no stage", report.label);
    }
    assert_same_reports(&batch, &cached_engine(1).run_batch(&jobs), "no cache");
}
