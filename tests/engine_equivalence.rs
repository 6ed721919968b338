//! The parallel batch engine must be an observationally pure speed-up:
//! byte-identical verdicts, stages, and details for every thread count, and
//! equal to the sequential one-shot `check_equivalence` path — plus the
//! Algorithm 1 early-exit ordering pin.

use llm_vectorizer_repro::agents::{sample_completion_batch, LlmConfig};
use llm_vectorizer_repro::cir::ast::Function;
use llm_vectorizer_repro::cir::parse_function;
use llm_vectorizer_repro::core::{
    check_equivalence, BatchReport, ChecksumStage, EngineConfig, EngineReuse, Equivalence, Job,
    PipelineConfig, Stage, StrategyOutcome, SymbolicStage, VerificationEngine,
    VerificationStrategy, WorkerState,
};
use llm_vectorizer_repro::interp::ChecksumConfig;
use llm_vectorizer_repro::tsvc::KERNELS;
use llm_vectorizer_repro::tv::{SymbolicStrategy, TvReuse, TvSession};
use lv_bench::{sweep_tv_config, REPRESENTATIVE_KERNELS};

/// A pipeline configuration fast enough for a full-suite sweep in a test,
/// while still reaching every cascade stage. Starts from the bench sweep
/// configuration and cuts the budgets further (the equivalence claims hold
/// for any budget; debug-mode SAT is what makes tests slow).
fn sweep_pipeline() -> PipelineConfig {
    let mut tv = sweep_tv_config();
    tv.alive2_budget.max_conflicts = 1_000;
    tv.cunroll_budget.max_conflicts = 10_000;
    tv.spatial_budget.max_conflicts = 4_000;
    PipelineConfig {
        checksum: ChecksumConfig {
            trials: 1,
            n: 40,
            ..ChecksumConfig::default()
        },
        tv,
    }
}

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
    let pipeline = sweep_pipeline();
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

    let one = VerificationEngine::new(EngineConfig::full(sweep_pipeline()).with_threads(1))
        .run_batch(&jobs);
    let many = VerificationEngine::new(EngineConfig::full(sweep_pipeline()).with_threads(8))
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
    let engine = VerificationEngine::new(EngineConfig::full(sweep_pipeline()));
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

/// The rule-based candidate plus three synthetic completions for each of the
/// conditional kernels whose Alive2 attempt runs out of budget before
/// C-unroll concludes on the same instance.
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
fn resumed_searches_report_what_fresh_sessions_report() {
    let pipeline = sweep_pipeline();
    let jobs = budget_stopped_jobs();
    let memo = EngineReuse {
        memo: true,
        ..EngineReuse::default()
    };
    // The shipped configuration: one warm session per worker, so a
    // budget-stopped Alive2 search is resumed by an identical C-unroll query
    // (verdicts are thread-count independent, so 2 workers keep it quick).
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
    let mut resumable = 0;
    for (w, f) in warm.jobs.iter().zip(&fresh.jobs) {
        let shape = |r: &llm_vectorizer_repro::core::JobReport| -> Vec<(Stage, bool, u64, u64)> {
            r.traces
                .iter()
                .map(|t| (t.stage, t.conclusive, t.conflicts, t.clauses))
                .collect()
        };
        assert_eq!(shape(w), shape(f), "stage traces for {}", w.label);
        // An Alive2 attempt stopped by its budget, followed by C-unroll.
        if w.traces.windows(2).any(|pair| {
            pair[0].stage == Stage::Alive2
                && pair[0].conflicts == pipeline.tv.alive2_budget.max_conflicts
                && pair[1].stage == Stage::CUnroll
        }) {
            resumable += 1;
        }
    }
    assert!(
        resumable >= 3,
        "expected budget-stopped Alive2 attempts followed by C-unroll: {}",
        resumable
    );
}
