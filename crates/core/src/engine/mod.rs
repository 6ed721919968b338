//! The parallel batch verification engine, split into three layers:
//!
//! * [`stage`] — one cascade stage as a [`VerificationStrategy`] trait
//!   object ([`ChecksumStage`] wrapping the checksum filter, one
//!   [`SymbolicStage`] per [`lv_tv::SymbolicStrategy`]). A stage checks one
//!   `(scalar, candidate)` pair and knows nothing about ordering or
//!   parallelism;
//! * [`schedule`] — the cascade *order* as data: a [`StageSchedule`] is the
//!   default Algorithm 1 order plus per-kernel-category overrides that
//!   permute only the symbolic stages (checksum pinned first), keyed by the
//!   CIR-feature categorizer in [`lv_analysis::categorize`]. The default
//!   schedule is bit-identical to the fixed cascade — same execution, same
//!   [`EngineConfig::semantic_fingerprint`], same cache keys — while
//!   effective overrides fingerprint distinctly (the resolved per-category
//!   orders are hashed in) and still produce bit-identical *verdicts*, since
//!   every symbolic stage is sound. [`StageSchedule::from_profile`] derives
//!   the overrides from a persisted [`crate::profile::CrossRunProfile`];
//! * [`pool`] — the atomic work-queue worker pool ([`parallel_map`] and the
//!   batch runner core): workers pull jobs from a shared cursor, each owning
//!   one reusable SMT session ([`lv_tv::TvSession`]) for its whole lifetime,
//!   and results are returned in job order regardless of scheduling.
//!
//! Every job is deterministic given its inputs and each worker session is
//! reset to a just-constructed state between queries, so a batch produces
//! bit-identical verdicts regardless of the thread count — `threads = N` is
//! purely a wall-clock optimization over `threads = 1`, which in turn equals
//! the one-shot [`crate::check_equivalence`].
//!
//! On top of the worker pool the engine is *observable*, *cached*, and
//! optionally *self-tuning*:
//!
//! * [`VerificationEngine::run_batch_observed`] streams job/stage/verdict
//!   events to a [`BatchObserver`] as workers make progress;
//! * a configured [`VerdictCache`] is consulted per job *before any stage
//!   runs*, keyed by `(scalar, candidate, config)` content hashes; hits run
//!   zero stages and are counted in [`BatchReport::cache_hits`];
//! * [`VerificationEngine::run_batch_adaptive`] runs a pilot slice under the
//!   configured budgets, derives tightened per-stage [`lv_tv::SolverBudget`]s
//!   from the pilot's [`crate::FunnelReport`], and runs the remainder under
//!   them (opt-in via [`EngineConfig::adaptive`]; off by default so verdicts
//!   stay bit-identical to the sequential path). With a persisted
//!   [`crate::profile::CrossRunProfile`] the pilot slice becomes
//!   unnecessary: [`StageSchedule::from_profile`] and
//!   [`AdaptiveBudgetPolicy::derive_from_profile`](crate::AdaptiveBudgetPolicy::derive_from_profile)
//!   derive the stage order and budgets for the *next* run from every
//!   previous run's telemetry.
//!
//! Orthogonal to all of the above, [`EngineReuse`] switches on the cross-job
//! SMT reuse layers (all off by default):
//!
//! * **blast memo** — each worker's solver memoizes the blasted CNF of
//!   structurally repeated queries and replays the recorded clause stream
//!   instead of re-blasting. Clause-identical by construction, so reports
//!   stay bit-identical to the fresh path;
//! * **incremental per-scalar sessions** — the pool switches to
//!   scalar-affinity scheduling: all candidates of one
//!   scalar kernel run consecutively on one worker, whose session keeps the
//!   scalar-side solver state warm under assumption-based queries. Learned
//!   clauses can let a budget-capped query *conclude* where a fresh solver
//!   ran out, so the concluding stage may improve — this layer therefore
//!   perturbs [`EngineConfig::semantic_fingerprint`], while verdict classes
//!   and checksums stay identical and reports remain bit-identical across
//!   thread counts (the grouped pool pins each group's query sequence);
//! * **CNF preprocessing** — each one-shot query's bit-blasted clauses are
//!   simplified once before search (see [`lv_tv::TvReuse::preprocess`]).
//!   It may conclude queries the raw budget would have exhausted, so it
//!   also perturbs the fingerprint.
//!
//! Per-job reuse activity lands in [`JobReport::reuse`]
//! ([`ReuseCounters`]), aggregates via [`BatchReport::reuse_totals`], and
//! feeds the funnel report and the persisted cross-run profile.
//! Preprocessing ([`EngineReuse::preprocess`]) reports through the
//! parallel [`SimplifyCounters`] path ([`JobReport::simplify`],
//! [`BatchReport::simplify_totals`]).

pub mod pool;
pub mod schedule;
pub mod stage;

pub use pool::{job_channel, parallel_map, JobProducer, JobSource};
pub use schedule::{StageSchedule, SYMBOLIC_STAGES};
pub use stage::{ChecksumStage, StrategyOutcome, SymbolicStage, VerificationStrategy, WorkerState};

use crate::cache::{CacheKey, CachedVerdict, VerdictCache};
use crate::funnel::{AdaptiveBudgetPolicy, FunnelReport};
use crate::observer::{BatchObserver, IndexMapObserver, NoopObserver, OffsetObserver};
use crate::pipeline::{Equivalence, EquivalenceReport, PipelineConfig, Stage};
use lv_analysis::KernelCategory;
use lv_cir::ast::Function;
use lv_cir::hash::{structural_hash, structural_hash_in_env, Fnv64};
use lv_interp::ChecksumClass;
use lv_tv::{SymbolicStrategy, TvConfig, TvReuse, TvSessionStats};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Which cross-job SMT reuse mechanisms the engine runs with. All off by
/// default — the engine then behaves (and fingerprints) exactly as before
/// the reuse subsystem existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineReuse {
    /// Blasted-CNF memoization inside each worker's solver: structurally
    /// repeated queries replay their recorded clause stream instead of
    /// re-blasting. Clause-identical by construction, so verdicts (and the
    /// configuration fingerprint) are unchanged.
    pub memo: bool,
    /// Incremental per-scalar solving: same-scalar jobs are grouped onto one
    /// worker (scalar-affinity scheduling), whose session keeps the scalar's
    /// SMT context and per-strategy SAT instances warm across the group's
    /// candidates. Deterministic at any thread count (whole groups are
    /// claimed atomically and run in job order), but warm-instance solves
    /// are not formally clause-identical to fresh ones near budget limits,
    /// so it perturbs [`EngineConfig::semantic_fingerprint`].
    pub incremental: bool,
    /// SatELite-style CNF preprocessing before every one-shot search in
    /// each worker's solver ([`lv_tv::TvReuse::preprocess`]).
    /// Preprocessing may conclude queries the raw budget would have
    /// exhausted, so like `incremental` it perturbs
    /// [`EngineConfig::semantic_fingerprint`] when enabled.
    pub preprocess: bool,
}

impl EngineReuse {
    /// Every *reuse* mechanism on — the configuration the reuse benchmarks
    /// race against the fresh-solve baseline. Preprocessing stays off;
    /// enable it separately via the `preprocess` field (`--simplify` on the
    /// CLI).
    pub fn full() -> EngineReuse {
        EngineReuse {
            memo: true,
            incremental: true,
            preprocess: false,
        }
    }

    /// The per-worker [`lv_tv::TvSession`] settings.
    pub fn tv(self) -> TvReuse {
        TvReuse {
            memo: self.memo,
            incremental: self.incremental,
            preprocess: self.preprocess,
        }
    }
}

/// Cross-job SMT reuse counters, aggregated per job and per batch. All zero
/// when [`EngineReuse`] is off (or for cache hits, which run no solver).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseCounters {
    /// Blasted-CNF memo replays.
    pub blast_hits: u64,
    /// Memo lookups that fell back to a fresh blast.
    pub blast_misses: u64,
    /// Queries solved on a warm incremental instance under an assumption.
    pub assumption_reuses: u64,
}

impl ReuseCounters {
    /// Adds `other` into this counter set.
    pub fn absorb(&mut self, other: ReuseCounters) {
        self.blast_hits += other.blast_hits;
        self.blast_misses += other.blast_misses;
        self.assumption_reuses += other.assumption_reuses;
    }

    /// `true` when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == ReuseCounters::default()
    }
}

/// CNF preprocessing counters, aggregated per job and per batch. All zero
/// when [`EngineReuse::preprocess`] is off (or for cache hits, which run no
/// solver).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimplifyCounters {
    /// Variables removed by pure-literal rule or bounded variable
    /// elimination during preprocessing.
    pub vars_eliminated: u64,
    /// Clauses deleted by subsumption during preprocessing.
    pub clauses_subsumed: u64,
    /// Clauses shortened by self-subsuming resolution during preprocessing.
    pub clauses_strengthened: u64,
    /// High-water mark of the flat clause arena, in bytes.
    pub arena_bytes: u64,
    /// Wall time spent in preprocessing, in microseconds.
    pub preprocess_micros: u64,
}

impl SimplifyCounters {
    /// Adds `other` into this counter set. `arena_bytes` is a high-water
    /// mark, so it takes the max rather than summing.
    pub fn absorb(&mut self, other: SimplifyCounters) {
        self.vars_eliminated += other.vars_eliminated;
        self.clauses_subsumed += other.clauses_subsumed;
        self.clauses_strengthened += other.clauses_strengthened;
        self.arena_bytes = self.arena_bytes.max(other.arena_bytes);
        self.preprocess_micros += other.preprocess_micros;
    }

    /// `true` when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == SimplifyCounters::default()
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads; `0` means one per available CPU.
    pub threads: usize,
    /// The stages to run, in base order. Defaults to Algorithm 1's full
    /// cascade; the [`StageSchedule`] may reorder the symbolic stages per
    /// kernel category.
    pub cascade: Vec<Stage>,
    /// Per-kernel-category stage ordering. The default is Algorithm 1's
    /// fixed order for every category — bit-identical execution and
    /// fingerprint to the pre-schedule engine.
    pub schedule: StageSchedule,
    /// Stage configurations (checksum harness + symbolic budgets).
    pub pipeline: PipelineConfig,
    /// Verdict cache consulted per job before any stage runs. `None`
    /// disables caching.
    pub cache: Option<Arc<VerdictCache>>,
    /// Opt-in adaptive budget tuning, applied by
    /// [`VerificationEngine::run_batch_adaptive`]. `None` (the default)
    /// keeps the configured budgets and bit-identical verdicts.
    pub adaptive: Option<AdaptiveBudgetPolicy>,
    /// Opt-in cross-job SMT reuse (blast memo, incremental per-scalar
    /// solving with scalar-affinity scheduling, CNF preprocessing). Off by
    /// default.
    pub reuse: EngineReuse,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: 0,
            cascade: vec![
                Stage::Checksum,
                Stage::Alive2,
                Stage::CUnroll,
                Stage::Splitting,
            ],
            schedule: StageSchedule::algorithm1(),
            pipeline: PipelineConfig::default(),
            cache: None,
            adaptive: None,
            reuse: EngineReuse::default(),
        }
    }
}

impl EngineConfig {
    /// The full Algorithm 1 cascade with the given stage configurations.
    pub fn full(pipeline: PipelineConfig) -> EngineConfig {
        EngineConfig {
            pipeline,
            ..EngineConfig::default()
        }
    }

    /// A checksum-only cascade (the Table 2 / Figure 5 experiments).
    pub fn checksum_only(checksum: lv_interp::ChecksumConfig) -> EngineConfig {
        EngineConfig {
            cascade: vec![Stage::Checksum],
            pipeline: PipelineConfig {
                checksum,
                ..PipelineConfig::default()
            },
            ..EngineConfig::default()
        }
    }

    /// Returns this configuration with the given worker count.
    pub fn with_threads(mut self, threads: usize) -> EngineConfig {
        self.threads = threads;
        self
    }

    /// Returns this configuration with a verdict cache attached.
    pub fn with_cache(mut self, cache: Arc<VerdictCache>) -> EngineConfig {
        self.cache = Some(cache);
        self
    }

    /// Returns this configuration with adaptive budget tuning enabled.
    pub fn with_adaptive(mut self, policy: AdaptiveBudgetPolicy) -> EngineConfig {
        self.adaptive = Some(policy);
        self
    }

    /// Returns this configuration with the given stage schedule.
    pub fn with_schedule(mut self, schedule: StageSchedule) -> EngineConfig {
        self.schedule = schedule;
        self
    }

    /// Returns this configuration with the given reuse mechanisms enabled.
    pub fn with_reuse(mut self, reuse: EngineReuse) -> EngineConfig {
        self.reuse = reuse;
        self
    }

    /// A stable fingerprint of everything that can influence a verdict: the
    /// cascade stage list (order matters — it decides which stage answers
    /// first), the *effective* per-category schedule overrides (resolved
    /// against the cascade; the default schedule contributes nothing, so
    /// default-schedule fingerprints are bit-identical to the pre-schedule
    /// engine), the checksum harness configuration, and the symbolic
    /// budgets.
    ///
    /// This is the `config` component of every [`CacheKey`]. Thread count,
    /// the cache itself, and the adaptive *policy* are deliberately
    /// excluded: none of them changes the verdict a given budget
    /// configuration produces (an adaptive run caches its tuned-phase
    /// verdicts under the tuned configuration's own fingerprint).
    pub fn semantic_fingerprint(&self) -> u64 {
        let mut fnv = Fnv64::new();
        fnv.write_u64(self.cascade.len() as u64);
        for stage in &self.cascade {
            fnv.write_u8(schedule::stage_fingerprint_byte(*stage));
        }
        fnv.write_u64(self.pipeline.checksum.fingerprint());
        fnv.write_u64(self.pipeline.tv.fingerprint());
        self.schedule.fingerprint_into(&self.cascade, &mut fnv);
        // Memo replays are clause-identical, so the memo leaves the
        // fingerprint alone; a warm incremental instance is not formally
        // guaranteed to reach the same verdict as a fresh solve at the budget
        // boundary, so its verdicts must not share cache keys with
        // fresh-solve runs.
        // Writing nothing for the default keeps reuse-off fingerprints
        // bit-identical to the pre-reuse engine.
        if self.reuse.incremental {
            fnv.write_u8(0x52); // 'R'
        }
        // Preprocessing may conclude queries the raw budget would have
        // exhausted (fewer clauses to search), so it perturbs the
        // fingerprint. The 0x01 after 'S' is the preprocess bit of an
        // earlier two-layer encoding, kept so existing caches stay keyed.
        if self.reuse.preprocess {
            fnv.write_u8(0x53); // 'S'
            fnv.write_u8(0x01);
        }
        fnv.finish()
    }
}

/// One unit of work: check `candidate` against `scalar`.
#[derive(Debug, Clone)]
pub struct Job {
    /// Label for reports (kernel name, optionally with a completion index).
    pub label: String,
    /// The scalar reference kernel.
    pub scalar: Function,
    /// The vectorization candidate.
    pub candidate: Function,
}

impl Job {
    /// A job with the given label.
    pub fn new(label: impl Into<String>, scalar: Function, candidate: Function) -> Job {
        Job {
            label: label.into(),
            scalar,
            candidate,
        }
    }
}

/// Telemetry for one cascade stage of one job.
#[derive(Debug, Clone)]
pub struct StageTrace {
    /// The stage that ran.
    pub stage: Stage,
    /// Whether this stage produced the job's final verdict.
    pub conclusive: bool,
    /// Wall time the stage took.
    pub wall: Duration,
    /// SAT conflicts spent (always 0 for the checksum stage).
    pub conflicts: u64,
    /// CNF clauses built (always 0 for the checksum stage).
    pub clauses: u64,
    /// `true` on a checksum-stage trace whose candidate renamed its array
    /// parameters away from the scalar's — the harness bound disjoint arrays
    /// and the comparison was vacuous (telemetry only; the verdict is
    /// unchanged). Always `false` for symbolic stages.
    pub name_mismatch: bool,
}

/// The result of one job, with telemetry.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The job's label.
    pub label: String,
    /// The final verdict.
    pub verdict: Equivalence,
    /// The stage that produced it (the last stage run, if none concluded).
    pub stage: Stage,
    /// Counterexample, mismatch, or inconclusive reason.
    pub detail: String,
    /// Checksum classification, when the cascade includes the checksum stage.
    pub checksum: Option<ChecksumClass>,
    /// Per-stage telemetry, in execution order. A conclusive stage is always
    /// last — stages after an early exit never run, which is how tests pin
    /// Algorithm 1's short-circuit ordering. Empty for cache hits, which run
    /// no stages at all.
    pub traces: Vec<StageTrace>,
    /// Total wall time for the job.
    pub wall: Duration,
    /// `true` when the verdict came from the [`VerdictCache`] and no stage
    /// ran.
    pub cache_hit: bool,
    /// Cross-job SMT reuse activity attributed to this job (deltas of the
    /// worker session's counters around the job). All zero when reuse is
    /// off or the job was a cache hit.
    pub reuse: ReuseCounters,
    /// Preprocessing activity attributed to this job (deltas of the worker
    /// session's counters around the job). All zero when
    /// [`EngineReuse::preprocess`] is off or the job was a cache hit.
    pub simplify: SimplifyCounters,
}

impl JobReport {
    /// Collapses the report into the pipeline's three-field form.
    pub fn equivalence_report(&self) -> EquivalenceReport {
        EquivalenceReport {
            verdict: self.verdict,
            stage: self.stage,
            detail: self.detail.clone(),
        }
    }
}

/// The result of a batch run.
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One report per job, in job order (independent of scheduling).
    pub jobs: Vec<JobReport>,
    /// Wall time of the whole batch.
    pub wall: Duration,
    /// Worker threads actually used.
    pub threads: usize,
    /// Jobs answered from the verdict cache without running any stage.
    pub cache_hits: usize,
    /// Jobs that ran their cascade and stored the verdict (always `0` when
    /// the engine has no cache).
    pub cache_misses: usize,
}

impl BatchReport {
    /// Total SAT conflicts spent across all jobs and stages.
    pub fn total_conflicts(&self) -> u64 {
        self.jobs
            .iter()
            .flat_map(|j| &j.traces)
            .map(|t| t.conflicts)
            .sum()
    }

    /// Total stage executions across all jobs — `0` for a fully cached
    /// batch, which is how tests pin "a warm cache runs neither checksum nor
    /// SMT stages".
    pub fn stage_runs(&self) -> usize {
        self.jobs.iter().map(|j| j.traces.len()).sum()
    }

    /// Count of jobs whose final verdict is `verdict`.
    pub fn count(&self, verdict: Equivalence) -> usize {
        self.jobs.iter().filter(|j| j.verdict == verdict).count()
    }

    /// Total cross-job SMT reuse activity over the batch (all zero when
    /// [`EngineReuse`] is off).
    pub fn reuse_totals(&self) -> ReuseCounters {
        let mut totals = ReuseCounters::default();
        for job in &self.jobs {
            totals.absorb(job.reuse);
        }
        totals
    }

    /// Total clause-database simplification activity over the batch (all
    /// zero when [`EngineReuse::preprocess`] is off).
    pub fn simplify_totals(&self) -> SimplifyCounters {
        let mut totals = SimplifyCounters::default();
        for job in &self.jobs {
            totals.absorb(job.simplify);
        }
        totals
    }

    /// The telemetry funnel over this batch's stage traces.
    pub fn funnel(&self) -> FunnelReport {
        FunnelReport::from_jobs(&self.jobs)
    }
}

/// The result of [`VerificationEngine::run_batch_adaptive`]: the merged
/// batch plus what the tuning did.
#[derive(Debug, Clone)]
pub struct AdaptiveBatchReport {
    /// The merged report over all jobs, in job order.
    pub report: BatchReport,
    /// How many leading jobs formed the pilot (run under base budgets).
    pub pilot_jobs: usize,
    /// The configured budgets the pilot ran under.
    pub base: TvConfig,
    /// The derived budgets the remainder ran under. Equal to `base` when the
    /// engine has no adaptive policy or the pilot produced no evidence.
    pub tuned: TvConfig,
    /// The pilot's funnel — the evidence the tuning was derived from.
    pub funnel: FunnelReport,
}

/// The parallel batch verification engine.
pub struct VerificationEngine {
    threads: usize,
    /// One strategy instance per base-cascade stage, in cascade order.
    strategies: Vec<Box<dyn VerificationStrategy>>,
    /// The base execution order: `0..strategies.len()`.
    identity_order: Vec<usize>,
    /// Per-category execution orders (indices into `strategies`) for
    /// categories whose resolved schedule differs from the base cascade.
    /// Empty for the default schedule — jobs then skip categorization
    /// entirely, so default-schedule batches are bit-identical (down to
    /// wall-clock behavior) to the pre-schedule engine.
    category_orders: Vec<(KernelCategory, Vec<usize>)>,
    cache: Option<Arc<VerdictCache>>,
    /// [`EngineConfig::semantic_fingerprint`] of the source configuration,
    /// precomputed once — it is part of every cache key.
    config_fingerprint: u64,
    /// The source configuration, kept so the adaptive path can rebuild a
    /// tuned engine. `None` for caller-assembled cascades.
    config: Option<EngineConfig>,
    /// Cross-job SMT reuse configuration: decides worker-session reuse and
    /// the scheduling mode (scalar affinity when incremental).
    reuse: EngineReuse,
}

impl VerificationEngine {
    /// Builds an engine from a configuration, instantiating one strategy per
    /// cascade stage and precomputing the per-category execution orders.
    pub fn new(config: EngineConfig) -> VerificationEngine {
        let symbolic = |strategy: SymbolicStrategy| -> Box<dyn VerificationStrategy> {
            Box::new(SymbolicStage::new(strategy, config.pipeline.tv.clone()))
        };
        let strategies: Vec<Box<dyn VerificationStrategy>> = config
            .cascade
            .iter()
            .map(|stage| -> Box<dyn VerificationStrategy> {
                match stage {
                    Stage::Checksum => {
                        Box::new(ChecksumStage::new(config.pipeline.checksum.clone()))
                    }
                    Stage::Alive2 => symbolic(SymbolicStrategy::Alive2Unroll),
                    Stage::CUnroll => symbolic(SymbolicStrategy::CUnroll),
                    Stage::Splitting => symbolic(SymbolicStrategy::SpatialSplitting),
                }
            })
            .collect();
        // Resolve each effective override into indices of `strategies`: the
        // resolved order is a permutation of the cascade, so every stage in
        // it names exactly one cascade position.
        let category_orders = config
            .schedule
            .resolved_overrides(&config.cascade)
            .into_iter()
            .map(|(category, order)| {
                let mut remaining: Vec<usize> = (0..config.cascade.len()).collect();
                let indices = order
                    .iter()
                    .map(|stage| {
                        let slot = remaining
                            .iter()
                            .position(|&i| config.cascade[i] == *stage)
                            .expect("resolved order is a permutation of the cascade");
                        remaining.remove(slot)
                    })
                    .collect();
                (category, indices)
            })
            .collect();
        VerificationEngine {
            threads: config.threads,
            identity_order: (0..strategies.len()).collect(),
            strategies,
            category_orders,
            cache: config.cache.clone(),
            config_fingerprint: config.semantic_fingerprint(),
            reuse: config.reuse,
            config: Some(config),
        }
    }

    /// An engine with a caller-assembled cascade. Such an engine has no
    /// configuration fingerprint, so it never caches, and
    /// [`VerificationEngine::run_batch_adaptive`] degenerates to a plain
    /// batch.
    pub fn with_strategies(
        threads: usize,
        strategies: Vec<Box<dyn VerificationStrategy>>,
    ) -> VerificationEngine {
        VerificationEngine {
            threads,
            identity_order: (0..strategies.len()).collect(),
            strategies,
            category_orders: Vec::new(),
            cache: None,
            config_fingerprint: 0,
            config: None,
            reuse: EngineReuse::default(),
        }
    }

    /// The worker count a batch of `jobs` jobs would use.
    pub fn resolved_threads(&self, jobs: usize) -> usize {
        pool::resolve_threads(self.threads, jobs)
    }

    /// Runs the cascade on a single pair, reusing nothing (the
    /// [`crate::check_equivalence`] path). Consults the verdict cache like
    /// any batched job.
    pub fn check_one(&self, scalar: &Function, candidate: &Function) -> JobReport {
        let mut worker = WorkerState::default();
        self.run_job(
            0,
            &Job::new(scalar.name.clone(), scalar.clone(), candidate.clone()),
            &mut worker,
            &NoopObserver,
        )
    }

    /// Verifies a batch of jobs on the worker pool.
    ///
    /// Results are returned in job order. Verdicts, stages, and details are
    /// identical for every thread count; only `wall` varies.
    pub fn run_batch(&self, jobs: &[Job]) -> BatchReport {
        self.run_batch_observed(jobs, &NoopObserver)
    }

    /// [`VerificationEngine::run_batch`], streaming progress to `observer`.
    ///
    /// Callbacks fire from worker threads in completion order; the reports
    /// in the returned batch are still in job order, bit-identical to an
    /// unobserved run.
    pub fn run_batch_observed(&self, jobs: &[Job], observer: &dyn BatchObserver) -> BatchReport {
        let threads = self.resolved_threads(jobs.len());
        let start = Instant::now();
        let init = || WorkerState::with_reuse(self.reuse.tv());
        let run = |index: usize, job: &Job, worker: &mut WorkerState| {
            self.run_job(index, job, worker, observer)
        };
        let reports = if self.reuse.incremental {
            // Scalar affinity: same-scalar jobs run consecutively on one
            // worker so its warm per-scalar session actually gets hit, and a
            // whole group is claimed atomically so the query sequence each
            // warm instance sees — hence every verdict — is identical at any
            // thread count.
            let groups = scalar_groups(jobs);
            pool::parallel_map_grouped(threads, jobs, &groups, init, run)
        } else {
            pool::parallel_map_with(threads, jobs, init, run)
        };
        let cache_hits = reports.iter().filter(|r| r.cache_hit).count();
        let cache_misses = if self.cache.is_some() {
            reports.len() - cache_hits
        } else {
            0
        };
        BatchReport {
            jobs: reports,
            wall: start.elapsed(),
            threads,
            cache_hits,
            cache_misses,
        }
    }

    /// Verifies a stream of jobs as they arrive, without materializing the
    /// batch up front — the overlapped generation→verification intake.
    ///
    /// See [`VerificationEngine::run_stream_observed`].
    pub fn run_stream(&self, source: &JobSource<Job>) -> BatchReport {
        self.run_stream_observed(source, &NoopObserver)
    }

    /// [`VerificationEngine::run_stream`], streaming progress to
    /// `observer`.
    ///
    /// Workers claim `(index, job)` pairs from the bounded `source` (see
    /// [`job_channel`]) as a producer — typically seeded
    /// parallel candidate generation — pushes them, so verification starts
    /// before generation finishes. Each job runs through the identical
    /// [`run_job`](Self::run_batch) path as the batch entry points, and the
    /// returned [`BatchReport`] is assembled in ascending job-index order,
    /// so verdicts are bit-identical to `run_batch` over the same jobs in
    /// index order, at any worker count and any arrival order (pinned at
    /// worker counts 1/2/8 by the pipeline property tests). Indices need
    /// not be dense — the service streams sparse post-dedupe slots — but
    /// must be unique.
    ///
    /// One scheduling mode cannot stream: incremental per-scalar reuse
    /// requires whole scalar groups claimed atomically, which needs the
    /// full job list. With [`EngineReuse::incremental`] set, the source is
    /// drained first and the batch path runs — correctness is preserved,
    /// overlap is not.
    pub fn run_stream_observed(
        &self,
        source: &JobSource<Job>,
        observer: &dyn BatchObserver,
    ) -> BatchReport {
        let start = Instant::now();
        if self.reuse.incremental {
            // Scalar-affinity grouping needs every job up front: drain,
            // order, and fall back to the grouped batch path (remapping
            // observer indices back to the stream's).
            let mut pairs: Vec<(usize, Job)> = std::iter::from_fn(|| source.next()).collect();
            pairs.sort_by_key(|(index, _)| *index);
            let indices: Vec<usize> = pairs.iter().map(|(index, _)| *index).collect();
            let jobs: Vec<Job> = pairs.into_iter().map(|(_, job)| job).collect();
            let remap = IndexMapObserver::new(observer, &indices);
            let mut report = self.run_batch_observed(&jobs, &remap);
            report.wall = start.elapsed();
            return report;
        }
        let threads = pool::resolve_threads(self.threads, usize::MAX);
        let init = || WorkerState::with_reuse(self.reuse.tv());
        let collected: Mutex<Vec<(usize, JobReport)>> = Mutex::new(Vec::new());
        if threads <= 1 {
            let mut worker = init();
            while let Some((index, job)) = source.next() {
                let report = self.run_job(index, &job, &mut worker, observer);
                collected.lock().unwrap().push((index, report));
            }
        } else {
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    scope.spawn(|| {
                        let mut worker = init();
                        while let Some((index, job)) = source.next() {
                            let report = self.run_job(index, &job, &mut worker, observer);
                            collected.lock().unwrap().push((index, report));
                        }
                    });
                }
            });
        }
        let mut pairs = collected.into_inner().unwrap();
        pairs.sort_by_key(|(index, _)| *index);
        assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "duplicate job index in the stream"
        );
        let reports: Vec<JobReport> = pairs.into_iter().map(|(_, report)| report).collect();
        let cache_hits = reports.iter().filter(|r| r.cache_hit).count();
        let cache_misses = if self.cache.is_some() {
            reports.len() - cache_hits
        } else {
            0
        };
        BatchReport {
            jobs: reports,
            wall: start.elapsed(),
            threads,
            cache_hits,
            cache_misses,
        }
    }

    /// Runs a batch with telemetry-driven budget tuning: a pilot slice runs
    /// under the configured budgets, the [`AdaptiveBudgetPolicy`] derives
    /// tightened budgets from the pilot's funnel, and the remaining jobs run
    /// under them.
    ///
    /// Requires [`EngineConfig::adaptive`]; without it (or for a
    /// caller-assembled cascade) this is exactly
    /// [`Self::run_batch_observed`] with the whole batch as the pilot, so
    /// drivers can call it unconditionally.
    pub fn run_batch_adaptive(
        &self,
        jobs: &[Job],
        observer: &dyn BatchObserver,
    ) -> AdaptiveBatchReport {
        let policy = self.config.as_ref().and_then(|c| c.adaptive.clone());
        let (Some(config), Some(policy)) = (&self.config, policy) else {
            let report = self.run_batch_observed(jobs, observer);
            let funnel = report.funnel();
            let base = self
                .config
                .as_ref()
                .map_or_else(TvConfig::default, |c| c.pipeline.tv.clone());
            return AdaptiveBatchReport {
                report,
                pilot_jobs: jobs.len(),
                base: base.clone(),
                tuned: base,
                funnel,
            };
        };

        let pilot_len = policy.pilot_len(jobs.len());
        // The pilot must produce real stage evidence even when a warm cache
        // could answer it: a trace-less funnel would silently fall back to
        // base budgets, making a warm adaptive run diverge from the cold run
        // that filled the cache. Running the pilot through a cache-less twin
        // re-derives the identical tuned budgets, so the remainder hits the
        // tuned-fingerprint entries the cold run stored.
        let pilot = if config.cache.is_some() {
            let uncached = VerificationEngine::new(EngineConfig {
                cache: None,
                ..config.clone()
            });
            uncached.run_batch_observed(&jobs[..pilot_len], observer)
        } else {
            self.run_batch_observed(&jobs[..pilot_len], observer)
        };
        let funnel = pilot.funnel();
        let base = config.pipeline.tv.clone();
        let tuned = policy.derive(&funnel, &base);

        let mut merged = pilot;
        if pilot_len < jobs.len() {
            let mut tuned_config = config.clone();
            tuned_config.adaptive = None; // the tuning is already applied
            tuned_config.pipeline.tv = tuned.clone();
            let tuned_engine = VerificationEngine::new(tuned_config);
            let rest = tuned_engine.run_batch_observed(
                &jobs[pilot_len..],
                &OffsetObserver::new(observer, pilot_len),
            );
            merged.jobs.extend(rest.jobs);
            merged.wall += rest.wall;
            merged.threads = merged.threads.max(rest.threads);
            merged.cache_hits += rest.cache_hits;
            merged.cache_misses += rest.cache_misses;
        }
        AdaptiveBatchReport {
            report: merged,
            pilot_jobs: pilot_len,
            base,
            tuned,
            funnel,
        }
    }

    /// The cache key of one job under this engine's configuration, or `None`
    /// when the engine has no cache.
    fn cache_key(&self, job: &Job) -> Option<CacheKey> {
        self.cache.as_ref()?;
        Some(job_cache_key(job, self.config_fingerprint))
    }

    /// The stage execution order for `job`: the base cascade order unless
    /// the schedule has an effective override for the job's kernel category.
    /// Categorization runs only when overrides exist, so a default-schedule
    /// engine pays nothing.
    fn stage_order(&self, job: &Job) -> &[usize] {
        if self.category_orders.is_empty() {
            return &self.identity_order;
        }
        let category = lv_analysis::categorize(&job.scalar);
        self.category_orders
            .iter()
            .find(|(c, _)| *c == category)
            .map_or(&self.identity_order, |(_, order)| order)
    }

    /// Runs the cascade on one job, collecting per-stage telemetry. The
    /// verdict cache is consulted first — a hit returns before any stage
    /// (checksum included) runs.
    fn run_job(
        &self,
        index: usize,
        job: &Job,
        worker: &mut WorkerState,
        observer: &dyn BatchObserver,
    ) -> JobReport {
        let job_start = Instant::now();
        observer.job_started(index, job);

        let key = self.cache_key(job);
        if let (Some(cache), Some(key)) = (&self.cache, key) {
            if let Some(hit) = cache.get(&key) {
                let report = JobReport {
                    label: job.label.clone(),
                    verdict: hit.verdict,
                    stage: hit.stage,
                    detail: hit.detail,
                    checksum: hit.checksum,
                    traces: Vec::new(),
                    wall: job_start.elapsed(),
                    cache_hit: true,
                    reuse: ReuseCounters::default(),
                    simplify: SimplifyCounters::default(),
                };
                observer.job_finished(index, &report);
                return report;
            }
        }

        worker.checksum = None;
        worker.name_mismatch = false;
        let reuse_before = worker.session.reuse_stats();
        let simplify_before = worker.session.simplify_stats();
        let order = self.stage_order(job);
        let mut traces = Vec::with_capacity(order.len());
        // If no stage concludes, report the last stage that ran (Alive2 with
        // an empty reason for an empty cascade, mirroring the sequential
        // pipeline's initializer).
        let mut last_stage = Stage::Alive2;
        let mut last_reason = String::new();
        let mut conclusion: Option<(Equivalence, Stage, String)> = None;

        for &slot in order {
            let strategy = &self.strategies[slot];
            let stats_before = worker.session.stats;
            let stage_start = Instant::now();
            let outcome = strategy.verify(&job.scalar, &job.candidate, worker);
            let wall = stage_start.elapsed();
            let spent = effort_delta(stats_before, worker.session.stats);
            let conclusive = matches!(outcome, StrategyOutcome::Conclusive { .. });
            traces.push(StageTrace {
                stage: strategy.stage(),
                conclusive,
                wall,
                conflicts: spent.0,
                clauses: spent.1,
                name_mismatch: strategy.stage() == Stage::Checksum && worker.name_mismatch,
            });
            observer.stage_finished(index, job, traces.last().expect("just pushed"));
            match outcome {
                StrategyOutcome::Conclusive { verdict, detail } => {
                    conclusion = Some((verdict, strategy.stage(), detail));
                    break;
                }
                StrategyOutcome::Continue { reason } => {
                    last_stage = strategy.stage();
                    last_reason = reason;
                }
            }
        }

        let (verdict, stage, detail) =
            conclusion.unwrap_or((Equivalence::Inconclusive, last_stage, last_reason));
        let reuse_after = worker.session.reuse_stats();
        let reuse = ReuseCounters {
            blast_hits: reuse_after.blast_hits - reuse_before.blast_hits,
            blast_misses: reuse_after.blast_misses - reuse_before.blast_misses,
            assumption_reuses: reuse_after.assumption_reuses - reuse_before.assumption_reuses,
        };
        let simplify_after = worker.session.simplify_stats();
        let simplify = SimplifyCounters {
            vars_eliminated: simplify_after
                .vars_eliminated
                .saturating_sub(simplify_before.vars_eliminated),
            clauses_subsumed: simplify_after
                .clauses_subsumed
                .saturating_sub(simplify_before.clauses_subsumed),
            clauses_strengthened: simplify_after
                .clauses_strengthened
                .saturating_sub(simplify_before.clauses_strengthened),
            // High-water mark, not a monotone sum: report the level reached
            // by the time this job finished.
            arena_bytes: simplify_after.arena_bytes,
            preprocess_micros: simplify_after
                .preprocess_micros
                .saturating_sub(simplify_before.preprocess_micros),
        };
        let report = JobReport {
            label: job.label.clone(),
            verdict,
            stage,
            detail,
            checksum: worker.checksum,
            traces,
            wall: job_start.elapsed(),
            cache_hit: false,
            reuse,
            simplify,
        };
        if let (Some(cache), Some(key)) = (&self.cache, key) {
            cache.insert(
                key,
                CachedVerdict {
                    verdict: report.verdict,
                    stage: report.stage,
                    detail: report.detail.clone(),
                    checksum: report.checksum,
                },
            );
        }
        observer.job_finished(index, &report);
        report
    }
}

/// The verdict-cache key of `job` under a configuration fingerprint — the
/// single definition shared by the engine's per-job lookup and the shard
/// coordinator's report-to-cache reconstruction, so the two can never drift
/// apart and mis-key (or spuriously conflict on) the same verdict.
///
/// The candidate is hashed in the scalar's parameter-name environment
/// ([`structural_hash_in_env`]): the checksum harness and the refinement
/// check bind arrays by parameter name, so a candidate whose parameters are
/// renamed away from the scalar's is a *different* verification problem and
/// must not share a key with the name-matched spelling.
pub(crate) fn job_cache_key(job: &Job, config_fingerprint: u64) -> CacheKey {
    CacheKey {
        scalar: structural_hash(&job.scalar),
        candidate: structural_hash_in_env(
            &job.candidate,
            job.scalar.params.iter().map(|p| p.name.as_str()),
        ),
        config: config_fingerprint,
    }
}

/// Partitions job indices into scalar-affinity groups: jobs sharing a scalar
/// kernel (by [`structural_hash`]) form one group, groups ordered by first
/// appearance and members in ascending job order. This is the work-unit
/// shape [`pool::parallel_map_grouped`] schedules for incremental reuse.
fn scalar_groups(jobs: &[Job]) -> Vec<Vec<usize>> {
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of: std::collections::HashMap<u64, usize> = std::collections::HashMap::new();
    for (index, job) in jobs.iter().enumerate() {
        let hash = structural_hash(&job.scalar);
        match group_of.entry(hash) {
            std::collections::hash_map::Entry::Occupied(e) => groups[*e.get()].push(index),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(groups.len());
                groups.push(vec![index]);
            }
        }
    }
    groups
}

fn effort_delta(before: TvSessionStats, after: TvSessionStats) -> (u64, u64) {
    (
        after.conflicts - before.conflicts,
        after.clauses - before.clauses,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_agents::vectorize_correct;
    use lv_cir::parse_function;
    use lv_interp::ChecksumConfig;
    use std::sync::atomic::Ordering;

    const S000: &str =
        "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }";
    const S000_WRONG: &str =
        "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 2; } }";

    fn quick_pipeline() -> PipelineConfig {
        PipelineConfig {
            checksum: ChecksumConfig {
                trials: 1,
                n: 40,
                ..ChecksumConfig::default()
            },
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn engine_verifies_a_correct_candidate() {
        let scalar = parse_function(S000).unwrap();
        let candidate = vectorize_correct(&scalar).unwrap();
        let engine = VerificationEngine::new(EngineConfig::full(quick_pipeline()));
        let report = engine.check_one(&scalar, &candidate);
        assert_eq!(report.verdict, Equivalence::Equivalent, "{}", report.detail);
        assert_eq!(report.checksum, Some(ChecksumClass::Plausible));
        // The checksum stage ran first and passed; a symbolic stage concluded.
        assert_eq!(report.traces[0].stage, Stage::Checksum);
        assert!(!report.traces[0].conclusive);
        assert!(report.traces.last().unwrap().conclusive);
    }

    #[test]
    fn checksum_refutation_short_circuits_the_cascade() {
        let scalar = parse_function(S000).unwrap();
        let wrong = parse_function(S000_WRONG).unwrap();
        let engine = VerificationEngine::new(EngineConfig::full(quick_pipeline()));
        let report = engine.check_one(&scalar, &wrong);
        assert_eq!(report.verdict, Equivalence::NotEquivalent);
        assert_eq!(report.stage, Stage::Checksum);
        // Early exit: exactly one trace, no symbolic stage ran, no SAT work.
        assert_eq!(report.traces.len(), 1);
        assert_eq!(report.traces[0].stage, Stage::Checksum);
        assert!(report.traces[0].conclusive);
        assert_eq!(report.traces[0].conflicts, 0);
    }

    #[test]
    fn batch_reports_preserve_job_order_for_any_thread_count() {
        let scalar = parse_function(S000).unwrap();
        let good = vectorize_correct(&scalar).unwrap();
        let wrong = parse_function(S000_WRONG).unwrap();
        let jobs: Vec<Job> = (0..8)
            .map(|i| {
                let candidate = if i % 2 == 0 {
                    good.clone()
                } else {
                    wrong.clone()
                };
                Job::new(format!("job{}", i), scalar.clone(), candidate)
            })
            .collect();
        let sequential =
            VerificationEngine::new(EngineConfig::full(quick_pipeline()).with_threads(1))
                .run_batch(&jobs);
        let parallel =
            VerificationEngine::new(EngineConfig::full(quick_pipeline()).with_threads(4))
                .run_batch(&jobs);
        assert_eq!(parallel.threads, 4);
        for (s, p) in sequential.jobs.iter().zip(&parallel.jobs) {
            assert_eq!(s.label, p.label);
            assert_eq!(s.verdict, p.verdict);
            assert_eq!(s.stage, p.stage);
            assert_eq!(s.detail, p.detail);
        }
        assert_eq!(sequential.count(Equivalence::Equivalent), 4);
        assert_eq!(sequential.count(Equivalence::NotEquivalent), 4);
    }

    #[test]
    fn checksum_only_cascade_reports_inconclusive_for_plausible() {
        let scalar = parse_function(S000).unwrap();
        let candidate = vectorize_correct(&scalar).unwrap();
        let engine = VerificationEngine::new(EngineConfig::checksum_only(ChecksumConfig {
            trials: 1,
            n: 40,
            ..ChecksumConfig::default()
        }));
        let report = engine.check_one(&scalar, &candidate);
        assert_eq!(report.verdict, Equivalence::Inconclusive);
        assert_eq!(
            report.stage,
            Stage::Checksum,
            "last stage that actually ran"
        );
        assert_eq!(report.checksum, Some(ChecksumClass::Plausible));
    }

    #[test]
    fn renamed_array_params_are_flagged_but_verdicts_unchanged() {
        let scalar = parse_function(S000).unwrap();
        // Same body, arrays renamed: the harness binds arrays by name, so
        // the checksum comparison is vacuous — the stage must record the
        // mismatch in its trace (and warn) without changing its outcome.
        let renamed = parse_function(
            "void s000(int n, int *x, int *y) { for (int i = 0; i < n; i++) { x[i] = y[i] + 1; } }",
        )
        .unwrap();
        let engine = VerificationEngine::new(EngineConfig::full(quick_pipeline()));
        let report = engine.check_one(&scalar, &renamed);
        assert_eq!(report.traces[0].stage, Stage::Checksum);
        assert!(report.traces[0].name_mismatch, "mismatch must be flagged");
        assert_eq!(
            report.checksum,
            Some(ChecksumClass::Plausible),
            "diagnostic only: the vacuous pass is preserved, not reclassified"
        );
        let funnel = crate::FunnelReport::from_jobs(std::slice::from_ref(&report));
        assert_eq!(funnel.stage(Stage::Checksum).unwrap().name_mismatches, 1);
        assert!(
            funnel.render().contains("disjoint arrays"),
            "{}",
            funnel.render()
        );

        // Name-matched candidates are never flagged, on any stage.
        let good = vectorize_correct(&scalar).unwrap();
        let report = engine.check_one(&scalar, &good);
        assert!(report.traces.iter().all(|t| !t.name_mismatch));
        let funnel = crate::FunnelReport::from_jobs(std::slice::from_ref(&report));
        assert!(funnel.stages.iter().all(|s| s.name_mismatches == 0));
        assert!(!funnel.render().contains("disjoint arrays"));
    }

    #[test]
    fn warm_cache_reruns_with_zero_stage_runs_and_identical_verdicts() {
        let scalar = parse_function(S000).unwrap();
        let good = vectorize_correct(&scalar).unwrap();
        let wrong = parse_function(S000_WRONG).unwrap();
        let jobs = vec![
            Job::new("good", scalar.clone(), good),
            Job::new("wrong", scalar.clone(), wrong),
        ];
        let cache = Arc::new(VerdictCache::in_memory());
        let engine =
            VerificationEngine::new(EngineConfig::full(quick_pipeline()).with_cache(cache.clone()));

        let cold = engine.run_batch(&jobs);
        assert_eq!(cold.cache_hits, 0);
        assert_eq!(cold.cache_misses, 2);
        assert!(cold.stage_runs() > 0);
        assert_eq!(cache.len(), 2);

        let warm = engine.run_batch(&jobs);
        assert_eq!(warm.cache_hits, 2);
        assert_eq!(warm.cache_misses, 0);
        assert_eq!(warm.stage_runs(), 0, "no checksum or SMT stage may run");
        assert_eq!(warm.total_conflicts(), 0);
        for (c, w) in cold.jobs.iter().zip(&warm.jobs) {
            assert_eq!(c.verdict, w.verdict);
            assert_eq!(c.stage, w.stage);
            assert_eq!(c.detail, w.detail);
            assert_eq!(c.checksum, w.checksum);
            assert!(!c.cache_hit);
            assert!(w.cache_hit);
        }

        // An engine without the cache reports no hit/miss accounting.
        let uncached = VerificationEngine::new(EngineConfig::full(quick_pipeline()));
        let batch = uncached.run_batch(&jobs);
        assert_eq!((batch.cache_hits, batch.cache_misses), (0, 0));
    }

    #[test]
    fn config_changes_invalidate_cache_keys() {
        let scalar = parse_function(S000).unwrap();
        let good = vectorize_correct(&scalar).unwrap();
        let jobs = vec![Job::new("good", scalar.clone(), good)];
        let cache = Arc::new(VerdictCache::in_memory());
        let engine =
            VerificationEngine::new(EngineConfig::full(quick_pipeline()).with_cache(cache.clone()));
        engine.run_batch(&jobs);
        assert_eq!(cache.len(), 1);

        // A different checksum configuration is a different verification
        // problem: same jobs, fresh misses, second entry.
        let mut other = quick_pipeline();
        other.checksum.trials = 2;
        let engine2 = VerificationEngine::new(EngineConfig::full(other).with_cache(cache.clone()));
        let batch = engine2.run_batch(&jobs);
        assert_eq!(batch.cache_hits, 0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn observer_sees_every_job_and_stage() {
        use crate::observer::CountingObserver;
        let scalar = parse_function(S000).unwrap();
        let good = vectorize_correct(&scalar).unwrap();
        let wrong = parse_function(S000_WRONG).unwrap();
        let jobs = vec![
            Job::new("good", scalar.clone(), good),
            Job::new("wrong", scalar.clone(), wrong),
        ];
        let engine = VerificationEngine::new(EngineConfig::full(quick_pipeline()).with_threads(2));
        let counter = CountingObserver::new();
        let batch = engine.run_batch_observed(&jobs, &counter);
        assert_eq!(counter.finished_count(), 2);
        assert_eq!(counter.started.load(Ordering::Relaxed), 2);
        assert_eq!(
            counter.stage_count(),
            batch.stage_runs(),
            "one callback per executed stage"
        );
        assert_eq!(counter.cache_hit_count(), 0);
    }

    #[test]
    fn adaptive_run_tightens_budgets_and_keeps_verdicts() {
        use crate::funnel::AdaptiveBudgetPolicy;
        use crate::observer::NoopObserver;
        let scalar = parse_function(S000).unwrap();
        let good = vectorize_correct(&scalar).unwrap();
        let jobs: Vec<Job> = (0..6)
            .map(|i| Job::new(format!("job{}", i), scalar.clone(), good.clone()))
            .collect();
        let policy = AdaptiveBudgetPolicy {
            min_pilot: 2,
            pilot_fraction: 0.3,
            ..AdaptiveBudgetPolicy::default()
        };
        let engine =
            VerificationEngine::new(EngineConfig::full(quick_pipeline()).with_adaptive(policy));
        let adaptive = engine.run_batch_adaptive(&jobs, &NoopObserver);
        assert_eq!(adaptive.pilot_jobs, 2);
        assert_eq!(adaptive.report.jobs.len(), 6);
        // Tuning only tightens.
        assert!(
            adaptive.tuned.alive2_budget.max_conflicts <= adaptive.base.alive2_budget.max_conflicts
        );
        assert!(
            adaptive.tuned.cunroll_budget.max_conflicts
                <= adaptive.base.cunroll_budget.max_conflicts
        );
        // Identical jobs stay provable under the tuned budgets.
        assert_eq!(adaptive.report.count(Equivalence::Equivalent), 6);
        for (i, report) in adaptive.report.jobs.iter().enumerate() {
            assert_eq!(report.label, format!("job{}", i), "job order is kept");
        }
        // Without a policy, the adaptive entry point degenerates to a plain
        // batch with everything as the pilot.
        let plain = VerificationEngine::new(EngineConfig::full(quick_pipeline()));
        let report = plain.run_batch_adaptive(&jobs, &NoopObserver);
        assert_eq!(report.pilot_jobs, 6);
        assert_eq!(
            report.tuned.alive2_budget.max_conflicts,
            report.base.alive2_budget.max_conflicts
        );
    }

    #[test]
    fn default_schedule_fingerprint_is_unchanged_and_overrides_differ() {
        let base = EngineConfig::full(quick_pipeline());
        let explicit_default =
            EngineConfig::full(quick_pipeline()).with_schedule(StageSchedule::algorithm1());
        assert_eq!(
            base.semantic_fingerprint(),
            explicit_default.semantic_fingerprint(),
            "the default schedule must not perturb the fingerprint"
        );

        let reordered = EngineConfig::full(quick_pipeline()).with_schedule(
            StageSchedule::algorithm1()
                .with_override(
                    KernelCategory::DependenceFree,
                    vec![Stage::Splitting, Stage::Alive2, Stage::CUnroll],
                )
                .unwrap(),
        );
        assert_ne!(
            base.semantic_fingerprint(),
            reordered.semantic_fingerprint(),
            "an effective override is a different verification configuration"
        );

        // Against a checksum-only cascade the same override has no effect,
        // so it must not perturb that fingerprint either.
        let checksum_base = EngineConfig::checksum_only(ChecksumConfig::default());
        let checksum_scheduled = EngineConfig {
            schedule: reordered.schedule.clone(),
            ..EngineConfig::checksum_only(ChecksumConfig::default())
        };
        assert_eq!(
            checksum_base.semantic_fingerprint(),
            checksum_scheduled.semantic_fingerprint()
        );
    }

    #[test]
    fn scheduled_engine_reorders_stages_but_keeps_verdicts() {
        let scalar = parse_function(S000).unwrap();
        let good = vectorize_correct(&scalar).unwrap();
        assert_eq!(
            lv_analysis::categorize(&scalar),
            KernelCategory::DependenceFree
        );
        let jobs = vec![Job::new("s000", scalar.clone(), good)];

        let default_engine = VerificationEngine::new(EngineConfig::full(quick_pipeline()));
        let default_run = default_engine.run_batch(&jobs);

        let schedule = StageSchedule::algorithm1()
            .with_override(
                KernelCategory::DependenceFree,
                vec![Stage::Splitting, Stage::CUnroll, Stage::Alive2],
            )
            .unwrap();
        let scheduled_engine =
            VerificationEngine::new(EngineConfig::full(quick_pipeline()).with_schedule(schedule));
        let scheduled_run = scheduled_engine.run_batch(&jobs);

        let (d, s) = (&default_run.jobs[0], &scheduled_run.jobs[0]);
        assert_eq!(d.verdict, s.verdict, "verdicts are schedule-invariant");
        assert_eq!(d.verdict, Equivalence::Equivalent);
        // The scheduled run really executed a different order: checksum
        // first (pinned), then Splitting before the default's Alive2.
        assert_eq!(s.traces[0].stage, Stage::Checksum);
        assert_eq!(s.traces[1].stage, Stage::Splitting);
        assert_eq!(d.traces[1].stage, Stage::Alive2);
    }

    /// A candidate that is semantically equal to [`S000`] but structurally
    /// different (commuted addition), so the equivalence proof actually
    /// reaches the SAT core instead of simplifying to a constant.
    const S000_COMMUTED: &str =
        "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = 1 + b[i]; } }";
    const S001: &str =
        "void s001(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 3; } }";
    const S001_COMMUTED: &str =
        "void s001(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = 3 + b[i]; } }";

    #[test]
    fn reuse_engine_matches_baseline_verdicts_at_any_thread_count() {
        let s000 = parse_function(S000).unwrap();
        let s001 = parse_function(S001).unwrap();
        // Two scalar groups, interleaved in batch order so scalar-affinity
        // grouping actually reorders work: per scalar a trivial candidate,
        // a commuted one (real SAT work on the warm session), and a wrong
        // one (killed at checksum).
        let jobs = vec![
            Job::new("s000-good", s000.clone(), vectorize_correct(&s000).unwrap()),
            Job::new("s001-good", s001.clone(), vectorize_correct(&s001).unwrap()),
            Job::new(
                "s000-comm",
                s000.clone(),
                parse_function(S000_COMMUTED).unwrap(),
            ),
            Job::new(
                "s001-comm",
                s001.clone(),
                parse_function(S001_COMMUTED).unwrap(),
            ),
            Job::new(
                "s000-wrong",
                s000.clone(),
                parse_function(S000_WRONG).unwrap(),
            ),
        ];
        let baseline =
            VerificationEngine::new(EngineConfig::full(quick_pipeline()).with_threads(1))
                .run_batch(&jobs);
        let reuse1 = VerificationEngine::new(
            EngineConfig::full(quick_pipeline())
                .with_reuse(EngineReuse::full())
                .with_threads(1),
        )
        .run_batch(&jobs);
        let reuse4 = VerificationEngine::new(
            EngineConfig::full(quick_pipeline())
                .with_reuse(EngineReuse::full())
                .with_threads(4),
        )
        .run_batch(&jobs);
        for (b, r) in baseline.jobs.iter().zip(&reuse1.jobs) {
            assert_eq!(b.label, r.label);
            assert_eq!(b.verdict, r.verdict, "{}", r.label);
            assert_eq!(b.stage, r.stage, "{}", r.label);
            assert_eq!(b.checksum, r.checksum, "{}", r.label);
        }
        // Within the reuse engine, the grouped pool pins every group's
        // query sequence, so reports are fully identical across thread
        // counts — details and traces included.
        for (one, four) in reuse1.jobs.iter().zip(&reuse4.jobs) {
            assert_eq!(one.label, four.label);
            assert_eq!(one.verdict, four.verdict);
            assert_eq!(one.stage, four.stage);
            assert_eq!(one.detail, four.detail);
            assert_eq!(one.traces.len(), four.traces.len());
        }
        // The warm sessions were actually exercised.
        assert!(
            reuse1.reuse_totals().assumption_reuses > 0,
            "incremental sessions saw repeat queries: {:?}",
            reuse1.reuse_totals()
        );
        assert!(baseline.reuse_totals().is_zero());
    }

    /// Absolute fingerprints of configurations earlier builds also ran.
    /// They must never change, or verdict caches those builds wrote would
    /// silently miss.
    const BASE_FINGERPRINT: u64 = 0xd49e_18e2_d523_b326;
    const INCREMENTAL_FINGERPRINT: u64 = 0x6c57_bd70_2ba9_ee1c;
    const PREPROCESS_FINGERPRINT: u64 = 0xc308_669a_31c2_7b0a;

    #[test]
    fn reuse_fingerprint_tracks_only_the_incremental_layer() {
        let base = EngineConfig::full(quick_pipeline());
        let memo = EngineConfig::full(quick_pipeline()).with_reuse(EngineReuse {
            memo: true,
            ..EngineReuse::default()
        });
        let incremental = EngineConfig::full(quick_pipeline()).with_reuse(EngineReuse {
            incremental: true,
            ..EngineReuse::default()
        });
        // Memoization is clause-identical: it does not change the
        // verification problem, so it may not invalidate cached verdicts.
        assert_eq!(base.semantic_fingerprint(), BASE_FINGERPRINT);
        assert_eq!(memo.semantic_fingerprint(), BASE_FINGERPRINT);
        // Incremental solving reformulates the query, so it is a different
        // configuration.
        assert_eq!(incremental.semantic_fingerprint(), INCREMENTAL_FINGERPRINT);
    }

    #[test]
    fn simplify_engine_matches_baseline_verdicts() {
        let s000 = parse_function(S000).unwrap();
        let s001 = parse_function(S001).unwrap();
        // The same mixed workload the reuse identity test sweeps: trivial,
        // commuted (real SAT work), and wrong candidates over two scalars.
        let jobs = vec![
            Job::new("s000-good", s000.clone(), vectorize_correct(&s000).unwrap()),
            Job::new("s001-good", s001.clone(), vectorize_correct(&s001).unwrap()),
            Job::new(
                "s000-comm",
                s000.clone(),
                parse_function(S000_COMMUTED).unwrap(),
            ),
            Job::new(
                "s001-comm",
                s001.clone(),
                parse_function(S001_COMMUTED).unwrap(),
            ),
            Job::new(
                "s000-wrong",
                s000.clone(),
                parse_function(S000_WRONG).unwrap(),
            ),
        ];
        let baseline =
            VerificationEngine::new(EngineConfig::full(quick_pipeline())).run_batch(&jobs);
        // Preprocessing on top of the default (no-reuse) engine, and on top
        // of the full reuse stack — verdict classes and checksum classes must
        // be identical to the plain run in both compositions.
        let simplified = VerificationEngine::new(EngineConfig::full(quick_pipeline()).with_reuse(
            EngineReuse {
                preprocess: true,
                ..EngineReuse::default()
            },
        ))
        .run_batch(&jobs);
        let reuse_simplified = VerificationEngine::new(
            EngineConfig::full(quick_pipeline()).with_reuse(EngineReuse {
                preprocess: true,
                ..EngineReuse::full()
            }),
        )
        .run_batch(&jobs);
        for arm in [&simplified, &reuse_simplified] {
            for (b, s) in baseline.jobs.iter().zip(&arm.jobs) {
                assert_eq!(b.label, s.label);
                assert_eq!(b.verdict, s.verdict, "{}", s.label);
                assert_eq!(b.stage, s.stage, "{}", s.label);
                assert_eq!(b.checksum, s.checksum, "{}", s.label);
            }
        }
        // Preprocessing actually ran on the simplify arms and stayed
        // entirely off (counters exactly zero) on the baseline.
        assert!(
            !simplified.simplify_totals().is_zero(),
            "simplify must have done work: {:?}",
            simplified.simplify_totals()
        );
        assert!(!reuse_simplified.simplify_totals().is_zero());
        assert!(baseline.simplify_totals().is_zero());
        assert!(simplified.simplify_totals().preprocess_micros > 0);
    }

    #[test]
    fn simplify_fingerprint_tracks_only_enabled_layers() {
        let preprocess = EngineConfig::full(quick_pipeline()).with_reuse(EngineReuse {
            preprocess: true,
            ..EngineReuse::default()
        });
        let stacked = EngineConfig::full(quick_pipeline()).with_reuse(EngineReuse {
            preprocess: true,
            ..EngineReuse::full()
        });
        // Preprocessing is its own configuration, alone and on top of the
        // reuse stack.
        assert_eq!(preprocess.semantic_fingerprint(), PREPROCESS_FINGERPRINT);
        assert_eq!(stacked.semantic_fingerprint(), 0x21c8_9e02_8925_35f4);
    }
}
