//! The parallel batch verification engine, split into three layers:
//!
//! * [`stage`] — one cascade stage as a [`VerificationStrategy`] trait
//!   object ([`ChecksumStage`] wrapping the checksum filter, one
//!   [`SymbolicStage`] per [`lv_tv::SymbolicStrategy`]). A stage checks one
//!   `(scalar, candidate)` pair and knows nothing about ordering or
//!   parallelism;
//! * [`reference`](mod@reference) — the [`ReferenceTable`] of scalar
//!   checksum references ([`lv_interp::ScalarReference`]): the scalar's
//!   seeded inputs and outputs, computed once per scalar and checksum
//!   configuration and shared by every candidate of that scalar in one run;
//! * [`pool`] — the scoped worker pool ([`parallel_map`] and the core of
//!   every engine run) and the streaming [`job_channel`]: workers pull jobs
//!   from a shared cursor or channel, each owning one reusable SMT session
//!   ([`lv_tv::TvSession`]) for its whole lifetime, and results are
//!   returned in job order regardless of scheduling.
//!
//! Every job runs Algorithm 1's cascade ([`EngineConfig::full`]) or its
//! checksum stage alone ([`EngineConfig::checksum_only`]) under the fixed
//! per-stage budgets of [`EngineConfig::pipeline`].
//!
//! Both the checksum harness and the symbolic stages bind a candidate's
//! parameters to the scalar's by position, as a C call does; a candidate
//! whose parameter list differs from the scalar's in length or type is
//! `CannotCompile` at the checksum stage.
//!
//! Every job is deterministic given its inputs and each worker session is
//! reset to a just-constructed state between queries, so a batch produces
//! bit-identical verdicts regardless of the thread count — `threads = N` is
//! purely a wall-clock optimization over `threads = 1`, which in turn equals
//! the one-shot [`crate::check_equivalence`].
//!
//! On top of the worker pool the engine is *observable* and *cached*:
//!
//! * [`VerificationEngine::run_batch_observed`] streams job/stage/verdict
//!   events to a [`BatchObserver`] as workers make progress;
//! * a configured [`VerdictCache`] is consulted per job *before any stage
//!   runs*, keyed by `(scalar, candidate, config)` content hashes; hits run
//!   zero stages and are counted in [`BatchReport::cache_hits`];
//! * with a cache, each run verifies every distinct key once (single-flight
//!   dispatch): a job that misses the cache while another worker of the
//!   same run verifies its key becomes an *in-flight follower*, the worker
//!   moves on to its next job, and the key's owner answers the follower
//!   with a cache-hit report when its verdict lands. Hit, miss and stage
//!   counts therefore do not depend on the worker count. The in-flight
//!   table belongs to one run, so concurrent runs on one engine each verify
//!   their own copy of a job they share.
//!
//! Each run also makes one [`ReferenceTable`], shared by its workers and
//! dropped when the run returns, so the checksum stage runs each scalar
//! kernel's reference once per run (at most
//! [`REFERENCE_TABLE_CAPACITY`] scalars are held at a time) and only the
//! candidate per job. A reference test reports exactly what the one-shot
//! [`lv_interp::checksum_test`] reports.
//!
//! Orthogonal to all of the above, [`EngineReuse`] switches on the blast
//! memo (off by default): each worker's solver memoizes the blasted CNF of
//! structurally repeated queries and replays the recorded clause stream
//! instead of re-blasting. Replays are clause-identical by construction, so
//! reports and the fingerprint stay bit-identical to the fresh path. Every
//! query then takes one path: blast once and search once.
//!
//! Per-job memo activity lands in [`JobReport::reuse`] ([`ReuseCounters`]),
//! aggregates via [`BatchReport::reuse_totals`], and feeds the funnel report.

pub mod pool;
pub mod reference;
pub mod stage;

pub use pool::{job_channel, parallel_map, JobProducer, JobSource};
pub use reference::{ReferenceTable, REFERENCE_TABLE_CAPACITY};
pub use stage::{ChecksumStage, StrategyOutcome, SymbolicStage, VerificationStrategy, WorkerState};

use crate::cache::{CacheKey, CachedVerdict, VerdictCache};
use crate::funnel::FunnelReport;
use crate::observer::{BatchObserver, NoopObserver};
use crate::pipeline::{Equivalence, PipelineConfig, Stage};
use lv_cir::ast::Function;
use lv_cir::hash::{structural_hash, Fnv64};
use lv_interp::ChecksumClass;
use lv_tv::{SymbolicStrategy, TvReuse, TvSessionStats};
use std::borrow::Cow;
use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which cross-job SMT reuse the engine runs with. Off by default — the
/// engine then behaves (and fingerprints) exactly as before the reuse
/// subsystem existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineReuse {
    /// Blasted-CNF memoization inside each worker's solver: structurally
    /// repeated queries replay their recorded clause stream instead of
    /// re-blasting. Clause-identical by construction, so verdicts (and the
    /// configuration fingerprint) are unchanged.
    pub memo: bool,
}

impl EngineReuse {
    /// The per-worker [`lv_tv::TvSession`] settings.
    pub fn tv(self) -> TvReuse {
        TvReuse { memo: self.memo }
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
}

impl ReuseCounters {
    /// Adds `other` into this counter set.
    pub fn absorb(&mut self, other: ReuseCounters) {
        self.blast_hits += other.blast_hits;
        self.blast_misses += other.blast_misses;
    }

    /// `true` when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == ReuseCounters::default()
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads; `0` means one per available CPU.
    pub threads: usize,
    /// The stages to run, in order: Algorithm 1's full cascade, or the
    /// checksum stage alone.
    cascade: Vec<Stage>,
    /// Stage configurations (checksum harness + symbolic budgets).
    pub pipeline: PipelineConfig,
    /// Verdict cache consulted per job before any stage runs. `None`
    /// disables caching.
    pub cache: Option<Arc<VerdictCache>>,
    /// Opt-in cross-job SMT reuse (the blast memo). Off by default.
    pub reuse: EngineReuse,
}

impl EngineConfig {
    /// The full Algorithm 1 cascade with the given stage configurations.
    pub fn full(pipeline: PipelineConfig) -> EngineConfig {
        EngineConfig {
            threads: 0,
            cascade: vec![
                Stage::Checksum,
                Stage::Alive2,
                Stage::CUnroll,
                Stage::Splitting,
            ],
            pipeline,
            cache: None,
            reuse: EngineReuse::default(),
        }
    }

    /// A checksum-only cascade (the Table 2 / Figure 5 experiments).
    pub fn checksum_only(checksum: lv_interp::ChecksumConfig) -> EngineConfig {
        EngineConfig {
            cascade: vec![Stage::Checksum],
            ..EngineConfig::full(PipelineConfig {
                checksum,
                ..PipelineConfig::default()
            })
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

    /// Returns this configuration with the given reuse enabled.
    pub fn with_reuse(mut self, reuse: EngineReuse) -> EngineConfig {
        self.reuse = reuse;
        self
    }

    /// A stable fingerprint of everything that can influence a verdict: the
    /// cascade stage list (order matters — it decides which stage answers
    /// first), the checksum harness configuration, the symbolic budgets,
    /// the SAT search revision ([`lv_tv::SEARCH_REVISION`]), the
    /// argument-binding revision ([`BINDING_REVISION`]), the
    /// counterexample revision ([`COUNTEREXAMPLE_REVISION`]) and the
    /// undefined-behaviour revision ([`UB_REVISION`]).
    ///
    /// This is the `config` component of every [`CacheKey`]. Thread count
    /// and the cache itself are deliberately excluded: neither changes the
    /// verdict a given budget configuration produces.
    pub fn semantic_fingerprint(&self) -> u64 {
        let mut fnv = Fnv64::new();
        fnv.write_u64(self.cascade.len() as u64);
        for stage in &self.cascade {
            fnv.write_u8(stage_fingerprint_byte(*stage));
        }
        fnv.write_u64(self.pipeline.checksum.fingerprint());
        fnv.write_u64(self.pipeline.tv.fingerprint());
        // A symbolic verdict is whatever the SAT search reaches within its
        // budget, so it is keyed by the search revision that reached it.
        fnv.write_u8(lv_tv::SEARCH_REVISION);
        // Verdicts reached under name binding are never served.
        fnv.write_u8(BINDING_REVISION);
        // Details rendered from solver models are never served.
        fnv.write_u8(COUNTEREXAMPLE_REVISION);
        // Nor verdicts reached without the symbolic overflow and shift UB.
        fnv.write_u8(UB_REVISION);
        // Memo replays are clause-identical, so the memo leaves the
        // fingerprint alone.
        fnv.finish()
    }
}

/// How the stages bind a candidate's parameters to the scalar's, folded
/// into [`EngineConfig::semantic_fingerprint`]. Revision 1 binds by
/// parameter position; verdicts cached before it bound by name.
pub const BINDING_REVISION: u8 = 1;

/// How symbolic counterexamples are found and rendered, folded into
/// [`EngineConfig::semantic_fingerprint`]. Revision 1 refutes by
/// evaluation before SAT and renders every detail from a concrete replay
/// (`lv_tv::replay_counterexample`); verdicts cached before it carry
/// details rendered from solver variable names.
pub const COUNTEREXAMPLE_REVISION: u8 = 1;

/// Which undefined behaviour the symbolic executor records, folded into
/// [`EngineConfig::semantic_fingerprint`]. Revision 1 records what
/// `lv_interp` stops on: `INT_MIN / -1` and `INT_MIN % -1` next to a zero
/// divisor, and scalar shift counts outside 0–31. Verdicts cached before it
/// gave those operations a value, so a candidate defined where the scalar
/// overflows ended "model divergence" instead of `Equivalent`.
pub const UB_REVISION: u8 = 1;

/// Stable one-byte stage codes for [`EngineConfig::semantic_fingerprint`].
fn stage_fingerprint_byte(stage: Stage) -> u8 {
    match stage {
        Stage::Checksum => 1,
        Stage::Alive2 => 2,
        Stage::CUnroll => 3,
        Stage::Splitting => 4,
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
    /// Total wall time for the job (for an in-flight follower, from its
    /// claim until the running copy's verdict landed).
    pub wall: Duration,
    /// `true` when no stage ran: the verdict came from the [`VerdictCache`]
    /// or from the copy of this job another worker was verifying.
    pub cache_hit: bool,
    /// Cross-job SMT reuse activity attributed to this job (deltas of the
    /// worker session's counters around the job). All zero when reuse is
    /// off or the job was a cache hit.
    pub reuse: ReuseCounters,
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
    /// Jobs answered without running any stage: from the verdict cache, or
    /// as in-flight followers of a copy another worker of the same run was
    /// verifying. Independent of the worker count.
    pub cache_hits: usize,
    /// Jobs that ran their cascade and stored the verdict: one per distinct
    /// cache key the run found missing, at any worker count (always `0`
    /// when the engine has no cache).
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

    /// The telemetry funnel over this batch's stage traces.
    pub fn funnel(&self) -> FunnelReport {
        FunnelReport::from_jobs(&self.jobs)
    }
}

/// The parallel batch verification engine.
pub struct VerificationEngine {
    threads: usize,
    /// One strategy instance per cascade stage, in cascade order.
    strategies: Vec<Box<dyn VerificationStrategy>>,
    cache: Option<Arc<VerdictCache>>,
    /// [`EngineConfig::semantic_fingerprint`] of the source configuration,
    /// precomputed once — it is part of every cache key.
    config_fingerprint: u64,
    /// Cross-job SMT reuse configuration of every worker session.
    reuse: EngineReuse,
}

impl VerificationEngine {
    /// Builds an engine from a configuration, instantiating one strategy per
    /// cascade stage.
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
        VerificationEngine {
            threads: config.threads,
            strategies,
            cache: config.cache.clone(),
            config_fingerprint: config.semantic_fingerprint(),
            reuse: config.reuse,
        }
    }

    /// An engine with a caller-assembled cascade. Such an engine has no
    /// configuration fingerprint, so it never caches.
    pub fn with_strategies(
        threads: usize,
        strategies: Vec<Box<dyn VerificationStrategy>>,
    ) -> VerificationEngine {
        VerificationEngine {
            threads,
            strategies,
            cache: None,
            config_fingerprint: 0,
            reuse: EngineReuse::default(),
        }
    }

    /// The worker count a batch of `jobs` jobs would use.
    fn resolved_threads(&self, jobs: usize) -> usize {
        pool::resolve_threads(self.threads, jobs)
    }

    /// Runs the cascade on a single pair, reusing nothing (the
    /// [`crate::check_equivalence`] path). Consults the verdict cache like
    /// any batched job.
    pub fn check_one(&self, scalar: &Function, candidate: &Function) -> JobReport {
        let mut worker = WorkerState::default();
        let mut out = Vec::with_capacity(1);
        self.run_job(
            0,
            &Job::new(scalar.name.clone(), scalar.clone(), candidate.clone()),
            &mut worker,
            &NoopObserver,
            None,
            &mut out,
        );
        out.pop().expect("a job without followers has one report").1
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
    ///
    /// With a cache attached, the batch verifies each distinct job once:
    /// a job whose cache key another worker of this call is verifying
    /// becomes an in-flight follower and takes that copy's verdict as a
    /// cache hit (see [`BatchReport::cache_hits`]), so hit, miss and stage
    /// counts do not depend on the worker count either.
    pub fn run_batch_observed(&self, jobs: &[Job], observer: &dyn BatchObserver) -> BatchReport {
        let threads = self.resolved_threads(jobs.len());
        self.run(Intake::Batch(jobs, AtomicUsize::new(0)), threads, observer)
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
    /// before generation finishes. Each job runs through the same worker
    /// loop as [`run_batch_observed`](Self::run_batch_observed), in-flight
    /// followers included, and the returned [`BatchReport`] is assembled in
    /// ascending job-index order, so verdicts and hit, miss and stage
    /// counts equal `run_batch` over the same jobs in index order, at any
    /// worker count and any arrival order (pinned at worker counts 1/2/8 by
    /// the pipeline property tests). Indices need not be dense — the
    /// service streams sparse post-dedupe slots — but must be unique.
    ///
    /// The in-flight table belongs to this call alone: concurrent calls on
    /// one engine (the daemon's connections) each verify their own copy of
    /// a job they share, and every report reaches its own call's observer.
    pub fn run_stream_observed(
        &self,
        source: &JobSource<Job>,
        observer: &dyn BatchObserver,
    ) -> BatchReport {
        let threads = pool::resolve_threads(self.threads, usize::MAX);
        self.run(Intake::Stream(source), threads, observer)
    }

    /// The worker loop behind every batch and stream run: `threads`
    /// workers claim jobs from `intake` until it is exhausted, sharing one
    /// reference table and, when a cache is attached, one in-flight table,
    /// and the reports are reassembled in job-index order.
    fn run(&self, intake: Intake<'_>, threads: usize, observer: &dyn BatchObserver) -> BatchReport {
        let start = Instant::now();
        let in_flight = self.cache.as_ref().map(|_| InFlight::default());
        let references = Arc::new(ReferenceTable::new());
        let mut pairs = pool::run_workers(threads, || {
            let mut worker = WorkerState::sharing(self.reuse.tv(), Arc::clone(&references));
            let mut out = Vec::new();
            while let Some((index, job)) = intake.claim() {
                self.run_job(
                    index,
                    &job,
                    &mut worker,
                    observer,
                    in_flight.as_ref(),
                    &mut out,
                );
            }
            out
        });
        pairs.sort_unstable_by_key(|(index, _)| *index);
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

    /// The cache key of one job under this engine's configuration, or `None`
    /// when the engine has no cache.
    fn cache_key(&self, job: &Job) -> Option<CacheKey> {
        self.cache.as_ref()?;
        Some(job_cache_key(job, self.config_fingerprint))
    }

    /// Runs one claimed job and pushes its report — and those of any
    /// in-flight followers it answers — onto `out`.
    ///
    /// The verdict cache is consulted first: a hit returns before any stage
    /// (checksum included) runs. On a miss with an `in_flight` table, a job
    /// whose key another worker is verifying becomes that worker's follower
    /// and returns at once; otherwise this job owns the key, runs the
    /// cascade, stores the verdict, and then answers every follower with a
    /// cache-hit report.
    fn run_job(
        &self,
        index: usize,
        job: &Job,
        worker: &mut WorkerState,
        observer: &dyn BatchObserver,
        in_flight: Option<&InFlight>,
        out: &mut Vec<(usize, JobReport)>,
    ) {
        let job_start = Instant::now();
        observer.job_started(index, job);

        let key = self.cache_key(job);
        if let (Some(cache), Some(key)) = (&self.cache, key) {
            let mut hit = cache.get(&key);
            if let (None, Some(table)) = (&hit, in_flight) {
                let follower = || Follower {
                    index,
                    label: job.label.clone(),
                    started: job_start,
                };
                match table.claim(key, cache, follower) {
                    Claim::Own => {}
                    Claim::Follow => return,
                    Claim::Hit(verdict) => hit = Some(verdict),
                }
            }
            if let Some(hit) = hit {
                let report = hit_report(job.label.clone(), hit, job_start);
                observer.job_finished(index, &report);
                out.push((index, report));
                return;
            }
        }

        let report = self.run_cascade(index, job, worker, observer, job_start);
        let mut answered = Vec::new();
        if let (Some(cache), Some(key)) = (&self.cache, key) {
            let verdict = CachedVerdict {
                verdict: report.verdict,
                stage: report.stage,
                detail: report.detail.clone(),
                checksum: report.checksum,
            };
            cache.insert(key, verdict.clone());
            // Released only after the insert, so a job claimed from here on
            // finds the verdict in the cache.
            if let Some(table) = in_flight {
                answered = table
                    .release(&key)
                    .into_iter()
                    .map(|f| (f.index, hit_report(f.label, verdict.clone(), f.started)))
                    .collect();
            }
        }
        observer.job_finished(index, &report);
        out.push((index, report));
        for (index, report) in answered {
            observer.job_finished(index, &report);
            out.push((index, report));
        }
    }

    /// Runs the cascade stages on one job, collecting per-stage telemetry.
    fn run_cascade(
        &self,
        index: usize,
        job: &Job,
        worker: &mut WorkerState,
        observer: &dyn BatchObserver,
        job_start: Instant,
    ) -> JobReport {
        worker.checksum = None;
        let reuse_before = worker.session.reuse_stats();
        let mut traces = Vec::with_capacity(self.strategies.len());
        // If no stage concludes, report the last stage that ran (Alive2 with
        // an empty reason for an empty cascade, mirroring the sequential
        // pipeline's initializer).
        let mut last_stage = Stage::Alive2;
        let mut last_reason = String::new();
        let mut conclusion: Option<(Equivalence, Stage, String)> = None;

        for strategy in &self.strategies {
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
        };
        JobReport {
            label: job.label.clone(),
            verdict,
            stage,
            detail,
            checksum: worker.checksum,
            traces,
            wall: job_start.elapsed(),
            cache_hit: false,
            reuse,
        }
    }
}

/// The report of a job answered without running a stage: from the cache,
/// or from the copy of it that another worker of the same run verified.
fn hit_report(label: String, hit: CachedVerdict, started: Instant) -> JobReport {
    JobReport {
        label,
        verdict: hit.verdict,
        stage: hit.stage,
        detail: hit.detail,
        checksum: hit.checksum,
        traces: Vec::new(),
        wall: started.elapsed(),
        cache_hit: true,
        reuse: ReuseCounters::default(),
    }
}

/// Where one run's workers claim their jobs.
enum Intake<'a> {
    /// A batch, claimed in index order through an atomic cursor.
    Batch(&'a [Job], AtomicUsize),
    /// A streaming source, claimed in arrival order.
    Stream(&'a JobSource<Job>),
}

impl<'a> Intake<'a> {
    /// The next unclaimed `(index, job)` pair, or `None` once exhausted.
    fn claim(&self) -> Option<(usize, Cow<'a, Job>)> {
        match self {
            Intake::Batch(jobs, cursor) => {
                let index = cursor.fetch_add(1, Ordering::Relaxed);
                jobs.get(index).map(|job| (index, Cow::Borrowed(job)))
            }
            Intake::Stream(source) => source.next().map(|(index, job)| (index, Cow::Owned(job))),
        }
    }
}

/// A job claimed while another worker of its run was verifying a job with
/// the same cache key. Its report is built when that verdict lands.
struct Follower {
    index: usize,
    label: String,
    /// When the follower was claimed; its report's `wall` runs from here.
    started: Instant,
}

/// What a worker does with a job that missed the cache (see
/// [`InFlight::claim`]).
enum Claim {
    /// Run the cascade: no other worker holds the key.
    Own,
    /// Move on: the job waits on the key's owner.
    Follow,
    /// The key's owner stored this verdict since the caller's lookup.
    Hit(CachedVerdict),
}

/// One run's in-flight table: each cache key a worker is verifying, with
/// the jobs that claimed a copy of it meanwhile. Local to one
/// [`VerificationEngine::run`] call, so a follower's report reaches its own
/// call's collector and observer.
///
/// An owner stores its verdict in the cache before it
/// [releases](Self::release) the key, and [`claim`](Self::claim) re-reads
/// the cache under the table lock, so a job claimed at any moment finds
/// the key in flight or its verdict cached, and never starts a second run.
#[derive(Default)]
struct InFlight(Mutex<HashMap<CacheKey, Vec<Follower>>>);

impl InFlight {
    /// Claims `key` for a job that just missed `cache`: registers the job
    /// (built by `follower`) behind a running owner, or makes it the owner.
    fn claim(
        &self,
        key: CacheKey,
        cache: &VerdictCache,
        follower: impl FnOnce() -> Follower,
    ) -> Claim {
        let mut table = self.0.lock().expect("in-flight table poisoned");
        match table.entry(key) {
            Entry::Occupied(mut waiting) => {
                waiting.get_mut().push(follower());
                Claim::Follow
            }
            Entry::Vacant(slot) => match cache.get(&key) {
                Some(verdict) => Claim::Hit(verdict),
                None => {
                    slot.insert(Vec::new());
                    Claim::Own
                }
            },
        }
    }

    /// Ends the owner's claim on `key`, whose verdict is now cached, and
    /// returns the jobs that followed it.
    fn release(&self, key: &CacheKey) -> Vec<Follower> {
        let mut table = self.0.lock().expect("in-flight table poisoned");
        table.remove(key).unwrap_or_default()
    }
}

/// The verdict-cache key of `job` under a configuration fingerprint — the
/// single definition shared by the engine's per-job lookup and the
/// daemon's dedupe of submitted jobs, so a verdict one of them stores is
/// the verdict the other finds.
///
/// Both functions are hashed alone, by their own parameter positions
/// ([`structural_hash`]): every stage binds the candidate's parameters to
/// the scalar's by position, so renaming either function's parameters
/// leaves the verification problem, and the key, unchanged, while
/// reordering them changes both. `(n, a, b) { a = b + 1 }` and
/// `(n, b, a) { a = b + 1 }` are different candidates and get different
/// keys.
pub(crate) fn job_cache_key(job: &Job, config_fingerprint: u64) -> CacheKey {
    CacheKey {
        scalar: structural_hash(&job.scalar),
        candidate: structural_hash(&job.candidate),
        config: config_fingerprint,
    }
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
    fn parameters_bind_by_position_in_every_stage() {
        let scalar = parse_function(S000).unwrap();
        let engine = VerificationEngine::new(EngineConfig::full(quick_pipeline()));
        let verdict = |src: &str| {
            let report = engine.check_one(&scalar, &parse_function(src).unwrap());
            (report.verdict, report.stage, report.checksum)
        };
        // Renamed but correct: the same computation on the same positions.
        assert_eq!(
            verdict("void s000(int n, int *x, int *y) { for (int i = 0; i < n; i++) { x[i] = y[i] + 1; } }"),
            (Equivalence::Equivalent, Stage::Alive2, Some(ChecksumClass::Plausible))
        );
        // Renamed and wrong: the renaming no longer hides the wrong constant.
        assert_eq!(
            verdict("void s000(int n, int *x, int *y) { for (int i = 0; i < n; i++) { x[i] = y[i] + 2; } }"),
            (Equivalence::NotEquivalent, Stage::Checksum, Some(ChecksumClass::NotEquivalent))
        );
        // The scalar's body under reordered parameters writes the caller's
        // second array.
        assert_eq!(
            verdict("void s000(int n, int *b, int *a) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }"),
            (Equivalence::NotEquivalent, Stage::Checksum, Some(ChecksumClass::NotEquivalent))
        );
        // A candidate that cannot be called with the scalar's arguments.
        assert_eq!(
            verdict(
                "void s000(int n, int *a) { for (int i = 0; i < n; i++) { a[i] = a[i] + 1; } }"
            ),
            (
                Equivalence::NotEquivalent,
                Stage::Checksum,
                Some(ChecksumClass::CannotCompile)
            )
        );
    }

    #[test]
    fn a_stream_past_the_reference_bound_reports_what_one_shot_checks_report() {
        // More distinct scalars than one run's reference table holds, each
        // tested against itself and then, in a second pass that brings the
        // evicted ones back, against one fixed candidate.
        let scalars: Vec<Function> = (0..REFERENCE_TABLE_CAPACITY as i32 + 6)
            .map(|k| {
                parse_function(&format!(
                    "void s{k}(int n, int *a, int *b) {{ for (int i = 0; i < n; i++) {{ a[i] = b[i] + {k}; }} }}"
                ))
                .unwrap()
            })
            .collect();
        let wrong = parse_function(S000_WRONG).unwrap();
        let jobs: Vec<Job> = (0..2)
            .flat_map(|round| scalars.iter().map(move |s| (round, s)))
            .map(|(round, s)| {
                let candidate = if round == 0 { s.clone() } else { wrong.clone() };
                Job::new(format!("{}#{round}", s.name), s.clone(), candidate)
            })
            .collect();
        let engine = VerificationEngine::new(
            EngineConfig::checksum_only(quick_pipeline().checksum).with_threads(2),
        );
        let (producer, source) = job_channel(8);
        let streamed = std::thread::scope(|scope| {
            scope.spawn(|| {
                for (index, job) in jobs.iter().enumerate() {
                    producer.push(index, job.clone());
                }
                drop(producer);
            });
            engine.run_stream(&source)
        });
        assert_eq!(streamed.jobs.len(), jobs.len());
        for (job, report) in jobs.iter().zip(&streamed.jobs) {
            let one_shot = engine.check_one(&job.scalar, &job.candidate);
            assert_eq!(
                (report.verdict, report.checksum, &report.detail),
                (one_shot.verdict, one_shot.checksum, &one_shot.detail),
                "{}",
                job.label
            );
        }
    }

    #[test]
    fn reordered_parameters_get_their_own_cache_key() {
        let scalar = parse_function(S000).unwrap();
        let key = |src: &str| {
            job_cache_key(
                &Job::new("k", scalar.clone(), parse_function(src).unwrap()),
                0,
            )
        };
        let plain = key("void s000(int n, int *a, int *b) { a[0] = b[0] + 1; }");
        // Renaming every parameter is the same candidate.
        assert_eq!(
            plain,
            key("void s000(int m, int *x, int *y) { x[0] = y[0] + 1; }")
        );
        // Reordering them is not.
        assert_ne!(
            plain,
            key("void s000(int n, int *b, int *a) { a[0] = b[0] + 1; }")
        );
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
        /// Counts each event; `finished` per job index.
        #[derive(Default)]
        struct Counter {
            started: AtomicUsize,
            stages: AtomicUsize,
            finished: Mutex<Vec<usize>>,
            cache_hits: AtomicUsize,
        }
        impl BatchObserver for Counter {
            fn job_started(&self, _index: usize, _job: &Job) {
                self.started.fetch_add(1, Ordering::Relaxed);
            }
            fn stage_finished(&self, _index: usize, _job: &Job, _trace: &StageTrace) {
                self.stages.fetch_add(1, Ordering::Relaxed);
            }
            fn job_finished(&self, index: usize, report: &JobReport) {
                self.finished.lock().unwrap().push(index);
                if report.cache_hit {
                    self.cache_hits.fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        let scalar = parse_function(S000).unwrap();
        let good = vectorize_correct(&scalar).unwrap();
        let wrong = parse_function(S000_WRONG).unwrap();
        let jobs = vec![
            Job::new("good", scalar.clone(), good),
            Job::new("wrong", scalar.clone(), wrong),
        ];
        let engine = VerificationEngine::new(EngineConfig::full(quick_pipeline()).with_threads(2));
        let counter = Counter::default();
        let batch = engine.run_batch_observed(&jobs, &counter);
        let mut finished = counter.finished.into_inner().unwrap();
        finished.sort_unstable();
        assert_eq!(finished, [0, 1], "each job finishes once");
        assert_eq!(counter.started.load(Ordering::Relaxed), 2);
        assert_eq!(
            counter.stages.load(Ordering::Relaxed),
            batch.stage_runs(),
            "one callback per executed stage"
        );
        assert_eq!(counter.cache_hits.load(Ordering::Relaxed), 0);
    }

    /// A candidate that is semantically equal to [`S000`] but adds 1 by
    /// subtracting -1, which no term rewrite folds, so the equivalence proof
    /// actually reaches the SAT core instead of simplifying to a constant.
    const S000_SUBTRACTS: &str =
        "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] - -1; } }";
    const S001: &str =
        "void s001(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 3; } }";
    const S001_SUBTRACTS: &str =
        "void s001(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] - -3; } }";

    #[test]
    fn reuse_engine_matches_baseline_verdicts_at_any_thread_count() {
        let s000 = parse_function(S000).unwrap();
        let s001 = parse_function(S001).unwrap();
        // Two scalars, per scalar a trivial candidate, a subtracting one
        // (real SAT work), and a wrong one (killed at checksum). The
        // subtracting s000 candidate repeats, so a worker that runs both
        // replays the second's blast from its memo.
        let subtracts = parse_function(S000_SUBTRACTS).unwrap();
        let jobs = vec![
            Job::new("s000-good", s000.clone(), vectorize_correct(&s000).unwrap()),
            Job::new("s001-good", s001.clone(), vectorize_correct(&s001).unwrap()),
            Job::new("s000-sub", s000.clone(), subtracts.clone()),
            Job::new(
                "s001-sub",
                s001.clone(),
                parse_function(S001_SUBTRACTS).unwrap(),
            ),
            Job::new(
                "s000-wrong",
                s000.clone(),
                parse_function(S000_WRONG).unwrap(),
            ),
            Job::new("s000-sub-again", s000.clone(), subtracts),
        ];
        let memo = EngineReuse { memo: true };
        let run = |reuse: EngineReuse, threads: usize| {
            VerificationEngine::new(
                EngineConfig::full(quick_pipeline())
                    .with_reuse(reuse)
                    .with_threads(threads),
            )
            .run_batch(&jobs)
        };
        let baseline = run(EngineReuse::default(), 1);
        let memo1 = run(memo, 1);
        for threads in [1, 4] {
            let arm = if threads == 1 {
                memo1.clone()
            } else {
                run(memo, threads)
            };
            for (b, r) in baseline.jobs.iter().zip(&arm.jobs) {
                assert_eq!(b.label, r.label);
                assert_eq!(b.verdict, r.verdict, "{} @ {threads}", r.label);
                assert_eq!(b.stage, r.stage, "{} @ {threads}", r.label);
                assert_eq!(b.detail, r.detail, "{} @ {threads}", r.label);
                assert_eq!(b.checksum, r.checksum, "{} @ {threads}", r.label);
            }
        }
        // The memo was actually exercised, and stays silent when off.
        assert!(
            memo1.reuse_totals().blast_hits > 0,
            "the repeated query replays from the memo: {:?}",
            memo1.reuse_totals()
        );
        assert!(baseline.reuse_totals().is_zero());
    }

    /// The absolute fingerprint of the default configuration, which earlier
    /// builds also ran. It moves only when [`lv_tv::SEARCH_REVISION`],
    /// [`BINDING_REVISION`], [`COUNTEREXAMPLE_REVISION`] or [`UB_REVISION`]
    /// does: any other change to it would make verdict caches written by
    /// builds of the same revisions silently miss.
    const BASE_FINGERPRINT: u64 = 0xddaa_aab3_2420_0499;

    /// [`BASE_FINGERPRINT`] as builds whose symbolic executor gave
    /// `INT_MIN / -1` and out-of-range shifts a value wrote it, before the
    /// undefined-behaviour revision was folded in.
    const VALUED_UB_FINGERPRINT: u64 = 0x6c28_4201_0015_4282;

    /// [`VALUED_UB_FINGERPRINT`] as builds that rendered counterexamples from
    /// solver models wrote it, before the counterexample revision was
    /// folded in.
    const MODEL_DETAIL_FINGERPRINT: u64 = 0xc1f5_229a_30d8_9e77;

    /// [`MODEL_DETAIL_FINGERPRINT`] as builds that bound parameters by name
    /// wrote it, before the binding revision was folded in.
    const NAME_BINDING_FINGERPRINT: u64 = 0x6c57_6d70_2ba9_662c;

    #[test]
    fn memo_shares_the_base_fingerprint() {
        let base = EngineConfig::full(quick_pipeline());
        let memo = EngineConfig::full(quick_pipeline()).with_reuse(EngineReuse { memo: true });
        // Memoization is clause-identical: it does not change the
        // verification problem, so it may not invalidate cached verdicts.
        assert_eq!(base.semantic_fingerprint(), BASE_FINGERPRINT);
        assert_eq!(memo.semantic_fingerprint(), BASE_FINGERPRINT);
        // The binding, counterexample and undefined-behaviour revisions are
        // the only bytes added since name binding: one more FNV-1a step each.
        let step = |hash: u64, byte: u8| (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        assert_eq!(
            MODEL_DETAIL_FINGERPRINT,
            step(NAME_BINDING_FINGERPRINT, BINDING_REVISION)
        );
        assert_eq!(
            VALUED_UB_FINGERPRINT,
            step(MODEL_DETAIL_FINGERPRINT, COUNTEREXAMPLE_REVISION)
        );
        assert_eq!(BASE_FINGERPRINT, step(VALUED_UB_FINGERPRINT, UB_REVISION));
    }
}
