//! # lv-core — the observable, cached batch verification engine
//!
//! This crate ties the substrates together into the system the paper
//! describes, built around a batch engine rather than a hard-coded loop:
//!
//! * [`engine`] — the [`VerificationEngine`], split into two layers:
//!   [`engine::stage`] (Algorithm 1's checksum testing, Alive2-style
//!   unrolling, C-level unrolling, and spatial splitting as
//!   [`VerificationStrategy`] trait objects) and [`engine::pool`] (the
//!   atomic work-queue worker pool fanning `(kernel × candidate)` [`Job`]s
//!   out). Every job runs Algorithm 1's cascade ([`EngineConfig::full`])
//!   or its checksum stage alone ([`EngineConfig::checksum_only`]) under
//!   fixed per-stage budgets. Each worker owns one reusable SMT session,
//!   and every job records structured telemetry ([`StageTrace`]: stage
//!   reached, SAT conflicts, CNF clauses, wall time). Verdicts are
//!   bit-identical for any thread count — parallelism is purely a
//!   wall-clock win. [`EngineReuse`] layers blasted-CNF memoization on
//!   top; its replays are clause-identical, so reports and the cache
//!   fingerprint are unchanged, and per-job activity is counted in
//!   [`ReuseCounters`];
//! * [`observer`] — the [`BatchObserver`] trait: job-started /
//!   stage-finished / job-finished callbacks fired from the worker pool as
//!   a batch progresses, so sweeps render incrementally
//!   ([`StreamObserver`]) instead of waiting on the full [`BatchReport`].
//!   Observers only stream: every count and class of a run is read from the
//!   [`BatchReport`] the engine returns;
//! * [`cache`] — the content-addressed [`VerdictCache`]: an in-memory +
//!   JSON-file verdict store keyed by
//!   `(scalar hash, candidate hash, config hash)` using
//!   [`lv_cir::structural_hash`] (alpha-renaming-insensitive) and
//!   [`EngineConfig::semantic_fingerprint`]. The engine consults it per job
//!   before *any* stage runs; a warmed cache re-runs a whole sweep with
//!   zero checksum/SMT executions and bit-identical verdicts. See the
//!   module docs for the file format and invalidation rules;
//! * [`funnel`] — the first consumer of the telemetry: [`FunnelReport`]
//!   aggregates per-stage reach/kill/conflict distributions over a batch;
//! * [`service`] — the always-on form of the engine: a loopback-first TCP
//!   daemon ([`VerificationService`]) plus client ([`ServiceClient`])
//!   speaking a length-prefixed, CRC32-framed binary protocol whose verdict
//!   payloads are the cache's own binary records. Submitted jobs are
//!   deduped through the [`VerdictCache`] before any stage runs; admitted
//!   jobs run on the worker pool and stream back incrementally through the
//!   observer path;
//! * [`pipeline`] — Algorithm 1 ([`check_equivalence`]) as a thin wrapper
//!   over a single-job engine run, so the one-shot and batched paths share
//!   one cascade implementation;
//! * [`passk`] — the pass@k estimator of Section 4.1.2, plus the
//!   overlapped generation→verification drivers ([`overlapped_pass_at_k`]
//!   streaming per-cell seeded completions into the engine's bounded
//!   [`job_channel`] intake, [`generate_then_verify_pass_at_k`] as the
//!   unoverlapped reference over the [`seeded_jobs`] list — verdicts
//!   bit-identical by construction, CI-pinned);
//! * [`experiments`] — drivers regenerating Table 2 ([`table2`]), Figure 5
//!   ([`figure5`]), Table 3 ([`table3`]), Figure 1(c) ([`figure1`]),
//!   Figure 6 ([`figure6`]) and the Section 4.4 FSM evaluation
//!   ([`fsm_evaluation`]); all of them generate candidates sequentially
//!   (the synthetic LLM is a seeded, stateful sampler), verify through the
//!   engine's work queue and read their rows from the returned
//!   [`BatchReport`] in job order. [`table3`] also streams its engine
//!   events to the observer it is given.
//!
//! # One-shot example
//!
//! ```
//! use lv_core::{check_equivalence, Equivalence, PipelineConfig};
//! use lv_agents::vectorize_correct;
//! use lv_cir::parse_function;
//!
//! let scalar = parse_function(
//!     "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }",
//! )?;
//! let candidate = vectorize_correct(&scalar)?;
//! let report = check_equivalence(&scalar, &candidate, &PipelineConfig::default());
//! assert_eq!(report.verdict, Equivalence::Equivalent);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Cached batch example
//!
//! ```
//! use lv_core::{EngineConfig, Equivalence, Job, PipelineConfig, VerdictCache, VerificationEngine};
//! use lv_agents::vectorize_correct;
//! use std::sync::Arc;
//!
//! let jobs: Vec<Job> = ["s000", "s112", "s212"]
//!     .iter()
//!     .map(|name| {
//!         let scalar = lv_tsvc::kernel(name).unwrap().function();
//!         let candidate = vectorize_correct(&scalar).unwrap();
//!         Job::new(*name, scalar, candidate)
//!     })
//!     .collect();
//! let cache = Arc::new(VerdictCache::in_memory());
//! let engine = VerificationEngine::new(
//!     EngineConfig::full(PipelineConfig::default()).with_cache(cache.clone()),
//! );
//! let cold = engine.run_batch(&jobs);
//! assert_eq!(cold.count(Equivalence::Equivalent), 3);
//! assert_eq!(cold.cache_misses, 3);
//! // The second run answers every job from the cache: zero stages run.
//! let warm = engine.run_batch(&jobs);
//! assert_eq!(warm.cache_hits, 3);
//! assert_eq!(warm.stage_runs(), 0);
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod experiments;
pub mod funnel;
pub mod observer;
pub mod passk;
pub mod pipeline;
pub mod service;

pub use cache::{
    cache_file_stats, CacheFileStats, CacheKey, CachedVerdict, VerdictCache, CACHE_FORMAT_VERSION,
};
pub use engine::{
    job_channel, parallel_map, BatchReport, ChecksumStage, EngineConfig, EngineReuse, Job,
    JobProducer, JobReport, JobSource, ReferenceTable, ReuseCounters, StageTrace, StrategyOutcome,
    SymbolicStage, VerificationEngine, VerificationStrategy, WorkerState, BINDING_REVISION,
    COUNTEREXAMPLE_REVISION, REFERENCE_TABLE_CAPACITY, UB_REVISION,
};
pub use experiments::{
    figure1, figure5, figure6, fsm_evaluation, scale_to_paper, table2, table3, ExperimentConfig,
    Figure5, FsmEvaluation, KernelVerdict, SpeedupFigure, SpeedupRow, Table2, Table2Column, Table3,
    Table3Row,
};
pub use funnel::{FunnelReport, StageFunnel, HISTOGRAM_BUCKETS};
pub use observer::{BatchObserver, CallbackObserver, NoopObserver, StreamObserver};
pub use passk::{
    generate_then_verify_pass_at_k, overlapped_pass_at_k, overlapped_pass_at_k_observed, pass_at_k,
    pass_at_k_curve, seeded_jobs, PassKRun,
};
pub use pipeline::{check_equivalence, Equivalence, PipelineConfig, Stage};
pub use service::{ServiceClient, ServiceError, ServiceStatus, VerificationService};
