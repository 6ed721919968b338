//! Sharded multi-process sweeps with report exchange and merge.
//!
//! The paper's experiments are embarrassingly parallel sweeps over
//! `(kernel × candidate)` pairs; the [`engine`](crate::engine) already fans a
//! batch over in-process worker threads, and the content-addressed
//! [`VerdictCache`](crate::VerdictCache) makes verdicts bit-identical under
//! replay. This module scales the same batch *across processes* (and, with a
//! shared filesystem, across hosts): a coordinator partitions the job list
//! into shards, worker processes each run one shard through the unchanged
//! [`run_batch_observed`](crate::VerificationEngine::run_batch_observed)
//! path, and the per-shard reports are merged — with conflict detection —
//! into a single verdict cache and a single
//! [`BatchReport`](crate::BatchReport) equal to the single-process run.
//!
//! * [`plan`] — the deterministic [`ShardPlan`]: partitions jobs into `N`
//!   shards by stable content-derived job key, under a hash-mod or a
//!   contiguous-range [`ShardPolicy`]. Both policies are verdict-order
//!   preserving: shard results are merged back by original job index, so the
//!   merged report is always in job order regardless of which shard ran
//!   which job.
//! * [`exchange`] — the on-disk exchange formats (see below).
//! * [`runner`] — the worker side: loads the manifest, selects its shard,
//!   runs it on the engine, and incrementally flushes its one output, the
//!   shard report, so a killed worker leaves usable partial output.
//!   [`run_worker_from_args`] is the drop-in `--shard i/N` entry point for
//!   self-executing binaries (the `lv-sweep` CLI and the `shard_sweep`
//!   example both use it).
//! * [`coordinator`] — spawns one local worker process per shard, polls
//!   them until each exits or the wall-clock timeout kills the rest,
//!   recovers missing results in-process, and merges shard outputs.
//!
//! # Exchange formats
//!
//! All exchange data is JSON in the `serde` shim's [`json`](serde::json)
//! model, streamed through its `Emitter`. `u64` values (hashes, conflict
//! counts, microsecond wall times) are 16-digit lower-case hex strings,
//! exactly like the [verdict cache format](crate::cache). The manifest is
//! a whole-file document written atomically (temp file + rename) so
//! readers never observe torn writes; a shard's one output, its report, is
//! an **append-only journal** ([`crate::journal`]) — one checksum-framed
//! record per line, appended through a buffered handle held open for the
//! shard's lifetime, so a flush costs O(record) and a kill can only tear
//! the final record (which the reader detects by checksum and truncates).
//! Its header record carries the shard format's version constant.
//!
//! **Manifest** (`manifest.json`, coordinator → workers, always a
//! snapshot): the full job list (functions as printed C source —
//! [`lv_cir::printer`] round-trips to a structurally equal AST, so content
//! hashes and verdicts are unaffected), the shard count and policy, the
//! engine configuration (cascade, checksum harness, solver budgets,
//! threads), and the configuration's
//! [`semantic_fingerprint`](crate::EngineConfig::semantic_fingerprint).
//! Workers recompute the fingerprint from the parsed configuration and
//! refuse to run on a mismatch, so a coordinator and a worker from
//! semantically different builds can never silently mix verdicts.
//!
//! **Shard report** (`shard-<i>.report.json`, workers → coordinator): one
//! entry per finished job — original job index, label, verdict, stage,
//! detail, checksum class, cache-hit flag, and the per-stage traces — i.e.
//! everything a [`JobReport`](crate::JobReport) carries, so the merged
//! [`BatchReport`](crate::BatchReport) has full telemetry and its
//! [`funnel`](crate::BatchReport::funnel) works across process boundaries.
//! It is a [`ShardReportJournal`]: the shard metadata rides in the journal
//! header and each finished job is one appended record.
//!
//! **Merged verdict cache** (`merged.cache.json`, the coordinator's
//! output): a standard [`VerdictCache`](crate::VerdictCache) snapshot built
//! from the collected reports alone ([`insert_report_verdicts`]): each
//! report's verdict goes in under its job's content key
//! (`job_cache_key`), and two reports that
//! give one key different verdicts are a typed [`CacheMergeError`]
//! ([`ShardError::MergeConflict`]), never last-write-wins. Workers verify
//! their share with an in-memory cache and write no cache file.
//!
//! **Removed layers.** Earlier builds also wrote per-shard verdict-cache
//! journals (`shard-<i>.cache.json`), which the coordinator merged next to
//! the reports that already held the same verdicts; the cache refuses such
//! a file by name. They wrote per-shard cross-run
//! profile journals (`shard-<i>.profile.json`) and carried a per-category
//! stage schedule in the manifest. Every shard now runs the manifest's one
//! cascade order under its fixed budgets: a manifest whose `schedule`
//! object names an override is refused as [`ShardError::Format`] (an
//! absent or empty `schedule` still loads, fingerprint unchanged). Builds
//! with shard liveness layers also wrote per-shard claim journals
//! (`shard-<i>.claims.json`) and appended liveness records to the report
//! journals; nothing reads claim journals now, and report replay skips the
//! liveness records, so those report journals still load. A worker passed
//! a flag of any removed layer ([`REMOVED_LAYER_FLAGS`]) refuses with
//! [`ShardError::BadInvocation`] naming the layer.
//!
//! Flush batching (`--flush-every N`,
//! [`ShardRunOptions::flush_every`](crate::shard::ShardRunOptions::flush_every))
//! buffers N report record appends per syscall flush: a killed worker then
//! loses up to N−1 *whole* buffered tail records (plus at most one torn
//! record from a partial write) instead of at most one — still a clean
//! suffix, so replay, recovery, and merge semantics are unchanged.
//!
//! # Compaction
//!
//! A report journal replays to exactly the entries it holds, so it never
//! *needs* compaction for correctness — but [`ShardReportFile::rewrite`]
//! rewrites one in job-index order without a torn tail (and `fsync`s it,
//! the durability point of the default
//! [`FsyncPolicy::OnCompact`](crate::journal::FsyncPolicy) policy). The
//! coordinator's merged cache is written as the canonical sorted snapshot,
//! which is why a sharded sweep produces a merged cache file
//! byte-identical to the single-process run (CI pins this, kill-recovery
//! included).
//!
//! # Recovery semantics
//!
//! Each shard runs exactly its own share, on one of two paths: a batch
//! over the manifest's explicit job list, or a stream that generates the
//! share from a generation manifest while verifying it. Workers flush their
//! report after every finished job — one appended record — so the failure
//! unit is one *job*, not one shard. The coordinator has one supervision rule: it polls until every
//! worker has exited or [`SweepConfig::timeout`] passes, and kills the
//! workers still running then. It collects whatever entries each
//! shard managed to write — a worker that was killed mid-sweep (possibly
//! tearing its final journal record, which replay truncates), exited
//! nonzero, timed out (the coordinator kills it), failed to spawn, or wrote
//! a report with a mismatched fingerprint contributes its completed prefix
//! (or nothing) — and then re-runs exactly the missing job indices
//! in-process through the same engine configuration. Because verification
//! is deterministic, re-run verdicts equal the ones the dead worker would
//! have produced, so the merged report and cache file are bit-identical to
//! a fully healthy run (and to a single-process run). The merged cache is
//! built from the shard reports and the recovery run's reports together, so
//! a forged or corrupt report that contradicts another report of the same
//! key — a recovered one included — aborts the sweep with
//! [`ShardError::MergeConflict`].
//!
//! # Example
//!
//! A self-executing 2-shard sweep (the binary re-invokes itself in worker
//! mode; see `examples/shard_sweep.rs` for the full version CI pins):
//!
//! ```no_run
//! use lv_core::shard::{run_worker_from_args, ShardPolicy, SweepConfig, WorkerSpec};
//! use lv_core::{EngineConfig, Job, PipelineConfig};
//!
//! let args: Vec<String> = std::env::args().skip(1).collect();
//! if let Some(result) = run_worker_from_args(&args) {
//!     result.expect("shard worker failed");
//!     return; // this process was a worker; the coordinator merges
//! }
//! let jobs: Vec<Job> = Vec::new(); // build the sweep's job list
//! let sweep = SweepConfig {
//!     shards: 2,
//!     policy: ShardPolicy::HashMod,
//!     workdir: std::env::temp_dir().join("sweep"),
//!     worker: WorkerSpec::current_exe().unwrap(),
//!     ..SweepConfig::default()
//! };
//! let swept = lv_core::shard::run_sharded_sweep(
//!     &jobs,
//!     &EngineConfig::full(PipelineConfig::default()),
//!     &sweep,
//! )
//! .unwrap();
//! println!("merged {} verdicts, {} recovered in-process",
//!          swept.report.jobs.len(), swept.recovered.len());
//! ```

pub mod coordinator;
pub mod exchange;
pub mod plan;
pub mod runner;

pub use coordinator::{
    insert_report_verdicts, run_generated_sweep, run_sharded_sweep, ShardOutcome, ShardStatus,
    ShardedSweep, SweepConfig, WorkerSpec,
};
pub use exchange::{GenerationSpec, ShardReportFile, ShardReportJournal, SweepManifest};
pub use plan::{job_key, ShardPlan, ShardPolicy};
pub use runner::{
    removed_layer_message, run_shard, run_shard_with, run_worker_from_args, ShardRunOptions,
    ShardRunOutput, WorkerInvocation, REMOVED_LAYER_FLAGS,
};

use crate::cache::CacheMergeError;
use std::fmt;
use std::io;

/// Everything that can go wrong in the shard subsystem.
#[derive(Debug)]
pub enum ShardError {
    /// Filesystem or process-spawn failure.
    Io(io::Error),
    /// A manifest or shard report file failed to parse.
    Format(String),
    /// A manifest's recorded configuration fingerprint does not match the
    /// fingerprint recomputed from its parsed configuration — the writer and
    /// the reader are semantically different builds.
    FingerprintMismatch {
        /// Fingerprint recorded in the file.
        recorded: u64,
        /// Fingerprint recomputed by this build.
        computed: u64,
    },
    /// Two collected reports (from the shards or the recovery run) give one
    /// cache key different verdicts.
    MergeConflict(CacheMergeError),
    /// A worker invocation's command line is malformed (`--shard i/N` with
    /// `i >= N`, a missing `--manifest`, …).
    BadInvocation(String),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::Io(e) => write!(f, "shard I/O error: {}", e),
            ShardError::Format(e) => write!(f, "malformed shard exchange file: {}", e),
            ShardError::FingerprintMismatch { recorded, computed } => write!(
                f,
                "configuration fingerprint mismatch: file records {:016x}, this build \
                 computes {:016x} (coordinator and worker are different builds?)",
                recorded, computed
            ),
            ShardError::MergeConflict(e) => write!(f, "{}", e),
            ShardError::BadInvocation(e) => write!(f, "bad worker invocation: {}", e),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Io(e) => Some(e),
            ShardError::MergeConflict(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ShardError {
    fn from(e: io::Error) -> ShardError {
        ShardError::Io(e)
    }
}

impl From<CacheMergeError> for ShardError {
    fn from(e: CacheMergeError) -> ShardError {
        ShardError::MergeConflict(e)
    }
}
