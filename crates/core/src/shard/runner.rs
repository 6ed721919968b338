//! The worker side of a sharded sweep.
//!
//! A shard worker loads the [`SweepManifest`], derives the same
//! [`ShardPlan`](crate::shard::ShardPlan) as the coordinator, and runs its
//! shard's jobs through the unchanged
//! [`run_batch_observed`](crate::VerificationEngine::run_batch_observed)
//! path with an in-memory [`VerdictCache`], so duplicate jobs in the share
//! are verified once (single-flight dedupe). A *generation*
//! manifest ([`SweepManifest::generation`]) ships no candidates at all:
//! the shard materializes its own share cell by cell (deterministic
//! per-cell seeds) on a producer thread and verifies it overlapped through
//! the streaming intake
//! ([`run_stream_observed`](crate::VerificationEngine::run_stream_observed)),
//! with verdicts bit-identical to the materialize-then-batch run.
//!
//! The worker writes one output file, its shard report: an append-only
//! journal ([`crate::journal`]) behind a buffered file handle opened once
//! for the shard's lifetime. After *every* finished job it appends and
//! flushes one framed record, so per-job flush I/O is O(record), a shard's
//! total flush I/O is O(jobs), and a worker killed mid-sweep leaves valid
//! partial output: the coordinator only has to re-run the jobs that are
//! actually missing (see the [module docs](crate::shard) for the recovery
//! contract). A kill can only tear the final record, which the loader
//! detects by checksum and truncates. The [`FsyncPolicy`] decides whether
//! each record is also `fsync`ed ([`FsyncPolicy::EveryRecord`]) or only a
//! later compaction is ([`FsyncPolicy::OnCompact`], default).

use crate::cache::VerdictCache;
use crate::engine::{Job, JobReport, VerificationEngine};
use crate::journal::FsyncPolicy;
use crate::observer::BatchObserver;
use crate::shard::exchange::{ShardReportJournal, SweepManifest};
use crate::shard::ShardError;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Where a shard worker writes its report inside the sweep's working
/// directory.
pub(crate) fn report_path(out_dir: &Path, shard: usize) -> PathBuf {
    out_dir.join(format!("shard-{}.report.json", shard))
}

/// What [`run_shard`] produced.
#[derive(Debug)]
pub struct ShardRunOutput {
    /// The shard that ran.
    pub shard: usize,
    /// Jobs the shard finished (its whole share of the plan on a healthy
    /// run).
    pub finished: usize,
    /// The shard report file, the shard's one output.
    pub report_file: PathBuf,
}

/// Tuning knobs of one shard run, beyond its manifest/shard identity.
#[derive(Debug, Clone)]
pub struct ShardRunOptions {
    /// Fault injection: exit with code 3 after this many finished jobs
    /// (partial output already flushed) — how tests and the CI example
    /// simulate a worker killed mid-sweep.
    pub fail_after: Option<usize>,
    /// Whether each journal record is also `fsync`ed (`--fsync`).
    pub fsync: FsyncPolicy,
    /// Journal flush batching (`--flush-every`): every `n`-th record append
    /// flushes to the kernel; the appends in between stay buffered. `1` (the
    /// default) is the flush-per-record contract; `n > 1` trades a loss
    /// window of up to `n - 1` buffered tail records (plus at most one torn
    /// record) for `n`× fewer flush syscalls — recovery semantics are
    /// otherwise unchanged, since everything unflushed is a clean suffix.
    pub flush_every: usize,
}

impl Default for ShardRunOptions {
    fn default() -> ShardRunOptions {
        ShardRunOptions {
            fail_after: None,
            fsync: FsyncPolicy::default(),
            flush_every: 1,
        }
    }
}

/// Streams finished jobs into the shard's report journal, flushing after
/// every job so partial output survives a kill. Optionally aborts the
/// process after `fail_after` jobs — the fault-injection hook the recovery
/// tests and the CI example use to simulate a worker dying mid-sweep.
struct ShardAppender {
    /// The report lock is held across the file writes: `record` fires
    /// concurrently from engine worker threads, and records must not
    /// interleave mid-frame.
    report: Mutex<ShardReportJournal>,
    finished: AtomicUsize,
    fail_after: Option<usize>,
}

impl ShardAppender {
    /// Commits one finished job under its *original* job index: one
    /// O(record) append (flushed internally).
    fn record(&self, original: usize, report: &JobReport) {
        // Best-effort, like `flush`.
        let _ = self.report().append(original, report);
        let finished = self.finished.fetch_add(1, Ordering::SeqCst) + 1;
        if self.fail_after.is_some_and(|limit| finished >= limit) {
            // Simulated crash: die without unwinding, exactly like a kill
            // signal would, leaving the flushed prefix behind.
            std::process::exit(3);
        }
    }

    /// Flushes the report journal. Flushes are best-effort: an unwritable
    /// report surfaces later as missing output, which the coordinator
    /// recovers from anyway.
    fn flush(&self) {
        let _ = self.report().flush();
    }

    fn report(&self) -> std::sync::MutexGuard<'_, ShardReportJournal> {
        self.report
            .lock()
            .expect("a thread panicked while appending to the report journal")
    }
}

/// The batch-share observer: maps the engine's local batch indices back to
/// original job indices and forwards to the shard's [`ShardAppender`].
struct ShareBatchObserver<'a> {
    appender: &'a ShardAppender,
    /// Local batch index → original job index.
    indices: &'a [usize],
}

impl BatchObserver for ShareBatchObserver<'_> {
    fn job_finished(&self, index: usize, report: &JobReport) {
        self.appender.record(self.indices[index], report);
    }
}

/// The streamed-share observer: on the overlapped generation path the
/// producer pushes jobs under their *original* indices, so the engine's
/// callback index needs no mapping before it reaches the appender.
struct ShareStreamObserver<'a> {
    appender: &'a ShardAppender,
}

impl BatchObserver for ShareStreamObserver<'_> {
    fn job_finished(&self, index: usize, report: &JobReport) {
        self.appender.record(index, report);
    }
}

/// Bound on the generate→verify queue inside a shard running a generation
/// manifest: enough to keep every worker fed, small enough that generation
/// never races far ahead of verification (backpressure, not a job list).
const SHARD_GENERATION_QUEUE_CAPACITY: usize = 32;

/// Runs shard `shard` of `manifest`, writing its report journal
/// `shard-<i>.report.json` into `out_dir`.
///
/// `fail_after` is the fault-injection hook: `Some(k)` makes the process
/// exit with code 3 after `k` finished jobs (partial output already
/// flushed), which is how tests and the CI example simulate a worker killed
/// mid-sweep.
pub fn run_shard(
    manifest: &SweepManifest,
    shard: usize,
    out_dir: &Path,
    fail_after: Option<usize>,
) -> Result<ShardRunOutput, ShardError> {
    run_shard_with(
        manifest,
        shard,
        out_dir,
        &ShardRunOptions {
            fail_after,
            ..ShardRunOptions::default()
        },
    )
}

/// [`run_shard`] with the full option set (fault injection, fsync policy,
/// flush batching).
pub fn run_shard_with(
    manifest: &SweepManifest,
    shard: usize,
    out_dir: &Path,
    options: &ShardRunOptions,
) -> Result<ShardRunOutput, ShardError> {
    if shard >= manifest.shards {
        return Err(ShardError::BadInvocation(format!(
            "shard index {} out of range for {} shards",
            shard, manifest.shards
        )));
    }
    std::fs::create_dir_all(out_dir)?;
    let indices = manifest.plan().indices_of(shard);

    let report_file = report_path(out_dir, shard);
    let mut report = ShardReportJournal::create(
        &report_file,
        shard,
        manifest.shards,
        manifest.fingerprint(),
        options.fsync,
    )?;
    report.set_flush_every(options.flush_every);
    // The cache gives the share single-flight dedupe of duplicate jobs; the
    // coordinator builds the merged cache from the reports, so it stays in
    // memory.
    let engine = VerificationEngine::new(
        manifest
            .engine_config()
            .with_cache(Arc::new(VerdictCache::in_memory())),
    );

    let appender = ShardAppender {
        report: Mutex::new(report),
        finished: AtomicUsize::new(0),
        fail_after: options.fail_after,
    };

    let batch = if manifest.generation.is_some() {
        // Generation manifest: the shard generates its own share and the
        // engine verifies it *as it appears* — a bounded channel between a
        // producer thread materializing cells and the streaming engine
        // intake, instead of materialize-then-batch. Jobs are pushed under
        // their original indices, so reports and journal records need no
        // index mapping.
        let (producer, source) = crate::engine::job_channel(SHARD_GENERATION_QUEUE_CAPACITY);
        std::thread::scope(|scope| {
            let indices = &indices;
            scope.spawn(move || {
                for &index in indices.iter() {
                    producer.push(index, manifest.job(index));
                }
            });
            engine.run_stream_observed(
                &source,
                &ShareStreamObserver {
                    appender: &appender,
                },
            )
        })
    } else {
        let jobs: Vec<Job> = indices.iter().map(|&i| manifest.jobs[i].clone()).collect();
        let observer = ShareBatchObserver {
            appender: &appender,
            indices: &indices,
        };
        engine.run_batch_observed(&jobs, &observer)
    };

    // Final flush: on an empty shard no job ever flushed, and with batched
    // flushing (or a transiently failed mid-sweep flush) it commits the
    // buffered tail.
    appender.flush();
    Ok(ShardRunOutput {
        shard,
        finished: batch.jobs.len(),
        report_file,
    })
}

/// What every cascade or budget layer's removal left: one stage order and
/// fixed budgets.
const ONE_CASCADE: &str = "every job runs the cascade in its one order under fixed budgets";

/// What the shard liveness layers' removal left: one run path per shard
/// and one supervision rule in the coordinator.
const ONE_SUPERVISION_RULE: &str = "each shard runs its own share, and the coordinator \
     re-runs in-process whatever a worker did not report by its exit or the wall-clock \
     timeout";

/// Sweep flags of earlier builds whose layers were deleted: the flag, the
/// layer it switched, and what runs in its place. The worker and the
/// `lv-sweep` coordinator refuse them by name.
pub const REMOVED_LAYER_FLAGS: [(&str, &str, &str); 7] = [
    ("--profile", "cross-run telemetry profiles", ONE_CASCADE),
    ("--schedule", "per-category stage schedules", ONE_CASCADE),
    ("--budget", "profile-tuned solver budgets", ONE_CASCADE),
    ("--steal", "live-shard work stealing", ONE_SUPERVISION_RULE),
    (
        "--heartbeat-ms",
        "shard liveness heartbeats",
        ONE_SUPERVISION_RULE,
    ),
    (
        "--stall-timeout-secs",
        "shard stall supervision",
        ONE_SUPERVISION_RULE,
    ),
    (
        "--delay-ms",
        "the delayed-shard fault injection of work stealing",
        ONE_SUPERVISION_RULE,
    ),
];

/// A parsed `--shard` worker command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerInvocation {
    /// This worker's shard index.
    pub shard: usize,
    /// Total shard count (cross-checked against the manifest).
    pub shards: usize,
    /// Path to the sweep manifest.
    pub manifest: PathBuf,
    /// Output directory for the shard's report file.
    pub out_dir: PathBuf,
    /// Fault injection: exit after this many finished jobs.
    pub fail_after: Option<usize>,
    /// Journal `fsync` policy (`--fsync record|compact`); see
    /// [`ShardRunOptions::fsync`].
    pub fsync: FsyncPolicy,
    /// Journal flush batching (`--flush-every N`, default 1); see
    /// [`ShardRunOptions::flush_every`].
    pub flush_every: usize,
}

impl WorkerInvocation {
    /// Parses `--shard i/N --manifest <path> --out <dir> [--fail-after k]
    /// [--fsync record|compact] [--flush-every N]` from `args`. Returns
    /// `None` when `--shard`
    /// is absent (the process is not a worker); `Some(Err(..))` when it is
    /// present but malformed, or names a removed flag (`--flush`,
    /// `--cache-format`, or one of [`REMOVED_LAYER_FLAGS`]).
    pub fn parse(args: &[String]) -> Option<Result<WorkerInvocation, ShardError>> {
        args.iter().any(|a| a == "--shard").then(|| {
            let mut shard = None;
            let mut manifest = None;
            let mut out_dir = None;
            let mut fail_after = None;
            let mut fsync = FsyncPolicy::default();
            let mut flush_every = 1usize;
            let mut iter = args.iter();
            while let Some(arg) = iter.next() {
                let mut value = |what: &str| {
                    iter.next()
                        .cloned()
                        .ok_or_else(|| ShardError::BadInvocation(format!("{} needs a value", what)))
                };
                match arg.as_str() {
                    "--shard" => {
                        let spec = value("--shard")?;
                        let (i, n) = spec.split_once('/').ok_or_else(|| {
                            ShardError::BadInvocation(format!(
                                "--shard expects `i/N`, got `{}`",
                                spec
                            ))
                        })?;
                        let parse = |s: &str| {
                            s.parse::<usize>().map_err(|_| {
                                ShardError::BadInvocation(format!(
                                    "--shard expects integers, got `{}`",
                                    spec
                                ))
                            })
                        };
                        shard = Some((parse(i)?, parse(n)?));
                    }
                    "--manifest" => manifest = Some(PathBuf::from(value("--manifest")?)),
                    "--out" => out_dir = Some(PathBuf::from(value("--out")?)),
                    "--flush" | "--cache-format" => {
                        return Err(ShardError::BadInvocation(format!(
                            "{} was removed: the shard report is always a JSON journal",
                            arg
                        )))
                    }
                    "--fsync" => {
                        fsync = FsyncPolicy::from_tag(&value("--fsync")?)
                            .map_err(ShardError::BadInvocation)?
                    }
                    "--flush-every" => {
                        let spec = value("--flush-every")?;
                        flush_every =
                            spec.parse::<usize>()
                                .ok()
                                .filter(|&n| n >= 1)
                                .ok_or_else(|| {
                                    ShardError::BadInvocation(format!(
                                        "--flush-every expects a positive integer, got `{}`",
                                        spec
                                    ))
                                })?;
                    }
                    "--fail-after" => {
                        let spec = value("--fail-after")?;
                        fail_after = Some(spec.parse::<usize>().map_err(|_| {
                            ShardError::BadInvocation(format!(
                                "--fail-after expects an integer, got `{}`",
                                spec
                            ))
                        })?);
                    }
                    other => {
                        if let Some(message) = removed_layer_message(other) {
                            return Err(ShardError::BadInvocation(message));
                        }
                    }
                }
            }
            // `--shard` appeared somewhere in `args`, but it may have been
            // swallowed as the *value* of another flag (`--out --shard`), so
            // its absence here is a malformed invocation, not a bug.
            let Some((shard, shards)) = shard else {
                return Err(ShardError::BadInvocation(
                    "worker mode needs --shard i/N".to_string(),
                ));
            };
            if shard >= shards {
                return Err(ShardError::BadInvocation(format!(
                    "--shard {}/{} is out of range",
                    shard, shards
                )));
            }
            Ok(WorkerInvocation {
                shard,
                shards,
                manifest: manifest.ok_or_else(|| {
                    ShardError::BadInvocation("worker mode needs --manifest <path>".to_string())
                })?,
                out_dir: out_dir.ok_or_else(|| {
                    ShardError::BadInvocation("worker mode needs --out <dir>".to_string())
                })?,
                fail_after,
                fsync,
                flush_every,
            })
        })
    }
}

/// The drop-in worker entry point for self-executing sweep binaries.
///
/// Returns `None` when `args` has no `--shard` flag — the caller is running
/// in coordinator (or interactive) mode and should proceed normally.
/// Otherwise the process is a shard worker: the manifest is loaded and the
/// shard runs to completion, and the caller should exit with the returned
/// result. The `lv-sweep` CLI and `examples/shard_sweep.rs` both begin with
/// this call, which is what lets the coordinator spawn
/// `current_exe() --shard i/N …` for its workers.
pub fn run_worker_from_args(args: &[String]) -> Option<Result<ShardRunOutput, ShardError>> {
    let invocation = match WorkerInvocation::parse(args)? {
        Ok(invocation) => invocation,
        Err(e) => return Some(Err(e)),
    };
    Some(run_worker(&invocation))
}

/// The refusal message naming `flag`, its layer and what runs in its
/// place, when `flag` is one of [`REMOVED_LAYER_FLAGS`].
pub fn removed_layer_message(flag: &str) -> Option<String> {
    let (_, layer, instead) = REMOVED_LAYER_FLAGS.iter().find(|(f, ..)| *f == flag)?;
    Some(format!(
        "{} was removed with its layer ({}); {}",
        flag, layer, instead
    ))
}

/// Runs a parsed worker invocation: loads the manifest, cross-checks the
/// shard count, and executes the shard.
pub fn run_worker(invocation: &WorkerInvocation) -> Result<ShardRunOutput, ShardError> {
    let manifest = SweepManifest::load(&invocation.manifest)?;
    if manifest.shards != invocation.shards {
        return Err(ShardError::BadInvocation(format!(
            "--shard says {} shards but the manifest has {}",
            invocation.shards, manifest.shards
        )));
    }
    run_shard_with(
        &manifest,
        invocation.shard,
        &invocation.out_dir,
        &ShardRunOptions {
            fail_after: invocation.fail_after,
            fsync: invocation.fsync,
            flush_every: invocation.flush_every,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn worker_invocation_parses_and_rejects() {
        assert!(WorkerInvocation::parse(&args(&["--threads", "2"])).is_none());
        let parsed = WorkerInvocation::parse(&args(&[
            "--shard",
            "1/4",
            "--manifest",
            "m.json",
            "--out",
            "work",
            "--fail-after",
            "3",
        ]))
        .expect("worker mode")
        .expect("well-formed");
        assert_eq!(parsed.shard, 1);
        assert_eq!(parsed.shards, 4);
        assert_eq!(parsed.manifest, PathBuf::from("m.json"));
        assert_eq!(parsed.out_dir, PathBuf::from("work"));
        assert_eq!(parsed.fail_after, Some(3));
        assert_eq!(
            parsed.fsync,
            FsyncPolicy::OnCompact,
            "sync on compaction by default"
        );
        assert_eq!(parsed.flush_every, 1, "flush batching defaults off");

        let tuned = WorkerInvocation::parse(&args(&[
            "--shard",
            "0/2",
            "--manifest",
            "m",
            "--out",
            "o",
            "--flush-every",
            "8",
        ]))
        .expect("worker mode")
        .expect("well-formed");
        assert_eq!(tuned.flush_every, 8);

        let synced = WorkerInvocation::parse(&args(&[
            "--shard",
            "0/2",
            "--manifest",
            "m",
            "--out",
            "o",
            "--fsync",
            "record",
        ]))
        .expect("worker mode")
        .expect("well-formed");
        assert_eq!(synced.fsync, FsyncPolicy::EveryRecord);

        for bad in [
            vec!["--shard", "2"],
            // `--shard` swallowed as the value of another flag.
            vec!["--out", "--shard"],
            vec!["--manifest", "--shard", "0/2", "--out", "o"],
            vec!["--shard", "4/4", "--manifest", "m", "--out", "o"],
            vec!["--shard", "x/2", "--manifest", "m", "--out", "o"],
            vec!["--shard", "0/2", "--out", "o"],
            vec!["--shard", "0/2", "--manifest", "m"],
            vec![
                "--shard",
                "0/2",
                "--manifest",
                "m",
                "--out",
                "o",
                "--flush",
                "rewrite",
            ],
            vec![
                "--shard",
                "0/2",
                "--manifest",
                "m",
                "--out",
                "o",
                "--flush",
                "journal",
            ],
            vec![
                "--shard",
                "0/2",
                "--manifest",
                "m",
                "--out",
                "o",
                "--fsync",
                "never",
            ],
            vec![
                "--shard",
                "0/2",
                "--manifest",
                "m",
                "--out",
                "o",
                "--flush-every",
                "0",
            ],
            vec![
                "--shard",
                "0/2",
                "--manifest",
                "m",
                "--out",
                "o",
                "--cache-format",
                "binary",
            ],
            vec![
                "--shard",
                "0/2",
                "--manifest",
                "m",
                "--out",
                "o",
                "--cache-format",
                "json",
            ],
            vec![
                "--shard",
                "0/2",
                "--manifest",
                "m",
                "--out",
                "o",
                "--schedule",
                "reduction=alive2",
            ],
        ] {
            let result = WorkerInvocation::parse(&args(&bad)).expect("worker mode");
            assert!(result.is_err(), "{:?} should be rejected", bad);
        }
    }

    #[test]
    fn removed_layer_flags_are_refused_by_name() {
        for (flag, layer, _) in REMOVED_LAYER_FLAGS {
            let invocation = args(&["--shard", "0/2", "--manifest", "m", "--out", "o", flag, "x"]);
            match run_worker_from_args(&invocation) {
                Some(Err(ShardError::BadInvocation(message))) => {
                    assert!(message.contains(flag), "{}", message);
                    assert!(message.contains(layer), "{}", message);
                }
                other => panic!("{} must be refused, got {:?}", flag, other),
            }
        }
    }
}
