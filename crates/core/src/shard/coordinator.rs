//! The coordinator side of a sharded sweep: process spawning, supervision,
//! recovery, and merge.
//!
//! [`run_sharded_sweep`] writes the manifest, spawns one worker process per
//! shard (`<worker> --shard i/N --manifest … --out …`), supervises them
//! under a wall-clock timeout, and merges whatever they produced. Any job a
//! worker did not report — because the worker was killed, timed out, exited
//! nonzero, never spawned, or reported under a mismatched configuration
//! fingerprint — is re-run *in-process* through the identical engine
//! configuration, so the merged result never has holes and, verification
//! being deterministic, equals the single-process run bit for bit. The
//! merged cache is built from the collected reports alone
//! ([`insert_report_verdicts`], conflict-checked) and bounded by the
//! configured [`CacheBounds`] before it is persisted.

use crate::cache::{CacheBounds, CacheMergeError, CachedVerdict, VerdictCache};
use crate::engine::{job_cache_key, BatchReport, Job, JobReport, VerificationEngine};
use crate::journal::FsyncPolicy;
use crate::shard::exchange::{GenerationSpec, ShardReportFile, SweepManifest};
use crate::shard::runner::report_path;
use crate::shard::{ShardError, ShardPolicy};
use crate::EngineConfig;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How to invoke a shard worker process.
///
/// The coordinator appends `--shard i/N --manifest <path> --out <dir>` (and
/// `--fail-after k` under fault injection) to `args`, so any binary that
/// starts with [`run_worker_from_args`](crate::shard::run_worker_from_args)
/// works — most commonly the coordinator's own executable
/// ([`WorkerSpec::current_exe`]).
#[derive(Debug, Clone)]
pub struct WorkerSpec {
    /// The program to spawn.
    pub program: PathBuf,
    /// Arguments placed before the shard arguments.
    pub args: Vec<String>,
}

impl WorkerSpec {
    /// A worker spec running `program` with no extra arguments.
    pub fn new(program: impl Into<PathBuf>) -> WorkerSpec {
        WorkerSpec {
            program: program.into(),
            args: Vec::new(),
        }
    }

    /// The self-exec spec: re-invoke the current executable.
    pub fn current_exe() -> std::io::Result<WorkerSpec> {
        Ok(WorkerSpec::new(std::env::current_exe()?))
    }
}

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Number of worker processes / shards.
    pub shards: usize,
    /// How jobs are partitioned.
    pub policy: ShardPolicy,
    /// Working directory for the manifest, the shard reports, worker logs,
    /// and the merged cache file. Created if missing.
    pub workdir: PathBuf,
    /// Wall-clock budget for the worker processes; workers still running at
    /// the deadline are killed and their missing jobs recovered in-process.
    pub timeout: Duration,
    /// How to spawn a worker.
    pub worker: WorkerSpec,
    /// Bounds applied to the merged cache before it is persisted.
    pub bounds: CacheBounds,
    /// Whether workers `fsync` each report record (passed as `--fsync`).
    pub fsync: FsyncPolicy,
    /// Report flush batching (passed as `--flush-every`): every `n`-th
    /// record append flushes; a killed worker loses at most `n - 1`
    /// buffered tail records (plus one torn record), all of which the
    /// coordinator's recovery re-runs anyway. Default 1 (flush per record).
    pub flush_every: usize,
    /// Fault injection for recovery tests: `(shard, k)` passes
    /// `--fail-after k` to that shard's worker, making it exit after `k`
    /// finished jobs with partial output flushed.
    pub fail_shard_after: Option<(usize, usize)>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            shards: 2,
            policy: ShardPolicy::HashMod,
            workdir: std::env::temp_dir().join("lv-sweep"),
            timeout: Duration::from_secs(600),
            worker: WorkerSpec::new("lv-sweep"),
            bounds: CacheBounds::unbounded(),
            fsync: FsyncPolicy::default(),
            flush_every: 1,
            fail_shard_after: None,
        }
    }
}

/// How one shard's worker process ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardStatus {
    /// The worker process exited zero. Says nothing about coverage — a
    /// worker that exits cleanly without writing results still reads as
    /// `Completed`; compare [`ShardOutcome::reported`] against
    /// [`ShardOutcome::planned`] for that (the coordinator's recovery fills
    /// any gap either way).
    Completed,
    /// The worker exited nonzero (the payload is the exit code when the OS
    /// reported one).
    Failed(Option<i32>),
    /// The worker outlived [`SweepConfig::timeout`] and was killed.
    TimedOut,
    /// The worker process could not be spawned at all.
    SpawnFailed(String),
}

/// Per-shard outcome in a [`ShardedSweep`].
#[derive(Debug, Clone)]
pub struct ShardOutcome {
    /// The shard index.
    pub shard: usize,
    /// How its worker ended.
    pub status: ShardStatus,
    /// Jobs the shard planned to run.
    pub planned: usize,
    /// Jobs of the shard's share its report file actually contained.
    pub reported: usize,
}

/// The merged result of a sharded sweep.
#[derive(Debug)]
pub struct ShardedSweep {
    /// The merged batch, in job order — equal to a single-process
    /// [`run_batch`](crate::VerificationEngine::run_batch) over the same
    /// jobs and configuration (modulo wall-clock fields).
    pub report: BatchReport,
    /// The merged verdict cache (already persisted to
    /// [`ShardedSweep::cache_file`], after [`SweepConfig::bounds`]).
    pub cache: Arc<VerdictCache>,
    /// Path of the merged cache file inside the workdir.
    pub cache_file: PathBuf,
    /// Original indices of jobs that had to be re-run in-process because no
    /// healthy shard reported them. Empty on a fully healthy sweep.
    pub recovered: Vec<usize>,
    /// Entries evicted from the merged cache by [`SweepConfig::bounds`].
    pub evicted: usize,
    /// Per-shard worker outcomes.
    pub shards: Vec<ShardOutcome>,
}

/// Runs `jobs` as a multi-process sweep under `config` (whose `cache` field
/// is ignored — see [`SweepManifest`]) and merges the results, spawning
/// workers as local child processes. See the [module docs](crate::shard)
/// for the full contract.
pub fn run_sharded_sweep(
    jobs: &[Job],
    config: &EngineConfig,
    sweep: &SweepConfig,
) -> Result<ShardedSweep, ShardError> {
    let manifest = SweepManifest::new(config, jobs, sweep.shards, sweep.policy);
    run_manifest_sweep(jobs, &manifest, sweep)
}

/// Runs a *generated* sharded sweep: the manifest carries only the spec's
/// kernels plus `(k, seed)`, and every shard materializes — and verifies,
/// overlapped — its own share. The coordinator materializes the same grid
/// deterministically for its recovery and merge paths, so the merged
/// result equals a single-process run over [`GenerationSpec`]'s jobs (the
/// same grid the in-process overlapped driver
/// [`crate::passk::overlapped_pass_at_k`] verifies).
pub fn run_generated_sweep(
    spec: GenerationSpec,
    config: &EngineConfig,
    sweep: &SweepConfig,
) -> Result<ShardedSweep, ShardError> {
    let manifest = SweepManifest::from_generation(config, spec, sweep.shards, sweep.policy);
    let jobs = manifest.materialize_jobs();
    run_manifest_sweep(&jobs, &manifest, sweep)
}

/// A shard worker under supervision.
enum Worker {
    Running(Child),
    Ended(ShardStatus),
}

/// Spawns shard `shard`'s worker as a local child process: the worker
/// spec's program and arguments, then `--shard i/N --manifest <path> --out
/// <workdir> --fsync <policy>` (plus `--flush-every` and `--fail-after` when
/// configured). Its stdout and stderr go to `shard-<i>.log` in the workdir
/// so they survive for post-mortems; an uncreatable log degrades to
/// `/dev/null` rather than failing the shard.
fn spawn_worker(
    sweep: &SweepConfig,
    shard: usize,
    shards: usize,
    manifest_path: &Path,
) -> std::io::Result<Child> {
    let mut command = Command::new(&sweep.worker.program);
    command
        .args(&sweep.worker.args)
        .arg("--shard")
        .arg(format!("{}/{}", shard, shards))
        .arg("--manifest")
        .arg(manifest_path)
        .arg("--out")
        .arg(&sweep.workdir)
        .arg("--fsync")
        .arg(sweep.fsync.tag());
    if sweep.flush_every > 1 {
        command
            .arg("--flush-every")
            .arg(sweep.flush_every.to_string());
    }
    if let Some((fail_shard, after)) = sweep.fail_shard_after {
        if fail_shard == shard {
            command.arg("--fail-after").arg(after.to_string());
        }
    }
    command.stdin(Stdio::null());
    match std::fs::File::create(sweep.workdir.join(format!("shard-{}.log", shard))) {
        Ok(log) => {
            let err = log.try_clone();
            command.stdout(Stdio::from(log));
            if let Ok(err) = err {
                command.stderr(Stdio::from(err));
            }
        }
        Err(_) => {
            command.stdout(Stdio::null()).stderr(Stdio::null());
        }
    }
    command.spawn()
}

/// The shared coordinator loop: writes the manifest, spawns and supervises
/// the workers, recovers, and merges. `jobs` is the full materialized job
/// list in batch order — `manifest.jobs` for an explicit manifest, the
/// deterministically generated grid for a generation manifest.
fn run_manifest_sweep(
    jobs: &[Job],
    manifest: &SweepManifest,
    sweep: &SweepConfig,
) -> Result<ShardedSweep, ShardError> {
    let start = Instant::now();
    std::fs::create_dir_all(&sweep.workdir)?;
    let manifest_path = sweep.workdir.join("manifest.json");
    manifest.write(&manifest_path)?;
    let plan = manifest.plan();
    let fingerprint = manifest.fingerprint();

    // A reused workdir may hold reports from a *previous* sweep; a stale
    // report whose fingerprint happens to match (the fingerprint covers the
    // configuration, not the job list) must not be mistaken for this sweep's
    // results, so every shard report is removed before any worker runs.
    for shard in 0..manifest.shards {
        let _ = std::fs::remove_file(report_path(&sweep.workdir, shard));
    }

    // Spawn one worker per shard, then supervise: poll until every worker
    // exits or the deadline passes, and kill whatever is still running then.
    // A worker that never spawned has ended before it started.
    let mut workers: Vec<Worker> = (0..manifest.shards)
        .map(
            |shard| match spawn_worker(sweep, shard, manifest.shards, &manifest_path) {
                Ok(child) => Worker::Running(child),
                Err(e) => Worker::Ended(ShardStatus::SpawnFailed(e.to_string())),
            },
        )
        .collect();
    let deadline = Instant::now() + sweep.timeout;
    loop {
        let mut running = false;
        for worker in &mut workers {
            if let Worker::Running(child) = worker {
                match child.try_wait()? {
                    Some(exit) if exit.success() => *worker = Worker::Ended(ShardStatus::Completed),
                    Some(exit) => *worker = Worker::Ended(ShardStatus::Failed(exit.code())),
                    None => running = true,
                }
            }
        }
        if !running {
            break;
        }
        if Instant::now() >= deadline {
            for worker in &mut workers {
                if let Worker::Running(child) = worker {
                    let _ = child.kill();
                    let _ = child.wait();
                    *worker = Worker::Ended(ShardStatus::TimedOut);
                }
            }
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // Collect shard reports. A missing/corrupt report, one produced under a
    // different configuration fingerprint, or an entry that does not match
    // this sweep's job list (an out-of-range index, a drifted label, or a
    // job outside the shard's share) contributes nothing — its jobs fall
    // into the recovery set.
    let mut entries: BTreeMap<usize, JobReport> = BTreeMap::new();
    let mut outcomes = Vec::with_capacity(manifest.shards);
    for (shard, worker) in workers.into_iter().enumerate() {
        let Worker::Ended(status) = worker else {
            unreachable!("supervision ends every worker")
        };
        let mut reported = 0;
        if let Ok(report) = ShardReportFile::load(report_path(&sweep.workdir, shard)) {
            if report.fingerprint == fingerprint {
                for (index, job_report) in report.entries {
                    let valid = jobs
                        .get(index)
                        .is_some_and(|job| job.label == job_report.label)
                        && plan.shard_of(index) == shard;
                    if valid {
                        reported += 1;
                        entries.entry(index).or_insert(job_report);
                    }
                }
            }
        }
        outcomes.push(ShardOutcome {
            shard,
            status,
            planned: plan.indices_of(shard).len(),
            reported,
        });
    }

    // Recovery: re-run everything no shard reported, in-process, under the
    // identical configuration. Determinism makes the re-run verdicts equal
    // the ones the dead workers would have produced.
    let missing: Vec<usize> = (0..jobs.len())
        .filter(|i| !entries.contains_key(i))
        .collect();
    if !missing.is_empty() {
        let engine = VerificationEngine::new(
            manifest
                .engine_config()
                .with_cache(Arc::new(VerdictCache::in_memory())),
        );
        let recovery_jobs: Vec<Job> = missing.iter().map(|&i| jobs[i].clone()).collect();
        let recovered = engine.run_batch(&recovery_jobs);
        for (&index, report) in missing.iter().zip(recovered.jobs) {
            entries.insert(index, report);
        }
    }

    // The merged cache holds every collected verdict, from the shards and
    // the recovery run alike; two reports that disagree on a key abort.
    let cache_file = sweep.workdir.join("merged.cache.json");
    let _ = std::fs::remove_file(&cache_file);
    let merged = VerdictCache::open(&cache_file)?;
    insert_report_verdicts(&merged, jobs, fingerprint, &entries)?;
    let evicted = merged.compact(&sweep.bounds);
    merged.persist()?;

    let reports: Vec<JobReport> = entries.into_values().collect();
    debug_assert_eq!(reports.len(), jobs.len());
    let cache_hits = reports.iter().filter(|r| r.cache_hit).count();
    let report = BatchReport {
        cache_misses: reports.len() - cache_hits,
        cache_hits,
        threads: manifest.shards,
        wall: start.elapsed(),
        jobs: reports,
    };

    Ok(ShardedSweep {
        report,
        cache: Arc::new(merged),
        cache_file,
        recovered: missing,
        evicted,
        shards: outcomes,
    })
}

/// Inserts the verdict of every collected report into `cache`, under its
/// job's content key (`job_cache_key` of `jobs[index]` under
/// `fingerprint`), through the conflict-checked
/// [`VerdictCache::insert_checked`]: reports of one key (a candidate at two
/// indices, say) must agree, or the merge fails with the typed conflict —
/// never last-write-wins. Every key of `reports` indexes into `jobs`. This
/// is how the coordinator builds the merged cache; a report's cache-hit
/// flag and traces are not part of a verdict.
pub fn insert_report_verdicts(
    cache: &VerdictCache,
    jobs: &[Job],
    fingerprint: u64,
    reports: &BTreeMap<usize, JobReport>,
) -> Result<(), CacheMergeError> {
    for (&index, report) in reports {
        cache.insert_checked(
            job_cache_key(&jobs[index], fingerprint),
            CachedVerdict {
                verdict: report.verdict,
                stage: report.stage,
                detail: report.detail.clone(),
                checksum: report.checksum,
            },
        )?;
    }
    Ok(())
}
