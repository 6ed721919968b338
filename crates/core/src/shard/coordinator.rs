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
//! being deterministic, equals the single-process run bit for bit. Shard
//! cache files are merged with conflict detection
//! ([`VerdictCache::merge_from`]) and bounded by the configured
//! [`CacheBounds`] before the merged cache is persisted.

use crate::cache::{CacheBounds, CachedVerdict, VerdictCache};
use crate::engine::{job_cache_key, BatchReport, Job, JobReport, VerificationEngine};
use crate::journal::FsyncPolicy;
use crate::shard::exchange::{
    read_progress, GenerationSpec, ShardProgress, ShardReportFile, SweepManifest,
};
use crate::shard::runner::{cache_path, claims_path, report_path};
use crate::shard::{ShardError, ShardPolicy};
use crate::EngineConfig;
use std::collections::BTreeMap;
use std::path::PathBuf;
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

/// A fully assembled worker launch: program, final argument vector, and the
/// log file its stdout/stderr should go to. The coordinator builds one per
/// shard and hands it to the [`WorkerSpawner`]; a backend never has to know
/// how the shard arguments were derived.
#[derive(Debug, Clone)]
pub struct WorkerLaunch {
    /// The program to run.
    pub program: PathBuf,
    /// The complete argument vector (worker-spec args plus shard args).
    pub args: Vec<String>,
    /// Where the worker's stdout/stderr should be captured.
    pub log_path: PathBuf,
}

/// A handle to one spawned worker, owned by the coordinator's supervision
/// loop.
pub trait WorkerHandle: Send {
    /// Non-blocking poll: `Ok(None)` while the worker is still running,
    /// `Ok(Some(status))` once it ended.
    fn try_wait(&mut self) -> std::io::Result<Option<ShardStatus>>;
    /// Forcibly terminates the worker (used at the deadline and on stall).
    /// Must reap the worker so no zombie outlives the sweep.
    fn kill(&mut self);
}

/// Spawning backend for shard workers.
///
/// [`run_sharded_sweep`] uses [`LocalProcessSpawner`] — one local child
/// process per shard. The trait exists so the same coordinator (manifest,
/// supervision, stall detection, merge, recovery) can drive workers it does
/// not fork itself, e.g. a remote-exec backend that ships the launch to
/// another host; the shard exchange format is already path-based and
/// self-describing, so only this seam changes.
pub trait WorkerSpawner {
    /// Starts one worker. Errors become [`ShardStatus::SpawnFailed`] — the
    /// coordinator recovers the shard's jobs in-process.
    fn spawn(&self, launch: &WorkerLaunch) -> Result<Box<dyn WorkerHandle>, String>;
}

/// The default [`WorkerSpawner`]: `std::process::Command` on this machine,
/// stdout/stderr captured to the launch's log file.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalProcessSpawner;

struct LocalProcessHandle(Child);

impl WorkerHandle for LocalProcessHandle {
    fn try_wait(&mut self) -> std::io::Result<Option<ShardStatus>> {
        Ok(self.0.try_wait()?.map(|status| {
            if status.success() {
                ShardStatus::Completed
            } else {
                ShardStatus::Failed(status.code())
            }
        }))
    }

    fn kill(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

impl WorkerSpawner for LocalProcessSpawner {
    fn spawn(&self, launch: &WorkerLaunch) -> Result<Box<dyn WorkerHandle>, String> {
        let mut command = Command::new(&launch.program);
        command.args(&launch.args).stdin(Stdio::null());
        // Worker diagnostics go to the per-shard log so they survive for
        // post-mortems; an uncreatable log silently degrades to /dev/null
        // rather than failing the shard.
        match std::fs::File::create(&launch.log_path) {
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
        match command.spawn() {
            Ok(child) => Ok(Box::new(LocalProcessHandle(child))),
            Err(e) => Err(e.to_string()),
        }
    }
}

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Number of worker processes / shards.
    pub shards: usize,
    /// How jobs are partitioned.
    pub policy: ShardPolicy,
    /// Working directory for the manifest, per-shard outputs, worker logs,
    /// and the merged cache file. Created if missing.
    pub workdir: PathBuf,
    /// Wall-clock budget for the worker processes; workers still running at
    /// the deadline are killed and their missing jobs recovered in-process.
    pub timeout: Duration,
    /// How to spawn a worker.
    pub worker: WorkerSpec,
    /// Bounds applied to the merged cache before it is persisted.
    pub bounds: CacheBounds,
    /// Whether workers `fsync` each journal record (passed as `--fsync`).
    pub fsync: FsyncPolicy,
    /// Journal flush batching (passed as `--flush-every`): every `n`-th
    /// record append flushes; a killed worker loses at most `n - 1`
    /// buffered tail records (plus one torn record), all of which the
    /// coordinator's recovery re-runs anyway. Default 1 (flush per record).
    pub flush_every: usize,
    /// Fault injection for recovery tests: `(shard, k)` passes
    /// `--fail-after k` to that shard's worker, making it exit after `k`
    /// finished jobs with partial output flushed.
    pub fail_shard_after: Option<(usize, usize)>,
    /// Live-shard work stealing (passed as `--steal`): workers that finish
    /// their own share claim pending jobs from slow siblings through
    /// CRC-framed claim journals next to the shard reports; see the
    /// [module docs](crate::shard) for the claim protocol and its conflict
    /// rules.
    pub steal: bool,
    /// Per-shard stall detection: a worker whose report journal shows no
    /// new heartbeat *and* no new report for this long is presumed hung and
    /// killed early ([`ShardStatus::Stalled`]) instead of holding the sweep
    /// until [`SweepConfig::timeout`]. Its unreported jobs are recovered
    /// like any other dead worker's. `None` disables stall detection.
    pub stall_timeout: Option<Duration>,
    /// Liveness heartbeat period (passed as `--heartbeat-ms`). `None` lets
    /// the coordinator choose: 250ms whenever stealing or stall detection
    /// needs the signal, off otherwise (keeping default journals
    /// byte-stable for tests that pin them).
    pub heartbeat: Option<Duration>,
    /// Fault injection for the stealing tests: `(shard, ms)` passes
    /// `--delay-ms` to that shard's worker, delaying its first claim so
    /// siblings can demonstrably steal its share.
    pub delay_shard: Option<(usize, u64)>,
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
            steal: false,
            stall_timeout: None,
            heartbeat: None,
            delay_shard: None,
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
    /// The worker showed no fresh heartbeat or report for
    /// [`SweepConfig::stall_timeout`] and was killed early as hung.
    Stalled,
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
    /// Of the shard's *own* share, jobs its report file actually contained.
    pub reported: usize,
    /// Jobs this shard reported from *other* shards' shares — its work
    /// stealing yield. Always zero without [`SweepConfig::steal`].
    pub stolen: usize,
    /// Liveness heartbeats the shard's report journal carried (zero unless
    /// a heartbeat period was in effect).
    pub heartbeats: u64,
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

enum Worker {
    Running(Box<dyn WorkerHandle>),
    SpawnFailed(String),
    Done(ShardStatus),
}

/// What the supervision loop last saw in a shard's report journal, for
/// stall detection: the observable progress tuple plus when it last moved.
struct StallWatch {
    last: ShardProgress,
    moved: Instant,
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
    run_sharded_sweep_with(jobs, config, sweep, &LocalProcessSpawner)
}

/// [`run_sharded_sweep`] with an explicit [`WorkerSpawner`] backend.
pub fn run_sharded_sweep_with(
    jobs: &[Job],
    config: &EngineConfig,
    sweep: &SweepConfig,
    spawner: &dyn WorkerSpawner,
) -> Result<ShardedSweep, ShardError> {
    let manifest = SweepManifest::new(config, jobs, sweep.shards, sweep.policy);
    run_manifest_sweep(jobs, &manifest, sweep, spawner)
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
    run_generated_sweep_with(spec, config, sweep, &LocalProcessSpawner)
}

/// [`run_generated_sweep`] with an explicit [`WorkerSpawner`] backend.
pub fn run_generated_sweep_with(
    spec: GenerationSpec,
    config: &EngineConfig,
    sweep: &SweepConfig,
    spawner: &dyn WorkerSpawner,
) -> Result<ShardedSweep, ShardError> {
    let manifest = SweepManifest::from_generation(config, spec, sweep.shards, sweep.policy);
    let jobs = manifest.materialize_jobs();
    run_manifest_sweep(&jobs, &manifest, sweep, spawner)
}

/// The shared coordinator loop: writes the manifest, spawns and supervises
/// the workers, recovers, and merges. `jobs` is the full materialized job
/// list in batch order — `manifest.jobs` for an explicit manifest, the
/// deterministically generated grid for a generation manifest.
fn run_manifest_sweep(
    jobs: &[Job],
    manifest: &SweepManifest,
    sweep: &SweepConfig,
    spawner: &dyn WorkerSpawner,
) -> Result<ShardedSweep, ShardError> {
    let start = Instant::now();
    std::fs::create_dir_all(&sweep.workdir)?;
    let manifest_path = sweep.workdir.join("manifest.json");
    manifest.write(&manifest_path)?;
    let plan = manifest.plan();
    let fingerprint = manifest.fingerprint();

    // A reused workdir may hold outputs from a *previous* sweep; a stale
    // report whose fingerprint happens to match (the fingerprint covers the
    // configuration, not the job list) must not be mistaken for this sweep's
    // results, so every per-shard output is removed before any worker runs.
    for shard in 0..manifest.shards {
        let _ = std::fs::remove_file(cache_path(&sweep.workdir, shard));
        let _ = std::fs::remove_file(report_path(&sweep.workdir, shard));
        let _ = std::fs::remove_file(claims_path(&sweep.workdir, shard));
    }

    // Stealing and stall detection both key on the liveness heartbeat; when
    // the caller did not pick a period, turn it on at 250ms exactly when one
    // of them needs it (and leave journals byte-stable otherwise).
    let heartbeat = sweep.heartbeat.or_else(|| {
        (sweep.steal || sweep.stall_timeout.is_some()).then(|| Duration::from_millis(250))
    });

    // Assemble one launch per shard and hand them to the spawner backend.
    let mut workers: Vec<Worker> = (0..manifest.shards)
        .map(|shard| {
            let mut args = sweep.worker.args.clone();
            args.push("--shard".into());
            args.push(format!("{}/{}", shard, manifest.shards));
            args.push("--manifest".into());
            args.push(manifest_path.display().to_string());
            args.push("--out".into());
            args.push(sweep.workdir.display().to_string());
            args.push("--fsync".into());
            args.push(sweep.fsync.tag().into());
            if sweep.flush_every > 1 {
                args.push("--flush-every".into());
                args.push(sweep.flush_every.to_string());
            }
            if let Some(period) = heartbeat {
                args.push("--heartbeat-ms".into());
                args.push(period.as_millis().max(1).to_string());
            }
            if sweep.steal {
                args.push("--steal".into());
            }
            if let Some((delay_shard, ms)) = sweep.delay_shard {
                if delay_shard == shard {
                    args.push("--delay-ms".into());
                    args.push(ms.to_string());
                }
            }
            if let Some((fail_shard, after)) = sweep.fail_shard_after {
                if fail_shard == shard {
                    args.push("--fail-after".into());
                    args.push(after.to_string());
                }
            }
            let launch = WorkerLaunch {
                program: sweep.worker.program.clone(),
                args,
                log_path: sweep.workdir.join(format!("shard-{}.log", shard)),
            };
            match spawner.spawn(&launch) {
                Ok(handle) => Worker::Running(handle),
                Err(e) => Worker::SpawnFailed(e),
            }
        })
        .collect();

    // Supervise: poll until every worker exits or the deadline passes. With
    // a stall timeout, each running worker's report journal is also watched
    // — reports and heartbeats both count as progress, so a hung-but-alive
    // worker (heartbeats ticking, no reports) is *not* killed early, while a
    // truly wedged one is killed as Stalled well before the hard deadline.
    let deadline = Instant::now() + sweep.timeout;
    let mut watches: Vec<StallWatch> = (0..manifest.shards)
        .map(|_| StallWatch {
            last: ShardProgress::default(),
            moved: Instant::now(),
        })
        .collect();
    loop {
        let mut running = false;
        for (shard, worker) in workers.iter_mut().enumerate() {
            if let Worker::Running(handle) = worker {
                match handle.try_wait()? {
                    Some(status) => *worker = Worker::Done(status),
                    None => {
                        running = true;
                        if let Some(stall) = sweep.stall_timeout {
                            let seen =
                                read_progress(&report_path(&sweep.workdir, shard), fingerprint)
                                    .unwrap_or_default();
                            let watch = &mut watches[shard];
                            if seen != watch.last {
                                watch.last = seen;
                                watch.moved = Instant::now();
                            } else if watch.moved.elapsed() >= stall {
                                handle.kill();
                                *worker = Worker::Done(ShardStatus::Stalled);
                            }
                        }
                    }
                }
            }
        }
        if !running {
            break;
        }
        if Instant::now() >= deadline {
            for worker in &mut workers {
                if let Worker::Running(handle) = worker {
                    handle.kill();
                    *worker = Worker::Done(ShardStatus::TimedOut);
                }
            }
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // Collect shard reports. A missing/corrupt report, one produced under a
    // different configuration fingerprint, or an entry that does not match
    // this sweep's job list (an out-of-range index or a drifted label)
    // contributes nothing — its jobs fall into the recovery set. An entry
    // for *another* shard's job is a steal: verification determinism makes
    // a doubly-claimed job's two reports identical, so first report wins.
    let mut entries: BTreeMap<usize, JobReport> = BTreeMap::new();
    let mut outcomes = Vec::with_capacity(manifest.shards);
    for (shard, worker) in workers.into_iter().enumerate() {
        let status = match worker {
            Worker::Done(status) => status,
            Worker::SpawnFailed(e) => ShardStatus::SpawnFailed(e),
            Worker::Running(_) => unreachable!("supervision loop drains every worker"),
        };
        let mut reported = 0;
        let mut stolen = 0;
        if let Ok(report) = ShardReportFile::load(report_path(&sweep.workdir, shard)) {
            if report.fingerprint == fingerprint {
                for (index, job_report) in report.entries {
                    let valid = jobs
                        .get(index)
                        .is_some_and(|job| job.label == job_report.label);
                    if valid {
                        if plan.shard_of(index) == shard {
                            reported += 1;
                        } else {
                            stolen += 1;
                        }
                        entries.entry(index).or_insert(job_report);
                    }
                }
            }
        }
        let heartbeats = read_progress(&report_path(&sweep.workdir, shard), fingerprint)
            .map_or(0, |progress| progress.heartbeats);
        outcomes.push(ShardOutcome {
            shard,
            status,
            planned: plan.indices_of(shard).len(),
            reported,
            stolen,
            heartbeats,
        });
    }

    // Recovery: re-run everything no shard reported, in-process, under the
    // identical configuration. Determinism makes the re-run verdicts equal
    // the ones the dead workers would have produced.
    let missing: Vec<usize> = (0..jobs.len())
        .filter(|i| !entries.contains_key(i))
        .collect();
    let recovery_cache = Arc::new(VerdictCache::in_memory());
    if !missing.is_empty() {
        let engine =
            VerificationEngine::new(manifest.engine_config().with_cache(recovery_cache.clone()));
        let recovery_jobs: Vec<Job> = missing.iter().map(|&i| jobs[i].clone()).collect();
        let recovered = engine.run_batch(&recovery_jobs);
        for (&index, report) in missing.iter().zip(recovered.jobs) {
            entries.insert(index, report);
        }
    }

    // Merge the shard caches (conflicts are typed errors, never
    // last-write-wins), add the recovery run's verdicts, bound, persist. An
    // *unreadable* shard cache is treated like a missing one — the verdicts
    // are re-derivable from the collected reports below, so a torn cache
    // file must not discard the healthy shards' work — but a readable cache
    // that *disagrees* still aborts.
    let cache_file = sweep.workdir.join("merged.cache.json");
    let _ = std::fs::remove_file(&cache_file);
    let merged = VerdictCache::open(&cache_file)?;
    for shard in 0..manifest.shards {
        if let Ok(shard_cache) = VerdictCache::open(cache_path(&sweep.workdir, shard)) {
            merged.merge_from(&shard_cache)?;
        }
    }
    merged.merge_from(&recovery_cache)?;
    // Every collected verdict is also inserted under its content key, so the
    // merged cache is complete even when a shard's cache file was lost (its
    // report survived an earlier flush, say) — and so a shard cache that
    // contradicts a shard *report* is caught as a conflict too.
    let from_reports = VerdictCache::in_memory();
    for (&index, job_report) in &entries {
        from_reports.insert(
            job_cache_key(&jobs[index], fingerprint),
            CachedVerdict {
                verdict: job_report.verdict,
                stage: job_report.stage,
                detail: job_report.detail.clone(),
                checksum: job_report.checksum,
            },
        );
    }
    merged.merge_from(&from_reports)?;
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
