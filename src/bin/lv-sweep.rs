//! `lv-sweep` — the TSVC verification sweep CLI.
//!
//! ```text
//! lv-sweep [run] [--kernels s000,s112,...] [--threads T] [--quick]
//!          [--cache FILE] [--no-reuse]
//! lv-sweep run --generate K [--gen-seed S] [--gen-threads T]
//!          [--kernels s000,...] [--threads T] [--quick]
//!          [--cache FILE] [--no-reuse]
//! lv-sweep serve [--addr HOST:PORT] [--cache FILE] [--threads T] [--quick]
//!          [--no-reuse]
//! lv-sweep submit [--addr HOST:PORT] [--kernels s000,...]
//!          [--generate K] [--gen-seed S] [--shutdown]
//! lv-sweep status [--addr HOST:PORT]
//! lv-sweep cache stats FILE...
//! ```
//!
//! `run` (also what a bare `lv-sweep [flags]` runs) verifies in this
//! process, on the engine's worker pool. Without `--generate` it builds one
//! job per TSVC kernel the rule-based vectorizer supports, and prints one
//! `label: Verdict @ stage (detail)` line per job in job order, then a
//! summary line. `--kernels` restricts the sweep (in `run` and `submit`) to
//! named TSVC kernels; an unknown name is a usage error naming it, and so
//! is, where the sweep needs rule-based candidates (without `--generate`),
//! a kernel the rule-based vectorizer has none for.
//!
//! `run --generate K` is the overlapped generation→verification pipeline:
//! `--gen-threads` producer threads sample `K` candidates per kernel
//! (per-cell seeds derived from `--gen-seed`, so any thread count yields
//! the same candidate set) and stream them through the engine's bounded
//! job intake while verification is already running. Verdicts are
//! bit-identical to generating the full batch first and then verifying it
//! (`generate_then_verify_pass_at_k`, the reference of the pipeline
//! tests). The pass@k curve of Section 4.1.2 is printed for k = 1, 2, 4,
//! … K.
//!
//! `--cache FILE` (on `run` and `serve`) opens the verdict-cache snapshot
//! at `FILE` (a missing file is an empty cache), attaches it to the engine
//! and persists it when the sweep or the daemon ends. A second `run` over
//! the same jobs answers every job from it, prints the same verdict lines
//! and leaves `FILE` byte-identical. Without `--cache` the verdicts are
//! cached in memory only.
//!
//! Every job runs Algorithm 1's cascade in its one order under fixed
//! per-stage budgets, with the blasted-CNF memo on: its replays are
//! clause-identical, so it changes no verdict, fingerprint, or cache byte.
//! `--no-reuse` (on `run` and `serve`) switches the memo off.
//!
//! `serve` runs the long-lived verification daemon
//! ([`VerificationService`]): a loopback-first TCP listener speaking the
//! CRC-framed `LVSV` wire protocol, deduping every submitted job through
//! the shared verdict cache (`--cache` persists it across restarts) before
//! anything runs. `submit` builds the TSVC job list client-side, streams it
//! to a daemon, and prints the verdict table (`--shutdown` stops the daemon
//! afterwards); with `--generate K` the job list is instead `K` generated
//! candidates per selected kernel, labeled `name#j` and sampled on the
//! client from the same per-cell seeds `run --generate K --gen-seed S`
//! uses (`seeded_jobs`). `status` prints a daemon's live counters. See
//! `lv_core::service` for the protocol.
//!
//! `cache stats` prints, for each verdict-cache snapshot: size, entry
//! count, bytes per entry, and the per-verdict-class histogram. A file of a
//! removed form is refused by name: the other verdict-cache forms of
//! earlier builds (JSON cache journal, binary cache journal `LVBJ`, binary
//! snapshot `LVCS`) and the files of their multi-process shard sweeps
//! (shard report, claim and cross-run profile journals, shard manifests).
//!
//! The flags of deleted layers (`REMOVED_LAYER_FLAGS`: cross-run
//! profiles, stage schedules, tuned budgets, CNF preprocessing, incremental
//! sessions, the multi-process shard sweeps with their journals, worker
//! mode and liveness supervision, and the unoverlapped comparison arm of
//! `run --generate`) are usage errors naming the layer, and so is the
//! `compact` subcommand of the shard report journals.
//!
//! Exit status: `0` on success, `1` on a runtime failure (I/O, solver,
//! protocol), `2` on a malformed command line. Every failure is a typed
//! error printed to stderr — never a panic.

use llm_vectorizer_repro::agents::LlmConfig;
use llm_vectorizer_repro::cir::ast::Function;
use llm_vectorizer_repro::core::{
    cache_file_stats, overlapped_pass_at_k, seeded_jobs, EngineConfig, EngineReuse, Equivalence,
    Job, PipelineConfig, ServiceClient, VerdictCache, VerificationEngine, VerificationService,
};
use llm_vectorizer_repro::interp::ChecksumConfig;
use llm_vectorizer_repro::tv::{SolverBudget, TvConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

/// Every way an `lv-sweep` invocation can fail, split by whose fault it
/// is: a malformed command line exits `2`, a runtime failure exits `1`.
/// Both print a typed message to stderr; nothing in this binary panics on
/// bad input.
#[derive(Debug, PartialEq, Eq)]
enum CliError {
    /// The command line is malformed (unknown flag, missing value,
    /// unparsable number, unknown kernel).
    Usage(String),
    /// The command line was fine but the work failed (I/O, protocol,
    /// unreadable file, sweep error).
    Runtime(String),
}

impl CliError {
    fn report(self) -> ExitCode {
        match self {
            CliError::Usage(message) => {
                eprintln!("lv-sweep: {}", message);
                ExitCode::from(2)
            }
            CliError::Runtime(message) => {
                eprintln!("lv-sweep: {}", message);
                ExitCode::FAILURE
            }
        }
    }
}

fn usage(message: impl Into<String>) -> CliError {
    CliError::Usage(message.into())
}

fn runtime(message: impl Into<String>) -> CliError {
    CliError::Runtime(message.into())
}

const DEFAULT_SERVICE_ADDR: &str = "127.0.0.1:7411";

/// What every cascade or budget layer's removal left: one stage order and
/// fixed budgets.
const ONE_CASCADE: &str = "every job runs the cascade in its one order under fixed budgets";

/// What the solver layers' removal left.
const MEMO_ONLY: &str = "the blast memo is on unless --no-reuse";

/// What the multi-process shard sweeps' removal left: one process.
const IN_PROCESS: &str = "`lv-sweep run` verifies every job in this process on the engine's \
     worker pool";

/// What the shard sweeps' on-disk outputs gave way to: one snapshot.
const ONE_SNAPSHOT: &str = "`lv-sweep run --cache FILE` keeps a sweep's verdicts in one JSON \
     snapshot, written when the sweep ends";

/// Flags of earlier builds whose layers were deleted: the flag, the layer
/// it switched, and what runs in its place. Every subcommand refuses them
/// by name ([`removed_layer_message`]).
const REMOVED_LAYER_FLAGS: [(&str, &str, &str); 23] = [
    ("--profile", "cross-run telemetry profiles", ONE_CASCADE),
    ("--schedule", "per-category stage schedules", ONE_CASCADE),
    ("--budget", "profile-tuned solver budgets", ONE_CASCADE),
    ("--reuse", "incremental per-scalar sessions", MEMO_ONLY),
    ("--simplify", "CNF preprocessing", MEMO_ONLY),
    ("--shards", "multi-process shard sweeps", IN_PROCESS),
    ("--policy", "shard partitioning policies", IN_PROCESS),
    ("--timeout-secs", "shard worker supervision", IN_PROCESS),
    ("--shard", "shard worker mode", IN_PROCESS),
    ("--manifest", "shard worker mode", IN_PROCESS),
    ("--out", "shard worker mode", IN_PROCESS),
    ("--fail-after", "shard worker fault injection", IN_PROCESS),
    ("--steal", "live-shard work stealing", IN_PROCESS),
    ("--heartbeat-ms", "shard liveness heartbeats", IN_PROCESS),
    (
        "--stall-timeout-secs",
        "shard stall supervision",
        IN_PROCESS,
    ),
    (
        "--delay-ms",
        "the delayed-shard fault injection of work stealing",
        IN_PROCESS,
    ),
    (
        "--workdir",
        "the shard coordinator's work directory",
        ONE_SNAPSHOT,
    ),
    ("--fsync", "shard report journals", ONE_SNAPSHOT),
    ("--flush-every", "shard report journals", ONE_SNAPSHOT),
    ("--flush", "rewrite flushing of shard outputs", ONE_SNAPSHOT),
    ("--cache-format", "binary cache journals", ONE_SNAPSHOT),
    (
        "--max-cache-entries",
        "bounded merged shard caches",
        ONE_SNAPSHOT,
    ),
    (
        "--no-overlap",
        "the generate-then-verify comparison arm",
        "`run --generate K` always overlaps generation with verification, with the same \
         verdicts",
    ),
];

/// The usage message for a flag of a deleted layer, naming the layer and
/// what runs in its place, when `flag` is one of [`REMOVED_LAYER_FLAGS`].
fn removed_layer_message(flag: &str) -> Option<String> {
    let (_, layer, instead) = REMOVED_LAYER_FLAGS.iter().find(|(f, ..)| *f == flag)?;
    Some(format!(
        "{} was removed with its layer ({}); {}",
        flag, layer, instead
    ))
}

/// The usage error for an argument `command` does not take: a flag of a
/// deleted layer by name, anything else as unknown.
fn unknown_argument(command: &str, arg: &str) -> CliError {
    usage(
        removed_layer_message(arg)
            .unwrap_or_else(|| format!("{}: unknown argument `{}`", command, arg)),
    )
}

/// The usage message for the `compact` subcommand of earlier builds.
const REMOVED_COMPACT: &str = "compact was removed with its layer (shard report journals); \
     verdict caches are only ever written as the JSON snapshot, which needs no compaction";

/// The engine reuse for a `--no-reuse` setting: the blast memo unless
/// switched off.
fn resolve_reuse(memo: bool) -> EngineReuse {
    EngineReuse { memo }
}

/// One-word description of a resolved reuse configuration, for sweep
/// banners.
fn reuse_tag(reuse: EngineReuse) -> &'static str {
    if reuse.memo {
        "memo"
    } else {
        "off"
    }
}

/// Parses a `--kernels` value, the one kernel selection of `run` and
/// `submit`: comma-separated TSVC kernel names. A name that is no TSVC
/// kernel is a usage error naming it, never silently dropped.
fn parse_kernels(value: &str) -> Result<Vec<String>, CliError> {
    let names: Vec<String> = value
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    let unknown: Vec<&str> = names
        .iter()
        .map(String::as_str)
        .filter(|name| llm_vectorizer_repro::tsvc::kernel(name).is_none())
        .collect();
    if !unknown.is_empty() {
        return Err(usage(format!(
            "--kernels: no TSVC kernel named {}",
            unknown.join(", ")
        )));
    }
    if names.is_empty() {
        return Err(usage("--kernels needs at least one kernel name"));
    }
    Ok(names)
}

/// `lv-sweep cache stats FILE...`: per-file cache statistics.
fn cache_stats(paths: &[String]) -> Result<(), CliError> {
    if paths.is_empty() {
        return Err(usage("cache stats needs at least one cache file"));
    }
    for path in paths {
        let path = Path::new(path);
        let stats = cache_file_stats(path)
            .map_err(|e| runtime(format!("cannot read {}: {}", path.display(), e)))?;
        println!("{}:", path.display());
        println!("  file bytes:      {}", stats.file_bytes);
        println!("  entries:         {}", stats.entries);
        println!("  bytes/entry:     {:.1}", stats.bytes_per_entry());
        println!(
            "  verdicts:        {} equivalent, {} not-equivalent, {} inconclusive",
            stats.equivalent, stats.not_equivalent, stats.inconclusive
        );
    }
    Ok(())
}

/// The TSVC scalar kernel list (label + function), optionally restricted
/// to named kernels, in suite order.
fn tsvc_scalars(kernels: &Option<Vec<String>>) -> Vec<(String, Function)> {
    llm_vectorizer_repro::tsvc::KERNELS
        .iter()
        .filter(|kernel| {
            kernels
                .as_ref()
                .is_none_or(|names| names.iter().any(|n| n == kernel.name))
        })
        .map(|kernel| (kernel.name.to_string(), kernel.function()))
        .collect()
}

/// The TSVC Table 3 job list: the rule-based candidate of each selected
/// kernel. Without `--kernels` that is every kernel the rule-based
/// vectorizer supports; a named kernel it does not support is a usage
/// error naming it, never silently dropped.
fn tsvc_jobs(kernels: &Option<Vec<String>>) -> Result<Vec<Job>, CliError> {
    let mut jobs = Vec::new();
    let mut unsupported = Vec::new();
    for (name, scalar) in tsvc_scalars(kernels) {
        match llm_vectorizer_repro::agents::vectorize_correct(&scalar) {
            Ok(candidate) => jobs.push(Job::new(name, scalar, candidate)),
            Err(_) => unsupported.push(name),
        }
    }
    if kernels.is_some() && !unsupported.is_empty() {
        return Err(usage(format!(
            "--kernels: the rule-based vectorizer has no candidate for {} \
             (`run --generate K` verifies generated candidates of any kernel)",
            unsupported.join(", ")
        )));
    }
    Ok(jobs)
}

/// The pass@k sample points for a budget of `k`: 1, 2, 4, … and `k`.
fn passk_points(k: usize) -> Vec<usize> {
    let mut ks: Vec<usize> = std::iter::successors(Some(1usize), |&p| p.checked_mul(2))
        .take_while(|&p| p < k)
        .collect();
    ks.push(k);
    ks
}

/// The `--quick` pipeline: tiny checksum trials and tight solver budgets,
/// for smoke runs and CI.
fn build_pipeline(quick: bool) -> PipelineConfig {
    if quick {
        PipelineConfig {
            checksum: ChecksumConfig {
                trials: 1,
                n: 40,
                ..ChecksumConfig::default()
            },
            tv: TvConfig {
                alive2_budget: SolverBudget {
                    max_conflicts: 5_000,
                    max_clauses: 200_000,
                },
                cunroll_budget: SolverBudget {
                    max_conflicts: 50_000,
                    max_clauses: 1_000_000,
                },
                spatial_budget: SolverBudget {
                    max_conflicts: 20_000,
                    max_clauses: 500_000,
                },
                alive2_chunks: 1,
                ..TvConfig::default()
            },
        }
    } else {
        PipelineConfig::default()
    }
}

/// The verdict cache of `run` and `serve`: the snapshot at `--cache FILE`
/// (a missing file is an empty cache), or an in-memory cache.
fn open_cache(path: Option<&Path>) -> Result<Arc<VerdictCache>, CliError> {
    Ok(Arc::new(match path {
        Some(path) => VerdictCache::open(path)
            .map_err(|e| runtime(format!("cannot open cache {}: {}", path.display(), e)))?,
        None => VerdictCache::in_memory(),
    }))
}

/// Writes a file-backed cache's snapshot; a no-op in memory.
fn persist_cache(cache: &VerdictCache) -> Result<(), CliError> {
    cache
        .persist()
        .map_err(|e| runtime(format!("cannot persist {}: {}", describe_cache(cache), e)))
}

/// `cache FILE (N entries)`, or `cache in memory (N entries)`, for
/// summary lines.
fn describe_cache(cache: &VerdictCache) -> String {
    let place = cache
        .path()
        .map_or_else(|| "in memory".to_string(), |p| p.display().to_string());
    format!("cache {} ({} entries)", place, cache.len())
}

/// `lv-sweep run` arguments: one in-process sweep, over the rule-based
/// TSVC jobs or, with `--generate K`, over generated candidates.
#[derive(Debug, PartialEq, Eq)]
struct RunArgs {
    generate: Option<usize>,
    gen_seed: u64,
    gen_threads: usize,
    kernels: Option<Vec<String>>,
    threads: usize,
    quick: bool,
    memo: bool,
    cache: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, CliError> {
    let mut opts = RunArgs {
        generate: None,
        gen_seed: 0xC0FFEE,
        gen_threads: 0,
        kernels: None,
        threads: 0,
        quick: false,
        memo: true,
        cache: None,
    };
    // The first flag seen that only means something with `--generate`.
    let mut generation_flag = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| usage(format!("{} needs a value", what)))
        };
        match arg.as_str() {
            "--generate" => {
                opts.generate = Some(
                    value("--generate")?
                        .parse::<usize>()
                        .ok()
                        .filter(|&k| k >= 1)
                        .ok_or_else(|| usage("--generate expects a positive integer"))?,
                )
            }
            "--gen-seed" => {
                generation_flag.get_or_insert("--gen-seed");
                opts.gen_seed = value("--gen-seed")?
                    .parse()
                    .map_err(|_| usage("--gen-seed expects an integer"))?
            }
            "--gen-threads" => {
                generation_flag.get_or_insert("--gen-threads");
                opts.gen_threads = value("--gen-threads")?
                    .parse()
                    .map_err(|_| usage("--gen-threads expects an integer"))?
            }
            "--kernels" => opts.kernels = Some(parse_kernels(&value("--kernels")?)?),
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|_| usage("--threads expects an integer"))?
            }
            "--quick" => opts.quick = true,
            "--no-reuse" => opts.memo = false,
            "--cache" => opts.cache = Some(value("--cache")?.into()),
            other => return Err(unknown_argument("run", other)),
        }
    }
    if let (None, Some(flag)) = (opts.generate, generation_flag) {
        return Err(usage(format!(
            "{} needs --generate K (completions per kernel)",
            flag
        )));
    }
    Ok(opts)
}

/// Bound on the CLI pipeline's generate→verify queue: enough to keep the
/// workers fed, small enough for backpressure to hold generation close to
/// verification.
const RUN_QUEUE_CAPACITY: usize = 32;

/// `lv-sweep run`: verify the selected jobs in this process, then persist
/// the cache.
fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let opts = parse_run(args)?;
    let cache = open_cache(opts.cache.as_deref())?;
    let reuse = resolve_reuse(opts.memo);
    let engine = VerificationEngine::new(
        EngineConfig::full(build_pipeline(opts.quick))
            .with_threads(opts.threads)
            .with_reuse(reuse)
            .with_cache(cache.clone()),
    );
    match opts.generate {
        Some(k) => run_generated(&engine, &opts, k, &cache)?,
        None => run_jobs(&engine, &opts, reuse, &cache)?,
    }
    Ok(())
}

/// `run` without `--generate`: one rule-based candidate per selected TSVC
/// kernel, one verdict line per job in job order, then the summary.
fn run_jobs(
    engine: &VerificationEngine,
    opts: &RunArgs,
    reuse: EngineReuse,
    cache: &VerdictCache,
) -> Result<(), CliError> {
    let jobs = tsvc_jobs(&opts.kernels)?;
    println!(
        "sweeping {} jobs in process (reuse {})",
        jobs.len(),
        reuse_tag(reuse)
    );
    let report = engine.run_batch(&jobs);
    persist_cache(cache)?;
    for job in &report.jobs {
        println!(
            "{}: {:?} @ {}{}",
            job.label,
            job.verdict,
            job.stage.label(),
            if job.detail.is_empty() {
                String::new()
            } else {
                format!(" ({})", job.detail)
            }
        );
    }
    println!(
        "{} equivalent, {} not equivalent, {} inconclusive; {} answered from the cache; {}; \
         wall {:?}",
        report.count(Equivalence::Equivalent),
        report.count(Equivalence::NotEquivalent),
        report.count(Equivalence::Inconclusive),
        report.cache_hits,
        describe_cache(cache),
        report.wall
    );
    let totals = report.reuse_totals();
    if !totals.is_zero() {
        println!(
            "reuse: {} blast-cache hits / {} misses",
            totals.blast_hits, totals.blast_misses
        );
    }
    Ok(())
}

/// `run --generate K`: generate K candidates per kernel and verify them,
/// overlapped, then print the pass@k curve.
fn run_generated(
    engine: &VerificationEngine,
    opts: &RunArgs,
    k: usize,
    cache: &VerdictCache,
) -> Result<(), CliError> {
    let kernels = tsvc_scalars(&opts.kernels);
    let llm_config = LlmConfig {
        seed: opts.gen_seed,
        ..LlmConfig::default()
    };
    let ks = passk_points(k);
    println!(
        "generating {} candidate(s) x {} kernel(s) (seed {:#x}, {} generator thread(s)), \
         overlapped with verification",
        k,
        kernels.len(),
        opts.gen_seed,
        opts.gen_threads
    );
    let run = overlapped_pass_at_k(
        engine,
        &kernels,
        &llm_config,
        k,
        &ks,
        opts.gen_threads,
        RUN_QUEUE_CAPACITY,
    );
    persist_cache(cache)?;
    for ((name, _), plausible) in kernels.iter().zip(&run.plausible_per_kernel) {
        println!("{}: {}/{} plausible", name, plausible, k);
    }
    for (k, pass) in &run.curve {
        println!("pass@{}: {:.3}", k, pass);
    }
    println!(
        "{} job(s) verified on {} worker thread(s); {}; wall {:?}",
        run.report.jobs.len(),
        run.report.threads,
        describe_cache(cache),
        run.report.wall
    );
    Ok(())
}

/// `lv-sweep serve` arguments.
#[derive(Debug, PartialEq, Eq)]
struct ServeArgs {
    addr: String,
    cache: Option<PathBuf>,
    threads: usize,
    quick: bool,
    memo: bool,
}

fn parse_serve(args: &[String]) -> Result<ServeArgs, CliError> {
    let mut opts = ServeArgs {
        addr: DEFAULT_SERVICE_ADDR.to_string(),
        cache: None,
        threads: 0,
        quick: false,
        memo: true,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| usage(format!("{} needs a value", what)))
        };
        match arg.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--cache" => opts.cache = Some(value("--cache")?.into()),
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|_| usage("--threads expects an integer"))?
            }
            "--quick" => opts.quick = true,
            "--no-reuse" => opts.memo = false,
            other => return Err(unknown_argument("serve", other)),
        }
    }
    Ok(opts)
}

/// `lv-sweep serve`: run the verification daemon until a client asks it to
/// shut down.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let opts = parse_serve(args)?;
    let cache = open_cache(opts.cache.as_deref())?;
    let config = EngineConfig::full(build_pipeline(opts.quick))
        .with_threads(opts.threads)
        .with_reuse(resolve_reuse(opts.memo));
    let service = VerificationService::bind(opts.addr.as_str(), config, cache.clone())
        .map_err(|e| runtime(format!("cannot serve on {}: {}", opts.addr, e)))?;
    println!(
        "serving on {} (configuration fingerprint {:016x})",
        service.local_addr(),
        service.fingerprint()
    );
    service
        .serve_forever()
        .map_err(|e| runtime(format!("serve failed: {}", e)))?;
    persist_cache(&cache)?;
    let status = service.status();
    println!(
        "shutdown: {} connection(s), {} job(s) received, {} completed, {} dedupe hit(s), \
         {} stage run(s)",
        status.connections, status.received, status.completed, status.dedupe_hits, status.stages
    );
    Ok(())
}

/// `lv-sweep submit` arguments.
#[derive(Debug, PartialEq, Eq)]
struct SubmitArgs {
    addr: String,
    kernels: Option<Vec<String>>,
    generate: Option<usize>,
    gen_seed: u64,
    shutdown: bool,
}

fn parse_submit(args: &[String]) -> Result<SubmitArgs, CliError> {
    let mut opts = SubmitArgs {
        addr: DEFAULT_SERVICE_ADDR.to_string(),
        kernels: None,
        generate: None,
        gen_seed: 0xC0FFEE,
        shutdown: false,
    };
    let mut gen_seed_given = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| usage(format!("{} needs a value", what)))
        };
        match arg.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--kernels" => opts.kernels = Some(parse_kernels(&value("--kernels")?)?),
            "--generate" => {
                opts.generate = Some(
                    value("--generate")?
                        .parse::<usize>()
                        .ok()
                        .filter(|&k| k >= 1)
                        .ok_or_else(|| usage("--generate expects a positive integer"))?,
                )
            }
            "--gen-seed" => {
                gen_seed_given = true;
                opts.gen_seed = value("--gen-seed")?
                    .parse()
                    .map_err(|_| usage("--gen-seed expects an integer"))?
            }
            "--shutdown" => opts.shutdown = true,
            other => return Err(unknown_argument("submit", other)),
        }
    }
    if gen_seed_given && opts.generate.is_none() {
        return Err(usage(
            "--gen-seed needs --generate K (completions per kernel)",
        ));
    }
    Ok(opts)
}

/// `lv-sweep submit`: send the TSVC job list — or, with `--generate K`,
/// the seeded generated jobs `run --generate K` verifies — to a daemon and
/// print the streamed verdicts.
fn cmd_submit(args: &[String]) -> Result<(), CliError> {
    let opts = parse_submit(args)?;
    let mut client = ServiceClient::connect(opts.addr.as_str())
        .map_err(|e| runtime(format!("cannot connect to {}: {}", opts.addr, e)))?;
    println!(
        "connected to {} (configuration fingerprint {:016x})",
        opts.addr,
        client.fingerprint()
    );
    let jobs = match opts.generate {
        // K seeded candidates per kernel, sampled here on every CPU: the
        // job list is the same at any generator thread count.
        Some(k) => {
            let llm_config = LlmConfig {
                seed: opts.gen_seed,
                ..LlmConfig::default()
            };
            seeded_jobs(&tsvc_scalars(&opts.kernels), &llm_config, k, 0)
        }
        None => tsvc_jobs(&opts.kernels)?,
    };
    let verdicts = client
        .submit(&jobs)
        .map_err(|e| runtime(format!("submit failed: {}", e)))?;
    let mut counts = [0usize; 3];
    let mut dedupe = 0usize;
    for frame in &verdicts {
        counts[match frame.verdict.verdict {
            Equivalence::Equivalent => 0,
            Equivalence::NotEquivalent => 1,
            Equivalence::Inconclusive => 2,
        }] += 1;
        dedupe += usize::from(frame.cache_hit);
        println!(
            "{}: {:?} @ {}{}{}",
            frame.label,
            frame.verdict.verdict,
            frame.verdict.stage.label(),
            if frame.cache_hit { " [dedupe]" } else { "" },
            if frame.verdict.detail.is_empty() {
                String::new()
            } else {
                format!(" ({})", frame.verdict.detail)
            }
        );
    }
    println!(
        "{} equivalent, {} not equivalent, {} inconclusive; {} answered from dedupe",
        counts[0], counts[1], counts[2], dedupe
    );
    if opts.shutdown {
        client
            .shutdown()
            .map_err(|e| runtime(format!("shutdown failed: {}", e)))?;
        println!("daemon shut down");
    }
    Ok(())
}

fn parse_status(args: &[String]) -> Result<String, CliError> {
    let mut addr = DEFAULT_SERVICE_ADDR.to_string();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => {
                addr = iter
                    .next()
                    .cloned()
                    .ok_or_else(|| usage("--addr needs a value"))?
            }
            other => return Err(unknown_argument("status", other)),
        }
    }
    Ok(addr)
}

/// `lv-sweep status`: print a daemon's live counters.
fn cmd_status(args: &[String]) -> Result<(), CliError> {
    let addr = parse_status(args)?;
    let mut client = ServiceClient::connect(addr.as_str())
        .map_err(|e| runtime(format!("cannot connect to {}: {}", addr, e)))?;
    let status = client
        .status()
        .map_err(|e| runtime(format!("status failed: {}", e)))?;
    println!(
        "daemon {} (fingerprint {:016x}):",
        addr,
        client.fingerprint()
    );
    println!("  connections:  {}", status.connections);
    println!("  received:     {}", status.received);
    println!("  completed:    {}", status.completed);
    println!("  dedupe hits:  {}", status.dedupe_hits);
    println!("  stage runs:   {}", status.stages);
    Ok(())
}

fn run(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("cache") => match args.get(1).map(String::as_str) {
            Some("stats") => cache_stats(&args[2..]),
            _ => Err(usage("usage: lv-sweep cache stats FILE...")),
        },
        Some("compact") => Err(usage(REMOVED_COMPACT)),
        Some("run") => cmd_run(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("submit") => cmd_submit(&args[1..]),
        Some("status") => cmd_status(&args[1..]),
        // Bare `lv-sweep [flags]` is `run`.
        _ => cmd_run(args),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => e.report(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn serve_args_parse_and_reject() {
        let parsed = parse_serve(&strings(&[
            "--addr",
            "127.0.0.1:9000",
            "--cache",
            "/tmp/c.json",
            "--threads",
            "4",
            "--quick",
        ]))
        .unwrap();
        assert_eq!(parsed.addr, "127.0.0.1:9000");
        assert_eq!(parsed.cache.as_deref(), Some(Path::new("/tmp/c.json")));
        assert_eq!(parsed.threads, 4);
        assert!(parsed.quick);
        assert_eq!(parse_serve(&[]).unwrap().addr, DEFAULT_SERVICE_ADDR);

        for bad in [
            strings(&["--addr"]),
            strings(&["--threads", "many"]),
            strings(&["--port", "80"]),
            strings(&["--reuse"]),
            strings(&["--simplify"]),
        ] {
            assert!(
                matches!(parse_serve(&bad), Err(CliError::Usage(_))),
                "serve should reject {:?}",
                bad
            );
        }
    }

    #[test]
    fn submit_args_parse_and_reject() {
        let parsed = parse_submit(&strings(&[
            "--addr",
            "127.0.0.1:9000",
            "--kernels",
            "s000, s112",
            "--shutdown",
        ]))
        .unwrap();
        assert_eq!(parsed.addr, "127.0.0.1:9000");
        assert_eq!(parsed.kernels, Some(vec!["s000".into(), "s112".into()]));
        assert_eq!(parsed.generate, None);
        assert_eq!(parsed.gen_seed, 0xC0FFEE, "the synthetic LLM's seed");
        assert!(parsed.shutdown);

        let generated = parse_submit(&strings(&["--generate", "8", "--gen-seed", "42"])).unwrap();
        assert_eq!(generated.generate, Some(8));
        assert_eq!(generated.gen_seed, 42);

        for bad in [
            strings(&["--kernels"]),
            strings(&["--jobs", "x"]),
            strings(&["--generate", "0"]),
            strings(&["--generate", "many"]),
            strings(&["--gen-seed", "coffee"]),
            strings(&["--gen-seed", "7"]),
        ] {
            assert!(
                matches!(parse_submit(&bad), Err(CliError::Usage(_))),
                "submit should reject {:?}",
                bad
            );
        }
    }

    #[test]
    fn run_args_parse_and_reject() {
        let parsed = parse_run(&strings(&[
            "--generate",
            "8",
            "--gen-seed",
            "7",
            "--gen-threads",
            "2",
            "--kernels",
            "s000",
            "--threads",
            "4",
            "--quick",
        ]))
        .unwrap();
        assert_eq!(parsed.generate, Some(8));
        assert_eq!(parsed.gen_seed, 7);
        assert_eq!(parsed.gen_threads, 2);
        assert_eq!(parsed.kernels, Some(vec!["s000".into()]));
        assert_eq!(parsed.threads, 4);
        assert!(parsed.quick);
        assert_eq!(parsed.cache, None);

        // Without `--generate`, `run` sweeps the rule-based TSVC jobs.
        let jobs = parse_run(&strings(&["--cache", "/tmp/c.json", "--quick"])).unwrap();
        assert_eq!(jobs.generate, None);
        assert_eq!(jobs.cache.as_deref(), Some(Path::new("/tmp/c.json")));
        assert_eq!(parse_run(&[]).unwrap().generate, None);

        for bad in [
            strings(&["--generate", "0"]),
            strings(&["--generate"]),
            strings(&["--generate", "some"]),
            strings(&["--gen-threads", "2"]),
            strings(&["--gen-seed", "7"]),
            strings(&["--cache"]),
            strings(&["--generate", "4", "--gen-seed", "latte"]),
            strings(&["--generate", "4", "--overlap"]),
            strings(&["--generate", "4", "--reuse"]),
            strings(&["--generate", "4", "--simplify"]),
        ] {
            assert!(
                matches!(parse_run(&bad), Err(CliError::Usage(_))),
                "run should reject {:?}",
                bad
            );
        }
    }

    #[test]
    fn kernel_selection_refuses_unknown_names() {
        assert_eq!(
            parse_kernels("s000, s112,,vsumr").unwrap(),
            vec!["s000".to_string(), "s112".into(), "vsumr".into()]
        );
        // One unknown name among known ones is refused, not dropped, and
        // the message names every unknown name.
        for (value, unknown) in [
            ("s000,s0000", vec!["s0000"]),
            ("nope", vec!["nope"]),
            ("s112,x1,vsumr,x2", vec!["x1", "x2"]),
        ] {
            match parse_kernels(value) {
                Err(CliError::Usage(message)) => {
                    for name in unknown {
                        assert!(message.contains(name), "{}", message);
                    }
                    assert!(!message.contains("s112"), "{}", message);
                    assert!(!message.contains("vsumr"), "{}", message);
                }
                other => panic!("{:?} must be refused, got {:?}", value, other),
            }
        }
        assert!(matches!(parse_kernels(" , "), Err(CliError::Usage(_))));
        // A TSVC kernel the rule-based vectorizer has no candidate for is
        // refused by name where the sweep needs that candidate.
        match tsvc_jobs(&Some(vec!["s000".into(), "s1161".into()])) {
            Err(CliError::Usage(message)) => {
                assert!(message.contains("no candidate for s1161"), "{}", message)
            }
            other => panic!("s1161 must be refused, got {:?}", other.map(|j| j.len())),
        }
        assert_eq!(tsvc_scalars(&Some(vec!["s1161".into()])).len(), 1);
        assert_eq!(tsvc_jobs(&None).unwrap().len(), 37);
        // `run` and `submit` share the selection.
        for parsed in [
            parse_run(&strings(&["--kernels", "s000,s0000"])).err(),
            parse_submit(&strings(&["--kernels", "s000,s0000"])).err(),
        ] {
            match parsed {
                Some(CliError::Usage(message)) => assert!(message.contains("s0000"), "{}", message),
                other => panic!("an unknown kernel must be refused, got {:?}", other),
            }
        }
    }

    #[test]
    fn reuse_flags_resolve_layers() {
        // No flag: the blast memo — clause-identical, fingerprint-neutral.
        let default = resolve_reuse(true);
        assert_eq!(default, EngineReuse { memo: true });
        assert_eq!(reuse_tag(default), "memo");
        assert_eq!(resolve_reuse(false), EngineReuse::default());
        assert_eq!(reuse_tag(resolve_reuse(false)), "off");

        // `run` (with and without `--generate`) and `serve` take
        // `--no-reuse`.
        assert!(!parse_run(&strings(&["--no-reuse"])).unwrap().memo);
        assert!(
            !parse_run(&strings(&["--generate", "2", "--no-reuse"]))
                .unwrap()
                .memo
        );
        assert!(!parse_serve(&strings(&["--no-reuse"])).unwrap().memo);
        assert!(parse_serve(&[]).unwrap().memo);

        // The flags of the deleted layers are usage errors naming the layer.
        for (flag, layer) in [
            ("--reuse", "incremental per-scalar sessions"),
            ("--simplify", "CNF preprocessing"),
        ] {
            for parsed in [
                parse_run(&strings(&[flag])).err(),
                parse_run(&strings(&["--generate", "2", flag])).err(),
                parse_serve(&strings(&[flag])).err(),
            ] {
                match parsed {
                    Some(CliError::Usage(message)) => {
                        assert!(message.contains(flag), "{}", message);
                        assert!(message.contains(layer), "{}", message);
                    }
                    other => panic!("{} must be refused, got {:?}", flag, other),
                }
            }
        }
    }

    #[test]
    fn passk_points_are_powers_of_two_up_to_k() {
        assert_eq!(passk_points(1), vec![1]);
        assert_eq!(passk_points(8), vec![1, 2, 4, 8]);
        assert_eq!(passk_points(12), vec![1, 2, 4, 8, 12]);
        assert_eq!(passk_points(32), vec![1, 2, 4, 8, 16, 32]);
    }

    #[test]
    fn status_args_parse_and_reject() {
        assert_eq!(
            parse_status(&strings(&["--addr", "host:1"])).unwrap(),
            "host:1"
        );
        assert_eq!(parse_status(&[]).unwrap(), DEFAULT_SERVICE_ADDR);
        assert!(matches!(
            parse_status(&strings(&["--addr"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            parse_status(&strings(&["extra"])),
            Err(CliError::Usage(_))
        ));
    }

    /// `compact` rewrote shard report journals; it is refused whatever
    /// follows it, naming the removed layer.
    #[test]
    fn compact_args_parse_and_reject() {
        for args in [
            strings(&["compact"]),
            strings(&["compact", "a.json", "b.journal"]),
            strings(&["compact", "--format", "binary", "a.json"]),
        ] {
            match run(&args) {
                Err(CliError::Usage(message)) => {
                    assert!(message.contains("compact was removed"), "{}", message);
                    assert!(message.contains("shard report journals"), "{}", message);
                }
                other => panic!("{:?} must be refused, got {:?}", args, other),
            }
        }
    }

    /// The former coordinator command line: bare flags parse as `run`, and
    /// its shard flags are refused by name.
    #[test]
    fn coordinator_args_parse_and_reject() {
        let parsed = parse_run(&strings(&["--kernels", "s000,s112", "--threads", "3"])).unwrap();
        assert_eq!(parsed.generate, None);
        assert_eq!(parsed.threads, 3);
        assert!(parsed.memo, "memo-on default");

        // Every malformed spelling is a typed usage error, never a panic.
        for bad in [
            strings(&["--shards", "2"]),
            strings(&["--shards"]),
            strings(&["--policy", "range"]),
            strings(&["--workdir", "/tmp/sw"]),
            strings(&["--flush-every", "3"]),
            strings(&["--flush", "rewrite"]),
            strings(&["--cache-format", "binary"]),
            strings(&["--timeout-secs", "30"]),
            strings(&["--fsync", "record"]),
            strings(&["--max-cache-entries", "10"]),
            strings(&["--shard", "0/2", "--manifest", "m.json", "--out", "."]),
            strings(&["--serve"]),
            strings(&["--threads", "many"]),
        ] {
            assert!(
                matches!(parse_run(&bad), Err(CliError::Usage(_))),
                "run should reject {:?}",
                bad
            );
        }
    }

    #[test]
    fn removed_tuning_flags_are_refused_by_name() {
        for (flag, layer, _) in REMOVED_LAYER_FLAGS {
            for args in [strings(&[flag]), strings(&[flag, "profile"])] {
                for parsed in [
                    parse_run(&args).err(),
                    parse_serve(&args).err(),
                    parse_submit(&args).err(),
                    parse_status(&args).err(),
                ] {
                    match parsed {
                        Some(CliError::Usage(message)) => {
                            assert!(message.contains(flag), "{}", message);
                            assert!(message.contains(layer), "{}", message);
                        }
                        other => panic!("{} must be refused, got {:?}", flag, other),
                    }
                }
            }
        }
    }

    /// The journals of removed layers, which `compact` used to refuse, are
    /// refused by `cache stats` with their names and left as they were.
    #[test]
    fn cache_stats_refuses_removed_journals_by_name() {
        for (kind, named) in [
            ("cross-run-profile", "cross-run profile"),
            ("shard-claims", "shard claim journal"),
            ("shard-report", "shard report journal"),
            ("verdict-cache", "JSON cache journal"),
        ] {
            let path =
                std::env::temp_dir().join(format!("lv-sweep-{}-{}.json", kind, std::process::id()));
            let journal = format!("{{\"journal\":\"{}\",\"version\":1}} 00000000\n", kind);
            std::fs::write(&path, &journal).unwrap();
            let result = cache_stats(&[path.display().to_string()]);
            match result {
                Err(CliError::Runtime(message)) => {
                    assert!(message.contains(named), "{}", message);
                }
                other => panic!("a {} journal must be refused, got {:?}", kind, other),
            }
            assert_eq!(
                std::fs::read_to_string(&path).unwrap(),
                journal,
                "a refused file is left as it was"
            );
            std::fs::remove_file(&path).unwrap();
        }
    }
}
