//! `lv-sweep` — the sharded multi-process TSVC sweep CLI.
//!
//! Coordinator mode (the default) builds one verification job per TSVC
//! kernel the rule-based vectorizer supports, partitions them over `N`
//! worker *processes* (each re-invoking this very binary with `--shard
//! i/N`), and merges the per-shard reports into a single table plus a
//! merged cache file — bit-identical to what a single-process run
//! produces.
//!
//! ```text
//! lv-sweep [--shards N] [--policy hash|range] [--workdir DIR]
//!          [--kernels s000,s112,...] [--threads T] [--quick]
//!          [--max-cache-entries N] [--timeout-secs S]
//!          [--fsync compact|record] [--flush-every N]
//!          [--no-reuse]
//! lv-sweep run --generate K [--gen-seed S] [--gen-threads T]
//!          [--kernels s000,...] [--threads N] [--quick] [--no-overlap]
//!          [--no-reuse]
//! lv-sweep serve [--addr HOST:PORT] [--cache FILE] [--threads T] [--quick]
//!          [--no-reuse]
//! lv-sweep submit [--addr HOST:PORT] [--kernels s000,...]
//!          [--generate K] [--gen-seed S] [--shutdown]
//! lv-sweep status [--addr HOST:PORT]
//! lv-sweep compact FILE...
//! lv-sweep cache stats FILE...
//! ```
//!
//! `run` is the overlapped generation→verification pipeline in one
//! process: `--gen-threads` producer threads sample `K` candidates per
//! kernel (per-cell seeds derived from `--gen-seed`, so any thread count
//! yields the same candidate set) and stream them through the engine's
//! bounded job intake while verification is already running. Verdicts are
//! bit-identical to the unoverlapped same-seed run (`--no-overlap`
//! generates the full batch first, then verifies — the comparison arm).
//! The pass@k curve of Section 4.1.2 is printed for k = 1, 2, 4, … K.
//!
//! The coordinator accepts the same `--generate K` / `--gen-seed S` pair:
//! the sweep manifest then carries the *generation spec* instead of
//! printed candidates, and every shard process generates its own share
//! (overlapped with verification) — bit-identical to the single-process
//! run over the same spec. `submit --generate K` asks a daemon to do the
//! generation server-side: each selected kernel occupies `K` verdict slots
//! labeled `name#j`, and generation overlaps verification on the daemon.
//!
//! Exit status: `0` on success, `1` on a runtime failure (I/O, solver,
//! protocol), `2` on a malformed command line. Every failure is a typed
//! error printed to stderr — never a panic.
//!
//! Each worker writes one output file, its shard report: an append-only
//! JSON journal to which it appends one framed record per finished job —
//! O(record) flush I/O. `--fsync` picks when the report journals reach the
//! disk: `compact` (default) syncs only at compaction, `record` syncs after
//! every appended record. `--flush-every N` buffers N report record appends
//! per syscall flush (default 1); a killed worker then loses at most N−1
//! buffered tail records, all of which the coordinator's recovery re-runs.
//! The coordinator builds the merged cache from the reports. The `--flush`
//! and `--cache-format` flags of earlier builds (rewrite flushing, binary
//! cache journals) are gone and refused as usage errors.
//!
//! Every job runs Algorithm 1's cascade in its one order under fixed
//! per-stage budgets. The `--profile`, `--schedule` and `--budget` flags of
//! earlier builds (cross-run telemetry profiles, per-category stage
//! schedules, profile-tuned budgets) are gone with their layers and refused
//! as usage errors naming the layer.
//!
//! Every worker's solver runs with the blasted-CNF memo on: its replays are
//! clause-identical, so it changes no verdict, fingerprint, or cache byte.
//! `--no-reuse` (accepted by the coordinator, `run` and `serve`) switches
//! it off. The `--reuse` (incremental per-scalar sessions) and `--simplify`
//! (CNF preprocessing) flags of earlier builds are gone with their layers
//! and refused as usage errors.
//!
//! Each worker runs exactly its own shard's share. The coordinator waits
//! for every worker to exit, kills any still running after
//! `--timeout-secs`, and re-runs in-process whatever no worker reported.
//! The flags of the removed shard liveness layers are refused as usage
//! errors naming the layer.
//!
//! `serve` runs the long-lived verification daemon
//! ([`VerificationService`]): a loopback-first TCP listener speaking the
//! CRC-framed `LVSV` wire protocol, deduping every submitted job through
//! the shared verdict cache (`--cache` persists it across restarts) before
//! anything runs. `submit` builds the TSVC job list client-side, streams it
//! to a daemon, and prints the verdict table (`--shutdown` stops the daemon
//! afterwards); `status` prints a daemon's live counters. See
//! `lv_core::service` for the protocol.
//!
//! `compact` rewrites a shard-report journal into a fresh report journal in
//! job-index order without a torn tail; a verdict-cache JSON snapshot is
//! already compact and left unchanged. The JSON cache journal, binary cache
//! journal (`LVBJ`), binary snapshot (`LVCS`), cross-run profile journal and
//! shard claim journal of earlier builds are refused with an error naming
//! the removed form and left untouched, and the `--format` flag that could
//! write the binary snapshot is a usage error.
//!
//! `cache stats` prints, for each verdict-cache snapshot: size, entry
//! count, bytes per entry, and the per-verdict-class histogram. A file of a
//! removed cache form is refused by name.
//!
//! Worker mode is selected by the presence of `--shard i/N` (plus
//! `--manifest` and `--out`, which the coordinator passes automatically)
//! and is not meant to be invoked by hand.

use llm_vectorizer_repro::agents::LlmConfig;
use llm_vectorizer_repro::cir::ast::Function;
use llm_vectorizer_repro::core::shard::{
    removed_layer_message, run_worker_from_args, ShardError, ShardReportFile,
};
use llm_vectorizer_repro::core::{
    cache_file_stats, generate_then_verify_pass_at_k, overlapped_pass_at_k, CacheBounds,
    EngineConfig, EngineReuse, Equivalence, FsyncPolicy, GenerationRequest, GenerationSpec, Job,
    PipelineConfig, ServiceClient, ShardPolicy, SweepConfig, VerdictCache, VerificationEngine,
    VerificationService, WorkerSpec,
};
use llm_vectorizer_repro::interp::ChecksumConfig;
use llm_vectorizer_repro::tv::{SolverBudget, TvConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// Every way an `lv-sweep` invocation can fail, split by whose fault it
/// is: a malformed command line exits `2`, a runtime failure exits `1`.
/// Both print a typed message to stderr; nothing in this binary panics on
/// bad input.
#[derive(Debug, PartialEq, Eq)]
enum CliError {
    /// The command line is malformed (unknown flag, missing value,
    /// unparsable number, empty selection).
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

/// The usage error for a flag whose solver layer was deleted.
fn removed_layer_flag(flag: &str) -> CliError {
    let layer = match flag {
        "--reuse" => "incremental per-scalar sessions",
        _ => "CNF preprocessing",
    };
    usage(format!(
        "{} was removed with its solver layer ({}); the blast memo is on unless --no-reuse",
        flag, layer
    ))
}

/// Parses `lv-sweep compact FILE...`: every argument is a file; flags are
/// usage errors (`--format` of earlier builds, which could write the
/// removed binary snapshot, by name).
fn parse_compact(args: &[String]) -> Result<Vec<PathBuf>, CliError> {
    if let Some(flag) = args.iter().find(|arg| arg.starts_with("--")) {
        return Err(usage(if flag == "--format" {
            "--format was removed: verdict caches compact to the JSON snapshot".to_string()
        } else {
            format!("compact takes no option `{}`", flag)
        }));
    }
    if args.is_empty() {
        return Err(usage("compact needs at least one journal file"));
    }
    Ok(args.iter().map(PathBuf::from).collect())
}

/// `lv-sweep compact FILE...`: rewrites each file into its canonical
/// compact form, dispatching on the journal kind header.
fn compact_files(args: &[String]) -> Result<(), CliError> {
    for path in parse_compact(args)? {
        let path = path.as_path();
        let bytes = std::fs::read(path)
            .map_err(|e| runtime(format!("cannot read {}: {}", path.display(), e)))?;
        let before = bytes.len();
        let result: Result<&str, String> = if bytes.starts_with(b"{\"journal\":\"shard-report\"") {
            ShardReportFile::load(path)
                .map_err(|e| e.to_string())
                .and_then(|report| {
                    report
                        .rewrite(path, FsyncPolicy::OnCompact)
                        .map(|()| "shard report -> compacted journal")
                        .map_err(|e| e.to_string())
                })
        } else if bytes.starts_with(b"{\"journal\":\"cross-run-profile\"") {
            Err("a cross-run profile journal, a layer this build removed: \
                 nothing reads it, so there is nothing to compact"
                .to_string())
        } else if bytes.starts_with(b"{\"journal\":\"shard-claims\"") {
            Err(
                "a shard claim journal of live-shard work stealing, a layer this \
                 build removed: nothing reads it, so there is nothing to compact"
                    .to_string(),
            )
        } else if bytes.starts_with(b"{\"version\":") {
            // Already the target JSON snapshot: compaction is a no-op, not
            // an error, so `compact` is idempotent over a workdir.
            Ok("already a snapshot (unchanged)")
        } else {
            // The cache reader's error names the removed cache forms (the
            // JSON cache journal and both binary forms).
            let reason = "not a recognized journal or snapshot file";
            Err(match VerdictCache::open(path) {
                Err(e) => format!("{}: {}", reason, e),
                Ok(_) => reason.to_string(),
            })
        };
        match result {
            Ok(what) => {
                let after = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                println!(
                    "compacted {}: {} ({} -> {} bytes)",
                    path.display(),
                    what,
                    before,
                    after
                );
            }
            Err(e) => {
                return Err(runtime(format!("cannot compact {}: {}", path.display(), e)));
            }
        }
    }
    Ok(())
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

/// The TSVC Table 3 job list, optionally restricted to named kernels.
fn tsvc_jobs(kernels: &Option<Vec<String>>) -> Result<Vec<Job>, CliError> {
    let jobs: Vec<Job> = llm_vectorizer_repro::tsvc::KERNELS
        .iter()
        .filter(|kernel| {
            kernels
                .as_ref()
                .is_none_or(|names| names.iter().any(|n| n == kernel.name))
        })
        .filter_map(|kernel| {
            let scalar = kernel.function();
            let candidate = llm_vectorizer_repro::agents::vectorize_correct(&scalar).ok()?;
            Some(Job::new(kernel.name, scalar, candidate))
        })
        .collect();
    if jobs.is_empty() {
        return Err(usage("no verification jobs (unknown --kernels selection?)"));
    }
    Ok(jobs)
}

/// The TSVC scalar kernel list (label + function) for candidate
/// generation, optionally restricted to named kernels. Unlike
/// [`tsvc_jobs`] this places no demand on the rule-based vectorizer — the
/// candidates come from the generator.
fn tsvc_scalars(kernels: &Option<Vec<String>>) -> Result<Vec<(String, Function)>, CliError> {
    let scalars: Vec<(String, Function)> = llm_vectorizer_repro::tsvc::KERNELS
        .iter()
        .filter(|kernel| {
            kernels
                .as_ref()
                .is_none_or(|names| names.iter().any(|n| n == kernel.name))
        })
        .map(|kernel| (kernel.name.to_string(), kernel.function()))
        .collect();
    if scalars.is_empty() {
        return Err(usage("no kernels selected (unknown --kernels selection?)"));
    }
    Ok(scalars)
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

/// `lv-sweep run` arguments: the one-process overlapped pipeline.
#[derive(Debug, PartialEq, Eq)]
struct RunArgs {
    generate: usize,
    gen_seed: u64,
    gen_threads: usize,
    kernels: Option<Vec<String>>,
    threads: usize,
    quick: bool,
    overlap: bool,
    memo: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, CliError> {
    let mut opts = RunArgs {
        generate: 0,
        gen_seed: 0xC0FFEE,
        gen_threads: 0,
        kernels: None,
        threads: 0,
        quick: false,
        overlap: true,
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
            "--generate" => {
                opts.generate = value("--generate")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&k| k >= 1)
                    .ok_or_else(|| usage("--generate expects a positive integer"))?
            }
            "--gen-seed" => {
                opts.gen_seed = value("--gen-seed")?
                    .parse()
                    .map_err(|_| usage("--gen-seed expects an integer"))?
            }
            "--gen-threads" => {
                opts.gen_threads = value("--gen-threads")?
                    .parse()
                    .map_err(|_| usage("--gen-threads expects an integer"))?
            }
            "--kernels" => {
                opts.kernels = Some(
                    value("--kernels")?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                )
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|_| usage("--threads expects an integer"))?
            }
            "--quick" => opts.quick = true,
            "--no-overlap" => opts.overlap = false,
            "--no-reuse" => opts.memo = false,
            "--reuse" | "--simplify" => return Err(removed_layer_flag(arg)),
            other => return Err(usage(format!("run: unknown argument `{}`", other))),
        }
    }
    if opts.generate == 0 {
        return Err(usage("run needs --generate K (completions per kernel)"));
    }
    Ok(opts)
}

/// Bound on the CLI pipeline's generate→verify queue: enough to keep the
/// workers fed, small enough for backpressure to hold generation close to
/// verification.
const RUN_QUEUE_CAPACITY: usize = 32;

/// `lv-sweep run`: generate K candidates per kernel and verify them,
/// overlapped (or, with `--no-overlap`, generate-then-verify — same seeds,
/// bit-identical verdicts).
fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let opts = parse_run(args)?;
    let kernels = tsvc_scalars(&opts.kernels)?;
    let engine = VerificationEngine::new(
        EngineConfig::full(build_pipeline(opts.quick))
            .with_threads(opts.threads)
            .with_reuse(resolve_reuse(opts.memo)),
    );
    let llm_config = LlmConfig {
        seed: opts.gen_seed,
        ..LlmConfig::default()
    };
    let ks = passk_points(opts.generate);
    println!(
        "generating {} candidate(s) x {} kernel(s) (seed {:#x}, {} generator thread(s)), {}",
        opts.generate,
        kernels.len(),
        opts.gen_seed,
        opts.gen_threads,
        if opts.overlap {
            "overlapped with verification"
        } else {
            "then verifying"
        }
    );
    let run = if opts.overlap {
        overlapped_pass_at_k(
            &engine,
            &kernels,
            &llm_config,
            opts.generate,
            &ks,
            opts.gen_threads,
            RUN_QUEUE_CAPACITY,
        )
    } else {
        generate_then_verify_pass_at_k(
            &engine,
            &kernels,
            &llm_config,
            opts.generate,
            &ks,
            opts.gen_threads,
        )
    };
    for ((name, _), plausible) in kernels.iter().zip(&run.plausible_per_kernel) {
        println!("{}: {}/{} plausible", name, plausible, opts.generate);
    }
    for (k, pass) in &run.curve {
        println!("pass@{}: {:.3}", k, pass);
    }
    println!(
        "{} job(s) verified on {} worker thread(s); wall {:?}",
        run.report.jobs.len(),
        run.report.threads,
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
            "--reuse" | "--simplify" => return Err(removed_layer_flag(arg)),
            other => return Err(usage(format!("serve: unknown argument `{}`", other))),
        }
    }
    Ok(opts)
}

/// `lv-sweep serve`: run the verification daemon until a client asks it to
/// shut down.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let opts = parse_serve(args)?;
    let cache = match &opts.cache {
        Some(path) => Arc::new(
            VerdictCache::open(path)
                .map_err(|e| runtime(format!("cannot open cache {}: {}", path.display(), e)))?,
        ),
        None => Arc::new(VerdictCache::in_memory()),
    };
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
    if let Some(path) = &opts.cache {
        cache
            .persist()
            .map_err(|e| runtime(format!("cannot persist cache {}: {}", path.display(), e)))?;
    }
    let status = service.status();
    println!(
        "shutdown: {} connection(s), {} job(s) received, {} completed, {} dedupe hit(s), \
         {} stage run(s), {} generated",
        status.connections,
        status.received,
        status.completed,
        status.dedupe_hits,
        status.stages,
        status.generated
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
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| usage(format!("{} needs a value", what)))
        };
        match arg.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--kernels" => {
                opts.kernels = Some(
                    value("--kernels")?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                )
            }
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
                opts.gen_seed = value("--gen-seed")?
                    .parse()
                    .map_err(|_| usage("--gen-seed expects an integer"))?
            }
            "--shutdown" => opts.shutdown = true,
            other => return Err(usage(format!("submit: unknown argument `{}`", other))),
        }
    }
    Ok(opts)
}

/// `lv-sweep submit`: send the TSVC job list — or, with `--generate K`,
/// server-side generation requests — to a daemon and print the streamed
/// verdicts.
fn cmd_submit(args: &[String]) -> Result<(), CliError> {
    let opts = parse_submit(args)?;
    let mut client = ServiceClient::connect(opts.addr.as_str())
        .map_err(|e| runtime(format!("cannot connect to {}: {}", opts.addr, e)))?;
    println!(
        "connected to {} (configuration fingerprint {:016x})",
        opts.addr,
        client.fingerprint()
    );
    let verdicts = match opts.generate {
        // Server-side generation: K slots per kernel, generated and
        // verified overlapped on the daemon.
        Some(k) => {
            let requests: Vec<GenerationRequest> = tsvc_scalars(&opts.kernels)?
                .into_iter()
                .map(|(label, scalar)| GenerationRequest {
                    label,
                    scalar,
                    k: k as u32,
                    seed: opts.gen_seed,
                })
                .collect();
            client
                .submit_generation(&requests)
                .map_err(|e| runtime(format!("submit failed: {}", e)))?
        }
        None => {
            let jobs = tsvc_jobs(&opts.kernels)?;
            client
                .submit(&jobs)
                .map_err(|e| runtime(format!("submit failed: {}", e)))?
        }
    };
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
            other => return Err(usage(format!("status: unknown argument `{}`", other))),
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
    println!("  gen queued:   {}", status.generation_queued);
    println!("  generated:    {}", status.generated);
    Ok(())
}

/// Coordinator-mode arguments (the default subcommand).
#[derive(Debug, PartialEq, Eq)]
struct CoordinatorArgs {
    shards: usize,
    policy: ShardPolicy,
    workdir: PathBuf,
    kernels: Option<Vec<String>>,
    threads: usize,
    quick: bool,
    max_entries: Option<usize>,
    timeout: Duration,
    fsync: FsyncPolicy,
    flush_every: usize,
    memo: bool,
    generate: Option<usize>,
    gen_seed: u64,
}

fn parse_coordinator(args: &[String]) -> Result<CoordinatorArgs, CliError> {
    let mut opts = CoordinatorArgs {
        shards: 2,
        policy: ShardPolicy::HashMod,
        workdir: std::env::temp_dir().join(format!("lv-sweep-{}", std::process::id())),
        kernels: None,
        threads: 0,
        quick: false,
        max_entries: None,
        timeout: Duration::from_secs(600),
        fsync: FsyncPolicy::default(),
        flush_every: 1,
        memo: true,
        generate: None,
        gen_seed: 0xC0FFEE,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |what: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| usage(format!("{} needs a value", what)))
        };
        match arg.as_str() {
            "--shards" => {
                opts.shards = value("--shards")?
                    .parse()
                    .map_err(|_| usage("--shards expects an integer"))?
            }
            "--policy" => {
                opts.policy = match value("--policy")?.as_str() {
                    "hash" | "hash-mod" => ShardPolicy::HashMod,
                    "range" | "contiguous" => ShardPolicy::Contiguous,
                    other => return Err(usage(format!("unknown policy `{}`", other))),
                }
            }
            "--workdir" => opts.workdir = value("--workdir")?.into(),
            "--kernels" => {
                opts.kernels = Some(
                    value("--kernels")?
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .filter(|s| !s.is_empty())
                        .collect(),
                )
            }
            "--threads" => {
                opts.threads = value("--threads")?
                    .parse()
                    .map_err(|_| usage("--threads expects an integer"))?
            }
            "--quick" => opts.quick = true,
            "--max-cache-entries" => {
                opts.max_entries = Some(
                    value("--max-cache-entries")?
                        .parse()
                        .map_err(|_| usage("--max-cache-entries expects an integer"))?,
                )
            }
            "--timeout-secs" => {
                opts.timeout = Duration::from_secs(
                    value("--timeout-secs")?
                        .parse()
                        .map_err(|_| usage("--timeout-secs expects an integer"))?,
                )
            }
            "--fsync" => opts.fsync = FsyncPolicy::from_tag(&value("--fsync")?).map_err(usage)?,
            "--flush-every" => {
                opts.flush_every = value("--flush-every")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| usage("--flush-every expects a positive integer"))?
            }
            "--flush" | "--cache-format" => {
                return Err(usage(format!(
                    "{} was removed: shard outputs are always JSON journals",
                    arg
                )))
            }
            "--no-reuse" => opts.memo = false,
            "--reuse" | "--simplify" => return Err(removed_layer_flag(arg)),
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
                opts.gen_seed = value("--gen-seed")?
                    .parse()
                    .map_err(|_| usage("--gen-seed expects an integer"))?
            }
            other => {
                return Err(usage(removed_layer_message(other).unwrap_or_else(|| {
                    format!("unknown argument `{}` (see the module docs)", other)
                })))
            }
        }
    }
    Ok(opts)
}

/// Coordinator mode: run the sharded sweep and print the merged table.
fn cmd_coordinator(args: &[String]) -> Result<(), CliError> {
    let opts = parse_coordinator(args)?;
    let pipeline = build_pipeline(opts.quick);

    let reuse = resolve_reuse(opts.memo);
    let config = EngineConfig::full(pipeline)
        .with_threads(opts.threads)
        .with_reuse(reuse);

    let worker = WorkerSpec::current_exe()
        .map_err(|e| runtime(format!("cannot locate own executable: {}", e)))?;
    let sweep = SweepConfig {
        shards: opts.shards,
        policy: opts.policy,
        workdir: opts.workdir.clone(),
        timeout: opts.timeout,
        worker,
        bounds: CacheBounds {
            max_entries: opts.max_entries,
        },
        fsync: opts.fsync,
        flush_every: opts.flush_every,
        fail_shard_after: None,
    };

    let describe = |count: usize, what: &str| {
        println!(
            "sweeping {} {} over {} shard process(es) ({}, fsync {}, reuse {}), workdir {}",
            count,
            what,
            opts.shards,
            opts.policy.tag(),
            opts.fsync.tag(),
            reuse_tag(reuse),
            opts.workdir.display()
        );
    };
    let swept = match opts.generate {
        // Generation sweep: the manifest ships the spec, every shard
        // generates (and verifies, overlapped) its own share.
        Some(k) => {
            let spec = GenerationSpec {
                kernels: tsvc_scalars(&opts.kernels)?,
                k,
                seed: opts.gen_seed,
            };
            describe(spec.job_count(), "generated job(s)");
            llm_vectorizer_repro::core::run_generated_sweep(spec, &config, &sweep)
        }
        None => {
            let jobs = tsvc_jobs(&opts.kernels)?;
            describe(jobs.len(), "jobs");
            llm_vectorizer_repro::core::run_sharded_sweep(&jobs, &config, &sweep)
        }
    }
    .map_err(|e| runtime(e.to_string()))?;

    for outcome in &swept.shards {
        println!(
            "shard {}: {:?}, {}/{} job(s) reported",
            outcome.shard, outcome.status, outcome.reported, outcome.planned
        );
    }
    if !swept.recovered.is_empty() {
        println!("recovered {} job(s) in-process", swept.recovered.len());
    }
    for job in &swept.report.jobs {
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
        "merged: {} equivalent, {} not equivalent, {} inconclusive; cache {} ({} entries, {} evicted); wall {:?}",
        swept.report.count(Equivalence::Equivalent),
        swept.report.count(Equivalence::NotEquivalent),
        swept.report.count(Equivalence::Inconclusive),
        swept.cache_file.display(),
        swept.cache.len(),
        swept.evicted,
        swept.report.wall
    );
    let totals = swept.report.reuse_totals();
    if !totals.is_zero() {
        println!(
            "reuse: {} blast-cache hits / {} misses",
            totals.blast_hits, totals.blast_misses
        );
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("compact") => return compact_files(&args[1..]),
        Some("cache") => {
            return match args.get(1).map(String::as_str) {
                Some("stats") => cache_stats(&args[2..]),
                _ => Err(usage("usage: lv-sweep cache stats FILE...")),
            }
        }
        Some("run") => return cmd_run(&args[1..]),
        Some("serve") => return cmd_serve(&args[1..]),
        Some("submit") => return cmd_submit(&args[1..]),
        Some("status") => return cmd_status(&args[1..]),
        _ => {}
    }

    // Worker mode: the coordinator spawned us with `--shard i/N`.
    if let Some(result) = run_worker_from_args(args) {
        return match result {
            Ok(output) => {
                println!(
                    "shard {} finished {} job(s); report {}",
                    output.shard,
                    output.finished,
                    output.report_file.display()
                );
                Ok(())
            }
            Err(ShardError::BadInvocation(e)) => {
                Err(usage(format!("bad worker invocation: {}", e)))
            }
            Err(e) => Err(runtime(e.to_string())),
        };
    }

    cmd_coordinator(args)
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
    use llm_vectorizer_repro::core::shard::REMOVED_LAYER_FLAGS;

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
        assert_eq!(parsed.generate, 8);
        assert_eq!(parsed.gen_seed, 7);
        assert_eq!(parsed.gen_threads, 2);
        assert_eq!(parsed.kernels, Some(vec!["s000".into()]));
        assert_eq!(parsed.threads, 4);
        assert!(parsed.quick);
        assert!(parsed.overlap, "overlap is the default");
        assert!(
            !parse_run(&strings(&["--generate", "1", "--no-overlap"]))
                .unwrap()
                .overlap
        );

        for bad in [
            strings(&[]),
            strings(&["--generate", "0"]),
            strings(&["--generate"]),
            strings(&["--generate", "some"]),
            strings(&["--gen-threads", "2"]),
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
    fn reuse_flags_resolve_layers() {
        // No flag: the blast memo — clause-identical, fingerprint-neutral.
        let default = resolve_reuse(true);
        assert_eq!(default, EngineReuse { memo: true });
        assert_eq!(reuse_tag(default), "memo");
        assert_eq!(resolve_reuse(false), EngineReuse::default());
        assert_eq!(reuse_tag(resolve_reuse(false)), "off");

        // All three subcommands take `--no-reuse`.
        assert!(!parse_coordinator(&strings(&["--no-reuse"])).unwrap().memo);
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
                parse_coordinator(&strings(&[flag])).err(),
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

    #[test]
    fn compact_args_parse_and_reject() {
        assert_eq!(
            parse_compact(&strings(&["a.json", "b.journal"])).unwrap(),
            vec![PathBuf::from("a.json"), PathBuf::from("b.journal")]
        );
        for bad in [
            strings(&[]),
            strings(&["--format", "binary", "a.json"]),
            strings(&["--format", "json", "a.json"]),
            strings(&["a.json", "--format"]),
            strings(&["--fsync", "a.json"]),
        ] {
            assert!(
                matches!(parse_compact(&bad), Err(CliError::Usage(_))),
                "compact should reject {:?}",
                bad
            );
        }
    }

    #[test]
    fn coordinator_args_parse_and_reject() {
        let parsed =
            parse_coordinator(&strings(&["--shards", "3", "--timeout-secs", "30"])).unwrap();
        assert_eq!(parsed.shards, 3);
        assert_eq!(parsed.timeout, Duration::from_secs(30));
        assert!(parsed.memo, "memo-on default");

        // Every malformed spelling is a typed usage error, never a panic.
        for bad in [
            strings(&["--shards", "few"]),
            strings(&["--shards"]),
            strings(&["--policy", "round-robin"]),
            strings(&["--flush-every", "0"]),
            strings(&["--flush", "rewrite"]),
            strings(&["--flush", "journal"]),
            strings(&["--cache-format", "binary"]),
            strings(&["--cache-format", "json"]),
            strings(&["--timeout-secs", "-1"]),
            strings(&["--serve"]),
            strings(&["--reuse"]),
            strings(&["--simplify"]),
        ] {
            assert!(
                matches!(parse_coordinator(&bad), Err(CliError::Usage(_))),
                "coordinator should reject {:?}",
                bad
            );
        }
    }

    #[test]
    fn removed_tuning_flags_are_refused_by_name() {
        for (flag, layer, _) in REMOVED_LAYER_FLAGS {
            for args in [strings(&[flag]), strings(&[flag, "profile"])] {
                match parse_coordinator(&args) {
                    Err(CliError::Usage(message)) => {
                        assert!(message.contains(flag), "{}", message);
                        assert!(message.contains(layer), "{}", message);
                    }
                    other => panic!("{} must be refused, got {:?}", flag, other),
                }
            }
        }
    }

    #[test]
    fn compact_refuses_a_cross_run_profile_journal() {
        for (kind, named) in [
            ("cross-run-profile", "cross-run profile"),
            ("shard-claims", "shard claim journal"),
            ("verdict-cache", "JSON cache journal"),
        ] {
            let path =
                std::env::temp_dir().join(format!("lv-sweep-{}-{}.json", kind, std::process::id()));
            let journal = format!("{{\"journal\":\"{}\",\"version\":1}} 00000000\n", kind);
            std::fs::write(&path, &journal).unwrap();
            let result = compact_files(&[path.display().to_string()]);
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
