//! `lv-sweep` — the sharded multi-process TSVC sweep CLI.
//!
//! Coordinator mode (the default) builds one verification job per TSVC
//! kernel the rule-based vectorizer supports, partitions them over `N`
//! worker *processes* (each re-invoking this very binary with `--shard
//! i/N`), and merges the per-shard verdict-cache files and reports into a
//! single table plus a merged cache file — bit-identical to what a
//! single-process run produces.
//!
//! ```text
//! lv-sweep [--shards N] [--policy hash|range] [--workdir DIR]
//!          [--kernels s000,s112,...] [--threads T] [--quick]
//!          [--max-cache-entries N] [--timeout-secs S]
//!          [--flush journal|rewrite] [--fsync compact|record]
//!          [--flush-every N] [--cache-format json|binary]
//!          [--profile PATH] [--schedule default|profile|SPEC]
//!          [--budget fixed|profile] [--reuse|--no-reuse] [--simplify]
//!          [--steal] [--heartbeat-ms MS] [--stall-timeout-secs S]
//! lv-sweep run --generate K [--gen-seed S] [--gen-threads T]
//!          [--kernels s000,...] [--threads N] [--quick] [--no-overlap]
//!          [--reuse|--no-reuse] [--simplify]
//! lv-sweep serve [--addr HOST:PORT] [--cache FILE] [--threads T] [--quick]
//!          [--reuse|--no-reuse] [--simplify]
//! lv-sweep submit [--addr HOST:PORT] [--kernels s000,...]
//!          [--generate K] [--gen-seed S] [--shutdown]
//! lv-sweep status [--addr HOST:PORT]
//! lv-sweep compact [--format json|binary] FILE...
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
//! `--flush` selects how workers flush per-job output: `journal` (default)
//! appends one framed record per job to append-only cache/report journals —
//! O(record) flush I/O; `rewrite` is the legacy whole-file atomic rewrite.
//! `--fsync` applies to journal mode: `compact` (default) syncs only at
//! compaction, `record` syncs after every appended record. `--flush-every N`
//! buffers N record appends per syscall flush (default 1); a killed worker
//! then loses at most N−1 buffered tail records, all of which the
//! coordinator's recovery re-runs.
//!
//! `--profile` names a cross-run profile journal: the sweep's per-category
//! per-stage telemetry is appended to it after the merge, and
//! `--schedule profile` derives the per-category stage order (and, when the
//! profile has conclusive evidence, nothing else — budgets stay configured)
//! from what previous runs recorded there. `--schedule` also accepts an
//! explicit spec (`reduction=cunroll,alive2,splitting;...`) or `default`.
//! `--budget profile` additionally derives tightened per-stage solver
//! budgets from the same profile journal
//! (`AdaptiveBudgetPolicy::derive_from_profile`) — no pilot slice needed;
//! `fixed` (the default) keeps the configured budgets.
//!
//! `--reuse` turns on both solver-reuse layers (blasted-CNF memoization and
//! incremental per-scalar sessions with scalar-affinity scheduling) in all
//! shard workers. Verdicts are identical to a reuse-off sweep; the incremental layer perturbs the configuration
//! fingerprint, so reuse-on and reuse-off sweeps keep separate cache
//! entries. By default the blast-memo layer *alone* is on — its replays
//! are clause-identical, so it changes no verdict, fingerprint, or cache
//! byte; `--no-reuse` switches every layer off.
//!
//! `--simplify` (also accepted by `run` and `serve`) enables SatELite-style
//! CNF preprocessing (unit propagation, pure literals, subsumption,
//! self-subsuming resolution, bounded variable elimination) before each
//! one-shot search in every worker's solver. Preprocessed queries may
//! conclude where the raw budget ran out, so `--simplify` perturbs the
//! configuration fingerprint; sweep summaries and `status` print the
//! simplify counters (vars eliminated, clauses subsumed/strengthened).
//!
//! `--steal` turns on live-shard work stealing (journal flush mode only):
//! workers that finish their share claim pending jobs from slow siblings
//! through per-shard claim journals, so one stalled shard no longer bounds
//! the sweep. `--heartbeat-ms` sets the liveness heartbeat period workers
//! append to their report journals (implied at 250ms by `--steal` or
//! `--stall-timeout-secs`); `--stall-timeout-secs` makes the coordinator
//! kill — and recover — a worker whose report journal shows neither a new
//! heartbeat nor a new report for that long.
//!
//! `--cache-format binary` makes shard workers write their per-shard cache
//! journals as compact binary records (`LVBJ` framing) instead of JSON
//! lines. The merged cache the coordinator persists stays a JSON snapshot
//! either way, so sweep outputs are bit-identical across formats.
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
//! `compact` rewrites journal files into their canonical compact form:
//! verdict-cache files (any of the four persisted forms, sniffed by
//! content) become the sorted snapshot of `--format` — `json` (default,
//! `VerdictCache::compact_journal`) or `binary` (the `LVCS` tier file with
//! its bloom block); shard-report journals become the snapshot report
//! document, and cross-run profile journals one summed record per cell
//! (both JSON-only — `--format` applies to verdict caches).
//!
//! `cache stats` prints, for each verdict-cache file: the sniffed form,
//! size, entry count, bytes per entry, the per-verdict-class histogram, and
//! the bloom block's shape and estimated false-positive rate when present.
//!
//! Worker mode is selected by the presence of `--shard i/N` (plus
//! `--manifest` and `--out`, which the coordinator passes automatically)
//! and is not meant to be invoked by hand.

use llm_vectorizer_repro::agents::LlmConfig;
use llm_vectorizer_repro::cir::ast::Function;
use llm_vectorizer_repro::core::shard::{run_worker_from_args, ShardError, ShardReportFile};
use llm_vectorizer_repro::core::{
    cache_file_stats, generate_then_verify_pass_at_k, overlapped_pass_at_k, AdaptiveBudgetPolicy,
    BatchReport, CacheBounds, CacheFormat, CrossRunProfile, EngineConfig, EngineReuse, Equivalence,
    FlushMode, FsyncPolicy, GenerationRequest, GenerationSpec, Job, PipelineConfig, ServiceClient,
    ShardPolicy, StageSchedule, SweepConfig, VerdictCache, VerificationEngine, VerificationService,
    WorkerSpec,
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

/// Resolves the engine reuse layers from the tri-state `--reuse` /
/// `--no-reuse` pair plus `--simplify`. With neither reuse flag given, the
/// blast-memo layer alone is on: its replays are clause-identical, so it
/// changes no verdict, no fingerprint, and no cache entry — a free default.
/// `--reuse` turns on memo and incremental sessions, `--no-reuse` turns
/// every layer off, and `--simplify` adds preprocessing to either.
fn resolve_reuse(reuse: Option<bool>, simplify: bool) -> EngineReuse {
    let mut resolved = match reuse {
        Some(true) => EngineReuse::full(),
        Some(false) => EngineReuse::default(),
        None => EngineReuse {
            memo: true,
            ..EngineReuse::default()
        },
    };
    resolved.preprocess = simplify;
    resolved
}

/// One-word description of a resolved reuse configuration, for sweep
/// banners.
fn reuse_tag(reuse: EngineReuse) -> &'static str {
    if reuse.incremental {
        "full"
    } else if reuse.memo {
        "memo"
    } else {
        "off"
    }
}

/// Prints the batch's preprocessing totals, when any
/// (silent on a `--simplify`-less sweep, whose counters are exactly zero).
fn print_simplify_totals(report: &BatchReport) {
    let totals = report.simplify_totals();
    if !totals.is_zero() {
        println!(
            "simplify: {} vars eliminated, {} clauses subsumed, {} strengthened, \
             {} arena bytes peak, {}us preprocessing",
            totals.vars_eliminated,
            totals.clauses_subsumed,
            totals.clauses_strengthened,
            totals.arena_bytes,
            totals.preprocess_micros
        );
    }
}

/// `lv-sweep compact [--format json|binary] FILE...`: rewrites each file
/// into its canonical compact form, dispatching on content (magic bytes for
/// the binary cache forms, the journal kind header for the text forms).
/// `--format` picks the target snapshot form for verdict-cache files; the
/// other journal kinds are JSON-only.
fn compact_files(args: &[String]) -> Result<(), CliError> {
    let mut format = CacheFormat::Json;
    let mut paths: Vec<&String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--format" {
            let Some(tag) = iter.next() else {
                return Err(usage("--format needs a value"));
            };
            format = CacheFormat::from_tag(tag).map_err(usage)?;
        } else {
            paths.push(arg);
        }
    }
    if paths.is_empty() {
        return Err(usage("compact needs at least one journal file"));
    }
    for path in paths {
        let path = Path::new(path);
        let bytes = std::fs::read(path)
            .map_err(|e| runtime(format!("cannot read {}: {}", path.display(), e)))?;
        let before = bytes.len();
        let is_cache = bytes.starts_with(b"LVCS")
            || bytes.starts_with(b"LVBJ")
            || bytes.starts_with(b"{\"journal\":\"verdict-cache\"")
            || (format == CacheFormat::Binary && bytes.starts_with(b"{\"version\":"));
        let result: Result<&str, String> = if is_cache {
            VerdictCache::open(path)
                .and_then(|cache| cache.compact_to(format))
                .map(|()| match format {
                    CacheFormat::Json => "verdict cache -> JSON snapshot",
                    CacheFormat::Binary => "verdict cache -> binary snapshot",
                })
                .map_err(|e| e.to_string())
        } else if bytes.starts_with(b"{\"journal\":\"shard-report\"") {
            ShardReportFile::load(path)
                .map_err(|e| e.to_string())
                .and_then(|report| {
                    report
                        .write(path)
                        .map(|_| "shard report -> snapshot")
                        .map_err(|e| e.to_string())
                })
        } else if bytes.starts_with(b"{\"journal\":\"cross-run-profile\"") {
            CrossRunProfile::load(path)
                .and_then(|profile| profile.rewrite(path, FsyncPolicy::OnCompact))
                .map(|()| "profile -> one record per cell")
                .map_err(|e| e.to_string())
        } else if bytes.starts_with(b"{\"version\":") {
            // Already the target JSON snapshot: compaction is a no-op, not
            // an error, so `compact` is idempotent over a workdir.
            Ok("already a snapshot (unchanged)")
        } else {
            Err("not a recognized journal or snapshot file".to_string())
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
        println!("  format:          {}", stats.format);
        println!("  file bytes:      {}", stats.file_bytes);
        println!("  entries:         {}", stats.entries);
        println!("  bytes/entry:     {:.1}", stats.bytes_per_entry());
        println!(
            "  verdicts:        {} equivalent, {} not-equivalent, {} inconclusive",
            stats.equivalent, stats.not_equivalent, stats.inconclusive
        );
        match stats.bloom {
            Some(bloom) => println!(
                "  bloom:           {} bits, {} hashes, ~{:.3}% false positives",
                bloom.bits,
                bloom.hashes,
                bloom.fp_estimate * 100.0
            ),
            None => println!("  bloom:           none"),
        }
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
    reuse: Option<bool>,
    simplify: bool,
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
        reuse: None,
        simplify: false,
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
            "--reuse" => opts.reuse = Some(true),
            "--no-reuse" => opts.reuse = Some(false),
            "--simplify" => opts.simplify = true,
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
            .with_reuse(resolve_reuse(opts.reuse, opts.simplify)),
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
    print_simplify_totals(&run.report);
    Ok(())
}

/// `lv-sweep serve` arguments.
#[derive(Debug, PartialEq, Eq)]
struct ServeArgs {
    addr: String,
    cache: Option<PathBuf>,
    threads: usize,
    quick: bool,
    reuse: Option<bool>,
    simplify: bool,
}

fn parse_serve(args: &[String]) -> Result<ServeArgs, CliError> {
    let mut opts = ServeArgs {
        addr: DEFAULT_SERVICE_ADDR.to_string(),
        cache: None,
        threads: 0,
        quick: false,
        reuse: None,
        simplify: false,
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
            "--reuse" => opts.reuse = Some(true),
            "--no-reuse" => opts.reuse = Some(false),
            "--simplify" => opts.simplify = true,
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
        .with_reuse(resolve_reuse(opts.reuse, opts.simplify));
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
    if status.vars_eliminated | status.clauses_subsumed | status.clauses_strengthened != 0 {
        println!(
            "simplify: {} vars eliminated, {} clauses subsumed, {} strengthened",
            status.vars_eliminated, status.clauses_subsumed, status.clauses_strengthened
        );
    }
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
    if status.vars_eliminated | status.clauses_subsumed | status.clauses_strengthened != 0 {
        println!(
            "  simplify:     {} vars eliminated, {} clauses subsumed, {} strengthened",
            status.vars_eliminated, status.clauses_subsumed, status.clauses_strengthened
        );
    }
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
    flush_tag: String,
    fsync: FsyncPolicy,
    flush_every: usize,
    cache_format: CacheFormat,
    profile: Option<PathBuf>,
    schedule_arg: String,
    budget_arg: String,
    reuse: Option<bool>,
    simplify: bool,
    steal: bool,
    heartbeat_ms: Option<u64>,
    stall_timeout_secs: Option<u64>,
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
        flush_tag: "journal".to_string(),
        fsync: FsyncPolicy::default(),
        flush_every: 1,
        cache_format: CacheFormat::default(),
        profile: None,
        schedule_arg: "default".to_string(),
        budget_arg: "fixed".to_string(),
        reuse: None,
        simplify: false,
        steal: false,
        heartbeat_ms: None,
        stall_timeout_secs: None,
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
            "--flush" => opts.flush_tag = value("--flush")?,
            "--fsync" => opts.fsync = FsyncPolicy::from_tag(&value("--fsync")?).map_err(usage)?,
            "--flush-every" => {
                opts.flush_every = value("--flush-every")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| usage("--flush-every expects a positive integer"))?
            }
            "--cache-format" => {
                opts.cache_format =
                    CacheFormat::from_tag(&value("--cache-format")?).map_err(usage)?
            }
            "--profile" => opts.profile = Some(value("--profile")?.into()),
            "--schedule" => opts.schedule_arg = value("--schedule")?,
            "--budget" => opts.budget_arg = value("--budget")?,
            "--reuse" => opts.reuse = Some(true),
            "--no-reuse" => opts.reuse = Some(false),
            "--simplify" => opts.simplify = true,
            "--steal" => opts.steal = true,
            "--heartbeat-ms" => {
                opts.heartbeat_ms = Some(
                    value("--heartbeat-ms")?
                        .parse::<u64>()
                        .ok()
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| usage("--heartbeat-ms expects a positive integer"))?,
                )
            }
            "--stall-timeout-secs" => {
                opts.stall_timeout_secs = Some(
                    value("--stall-timeout-secs")?
                        .parse()
                        .map_err(|_| usage("--stall-timeout-secs expects an integer"))?,
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
            other => {
                return Err(usage(format!(
                    "unknown argument `{}` (see the module docs)",
                    other
                )))
            }
        }
    }
    Ok(opts)
}

/// Coordinator mode: run the sharded sweep and print the merged table.
fn cmd_coordinator(args: &[String]) -> Result<(), CliError> {
    let opts = parse_coordinator(args)?;
    let pipeline = build_pipeline(opts.quick);

    // Resolve the stage schedule: `default`, `profile` (derived from the
    // cross-run profile journal), or an explicit spec string.
    let schedule = match opts.schedule_arg.as_str() {
        "profile" => {
            let Some(path) = &opts.profile else {
                return Err(usage("--schedule profile needs --profile <path>"));
            };
            match CrossRunProfile::load(path) {
                Ok(loaded) if loaded.is_empty() => {
                    println!(
                        "profile {} is empty; running the default schedule",
                        path.display()
                    );
                    StageSchedule::algorithm1()
                }
                Ok(loaded) => {
                    let derived = StageSchedule::from_profile(&loaded);
                    println!(
                        "schedule derived from {}: {}",
                        path.display(),
                        derived.spec()
                    );
                    derived
                }
                Err(e) => {
                    return Err(runtime(format!(
                        "cannot load profile {}: {}",
                        path.display(),
                        e
                    )))
                }
            }
        }
        spec => {
            StageSchedule::parse_spec(spec).map_err(|e| usage(format!("bad --schedule: {}", e)))?
        }
    };

    // Resolve the solver budgets: `fixed` keeps the configured ones,
    // `profile` derives tightened budgets from the cross-run profile's
    // conclusive-effort evidence (stages without evidence keep their
    // configured budget).
    let pipeline = match opts.budget_arg.as_str() {
        "fixed" => pipeline,
        "profile" => {
            let Some(path) = &opts.profile else {
                return Err(usage("--budget profile needs --profile <path>"));
            };
            match CrossRunProfile::load(path) {
                Ok(loaded) if loaded.is_empty() => {
                    println!(
                        "profile {} is empty; keeping configured budgets",
                        path.display()
                    );
                    pipeline
                }
                Ok(loaded) => {
                    let tuned =
                        AdaptiveBudgetPolicy::default().derive_from_profile(&loaded, &pipeline.tv);
                    println!(
                        "budgets derived from {}: alive2 {} conflicts, cunroll {}, spatial {}",
                        path.display(),
                        tuned.alive2_budget.max_conflicts,
                        tuned.cunroll_budget.max_conflicts,
                        tuned.spatial_budget.max_conflicts
                    );
                    PipelineConfig {
                        tv: tuned,
                        ..pipeline
                    }
                }
                Err(e) => {
                    return Err(runtime(format!(
                        "cannot load profile {}: {}",
                        path.display(),
                        e
                    )))
                }
            }
        }
        other => {
            return Err(usage(format!(
                "bad --budget `{}` (expected `fixed` or `profile`)",
                other
            )))
        }
    };

    let reuse = resolve_reuse(opts.reuse, opts.simplify);
    let config = EngineConfig::full(pipeline)
        .with_threads(opts.threads)
        .with_schedule(schedule)
        .with_reuse(reuse);

    let worker = WorkerSpec::current_exe()
        .map_err(|e| runtime(format!("cannot locate own executable: {}", e)))?;
    let flush = FlushMode::from_tag(&opts.flush_tag, opts.fsync).map_err(usage)?;
    let sweep = SweepConfig {
        shards: opts.shards,
        policy: opts.policy,
        workdir: opts.workdir.clone(),
        timeout: opts.timeout,
        worker,
        bounds: CacheBounds {
            max_entries: opts.max_entries,
            max_bytes: None,
        },
        flush,
        flush_every: opts.flush_every,
        cache_format: opts.cache_format,
        profile: opts.profile.clone(),
        fail_shard_after: None,
        steal: opts.steal,
        stall_timeout: opts.stall_timeout_secs.map(Duration::from_secs),
        heartbeat: opts.heartbeat_ms.map(Duration::from_millis),
        delay_shard: None,
    };

    let describe = |count: usize, what: &str| {
        println!(
            "sweeping {} {} over {} shard process(es) ({}, {} flush, schedule {}, reuse {}{}{}), workdir {}",
            count,
            what,
            opts.shards,
            opts.policy.tag(),
            flush.tag(),
            config.schedule.spec(),
            reuse_tag(reuse),
            if reuse.preprocess { ", simplify" } else { "" },
            if opts.steal { ", stealing" } else { "" },
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
            "shard {}: {:?}, {}/{} job(s) reported{}{}",
            outcome.shard,
            outcome.status,
            outcome.reported,
            outcome.planned,
            if outcome.stolen > 0 {
                format!(", {} stolen", outcome.stolen)
            } else {
                String::new()
            },
            if outcome.heartbeats > 0 {
                format!(", {} heartbeat(s)", outcome.heartbeats)
            } else {
                String::new()
            }
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
            "reuse: {} blast-cache hits / {} misses, {} assumption reuses",
            totals.blast_hits, totals.blast_misses, totals.assumption_reuses
        );
    }
    print_simplify_totals(&swept.report);
    if let (Some(path), Some(delta)) = (&opts.profile, &swept.profile_delta) {
        println!(
            "profile: appended {} cell delta(s) to {}",
            delta.len(),
            path.display()
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
                    "shard {} finished {} job(s){}; cache {}, report {}",
                    output.shard,
                    output.finished,
                    if output.stolen > 0 {
                        format!(" ({} stolen)", output.stolen)
                    } else {
                        String::new()
                    },
                    output.cache_file.display(),
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
        // No flag: blast memo alone — clause-identical, fingerprint-neutral.
        let default = resolve_reuse(None, false);
        assert!(default.memo);
        assert!(!default.incremental && !default.preprocess);
        assert_eq!(reuse_tag(default), "memo");

        // `--reuse` is memo + incremental; `--no-reuse` switches all off.
        assert_eq!(
            resolve_reuse(Some(true), false),
            EngineReuse {
                memo: true,
                incremental: true,
                preprocess: false,
            }
        );
        assert_eq!(reuse_tag(resolve_reuse(Some(true), false)), "full");
        assert_eq!(resolve_reuse(Some(false), false), EngineReuse::default());
        assert_eq!(reuse_tag(resolve_reuse(Some(false), false)), "off");

        // `--simplify` is preprocessing only, and composes with any reuse
        // spelling.
        assert_eq!(
            resolve_reuse(Some(false), true),
            EngineReuse {
                preprocess: true,
                ..EngineReuse::default()
            }
        );
        assert_eq!(
            resolve_reuse(Some(true), true),
            EngineReuse {
                preprocess: true,
                ..EngineReuse::full()
            }
        );

        // All three subcommands accept the flags.
        let coord = parse_coordinator(&strings(&["--reuse", "--simplify"])).unwrap();
        assert_eq!(coord.reuse, Some(true));
        assert!(coord.simplify);
        let coord = parse_coordinator(&strings(&["--no-reuse"])).unwrap();
        assert_eq!(coord.reuse, Some(false));
        let run = parse_run(&strings(&["--generate", "2", "--simplify", "--no-reuse"])).unwrap();
        assert_eq!(run.reuse, Some(false));
        assert!(run.simplify);
        let serve = parse_serve(&strings(&["--simplify", "--reuse"])).unwrap();
        assert_eq!(serve.reuse, Some(true));
        assert!(serve.simplify);
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
    fn coordinator_args_parse_and_reject() {
        let parsed = parse_coordinator(&strings(&[
            "--shards",
            "3",
            "--steal",
            "--heartbeat-ms",
            "100",
            "--stall-timeout-secs",
            "30",
        ]))
        .unwrap();
        assert_eq!(parsed.shards, 3);
        assert!(parsed.steal);
        assert_eq!(parsed.heartbeat_ms, Some(100));
        assert_eq!(parsed.stall_timeout_secs, Some(30));
        assert_eq!(parsed.reuse, None, "memo-only default");
        assert!(!parsed.simplify);

        // Every malformed spelling is a typed usage error, never a panic.
        for bad in [
            strings(&["--shards", "few"]),
            strings(&["--shards"]),
            strings(&["--policy", "round-robin"]),
            strings(&["--flush-every", "0"]),
            strings(&["--heartbeat-ms", "0"]),
            strings(&["--heartbeat-ms", "soon"]),
            strings(&["--stall-timeout-secs", "-1"]),
            strings(&["--serve"]),
        ] {
            assert!(
                matches!(parse_coordinator(&bad), Err(CliError::Usage(_))),
                "coordinator should reject {:?}",
                bad
            );
        }
    }
}
