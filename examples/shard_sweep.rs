//! The sharded-sweep acceptance check, run by CI.
//!
//! Builds the full TSVC Table 3 workload (one FSM-produced candidate per
//! kernel, exactly like the `table3` driver), then checks the shard
//! subsystem's contract end to end, self-executing as its own worker
//! processes:
//!
//! * a 2-shard multi-process sweep on the **journal** flush path (the
//!   default: per-shard cache + report are append-only journals, O(record)
//!   flush I/O) produces per-job verdicts identical to a single-process
//!   run, and compacts — the coordinator's merge writes the canonical
//!   snapshot — to a merged verdict-cache file **byte** identical to the
//!   single-process cache file;
//! * the legacy **rewrite** flush path (whole-file rewrite per job) still
//!   merges byte-identically too, so both exchange formats stay honest;
//! * killing one shard worker mid-sweep on the journal path (fault
//!   injection: the worker exits after 2 jobs, records flushed) is
//!   recovered by the coordinator re-running the missing jobs in-process —
//!   and the merged outputs are *still* byte-identical to the
//!   single-process run;
//! * the single-process run's telemetry, persisted as a `CrossRunProfile`
//!   journal, derives a **non-default** per-category stage schedule with no
//!   pilot slice, and a profile-guided 2-shard sweep under that schedule
//!   produces verdicts identical to the default-schedule single-process run
//!   (the concluding *stages* legitimately differ — that is the point);
//! * a worker killed between batched flushes (`--flush-every 3`) loses at
//!   most 2 buffered tail records, and recovery still merges the cache file
//!   byte-identical to the single-process run;
//! * a **solver-reuse** 2-shard sweep (blast memo + incremental per-scalar
//!   sessions, carried to the workers through the manifest) produces
//!   verdicts identical to the reuse-off single-process run, with the
//!   merged report's reuse counters proving the warm sessions actually ran.
//!
//! Exits non-zero (panics) on any violation.

use llm_vectorizer_repro::agents::{fsm_candidate_batch, FsmConfig, LlmConfig, SyntheticLlm};
use llm_vectorizer_repro::core::shard::run_worker_from_args;
use llm_vectorizer_repro::core::{
    run_sharded_sweep, BatchReport, CrossRunProfile, EngineConfig, EngineReuse, FlushMode,
    FsyncPolicy, Job, PipelineConfig, ShardPolicy, ShardStatus, StageSchedule, SweepConfig,
    VerdictCache, WorkerSpec,
};
use llm_vectorizer_repro::interp::ChecksumConfig;
use llm_vectorizer_repro::tsvc::KERNELS;
use llm_vectorizer_repro::tv::{SolverBudget, TvConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Reduced solver budgets so the full-suite sweep stays CI-friendly; the
/// bit-identity contract holds for any budget. Worker engines are pinned to
/// one thread so the `--fail-after 2` fault injection dies after *exactly*
/// two flushed jobs on any host — with per-CPU threads, concurrent workers
/// could flush a third entry before the failing thread exits.
fn sweep_config() -> EngineConfig {
    let config = EngineConfig::full(PipelineConfig {
        checksum: ChecksumConfig {
            trials: 1,
            n: 40,
            ..ChecksumConfig::default()
        },
        tv: TvConfig {
            alive2_budget: SolverBudget {
                max_conflicts: 1_000,
                max_clauses: 200_000,
            },
            cunroll_budget: SolverBudget {
                max_conflicts: 10_000,
                max_clauses: 1_000_000,
            },
            spatial_budget: SolverBudget {
                max_conflicts: 4_000,
                max_clauses: 500_000,
            },
            alive2_chunks: 1,
            ..TvConfig::default()
        },
    });
    config.with_threads(1)
}

/// The Table 3 workload: the FSM's best candidate per TSVC kernel.
fn table3_jobs(checksum: &ChecksumConfig) -> Vec<Job> {
    let scalars: Vec<_> = KERNELS.iter().map(|k| k.function()).collect();
    let llm_config = LlmConfig::default();
    let mut llm = SyntheticLlm::new(llm_config.clone());
    let fsm_config = FsmConfig {
        max_attempts: 10,
        checksum: checksum.clone(),
        llm: llm_config,
    };
    fsm_candidate_batch(&scalars, &fsm_config, &mut llm)
        .into_iter()
        .enumerate()
        .filter_map(|(i, fsm)| {
            fsm.candidate
                .map(|candidate| Job::new(KERNELS[i].name, scalars[i].clone(), candidate))
        })
        .collect()
}

fn assert_reports_match(single: &BatchReport, merged: &BatchReport, what: &str) {
    assert_eq!(single.jobs.len(), merged.jobs.len(), "{}: job count", what);
    for (s, m) in single.jobs.iter().zip(&merged.jobs) {
        assert_eq!(s.label, m.label, "{}: job order", what);
        assert_eq!(s.verdict, m.verdict, "{}: verdict for {}", what, s.label);
        assert_eq!(s.stage, m.stage, "{}: stage for {}", what, s.label);
        assert_eq!(s.detail, m.detail, "{}: detail for {}", what, s.label);
        assert_eq!(s.checksum, m.checksum, "{}: checksum for {}", what, s.label);
        // Traces are execution artifacts, not part of the verdict contract:
        // structurally duplicate kernels (s311/s311r are alpha-equivalent,
        // and the content-addressed cache is rename-insensitive) are
        // answered from the warm intra-batch cache, and *which* duplicate
        // ran and which one hit depends on scheduling and shard layout.
        // When both runs executed the job's cascade, the telemetry must
        // agree exactly.
        if s.cache_hit == m.cache_hit {
            assert_eq!(
                s.traces.len(),
                m.traces.len(),
                "{}: trace count for {}",
                what,
                s.label
            );
            for (st, mt) in s.traces.iter().zip(&m.traces) {
                assert_eq!(st.stage, mt.stage, "{}: trace stage for {}", what, s.label);
                assert_eq!(
                    (st.conclusive, st.conflicts, st.clauses, st.name_mismatch),
                    (mt.conclusive, mt.conflicts, mt.clauses, mt.name_mismatch),
                    "{}: trace telemetry for {}",
                    what,
                    s.label
                );
            }
        }
    }
}

fn sharded(
    jobs: &[Job],
    config: &EngineConfig,
    workdir: PathBuf,
    fail: Option<(usize, usize)>,
    flush: FlushMode,
) -> llm_vectorizer_repro::core::ShardedSweep {
    sharded_with(jobs, config, workdir, fail, flush, 1, None)
}

#[allow(clippy::too_many_arguments)]
fn sharded_with(
    jobs: &[Job],
    config: &EngineConfig,
    workdir: PathBuf,
    fail: Option<(usize, usize)>,
    flush: FlushMode,
    flush_every: usize,
    profile: Option<PathBuf>,
) -> llm_vectorizer_repro::core::ShardedSweep {
    let sweep = SweepConfig {
        shards: 2,
        policy: ShardPolicy::HashMod,
        workdir,
        worker: WorkerSpec::current_exe().expect("own executable"),
        fail_shard_after: fail,
        flush,
        flush_every,
        profile,
        ..SweepConfig::default()
    };
    run_sharded_sweep(jobs, config, &sweep).expect("sharded sweep must succeed")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read {}: {}", path.display(), e))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(result) = run_worker_from_args(&args) {
        // This process is one of the coordinator's shard workers.
        result.expect("shard worker failed");
        return;
    }

    let dir = std::env::temp_dir().join(format!("lv-shard-sweep-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let config = sweep_config();
    let jobs = table3_jobs(&config.pipeline.checksum);
    assert!(
        jobs.len() >= 30,
        "expected the full TSVC workload (the FSM finds ~36 plausible candidates \
         across the 62-kernel suite), got {} jobs",
        jobs.len()
    );

    println!("== single-process baseline ({} jobs) ==", jobs.len());
    let single_cache_path = dir.join("single.cache.json");
    let single_cache = Arc::new(VerdictCache::open(&single_cache_path).expect("cache"));
    let single_engine = llm_vectorizer_repro::core::VerificationEngine::new(
        config.clone().with_cache(single_cache.clone()),
    );
    let single = single_engine.run_batch(&jobs);
    single_cache.persist().expect("persist single cache");
    let single_bytes = read(&single_cache_path);

    println!("== 2-shard multi-process sweep, journal flush (self-exec workers) ==");
    let healthy = sharded(
        &jobs,
        &config,
        dir.join("healthy"),
        None,
        FlushMode::default(),
    );
    for outcome in &healthy.shards {
        println!(
            "shard {}: {:?}, {}/{} reported",
            outcome.shard, outcome.status, outcome.reported, outcome.planned
        );
        assert_eq!(
            outcome.status,
            ShardStatus::Completed,
            "healthy sweep: worker {} must complete (see shard-{}.log)",
            outcome.shard,
            outcome.shard
        );
        assert_eq!(outcome.reported, outcome.planned);
    }
    assert!(healthy.recovered.is_empty(), "nothing to recover");
    // The exchange files really took the journal path: both per-shard
    // outputs must carry the journal marker.
    for shard in 0..2 {
        for name in [
            format!("shard-{}.cache.json", shard),
            format!("shard-{}.report.json", shard),
        ] {
            let text = read(&dir.join("healthy").join(&name));
            assert!(
                text.starts_with("{\"journal\":"),
                "{} must be an append-only journal, got: {}…",
                name,
                &text[..text.len().min(30)]
            );
        }
    }
    assert_reports_match(&single, &healthy.report, "healthy 2-shard journal sweep");
    let merged_bytes = read(&healthy.cache_file);
    assert_eq!(
        single_bytes, merged_bytes,
        "journal sweep: merged cache file must compact byte-identical to the \
         single-process cache file"
    );

    println!("== 2-shard sweep, legacy rewrite flush ==");
    let legacy = sharded(&jobs, &config, dir.join("legacy"), None, FlushMode::Rewrite);
    for outcome in &legacy.shards {
        assert_eq!(outcome.status, ShardStatus::Completed);
        assert_eq!(outcome.reported, outcome.planned);
    }
    assert_reports_match(&single, &legacy.report, "healthy 2-shard rewrite sweep");
    assert_eq!(
        single_bytes,
        read(&legacy.cache_file),
        "rewrite sweep: merged cache file must stay byte-identical too"
    );

    println!("== kill-recovery on the journal path: shard 0 dies after 2 jobs ==");
    let wounded = sharded(
        &jobs,
        &config,
        dir.join("wounded"),
        Some((0, 2)),
        FlushMode::default(),
    );
    let shard0 = &wounded.shards[0];
    assert_eq!(
        shard0.status,
        ShardStatus::Failed(Some(3)),
        "shard 0 must have died mid-sweep"
    );
    assert_eq!(
        shard0.reported, 2,
        "partial output: exactly the flushed prefix"
    );
    assert!(
        !wounded.recovered.is_empty(),
        "the killed worker's remaining jobs must be recovered in-process"
    );
    println!(
        "shard 0 reported {}/{} before dying; coordinator recovered {} job(s)",
        shard0.reported,
        shard0.planned,
        wounded.recovered.len()
    );
    assert_reports_match(&single, &wounded.report, "recovered 2-shard sweep");
    let recovered_bytes = read(&wounded.cache_file);
    assert_eq!(
        single_bytes, recovered_bytes,
        "recovery must still yield a byte-identical merged cache file"
    );

    println!("== cross-run profile: record -> derive -> profile-guided 2-shard sweep ==");
    // The single-process run's telemetry becomes the persisted profile; a
    // "second run" then derives its schedule from the journal alone — no
    // pilot slice, no fresh measurements.
    let profile_path = dir.join("profile.json");
    CrossRunProfile::from_batch(&jobs, &single.jobs)
        .append_to(&profile_path, FsyncPolicy::OnCompact)
        .expect("profile append");
    let loaded = CrossRunProfile::load(&profile_path).expect("profile reload");
    assert!(!loaded.is_empty(), "the recorded profile must have cells");
    let derived = StageSchedule::from_profile(&loaded);
    println!("derived schedule: {}", derived.spec());
    assert!(
        !derived.is_default(),
        "under these budgets the conditional kernels exhaust Alive2, so the \
         warm profile must reorder that category"
    );
    let scheduled_config = config.clone().with_schedule(derived);
    assert_ne!(
        scheduled_config.semantic_fingerprint(),
        config.semantic_fingerprint(),
        "the profile-guided schedule is a distinct cache configuration"
    );
    let guided = sharded_with(
        &jobs,
        &scheduled_config,
        dir.join("guided"),
        None,
        FlushMode::default(),
        1,
        Some(profile_path.clone()),
    );
    for outcome in &guided.shards {
        assert_eq!(outcome.status, ShardStatus::Completed);
        assert_eq!(outcome.reported, outcome.planned);
    }
    // Verdict byte-identity to the default-schedule single-process run: the
    // concluding stage (and therefore trace telemetry) may legitimately
    // differ — reordering decides *who* answers, never *what*.
    assert_eq!(single.jobs.len(), guided.report.jobs.len());
    for (s, g) in single.jobs.iter().zip(&guided.report.jobs) {
        assert_eq!(s.label, g.label, "profile-guided sweep: job order");
        assert_eq!(
            s.verdict, g.verdict,
            "profile-guided sweep: verdict drifted for {}",
            s.label
        );
        assert_eq!(
            s.checksum, g.checksum,
            "profile-guided sweep: checksum class drifted for {}",
            s.label
        );
    }
    // The workers really ran with --profile: each shard left its own
    // profile journal, and the coordinator appended the run's delta.
    for shard in 0..2 {
        let worker_profile = dir
            .join("guided")
            .join(format!("shard-{}.profile.json", shard));
        let text = read(&worker_profile);
        assert!(
            text.starts_with("{\"journal\":\"cross-run-profile\""),
            "shard {} must have written a profile journal",
            shard
        );
    }
    assert!(
        guided.profile_delta.is_some(),
        "the coordinator must commit the run's delta"
    );
    let accumulated = CrossRunProfile::load(&profile_path).expect("profile after sweep");
    assert!(
        accumulated.len() >= loaded.len(),
        "the profile accumulates across runs"
    );

    println!("== batched-flush kill-recovery: --flush-every 3, shard 0 dies after 2 jobs ==");
    let batched = sharded_with(
        &jobs,
        &config,
        dir.join("batched"),
        Some((0, 2)),
        FlushMode::default(),
        3,
        None,
    );
    let shard0 = &batched.shards[0];
    assert_eq!(
        shard0.status,
        ShardStatus::Failed(Some(3)),
        "shard 0 must have died mid-sweep"
    );
    assert!(
        shard0.reported <= 2,
        "a killed worker cannot report more than it finished"
    );
    // finished = 2, flush-every = 3: the buffered tail (up to 2 records)
    // dies with the process, so anywhere from 0 to 2 jobs survive on disk.
    println!(
        "shard 0 reported {}/2 finished jobs (<= {} buffered records lost); \
         coordinator recovered {} job(s)",
        shard0.reported,
        3 - 1,
        batched.recovered.len()
    );
    assert!(
        !batched.recovered.is_empty(),
        "the lost tail and unfinished jobs must be recovered in-process"
    );
    assert_reports_match(&single, &batched.report, "batched-flush recovered sweep");
    assert_eq!(
        single_bytes,
        read(&batched.cache_file),
        "batched-flush recovery must still yield a byte-identical merged cache file"
    );

    println!("== solver-reuse 2-shard sweep: verdicts pinned to the reuse-off run ==");
    // The reuse layers travel to the workers through the manifest; the
    // incremental layer is a distinct cache configuration (warm sessions can
    // conclude budget-capped queries a fresh solver cannot), so the merged
    // cache keys never mix with the reuse-off ones.
    let reuse_config = config.clone().with_reuse(EngineReuse::full());
    assert_ne!(
        reuse_config.semantic_fingerprint(),
        config.semantic_fingerprint(),
        "incremental reuse is a distinct cache configuration"
    );
    let reused = sharded(
        &jobs,
        &reuse_config,
        dir.join("reuse"),
        None,
        FlushMode::default(),
    );
    for outcome in &reused.shards {
        assert_eq!(outcome.status, ShardStatus::Completed);
        assert_eq!(outcome.reported, outcome.planned);
    }
    // Verdict identity to the reuse-off single-process run. The concluding
    // stage may only improve (learned clauses on a warm session can settle a
    // budget-capped query), so stages and traces are not compared.
    assert_eq!(single.jobs.len(), reused.report.jobs.len());
    for (s, r) in single.jobs.iter().zip(&reused.report.jobs) {
        assert_eq!(s.label, r.label, "reuse sweep: job order");
        assert_eq!(
            s.verdict, r.verdict,
            "reuse sweep: verdict drifted for {}",
            s.label
        );
        assert_eq!(
            s.checksum, r.checksum,
            "reuse sweep: checksum class drifted for {}",
            s.label
        );
    }
    // The counters round-tripped through the shard report exchange and show
    // the workers really ran warm: at least one incremental session was
    // revisited somewhere in the suite.
    let totals = reused.report.reuse_totals();
    println!(
        "reuse counters: {} blast hits / {} misses, {} assumption reuses",
        totals.blast_hits, totals.blast_misses, totals.assumption_reuses
    );
    assert!(
        totals.assumption_reuses > 0,
        "the reuse-enabled workers must report warm-session activity"
    );

    println!(
        "shard sweep OK: {} jobs, merged cache {} bytes, recovery re-ran {} + {} job(s), \
         profile-guided schedule and solver-reuse sweep verified",
        jobs.len(),
        merged_bytes.len(),
        wounded.recovered.len(),
        batched.recovered.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
