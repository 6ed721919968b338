//! The sharded-sweep acceptance check, run by CI.
//!
//! Builds the full TSVC Table 3 workload (one FSM-produced candidate per
//! kernel, exactly like the `table3` driver) plus the bitwise-select
//! conditional candidates that still reach the SAT search
//! (`lv_bench::bitwise_select_jobs`), then checks the shard
//! subsystem's contract end to end, self-executing as its own worker
//! processes:
//!
//! * a 2-shard multi-process sweep (each shard's one output file is its
//!   report, an append-only journal with O(record) flush I/O, and no shard
//!   writes a cache file) produces per-job verdicts identical to a
//!   single-process run, and the coordinator builds from the reports a
//!   merged verdict-cache file **byte** identical to the single-process
//!   cache file;
//! * killing one shard worker mid-sweep (fault
//!   injection: the worker exits after 2 jobs, records flushed) is
//!   recovered by the coordinator re-running the missing jobs in-process —
//!   and the merged outputs are *still* byte-identical to the
//!   single-process run;
//! * a worker killed between batched flushes (`--flush-every 3`) loses at
//!   most 2 buffered tail records, and recovery still merges the cache file
//!   byte-identical to the single-process run;
//! * a **blast-memo** 2-shard sweep (the memo carried to the workers
//!   through the manifest) shares the memo-off configuration fingerprint
//!   and produces reports identical to the memo-off single-process run and
//!   a byte-identical merged cache file, with the merged report's reuse
//!   counters proving the memo actually replayed blasts.
//!
//! Exits non-zero (panics) on any violation.

use llm_vectorizer_repro::agents::{fsm_candidate_batch, FsmConfig, LlmConfig, SyntheticLlm};
use llm_vectorizer_repro::core::shard::run_worker_from_args;
use llm_vectorizer_repro::core::{
    run_sharded_sweep, BatchReport, EngineConfig, EngineReuse, Job, PipelineConfig, ShardPolicy,
    ShardStatus, SweepConfig, VerdictCache, WorkerSpec,
};
use llm_vectorizer_repro::interp::ChecksumConfig;
use llm_vectorizer_repro::tsvc::KERNELS;
use llm_vectorizer_repro::tv::{SolverBudget, TvConfig};
use lv_bench::bitwise_select_jobs;
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
                    (st.conclusive, st.conflicts, st.clauses),
                    (mt.conclusive, mt.conflicts, mt.clauses),
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
) -> llm_vectorizer_repro::core::ShardedSweep {
    sharded_with(jobs, config, workdir, fail, 1)
}

fn sharded_with(
    jobs: &[Job],
    config: &EngineConfig,
    workdir: PathBuf,
    fail: Option<(usize, usize)>,
    flush_every: usize,
) -> llm_vectorizer_repro::core::ShardedSweep {
    let sweep = SweepConfig {
        shards: 2,
        policy: ShardPolicy::HashMod,
        workdir,
        worker: WorkerSpec::current_exe().expect("own executable"),
        fail_shard_after: fail,
        flush_every,
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
    let mut jobs = table3_jobs(&config.pipeline.checksum);
    jobs.extend(bitwise_select_jobs());
    assert!(
        jobs.len() >= 30,
        "expected the full TSVC workload (the FSM finds ~36 plausible candidates \
         across the 62-kernel suite), got {} jobs",
        jobs.len()
    );

    println!("== single-process baseline ({} jobs) ==", jobs.len());
    let single_cache_file = dir.join("single.cache.json");
    let single_cache = Arc::new(VerdictCache::open(&single_cache_file).expect("cache"));
    let single_engine = llm_vectorizer_repro::core::VerificationEngine::new(
        config.clone().with_cache(single_cache.clone()),
    );
    let single = single_engine.run_batch(&jobs);
    single_cache.persist().expect("persist single cache");
    let single_bytes = read(&single_cache_file);

    println!("== 2-shard multi-process sweep (self-exec workers) ==");
    let healthy = sharded(&jobs, &config, dir.join("healthy"), None);
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
    // One output file per shard: the report, an append-only journal, and
    // no per-shard cache file.
    for shard in 0..2 {
        let name = format!("shard-{}.report.json", shard);
        let text = read(&dir.join("healthy").join(&name));
        assert!(
            text.starts_with("{\"journal\":"),
            "{} must be an append-only journal, got: {}…",
            name,
            &text[..text.len().min(30)]
        );
        let cache = dir
            .join("healthy")
            .join(format!("shard-{}.cache.json", shard));
        assert!(
            !cache.exists(),
            "{} must not exist: a shard writes only its report",
            cache.display()
        );
    }
    assert_reports_match(&single, &healthy.report, "healthy 2-shard journal sweep");
    let merged_bytes = read(&healthy.cache_file);
    assert_eq!(
        single_bytes, merged_bytes,
        "journal sweep: the merged cache file built from the reports must be \
         byte-identical to the single-process cache file"
    );

    println!("== kill-recovery: shard 0 dies after 2 jobs ==");
    let wounded = sharded(&jobs, &config, dir.join("wounded"), Some((0, 2)));
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

    println!("== batched-flush kill-recovery: --flush-every 3, shard 0 dies after 2 jobs ==");
    let batched = sharded_with(&jobs, &config, dir.join("batched"), Some((0, 2)), 3);
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

    println!("== blast-memo 2-shard sweep: reports pinned to the memo-off run ==");
    // The memo travels to the workers through the manifest. Its replays are
    // clause-identical, so it shares the memo-off fingerprint and cache
    // keys, and every verdict, stage, detail and trace stays the same.
    let memo_config = config.clone().with_reuse(EngineReuse { memo: true });
    assert_eq!(
        memo_config.semantic_fingerprint(),
        config.semantic_fingerprint(),
        "the memo shares the default configuration fingerprint"
    );
    let memoized = sharded(&jobs, &memo_config, dir.join("memo"), None);
    for outcome in &memoized.shards {
        assert_eq!(outcome.status, ShardStatus::Completed);
        assert_eq!(outcome.reported, outcome.planned);
    }
    assert_reports_match(&single, &memoized.report, "blast-memo sweep");
    assert_eq!(
        single_bytes,
        read(&memoized.cache_file),
        "the blast-memo sweep must merge a byte-identical cache file"
    );
    // The counters round-tripped through the shard report exchange and show
    // the workers really replayed blasts from their memos.
    let totals = memoized.report.reuse_totals();
    println!(
        "reuse counters: {} blast hits / {} misses",
        totals.blast_hits, totals.blast_misses
    );
    assert!(
        totals.blast_hits > 0,
        "the memo-enabled workers must report blast replays"
    );

    println!(
        "shard sweep OK: {} jobs, merged cache {} bytes, recovery re-ran {} + {} job(s), \
         blast-memo sweep verified",
        jobs.len(),
        merged_bytes.len(),
        wounded.recovered.len(),
        batched.recovered.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}
