//! Coordinator supervision and recovery: dead, failing, hanging, and
//! partially-finished shard workers must never cost a verdict — the
//! coordinator re-runs exactly the missing jobs in-process and the merged
//! result equals the single-process run.
//!
//! These tests drive [`run_sharded_sweep`] with deliberately broken worker
//! commands (`false`, a sleeping shell) and with real partial output staged
//! by the in-process shard runner, so they cover the recovery machinery
//! without self-exec; the 2-shard *self-exec* path (healthy and killed
//! mid-sweep via `--fail-after`) is pinned by `examples/shard_sweep.rs` in
//! CI.

use llm_vectorizer_repro::core::shard::{
    run_shard, run_shard_with, ShardReportFile, ShardReportJournal, ShardRunOptions, SweepManifest,
};
use llm_vectorizer_repro::core::{
    run_sharded_sweep, CacheMergeError, EngineConfig, Equivalence, FsyncPolicy, Job,
    PipelineConfig, ShardError, ShardPolicy, ShardStatus, SweepConfig, VerificationEngine,
    WorkerSpec,
};
use llm_vectorizer_repro::interp::ChecksumConfig;
use std::path::PathBuf;
use std::time::Duration;

fn quick_config() -> EngineConfig {
    let mut tv = llm_vectorizer_repro::tv::TvConfig {
        alive2_chunks: 1,
        ..Default::default()
    };
    // Reduced budgets keep the repeated 4-kernel sweeps test-friendly; the
    // recovery contract holds for any budget.
    tv.alive2_budget.max_conflicts = 1_000;
    tv.cunroll_budget.max_conflicts = 10_000;
    tv.spatial_budget.max_conflicts = 4_000;
    EngineConfig::full(PipelineConfig {
        checksum: ChecksumConfig {
            trials: 1,
            n: 40,
            ..ChecksumConfig::default()
        },
        tv,
    })
    .with_threads(1)
}

fn small_jobs() -> Vec<Job> {
    ["s000", "s112", "s212", "vsumr"]
        .iter()
        .map(|name| {
            let scalar = llm_vectorizer_repro::tsvc::kernel(name).unwrap().function();
            let candidate = llm_vectorizer_repro::agents::vectorize_correct(&scalar).unwrap();
            Job::new(*name, scalar, candidate)
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lv-recover-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn assert_matches_single_process(swept: &llm_vectorizer_repro::core::ShardedSweep, jobs: &[Job]) {
    let single = VerificationEngine::new(quick_config()).run_batch(jobs);
    assert_eq!(swept.report.jobs.len(), single.jobs.len());
    for (s, m) in single.jobs.iter().zip(&swept.report.jobs) {
        assert_eq!(s.label, m.label);
        assert_eq!(s.verdict, m.verdict, "verdict drifted for {}", s.label);
        assert_eq!(s.stage, m.stage, "stage drifted for {}", s.label);
        assert_eq!(s.detail, m.detail, "detail drifted for {}", s.label);
    }
}

#[test]
fn workers_that_die_immediately_are_fully_recovered() {
    let jobs = small_jobs();
    let dir = temp_dir("dead");
    let sweep = SweepConfig {
        shards: 2,
        policy: ShardPolicy::HashMod,
        workdir: dir.clone(),
        // `false` exits 1 without writing any output: total worker loss.
        worker: WorkerSpec::new("false"),
        ..SweepConfig::default()
    };
    let swept = run_sharded_sweep(&jobs, &quick_config(), &sweep).expect("sweep must recover");
    for outcome in &swept.shards {
        assert_eq!(outcome.status, ShardStatus::Failed(Some(1)));
        assert_eq!(outcome.reported, 0);
    }
    assert_eq!(swept.recovered, vec![0, 1, 2, 3], "every job recovered");
    assert_eq!(swept.cache.len(), jobs.len(), "recovery fills the cache");
    assert_matches_single_process(&swept, &jobs);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hanging_workers_are_killed_at_the_timeout_and_recovered() {
    let jobs = small_jobs();
    let dir = temp_dir("hang");
    let sweep = SweepConfig {
        shards: 2,
        policy: ShardPolicy::Contiguous,
        workdir: dir.clone(),
        timeout: Duration::from_millis(300),
        // The shard arguments land in the shell's `$0`/positional slots and
        // are ignored; the worker just hangs past the deadline.
        worker: WorkerSpec {
            program: PathBuf::from("sh"),
            args: vec!["-c".to_string(), "sleep 60".to_string()],
        },
        ..SweepConfig::default()
    };
    let start = std::time::Instant::now();
    let swept = run_sharded_sweep(&jobs, &quick_config(), &sweep).expect("sweep must recover");
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "the coordinator must not wait out the full sleep"
    );
    for outcome in &swept.shards {
        assert_eq!(outcome.status, ShardStatus::TimedOut);
    }
    assert_eq!(swept.recovered.len(), jobs.len());
    assert_matches_single_process(&swept, &jobs);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unspawnable_workers_are_recovered() {
    let jobs = small_jobs();
    let dir = temp_dir("spawn");
    let sweep = SweepConfig {
        shards: 2,
        workdir: dir.clone(),
        worker: WorkerSpec::new("/nonexistent/lv-shard-worker"),
        ..SweepConfig::default()
    };
    let swept = run_sharded_sweep(&jobs, &quick_config(), &sweep).expect("sweep must recover");
    for outcome in &swept.shards {
        assert!(
            matches!(outcome.status, ShardStatus::SpawnFailed(_)),
            "{:?}",
            outcome.status
        );
    }
    assert_eq!(swept.recovered.len(), jobs.len());
    assert_matches_single_process(&swept, &jobs);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A worker killed mid-sweep leaves flushed partial output; the coordinator
/// must keep the finished prefix and re-run only the missing jobs. The
/// partial state is staged with the real shard runner (its `fail_after`
/// fault injection would exit *this* process, so the prefix is produced by
/// running shard 0 over a truncated manifest — byte-for-byte what a killed
/// worker leaves behind, since flushes happen after every job).
#[test]
fn partial_shard_output_is_kept_and_only_missing_jobs_rerun() {
    let jobs = small_jobs();
    let config = quick_config();
    let dir = temp_dir("partial");

    // Contiguous split of 4 jobs over 2 shards: shard 0 owns jobs {0, 1}.
    // Stage, in a side directory, shard 0's output as it looks after dying
    // past job 0: run it over a manifest whose shard 0 is just job 0 (same
    // shard count, so the fingerprint matches), then rebuild the report
    // journal with entry 0 alone — what a killed worker leaves behind,
    // since flushes happen after every job.
    let staging = temp_dir("partial-staging");
    let truncated: Vec<Job> = vec![jobs[0].clone(), jobs[2].clone(), jobs[3].clone()];
    let staged = SweepManifest::new(&config, &truncated, 2, ShardPolicy::Contiguous);
    assert_eq!(staged.plan().indices_of(0), vec![0, 1], "staging layout");
    // A record torn mid-append is covered by `torn_journal_tails_...`.
    let output = run_shard(&staged, 0, &staging, None).expect("staging shard run");
    let report = ShardReportFile::load(&output.report_file).unwrap();
    let (index, first) = report
        .entries
        .iter()
        .find(|(index, _)| *index == 0)
        .expect("job 0 reported");
    let mut journal = ShardReportJournal::create(
        &output.report_file,
        report.shard,
        report.shards,
        report.fingerprint,
        FsyncPolicy::OnCompact,
    )
    .unwrap();
    journal.append(*index, first).unwrap();
    drop(journal);
    // Park the partial output under names the coordinator's pre-clean
    // leaves alone; the shard 0 "worker" installs it mid-sweep and dies.
    std::fs::copy(&output.report_file, dir.join("partial.report.json")).unwrap();
    let _ = std::fs::remove_dir_all(&staging);

    let sweep = SweepConfig {
        shards: 2,
        policy: ShardPolicy::Contiguous,
        workdir: dir.clone(),
        // Shard 0 leaves the staged partial output and dies; shard 1 dies
        // with nothing ($1 is `i/N`, $5 is the --out directory).
        worker: WorkerSpec {
            program: PathBuf::from("sh"),
            args: vec![
                "-c".to_string(),
                "if [ \"${1%%/*}\" = 0 ]; then \
                     cp \"$5/partial.report.json\" \"$5/shard-0.report.json\"; \
                 fi; exit 7"
                    .to_string(),
            ],
        },
        ..SweepConfig::default()
    };
    let swept = run_sharded_sweep(&jobs, &config, &sweep).expect("sweep must recover");
    assert_eq!(
        swept.shards[0].reported, 1,
        "the flushed prefix must be kept"
    );
    assert_eq!(
        swept.recovered,
        vec![1, 2, 3],
        "only the unreported jobs are re-run"
    );
    assert_matches_single_process(&swept, &jobs);
    assert_eq!(swept.cache.len(), jobs.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reused workdir holding shard outputs from a *previous* sweep (same
/// engine configuration, different job list) must not leak the old results
/// into the new sweep: per-shard outputs are wiped before workers spawn.
#[test]
fn stale_outputs_in_a_reused_workdir_are_ignored() {
    let config = quick_config();
    let dir = temp_dir("stale");

    // Sweep A: stage shard outputs for one job list via the real runner.
    let old_jobs = small_jobs();
    let old_manifest = SweepManifest::new(&config, &old_jobs, 2, ShardPolicy::Contiguous);
    run_shard(&old_manifest, 0, &dir, None).expect("staging shard run");
    run_shard(&old_manifest, 1, &dir, None).expect("staging shard run");

    // Sweep B: a *different* job list, same configuration (so the
    // config-only fingerprint in the stale reports matches), same workdir,
    // and workers that die instantly — if the stale reports were trusted,
    // old verdicts would be attributed to the wrong jobs.
    let new_jobs: Vec<Job> = small_jobs().into_iter().rev().collect();
    let sweep = SweepConfig {
        shards: 2,
        policy: ShardPolicy::Contiguous,
        workdir: dir.clone(),
        worker: WorkerSpec::new("false"),
        ..SweepConfig::default()
    };
    let swept = run_sharded_sweep(&new_jobs, &config, &sweep).expect("sweep must recover");
    assert_eq!(
        swept.recovered.len(),
        new_jobs.len(),
        "stale reports must not satisfy any of the new sweep's jobs"
    );
    for outcome in &swept.shards {
        assert_eq!(
            outcome.reported, 0,
            "shard {} leaked stale entries",
            outcome.shard
        );
    }
    let single = VerificationEngine::new(quick_config()).run_batch(&new_jobs);
    for (s, m) in single.jobs.iter().zip(&swept.report.jobs) {
        assert_eq!((&s.label, s.verdict), (&m.label, m.verdict));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The torn-frame mirror of the partial-output case: a worker killed
/// mid-*append* leaves a report journal whose final record is torn
/// mid-frame. The
/// coordinator must keep every complete record (detecting the torn tail by
/// its checksum framing, never mis-parsing it) and re-run only the jobs
/// past the tear — and the merged result must still equal the
/// single-process run.
#[test]
fn torn_journal_tails_are_truncated_and_only_missing_jobs_rerun() {
    let jobs = small_jobs();
    let config = quick_config();
    let dir = temp_dir("torn-journal");

    // Stage shard 0's report journal (contiguous split: jobs {0, 1}) with
    // the real runner, then tear its final record by chopping bytes off the
    // end — byte-for-byte what a kill mid-append leaves, since journal
    // appends are sequential writes.
    let staging = temp_dir("torn-journal-staging");
    let manifest = SweepManifest::new(&config, &jobs, 2, ShardPolicy::Contiguous);
    assert_eq!(manifest.plan().indices_of(0), vec![0, 1], "staging layout");
    let output = run_shard(&manifest, 0, &staging, None).expect("staging shard run");
    let bytes = std::fs::read(&output.report_file).unwrap();
    let text = String::from_utf8(bytes.clone()).unwrap();
    assert!(
        text.starts_with("{\"journal\":"),
        "staged output must be a journal, got: {}",
        &text[..text.len().min(40)]
    );
    // Cut inside the final record (5 bytes shy of its newline).
    std::fs::write(&output.report_file, &bytes[..bytes.len() - 5]).unwrap();
    std::fs::copy(&output.report_file, dir.join("partial.report.json")).unwrap();
    let _ = std::fs::remove_dir_all(&staging);

    let sweep = SweepConfig {
        shards: 2,
        policy: ShardPolicy::Contiguous,
        workdir: dir.clone(),
        // Shard 0 installs the torn journal and dies; shard 1 dies with
        // nothing ($1 is `i/N`, $5 is the --out directory).
        worker: WorkerSpec {
            program: PathBuf::from("sh"),
            args: vec![
                "-c".to_string(),
                "if [ \"${1%%/*}\" = 0 ]; then \
                     cp \"$5/partial.report.json\" \"$5/shard-0.report.json\"; \
                 fi; exit 9"
                    .to_string(),
            ],
        },
        ..SweepConfig::default()
    };
    let swept = run_sharded_sweep(&jobs, &config, &sweep).expect("sweep must recover");
    assert_eq!(
        swept.shards[0].reported, 1,
        "the complete journal prefix (job 0) must be kept"
    );
    assert_eq!(
        swept.recovered,
        vec![1, 2, 3],
        "only the torn-away and unreported jobs are re-run"
    );
    assert_matches_single_process(&swept, &jobs);
    assert_eq!(swept.cache.len(), jobs.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// The batched-flush (`--flush-every N`) mirror of the torn-journal case: a
/// worker killed between batch flushes loses up to N−1 *whole* buffered
/// tail records — the journal ends at a clean record boundary with recent
/// jobs simply absent, rather than with a torn frame. The coordinator must
/// keep the flushed prefix, tolerate the lost tail, and recover to a result
/// equal to the single-process run.
#[test]
fn batched_flush_kill_loses_at_most_n_minus_1_tail_records_and_recovers() {
    let jobs = small_jobs();
    let config = quick_config();
    let dir = temp_dir("flush-every");
    const FLUSH_EVERY: usize = 3;

    // Stage shard 0's report journal (contiguous split: jobs {0, 1})
    // through the real batched-flush runner, then drop its tail record —
    // byte-for-byte what a kill between batch flushes leaves, since
    // unflushed appends never reach the file at all.
    let staging = temp_dir("flush-every-staging");
    let manifest = SweepManifest::new(&config, &jobs, 2, ShardPolicy::Contiguous);
    assert_eq!(manifest.plan().indices_of(0), vec![0, 1], "staging layout");
    let output = run_shard_with(
        &manifest,
        0,
        &staging,
        &ShardRunOptions {
            flush_every: FLUSH_EVERY,
            ..ShardRunOptions::default()
        },
    )
    .expect("staging shard run");
    let text = std::fs::read_to_string(&output.report_file).unwrap();
    assert!(
        text.starts_with("{\"journal\":"),
        "staged output must be a journal"
    );
    let mut lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 3, "header + 2 records, got {}", lines.len());
    lines.pop(); // the batched tail record that never got flushed
    std::fs::write(&output.report_file, format!("{}\n", lines.join("\n"))).unwrap();
    std::fs::copy(&output.report_file, dir.join("partial.report.json")).unwrap();
    let _ = std::fs::remove_dir_all(&staging);

    let sweep = SweepConfig {
        shards: 2,
        policy: ShardPolicy::Contiguous,
        workdir: dir.clone(),
        flush_every: FLUSH_EVERY,
        // Shard 0 installs the truncated journal and dies; shard 1 dies
        // with nothing ($1 is `i/N`, $5 is the --out directory).
        worker: WorkerSpec {
            program: PathBuf::from("sh"),
            args: vec![
                "-c".to_string(),
                "if [ \"${1%%/*}\" = 0 ]; then \
                     cp \"$5/partial.report.json\" \"$5/shard-0.report.json\"; \
                 fi; exit 5"
                    .to_string(),
            ],
        },
        ..SweepConfig::default()
    };
    let swept = run_sharded_sweep(&jobs, &config, &sweep).expect("sweep must recover");
    let finished = 2usize; // jobs shard 0 completed before the "kill"
    assert!(
        swept.shards[0].reported >= finished - (FLUSH_EVERY - 1)
            && swept.shards[0].reported < finished,
        "the kill must cost at most N-1 tail records (reported {}, finished {})",
        swept.shards[0].reported,
        finished
    );
    assert_eq!(
        swept.recovered,
        vec![1, 2, 3],
        "exactly the lost tail and the dead shard's jobs are re-run"
    );
    assert_matches_single_process(&swept, &jobs);
    assert_eq!(swept.cache.len(), jobs.len());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two reports that give one cache key different verdicts are a typed
/// merge conflict, never last-write-wins — also when one of them comes from
/// the coordinator's own recovery run. The job list holds one candidate at
/// two indices (0 and 4); shard 0's "worker" installs a CRC-valid forged
/// report that flips index 0's verdict and dies, and index 4 is recovered
/// in-process with its true verdict.
#[test]
fn conflicting_shard_reports_abort_the_merge() {
    let mut jobs = small_jobs();
    let mut copy = jobs[0].clone();
    copy.label = format!("{}-copy", copy.label);
    jobs.push(copy);
    let config = quick_config();
    let dir = temp_dir("conflict");

    // Contiguous split of 5 jobs over 2 shards: shard 0 owns {0, 1, 2},
    // shard 1 owns {3, 4}. The forgery is job 0's true report with its
    // verdict flipped, framed by the real journal writer so every checksum
    // holds, and parked under a name the coordinator's pre-clean leaves
    // alone.
    let manifest = SweepManifest::new(&config, &jobs, 2, ShardPolicy::Contiguous);
    assert_eq!(
        manifest.plan().indices_of(0),
        vec![0, 1, 2],
        "staging layout"
    );
    let mut forged = VerificationEngine::new(config.clone())
        .run_batch(&jobs[..1])
        .jobs
        .remove(0);
    assert_eq!(forged.verdict, Equivalence::Equivalent);
    forged.verdict = Equivalence::NotEquivalent;
    let mut journal = ShardReportJournal::create(
        &dir.join("forged.report.json"),
        0,
        2,
        manifest.fingerprint(),
        FsyncPolicy::OnCompact,
    )
    .unwrap();
    journal.append(0, &forged).unwrap();
    drop(journal);

    let sweep = SweepConfig {
        shards: 2,
        policy: ShardPolicy::Contiguous,
        workdir: dir.clone(),
        // Shard 0 installs the forged report and dies; shard 1 dies with
        // nothing ($1 is `i/N`, $5 is the --out directory).
        worker: WorkerSpec {
            program: PathBuf::from("sh"),
            args: vec![
                "-c".to_string(),
                "if [ \"${1%%/*}\" = 0 ]; then \
                     cp \"$5/forged.report.json\" \"$5/shard-0.report.json\"; \
                 fi; exit 1"
                    .to_string(),
            ],
        },
        ..SweepConfig::default()
    };
    let err = run_sharded_sweep(&jobs, &config, &sweep)
        .expect_err("reports that disagree on a key must abort the merge");
    match err {
        ShardError::MergeConflict(CacheMergeError::Conflict {
            existing, incoming, ..
        }) => {
            assert_eq!(existing.verdict, Equivalence::NotEquivalent, "the forgery");
            assert_eq!(
                incoming.verdict,
                Equivalence::Equivalent,
                "the recovered copy"
            );
        }
        other => panic!("expected a merge conflict, got {:?}", other),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
