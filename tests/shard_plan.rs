//! Shard-planning properties and the merge-equivalence pin: a sweep split
//! over N shards — run through the real on-disk exchange (manifest →
//! per-shard runner → shard report → merge) — must reproduce the
//! single-process batch exactly, for N ∈ {1, 2, 7}, on the TSVC suite.

use llm_vectorizer_repro::agents::{sample_completion_batch, LlmConfig};
use llm_vectorizer_repro::core::shard::{
    insert_report_verdicts, run_shard, ShardReportFile, SweepManifest,
};
use llm_vectorizer_repro::core::{
    EngineConfig, Job, JobReport, PipelineConfig, ShardPlan, ShardPolicy, VerdictCache,
    VerificationEngine,
};
use llm_vectorizer_repro::interp::ChecksumConfig;
use llm_vectorizer_repro::tsvc::KERNELS;
use lv_bench::sweep_tv_config;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Reduced budgets so three full-suite sweeps stay test-friendly (debug-mode
/// SAT is the slow part; the equivalence claims hold for any budget).
fn sweep_pipeline() -> PipelineConfig {
    let mut tv = sweep_tv_config();
    tv.alive2_budget.max_conflicts = 500;
    tv.cunroll_budget.max_conflicts = 4_000;
    tv.spatial_budget.max_conflicts = 1_500;
    PipelineConfig {
        checksum: ChecksumConfig {
            trials: 1,
            n: 40,
            ..ChecksumConfig::default()
        },
        tv,
    }
}

/// One synthetic-LLM candidate per TSVC kernel: a realistic mix of correct,
/// refutable, and non-compiling candidates across the whole suite.
fn suite_jobs() -> Vec<Job> {
    let scalars: Vec<_> = KERNELS.iter().map(|k| k.function()).collect();
    let batch = sample_completion_batch(&scalars, &LlmConfig::default(), 1);
    KERNELS
        .iter()
        .zip(&scalars)
        .zip(batch.completions.iter())
        .map(|((kernel, scalar), completions)| {
            Job::new(
                kernel.name,
                scalar.clone(),
                completions[0].candidate.clone(),
            )
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lv-shard-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every job lands in exactly one shard, for random shard counts and a
    /// random subset of the suite, under both policies.
    #[test]
    fn every_job_lands_in_exactly_one_shard(shards in 1usize..12, take in 1usize..40, hash in any::<bool>()) {
        let jobs: Vec<Job> = suite_jobs().into_iter().take(take).collect();
        let policy = if hash { ShardPolicy::HashMod } else { ShardPolicy::Contiguous };
        let plan = ShardPlan::new(&jobs, shards, policy);
        let mut owners = vec![0usize; jobs.len()];
        for shard in 0..plan.shards() {
            for index in plan.indices_of(shard) {
                prop_assert_eq!(plan.shard_of(index), shard);
                owners[index] += 1;
            }
        }
        prop_assert!(owners.iter().all(|&n| n == 1), "{:?}", owners);
    }

    /// Plans are a pure function of (jobs, shards, policy): rebuilding one
    /// from scratch yields the identical assignment.
    #[test]
    fn plans_are_stable_across_runs(shards in 1usize..12, hash in any::<bool>()) {
        let policy = if hash { ShardPolicy::HashMod } else { ShardPolicy::Contiguous };
        let first = ShardPlan::new(&suite_jobs(), shards, policy);
        let second = ShardPlan::new(&suite_jobs(), shards, policy);
        prop_assert_eq!(first, second);
    }
}

/// Runs every shard of `manifest` through the real worker path (files and
/// all) in-process, then merges the reports and builds the merged cache
/// from them the way the coordinator does, returning the reports in job
/// order plus the merged cache.
fn run_all_shards_and_merge(
    manifest: &SweepManifest,
    dir: &std::path::Path,
) -> (Vec<JobReport>, VerdictCache) {
    let manifest_path = dir.join("manifest.json");
    manifest.write(&manifest_path).expect("write manifest");
    let loaded = SweepManifest::load(&manifest_path).expect("reload manifest");
    assert_eq!(loaded.fingerprint(), manifest.fingerprint());

    let mut entries: BTreeMap<usize, JobReport> = BTreeMap::new();
    for shard in 0..loaded.shards {
        // The report lands as a journal, which the loader below replays.
        let output = run_shard(&loaded, shard, dir, None).expect("shard run");
        let report = ShardReportFile::load(&output.report_file).expect("shard report");
        assert_eq!(report.fingerprint, manifest.fingerprint());
        for (index, job_report) in report.entries {
            assert!(
                entries.insert(index, job_report).is_none(),
                "job {} reported by two shards",
                index
            );
        }
        assert!(
            !dir.join(format!("shard-{}.cache.json", shard)).exists(),
            "a shard writes its report and no cache file"
        );
    }
    assert_eq!(entries.len(), loaded.jobs.len(), "no job may be lost");
    let merged = VerdictCache::in_memory();
    insert_report_verdicts(&merged, &loaded.jobs, loaded.fingerprint(), &entries)
        .expect("shard reports must agree");
    (entries.into_values().collect(), merged)
}

#[test]
fn merged_reports_equal_single_process_for_1_2_and_7_shards() {
    let jobs = suite_jobs();
    assert!(jobs.len() >= 60, "expected the whole embedded TSVC suite");
    let config = EngineConfig::full(sweep_pipeline()).with_threads(1);

    // Single-process baseline, with the same kind of cold cache the shard
    // workers run with (intra-batch duplicate kernels hit it, so cache_hit
    // flags are part of the comparison where shard layout permits).
    let baseline_cache = std::sync::Arc::new(VerdictCache::in_memory());
    let baseline =
        VerificationEngine::new(config.clone().with_cache(baseline_cache.clone())).run_batch(&jobs);

    for shards in [1usize, 2, 7] {
        let dir = temp_dir(&format!("merge{}", shards));
        let manifest = SweepManifest::new(&config, &jobs, shards, ShardPolicy::HashMod);
        let (merged_reports, merged_cache) = run_all_shards_and_merge(&manifest, &dir);

        for (s, m) in baseline.jobs.iter().zip(&merged_reports) {
            assert_eq!(s.label, m.label, "{} shards: job order", shards);
            assert_eq!(
                s.verdict, m.verdict,
                "{} shards: verdict for {}",
                shards, s.label
            );
            assert_eq!(s.stage, m.stage, "{} shards: stage for {}", shards, s.label);
            assert_eq!(
                s.detail, m.detail,
                "{} shards: detail for {}",
                shards, s.label
            );
            assert_eq!(
                s.checksum, m.checksum,
                "{} shards: checksum for {}",
                shards, s.label
            );
        }
        // The merged cache holds exactly the baseline's verdict set: same
        // keys, same payloads — the strongest form of "bit-identical",
        // since persisting either produces the same sorted rendering.
        assert_eq!(
            merged_cache.len(),
            baseline_cache.len(),
            "{} shards",
            shards
        );
        let conflict_free = merged_cache.merge_from(&baseline_cache);
        assert_eq!(
            conflict_free.expect("caches must agree").added,
            0,
            "{} shards: merged cache is missing baseline verdicts",
            shards
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `vsumr` and `s311r` differ only in their names, so their generated
/// candidates share cache keys, while a candidate's detail may name either
/// kernel (`type error in \`s311r\``). A 2-shard generated sweep that
/// splits such a pair across its shards must merge them: reports of one key
/// agree when their verdict, stage and checksum class do, whatever their
/// details say.
#[test]
fn sharded_generated_sweep_over_alpha_equivalent_kernels_merges() {
    let dir = temp_dir("alpha-equivalent");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_lv-sweep"))
        .args([
            "--shards",
            "2",
            "--generate",
            "32",
            "--kernels",
            "vsumr,s311r",
        ])
        .arg("--workdir")
        .arg(&dir)
        .output()
        .expect("run lv-sweep");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "lv-sweep exited {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status.code(),
        stdout,
        String::from_utf8_lossy(&out.stderr)
    );
    for kernel in ["vsumr", "s311r"] {
        let verdicts = (0..32)
            .filter(|j| stdout.contains(&format!("\n{}#{}: ", kernel, j)))
            .count();
        assert_eq!(
            verdicts, 32,
            "every {} job reports a verdict:\n{}",
            kernel, stdout
        );
    }
    assert!(dir.join("merged.cache.json").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
