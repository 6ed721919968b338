//! The persistent-cache acceptance check, run by CI.
//!
//! Runs the Table 3 funnel twice over a kernel subset with a file-backed
//! verdict cache and asserts the cache contract:
//!
//! * the first run misses on every engine job and persists its verdicts;
//! * the second run — through a *fresh* cache loaded from the file —
//!   reports 100% cache hits, executes **zero** checksum/SMT stages, and
//!   produces bit-identical verdicts;
//! * a third run submits every cold-run job twice in adjacent slots to 4
//!   engine workers over an empty cache, and verifies each job once: its
//!   misses, its hits and its stage count all equal the cold run's.
//!
//! Exits non-zero (panics) on any violation.

use llm_vectorizer_repro::core::{
    table3, ExperimentConfig, Job, NoopObserver, Table3, VerdictCache,
};
use llm_vectorizer_repro::interp::ChecksumConfig;
use std::path::Path;
use std::sync::Arc;

fn config(cache: Arc<VerdictCache>) -> ExperimentConfig {
    ExperimentConfig {
        kernel_names: Some(
            ["s000", "s112", "s212", "s278", "s2711", "vsumr"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        ),
        checksum: ChecksumConfig {
            trials: 1,
            n: 40,
            ..ChecksumConfig::default()
        },
        cache: Some(cache),
        ..ExperimentConfig::default()
    }
}

fn sweep(cache_file: &Path) -> Table3 {
    let cache = Arc::new(VerdictCache::open(cache_file).expect("cache file must load"));
    let table = table3(&config(cache.clone()), &NoopObserver);
    cache.persist().expect("cache file must persist");
    table
}

/// Every engine job of a Table 3 run, each twice in adjacent slots.
fn doubled_jobs(table: &Table3) -> Vec<Job> {
    table
        .verdicts
        .iter()
        .filter_map(|verdict| {
            let candidate = verdict.candidate.clone()?;
            let kernel = llm_vectorizer_repro::tsvc::kernel(verdict.name)?;
            Some(Job::new(verdict.name, kernel.function(), candidate))
        })
        .flat_map(|job| [job.clone(), job])
        .collect()
}

fn main() {
    let dir = std::env::temp_dir().join(format!("lv-cache-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("verdicts.json");
    let _ = std::fs::remove_file(&path);

    println!("== cold run (empty cache at {}) ==", path.display());
    let cold = sweep(&path);
    println!("{}", cold.render());
    let jobs = cold.batch.jobs.len();
    assert!(jobs >= 4, "expected a non-trivial sweep, got {} jobs", jobs);
    assert_eq!(cold.batch.cache_hits, 0, "cold run must miss everywhere");
    assert_eq!(cold.batch.cache_misses, jobs);
    assert!(cold.batch.stage_runs() > 0);

    println!("== warm run (cache reloaded from disk) ==");
    let warm = sweep(&path);
    assert_eq!(
        warm.batch.cache_hits, jobs,
        "warm run must be answered entirely from the cache"
    );
    assert_eq!(warm.batch.cache_misses, 0);
    assert_eq!(
        warm.batch.stage_runs(),
        0,
        "a warm cache must execute zero checksum/SMT stages"
    );
    assert_eq!(warm.batch.total_conflicts(), 0);

    assert_eq!(cold.render(), warm.render(), "rendered tables must match");
    assert_eq!(cold.verdicts.len(), warm.verdicts.len());
    for (c, w) in cold.verdicts.iter().zip(&warm.verdicts) {
        assert_eq!(c.name, w.name);
        assert_eq!(c.verdict, w.verdict, "verdict drifted for {}", c.name);
        assert_eq!(c.stage, w.stage, "stage drifted for {}", c.name);
    }

    println!("== doubled run (each cold job twice, 4 workers, empty cache) ==");
    let doubled = doubled_jobs(&cold);
    assert_eq!(doubled.len(), 2 * jobs);
    let engine = ExperimentConfig {
        threads: 4,
        ..config(Arc::new(VerdictCache::in_memory()))
    }
    .engine();
    let batch = engine.run_batch(&doubled);
    assert_eq!(batch.threads, 4);
    assert_eq!(
        batch.cache_misses, jobs,
        "each distinct job must run its cascade once"
    );
    assert_eq!(
        batch.cache_hits, jobs,
        "each second copy takes the first copy's verdict"
    );
    assert_eq!(
        batch.stage_runs(),
        cold.batch.stage_runs(),
        "the doubled run must execute the cold run's stages, no more"
    );
    for (pair, want) in batch.jobs.chunks(2).zip(&cold.batch.jobs) {
        for got in pair {
            assert_eq!(got.label, want.label);
            assert_eq!(
                got.verdict, want.verdict,
                "verdict drifted for {}",
                got.label
            );
            assert_eq!(got.stage, want.stage, "stage drifted for {}", got.label);
        }
    }

    println!("== funnel (cold run) ==");
    println!("{}", cold.funnel.render());
    println!(
        "cache sweep OK: {} jobs, cold wall {:?}, warm wall {:?}, doubled wall {:?} ({} entries on disk)",
        jobs, cold.batch.wall, warm.batch.wall, batch.wall, jobs
    );
    let _ = std::fs::remove_file(&path);
}
