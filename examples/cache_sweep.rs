//! The persistent-cache acceptance check, run by CI.
//!
//! Runs the Table 3 funnel twice over a kernel subset with a file-backed
//! verdict cache and asserts the cache contract:
//!
//! * the first run misses on every engine job and persists its verdicts;
//! * the second run — through a *fresh* cache loaded from the file —
//!   reports 100% cache hits, executes **zero** checksum/SMT stages, and
//!   produces bit-identical verdicts.
//!
//! Exits non-zero (panics) on any violation.

use llm_vectorizer_repro::core::{
    table3_with, CountingObserver, ExperimentConfig, Table3, VerdictCache,
};
use llm_vectorizer_repro::interp::ChecksumConfig;
use std::path::Path;
use std::sync::Arc;

fn sweep(cache_path: &Path) -> (Table3, CountingObserver) {
    let cache = Arc::new(VerdictCache::open(cache_path).expect("cache file must load"));
    let config = ExperimentConfig {
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
        cache: Some(cache.clone()),
        ..ExperimentConfig::default()
    };
    let counter = CountingObserver::new();
    let table = table3_with(&config, &counter);
    cache.persist().expect("cache file must persist");
    (table, counter)
}

fn main() {
    let dir = std::env::temp_dir().join(format!("lv-cache-sweep-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("verdicts.json");
    let _ = std::fs::remove_file(&path);

    println!("== cold run (empty cache at {}) ==", path.display());
    let (cold, cold_counter) = sweep(&path);
    println!("{}", cold.render());
    let jobs = cold.batch.jobs.len();
    assert!(jobs >= 4, "expected a non-trivial sweep, got {} jobs", jobs);
    assert_eq!(cold.batch.cache_hits, 0, "cold run must miss everywhere");
    assert_eq!(cold.batch.cache_misses, jobs);
    assert!(cold_counter.stage_count() > 0);

    println!("== warm run (cache reloaded from disk) ==");
    let (warm, warm_counter) = sweep(&path);
    assert_eq!(
        warm.batch.cache_hits, jobs,
        "warm run must be answered entirely from the cache"
    );
    assert_eq!(warm.batch.cache_misses, 0);
    assert_eq!(
        warm_counter.stage_count(),
        0,
        "a warm cache must execute zero checksum/SMT stages"
    );
    assert_eq!(
        warm.batch.stage_runs(),
        0,
        "no stage traces may exist on a fully cached run"
    );
    assert_eq!(warm.batch.total_conflicts(), 0);

    assert_eq!(cold.render(), warm.render(), "rendered tables must match");
    assert_eq!(cold.verdicts.len(), warm.verdicts.len());
    for (c, w) in cold.verdicts.iter().zip(&warm.verdicts) {
        assert_eq!(c.name, w.name);
        assert_eq!(c.verdict, w.verdict, "verdict drifted for {}", c.name);
        assert_eq!(c.stage, w.stage, "stage drifted for {}", c.name);
    }

    println!("== funnel (cold run) ==");
    println!("{}", cold.funnel.render());
    println!(
        "cache sweep OK: {} jobs, cold wall {:?}, warm wall {:?} ({} entries on disk)",
        jobs, cold.batch.wall, warm.batch.wall, jobs
    );
    let _ = std::fs::remove_file(&path);
}
