//! Flush-I/O cost of the shard exchange layer: whole-file rewrite-per-job
//! (the legacy `FlushMode::Rewrite` protocol) vs append-only journals
//! (`FlushMode::Journal`, the default) at 10/100/1000 jobs.
//!
//! Both arms drive the *real* persistence APIs — `ShardReportFile::write` +
//! snapshot-mode `VerdictCache::persist` per job on one side,
//! `ShardReportJournal::append` + journal-mode inserts (plus the final
//! `compact_journal`, so the journal arm pays for producing the canonical
//! snapshot too) on the other — and account total bytes written to disk.
//! Rewrite grows quadratically with job count (every flush rewrites every
//! prior record); the journal grows linearly. Results are printed and
//! written to `BENCH_4.json` (override the path with `BENCH_OUT`); set
//! `LV_BENCH_QUICK=1` to drop the 1000-job size for CI smoke runs.

use criterion::{criterion_group, criterion_main, Criterion};
use lv_core::cache::{CacheKey, CachedVerdict};
use lv_core::pipeline::{Equivalence, Stage};
use lv_core::shard::{ShardReportFile, ShardReportJournal};
use lv_core::{FsyncPolicy, JobReport, StageTrace, VerdictCache};
use lv_interp::ChecksumClass;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const FINGERPRINT: u64 = 0xfeed_beef_cafe_f00d;

fn sample_job(i: usize) -> (CacheKey, CachedVerdict, JobReport) {
    let key = CacheKey {
        scalar: i as u64,
        candidate: (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        config: FINGERPRINT,
    };
    let verdict = CachedVerdict {
        verdict: Equivalence::Equivalent,
        stage: Stage::CUnroll,
        detail: String::new(),
        checksum: Some(ChecksumClass::Plausible),
    };
    let report = JobReport {
        label: format!("job-{:04}", i),
        verdict: Equivalence::Equivalent,
        stage: Stage::CUnroll,
        detail: String::new(),
        checksum: Some(ChecksumClass::Plausible),
        traces: vec![
            StageTrace {
                stage: Stage::Checksum,
                conclusive: false,
                wall: Duration::from_micros(1200 + i as u64),
                conflicts: 0,
                clauses: 0,
                name_mismatch: false,
            },
            StageTrace {
                stage: Stage::CUnroll,
                conclusive: true,
                wall: Duration::from_micros(5400 + i as u64),
                conflicts: 17,
                clauses: 20_000,
                name_mismatch: false,
            },
        ],
        wall: Duration::from_micros(6600 + i as u64),
        cache_hit: false,
        reuse: Default::default(),
        simplify: Default::default(),
    };
    (key, verdict, report)
}

/// One shard's flush sequence under the legacy rewrite protocol; returns
/// total bytes written.
fn run_rewrite(dir: &Path, jobs: usize) -> u64 {
    let cache_path = dir.join("rw.cache.json");
    let report_path = dir.join("rw.report.json");
    let _ = std::fs::remove_file(&cache_path);
    let cache = VerdictCache::open(&cache_path).expect("cache");
    let mut entries = Vec::new();
    let mut report_bytes = 0u64;
    for i in 0..jobs {
        let (key, verdict, report) = sample_job(i);
        entries.push((i, report));
        let file = ShardReportFile {
            shard: 0,
            shards: 1,
            fingerprint: FINGERPRINT,
            entries: entries.clone(),
        };
        report_bytes += file.write(&report_path).expect("report rewrite");
        cache.insert(key, verdict);
        cache.persist().expect("cache rewrite");
    }
    report_bytes + cache.io_bytes_written()
}

/// The same flush sequence on the journal path, including the final
/// compaction into the canonical snapshot; returns total bytes written.
fn run_journal(dir: &Path, jobs: usize) -> u64 {
    let cache_path = dir.join("jr.cache.json");
    let report_path = dir.join("jr.report.json");
    let _ = std::fs::remove_file(&cache_path);
    let cache = VerdictCache::open_journal(&cache_path, FsyncPolicy::OnCompact).expect("cache");
    let mut journal =
        ShardReportJournal::create(&report_path, 0, 1, FINGERPRINT, FsyncPolicy::OnCompact)
            .expect("report journal");
    for i in 0..jobs {
        let (key, verdict, report) = sample_job(i);
        journal.append(i, &report).expect("report append");
        cache.insert(key, verdict);
    }
    cache.compact_journal().expect("compaction");
    journal.bytes_written() + cache.io_bytes_written()
}

struct Row {
    jobs: usize,
    rewrite_bytes: u64,
    journal_bytes: u64,
    rewrite_wall: Duration,
    journal_wall: Duration,
}

fn measure(dir: &Path, jobs: usize) -> Row {
    let start = Instant::now();
    let rewrite_bytes = run_rewrite(dir, jobs);
    let rewrite_wall = start.elapsed();
    let start = Instant::now();
    let journal_bytes = run_journal(dir, jobs);
    let journal_wall = start.elapsed();

    // Cross-check: both arms leave loadable, equivalent final state.
    let rewrite_report = ShardReportFile::load(dir.join("rw.report.json")).expect("load rewrite");
    let journal_report = ShardReportFile::load(dir.join("jr.report.json")).expect("load journal");
    assert_eq!(rewrite_report.render(), journal_report.render());
    let rewrite_cache = VerdictCache::open(dir.join("rw.cache.json")).expect("open rewrite");
    let journal_cache = VerdictCache::open(dir.join("jr.cache.json")).expect("open journal");
    assert_eq!(rewrite_cache.len(), jobs);
    assert_eq!(journal_cache.len(), jobs);

    Row {
        jobs,
        rewrite_bytes,
        journal_bytes,
        rewrite_wall,
        journal_wall,
    }
}

fn bench(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("lv-journal-flush-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let quick = std::env::var("LV_BENCH_QUICK").is_ok();
    let sizes: &[usize] = if quick { &[10, 100] } else { &[10, 100, 1000] };

    println!("\n=== journal_flush: total flush bytes, rewrite-per-job vs journal-append ===");
    let mut rows = Vec::new();
    for &jobs in sizes {
        let row = measure(&dir, jobs);
        println!(
            "{:>5} jobs: rewrite {:>12} B ({:>9.3?}) | journal {:>9} B ({:>9.3?}) | {:>6.1}x fewer bytes",
            row.jobs,
            row.rewrite_bytes,
            row.rewrite_wall,
            row.journal_bytes,
            row.journal_wall,
            row.rewrite_bytes as f64 / row.journal_bytes as f64,
        );
        rows.push(row);
    }

    // Emit the machine-readable data point for the repo's perf trajectory.
    // Default to the workspace root (cargo runs benches from the package
    // directory), overridable with BENCH_OUT.
    let out =
        std::env::var("BENCH_OUT").unwrap_or_else(|_| match std::env::var("CARGO_MANIFEST_DIR") {
            Ok(pkg) => format!("{}/../../BENCH_4.json", pkg),
            Err(_) => "BENCH_4.json".to_string(),
        });
    let mut json = String::from(
        "{\"bench\":\"journal_flush\",\
         \"compares\":\"rewrite-per-job vs append-only journal (cache + shard report, \
         journal arm includes final compaction)\",\"sizes\":[",
    );
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!(
            "{{\"jobs\":{},\"rewrite_bytes\":{},\"journal_bytes\":{},\
             \"bytes_reduction_x\":{:.2},\"rewrite_wall_us\":{},\"journal_wall_us\":{}}}",
            row.jobs,
            row.rewrite_bytes,
            row.journal_bytes,
            row.rewrite_bytes as f64 / row.journal_bytes as f64,
            row.rewrite_wall.as_micros(),
            row.journal_wall.as_micros(),
        ));
    }
    json.push_str("]}\n");
    std::fs::write(&out, json).expect("write bench JSON");
    println!("wrote {}", out);

    let loop_jobs = 100;
    let loop_dir: PathBuf = dir.clone();
    c.bench_function("journal_flush_rewrite_100", |b| {
        b.iter(|| run_rewrite(&loop_dir, loop_jobs))
    });
    c.bench_function("journal_flush_journal_100", |b| {
        b.iter(|| run_journal(&loop_dir, loop_jobs))
    });
    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(3);
    targets = bench
}
criterion_main!(benches);
