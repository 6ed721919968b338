//! Torn-tail recovery, exhaustively: a journal truncated at **every byte
//! offset** of its final record must load as exactly the preceding records
//! — no panic, no error, no silently mis-parsed partial record — for both
//! journal kinds (verdict cache and shard report). Also pins that
//! compacting a journal yields the byte-identical snapshot a snapshot-mode
//! cache would persist.

use lv_core::cache::{CacheKey, CachedVerdict, VerdictCache};
use lv_core::journal::FsyncPolicy;
use lv_core::pipeline::{Equivalence, Stage};
use lv_core::shard::{ShardReportFile, ShardReportJournal};
use lv_core::{JobReport, StageTrace};
use lv_interp::ChecksumClass;
use std::path::PathBuf;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lv-torn-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn sample_entries() -> Vec<(CacheKey, CachedVerdict)> {
    (0..3u64)
        .map(|i| {
            (
                CacheKey {
                    scalar: i,
                    candidate: 100 + i,
                    config: 7,
                },
                CachedVerdict {
                    verdict: Equivalence::Equivalent,
                    stage: Stage::CUnroll,
                    detail: format!("entry {} with \"quotes\"\nand a newline", i),
                    checksum: Some(ChecksumClass::Plausible),
                },
            )
        })
        .collect()
}

/// Byte offset where the final record (line) of `text` starts.
fn final_record_start(text: &str) -> usize {
    let body = text.strip_suffix('\n').expect("journals end with newline");
    body.rfind('\n').map(|i| i + 1).unwrap_or(0)
}

#[test]
fn cache_journal_truncated_at_every_offset_of_its_final_record_loads_the_prefix() {
    let dir = temp_dir("cache");
    let path = dir.join("verdicts.journal.json");
    let entries = sample_entries();
    {
        let cache = VerdictCache::open_journal(&path, FsyncPolicy::OnCompact).unwrap();
        for (key, verdict) in &entries {
            cache.insert(*key, verdict.clone());
        }
    }
    let full = std::fs::read_to_string(&path).unwrap();
    let final_start = final_record_start(&full);
    assert!(final_start > 0, "journal must have multiple records");

    let torn = dir.join("torn.json");
    for cut in final_start..full.len() {
        std::fs::write(&torn, &full[..cut]).unwrap();
        let loaded = VerdictCache::open(&torn)
            .unwrap_or_else(|e| panic!("cut at {}/{} must load: {}", cut, full.len(), e));
        assert_eq!(
            loaded.len(),
            2,
            "cut at {} must keep exactly the two complete records",
            cut
        );
        for (key, verdict) in &entries[..2] {
            assert_eq!(loaded.get(key).as_ref(), Some(verdict), "cut at {}", cut);
        }
        assert_eq!(loaded.get(&entries[2].0), None, "cut at {}", cut);
    }
    // The untruncated journal loads everything.
    let loaded = VerdictCache::open(&path).unwrap();
    assert_eq!(loaded.len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reopening_a_torn_cache_journal_truncates_and_appends_cleanly() {
    let dir = temp_dir("reopen");
    let path = dir.join("verdicts.journal.json");
    let entries = sample_entries();
    {
        let cache = VerdictCache::open_journal(&path, FsyncPolicy::OnCompact).unwrap();
        for (key, verdict) in &entries {
            cache.insert(*key, verdict.clone());
        }
    }
    let full = std::fs::read(&path).unwrap();
    std::fs::write(&path, &full[..full.len() - 4]).unwrap();

    // Re-open for append: the torn record is truncated on disk, and the
    // re-inserted entry is re-journaled.
    let cache = VerdictCache::open_journal(&path, FsyncPolicy::OnCompact).unwrap();
    assert_eq!(cache.len(), 2, "torn record dropped on reopen");
    cache.insert(entries[2].0, entries[2].1.clone());
    drop(cache);
    let reloaded = VerdictCache::open(&path).unwrap();
    assert_eq!(reloaded.len(), 3, "appends continue past the truncation");
    for (key, verdict) in &entries {
        assert_eq!(reloaded.get(key).as_ref(), Some(verdict));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compacted_journal_is_byte_identical_to_the_snapshot_persist() {
    let dir = temp_dir("compact");
    let journal_path = dir.join("journaled.json");
    let snapshot_path = dir.join("snapshot.json");
    let entries = sample_entries();

    let journaled = VerdictCache::open_journal(&journal_path, FsyncPolicy::OnCompact).unwrap();
    let snapshot = VerdictCache::open(&snapshot_path).unwrap();
    for (key, verdict) in &entries {
        journaled.insert(*key, verdict.clone());
        snapshot.insert(*key, verdict.clone());
    }
    assert!(journaled.is_journaling());
    journaled.compact_journal().unwrap();
    assert!(!journaled.is_journaling(), "compaction closes the journal");
    snapshot.persist().unwrap();

    let compacted_bytes = std::fs::read_to_string(&journal_path).unwrap();
    let snapshot_bytes = std::fs::read_to_string(&snapshot_path).unwrap();
    assert_eq!(
        compacted_bytes, snapshot_bytes,
        "compact_journal must write the canonical snapshot byte-for-byte"
    );
    // And the compacted file round-trips through the snapshot parser.
    let reloaded = VerdictCache::open(&journal_path).unwrap();
    assert_eq!(reloaded.len(), entries.len());

    // A snapshot converted back to journal mode keeps its contents and can
    // keep appending (the upgrade path for a warm rewrite-mode cache).
    let upgraded = VerdictCache::open_journal(&journal_path, FsyncPolicy::OnCompact).unwrap();
    assert_eq!(upgraded.len(), entries.len());
    assert!(upgraded.is_journaling());
    let _ = std::fs::remove_dir_all(&dir);
}

fn sample_report(label: &str) -> JobReport {
    JobReport {
        label: label.to_string(),
        verdict: Equivalence::Equivalent,
        stage: Stage::CUnroll,
        detail: "proof with \"quotes\"\nand newlines".to_string(),
        checksum: Some(ChecksumClass::Plausible),
        traces: vec![StageTrace {
            stage: Stage::Checksum,
            conclusive: false,
            wall: Duration::from_micros(1234),
            conflicts: 5,
            clauses: 99,
            name_mismatch: false,
        }],
        wall: Duration::from_micros(9876),
        cache_hit: false,
        reuse: Default::default(),
        simplify: Default::default(),
    }
}

#[test]
fn report_journal_truncated_at_every_offset_of_its_final_record_loads_the_prefix() {
    let dir = temp_dir("report");
    let path = dir.join("shard-0.report.json");
    {
        let mut journal =
            ShardReportJournal::create(&path, 0, 2, 0xabcd, FsyncPolicy::OnCompact).unwrap();
        journal.append(4, &sample_report("s112")).unwrap();
        journal.append(9, &sample_report("s243")).unwrap();
        assert_eq!(
            journal.bytes_written(),
            std::fs::metadata(&path).unwrap().len(),
            "bytes_written tracks the file length"
        );
    }
    let full = std::fs::read_to_string(&path).unwrap();
    let final_start = final_record_start(&full);

    let torn = dir.join("torn.report.json");
    for cut in final_start..full.len() {
        std::fs::write(&torn, &full[..cut]).unwrap();
        let loaded = ShardReportFile::load(&torn)
            .unwrap_or_else(|e| panic!("cut at {}/{} must load: {}", cut, full.len(), e));
        assert_eq!((loaded.shard, loaded.shards), (0, 2), "cut at {}", cut);
        assert_eq!(loaded.fingerprint, 0xabcd, "cut at {}", cut);
        assert_eq!(loaded.entries.len(), 1, "cut at {}", cut);
        let (index, report) = &loaded.entries[0];
        assert_eq!(*index, 4);
        assert_eq!(report.label, "s112");
        assert_eq!(report.traces.len(), 1);
    }
    // The untruncated journal loads both entries, and re-rendering it as a
    // snapshot produces the same document a snapshot-mode report would.
    let loaded = ShardReportFile::load(&path).unwrap();
    assert_eq!(loaded.entries.len(), 2);
    let as_snapshot = dir.join("as-snapshot.json");
    loaded.write(&as_snapshot).unwrap();
    let reloaded = ShardReportFile::load(&as_snapshot).unwrap();
    assert_eq!(reloaded.render(), loaded.render());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A report journal torn inside its *header* (a crash at creation) has no
/// shard metadata: loading reports a malformed file — which the coordinator
/// treats like a missing report — rather than panicking or inventing data.
#[test]
fn report_journal_torn_at_the_header_is_malformed_not_a_panic() {
    let dir = temp_dir("torn-header");
    let path = dir.join("shard-0.report.json");
    {
        let mut journal =
            ShardReportJournal::create(&path, 0, 2, 0xabcd, FsyncPolicy::OnCompact).unwrap();
        journal.append(0, &sample_report("s000")).unwrap();
    }
    let full = std::fs::read_to_string(&path).unwrap();
    let header_len = full.find('\n').unwrap() + 1;
    let torn = dir.join("torn.json");
    for cut in 1..header_len {
        std::fs::write(&torn, &full[..cut]).unwrap();
        assert!(
            ShardReportFile::load(&torn).is_err(),
            "cut at {} leaves no usable header and must be an error",
            cut
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
