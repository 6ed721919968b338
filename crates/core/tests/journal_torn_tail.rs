//! Torn-tail recovery, exhaustively: a shard report journal truncated at
//! **every byte offset** of its final record must load as exactly the
//! preceding records — no panic, no error, no silently mis-parsed partial
//! record — and one torn inside its header must be malformed, not a panic.

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

/// Byte offset where the final record (line) of `text` starts.
fn final_record_start(text: &str) -> usize {
    let body = text.strip_suffix('\n').expect("journals end with newline");
    body.rfind('\n').map(|i| i + 1).unwrap_or(0)
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
        }],
        wall: Duration::from_micros(9876),
        cache_hit: false,
        reuse: Default::default(),
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
    // The untruncated journal loads both entries.
    let loaded = ShardReportFile::load(&path).unwrap();
    assert_eq!(loaded.entries.len(), 2);
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
