//! The persistent, content-addressed verdict cache.
//!
//! Verification is a pure function of `(scalar, candidate, configuration)`:
//! the checksum harness is seeded, the SMT solver is deterministic, and
//! budgets are part of the configuration. The engine therefore memoizes
//! verdicts across batches — and, through the file backing, across runs
//! of the `lv-sweep run` and `serve` commands — keyed by content hashes
//! rather than source text:
//!
//! * `scalar` — [`lv_cir::structural_hash`] of the scalar kernel, so
//!   renaming its variables, labels, or the kernel itself still hits;
//! * `candidate` — [`lv_cir::structural_hash`] of the candidate alone, by
//!   its own parameter positions: every stage binds the candidate's
//!   parameters to the scalar's by position, so renaming any of its
//!   variables (parameters included) or labels still hits, while reordering
//!   its parameters, or any semantic edit (a constant, an operator, a type,
//!   the statement shape), misses;
//! * `config` — [`EngineConfig::semantic_fingerprint`](crate::EngineConfig::semantic_fingerprint),
//!   covering the cascade stage list, the checksum harness configuration,
//!   every solver budget and the search and binding revisions. Anything
//!   that could change a verdict — or an `Inconclusive` outcome —
//!   invalidates the entry by changing its key.
//!
//! # File format
//!
//! A [`VerdictCache`] is one in-memory `HashMap`, optionally backed by a
//! file holding one JSON snapshot document (via the `serde` shim's
//! [`json`] module):
//!
//! ```json
//! {"version":1,"entries":[
//!   {"scalar":"0f3a…16 hex…","candidate":"…","config":"…",
//!    "verdict":"equivalent","stage":"cunroll","detail":"",
//!    "checksum":"plausible"}
//! ]}
//! ```
//!
//! Hashes are 16-digit lower-case hex strings (JSON numbers cannot hold a
//! `u64`). Entries are written in sorted key order, so persisting the same
//! contents twice produces byte-identical files. `checksum` is `null` for
//! verdicts produced by cascades without a checksum stage. A file listing
//! one key twice with different verdicts is corrupt and refused, never
//! read last-write-wins; two listings that differ only in `detail` agree,
//! and the first is kept ([`CachedVerdict::agrees_with`]).
//!
//! File I/O happens only in [`VerdictCache::open`] and
//! [`VerdictCache::persist`], which rewrites the whole file atomically
//! (temp file, then rename).
//!
//! Files of the forms earlier builds could write are refused with
//! [`io::ErrorKind::InvalidData`] naming the removed form, never
//! mis-parsed, and left untouched: the three other verdict-cache forms (the
//! JSON cache journal, `{"journal":"verdict-cache"…`, the binary cache
//! journal, `LVBJ` magic, and the binary snapshot, `LVCS` magic) and the
//! files of the deleted multi-process shard sweeps (report journals, claim
//! journals, cross-run profile journals, and manifests, which a snapshot
//! reader would otherwise take for a snapshot without entries).
//!
//! # Invalidation rules
//!
//! There is no explicit invalidation: a key embeds everything a verdict
//! depends on, so stale entries are simply never looked up again. The
//! `version` field guards the *format and hash scheme*: bump
//! [`CACHE_FORMAT_VERSION`] when [`lv_cir::structural_hash`]'s protocol or
//! the file layout changes, and readers reject files from other versions (a
//! rejected file is reported as an error, not silently discarded, so an
//! operator can delete it deliberately).

pub(crate) mod binary;

use crate::pipeline::{Equivalence, Stage};
use lv_interp::ChecksumClass;
use serde::json::{self, Emitter, Value};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

/// The on-disk format version; readers reject any other value.
pub const CACHE_FORMAT_VERSION: i64 = 1;

/// The content-addressed key of one verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// [`lv_cir::structural_hash`] of the scalar kernel.
    pub scalar: u64,
    /// [`lv_cir::structural_hash`] of the candidate (see the module docs).
    pub candidate: u64,
    /// [`crate::EngineConfig::semantic_fingerprint`] of the engine
    /// configuration the verdict was produced under.
    pub config: u64,
}

/// A memoized verdict: everything a [`JobReport`](crate::JobReport) needs to
/// be bit-identical to a fresh run, minus the telemetry (a cache hit runs no
/// stages, so it has no traces).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedVerdict {
    /// The final verdict.
    pub verdict: Equivalence,
    /// The stage that produced it.
    pub stage: Stage,
    /// Counterexample, mismatch, or inconclusive reason.
    pub detail: String,
    /// Checksum classification, when the cascade included the checksum stage.
    pub checksum: Option<ChecksumClass>,
}

impl CachedVerdict {
    /// Whether two verdicts of one key agree: the same verdict, stage and
    /// checksum class. `detail` is explanation only. It may name functions
    /// and variables the key does not cover, so two alpha-equivalent jobs
    /// (kernels that differ only in their names) share a key and verdict
    /// but can word their details differently.
    pub fn agrees_with(&self, other: &CachedVerdict) -> bool {
        self.verdict == other.verdict
            && self.stage == other.stage
            && self.checksum == other.checksum
    }
}

/// A thread-safe verdict store, optionally backed by a file.
///
/// Workers on the engine's pool share one cache through an `Arc`; `get`
/// and `insert` take a short mutex, never I/O. File I/O happens only in
/// [`VerdictCache::open`] and [`VerdictCache::persist`] (see the
/// [module docs](self)).
#[derive(Debug, Default)]
pub struct VerdictCache {
    entries: Mutex<HashMap<CacheKey, CachedVerdict>>,
    path: Option<PathBuf>,
}

impl VerdictCache {
    /// An empty cache with no file backing.
    pub fn in_memory() -> VerdictCache {
        VerdictCache::default()
    }

    /// A cache backed by the JSON snapshot at `path`. A missing file yields
    /// an empty cache; an unreadable or malformed file, or one of a removed
    /// form, is an error (never silently discarded).
    pub fn open(path: impl Into<PathBuf>) -> io::Result<VerdictCache> {
        let path = path.into();
        let entries = match std::fs::read(&path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => HashMap::new(),
            Err(e) => return Err(e),
            Ok(bytes) => entries_from_bytes(&bytes)
                .map_err(|reason| io::Error::new(io::ErrorKind::InvalidData, reason))?,
        };
        Ok(VerdictCache {
            entries: Mutex::new(entries),
            path: Some(path),
        })
    }

    /// The backing file, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// The entry map. The lock is poisoned only when a thread panicked
    /// while holding it, a bug in this program.
    fn map(&self) -> MutexGuard<'_, HashMap<CacheKey, CachedVerdict>> {
        self.entries
            .lock()
            .expect("verdict cache lock poisoned by a panicked thread")
    }

    /// Looks up a verdict.
    pub fn get(&self, key: &CacheKey) -> Option<CachedVerdict> {
        self.map().get(key).cloned()
    }

    /// Stores a verdict.
    pub fn insert(&self, key: CacheKey, verdict: CachedVerdict) {
        self.map().insert(key, verdict);
    }

    /// Number of stored verdicts.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Returns `true` if the cache holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.map().is_empty()
    }

    /// Rewrites the backing file (atomically: temp file, then rename) as
    /// the canonical JSON snapshot, streaming the entries in sorted key
    /// order so persisting the same contents always produces byte-identical
    /// files. No-op for an in-memory cache.
    pub fn persist(&self) -> io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let entries = self.map().clone();
        write_snapshot_atomic(path, &entries)
    }
}

/// Per-file statistics for `lv-sweep cache stats`: how big a cache file is
/// and what it holds.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheFileStats {
    /// File size in bytes.
    pub file_bytes: u64,
    /// Number of distinct entries.
    pub entries: usize,
    /// Entries whose verdict is `equivalent`.
    pub equivalent: usize,
    /// Entries whose verdict is `not-equivalent`.
    pub not_equivalent: usize,
    /// Entries whose verdict is `inconclusive`.
    pub inconclusive: usize,
}

impl CacheFileStats {
    /// Average stored bytes per entry (0 for an empty file).
    pub fn bytes_per_entry(&self) -> f64 {
        if self.entries == 0 {
            0.0
        } else {
            self.file_bytes as f64 / self.entries as f64
        }
    }
}

/// Computes [`CacheFileStats`] for a cache file; a file of a removed form
/// is refused like [`VerdictCache::open`] refuses it.
pub fn cache_file_stats(path: &Path) -> io::Result<CacheFileStats> {
    let bytes = std::fs::read(path)?;
    let entries = entries_from_bytes(&bytes)
        .map_err(|reason| io::Error::new(io::ErrorKind::InvalidData, reason))?;
    let mut stats = CacheFileStats {
        file_bytes: bytes.len() as u64,
        entries: entries.len(),
        equivalent: 0,
        not_equivalent: 0,
        inconclusive: 0,
    };
    for verdict in entries.values() {
        match verdict.verdict {
            Equivalence::Equivalent => stats.equivalent += 1,
            Equivalence::NotEquivalent => stats.not_equivalent += 1,
            Equivalence::Inconclusive => stats.inconclusive += 1,
        }
    }
    Ok(stats)
}

/// What to do with a verdict cache of a removed form.
const CONVERT_CACHE: &str =
    "convert it to a JSON snapshot with `lv-sweep compact` from an earlier build, or delete it";

/// What to do with a file of the deleted multi-process shard sweeps.
const SHARD_LAYER_GONE: &str = "nothing reads it since the multi-process shard sweeps were \
     deleted (`lv-sweep run --cache FILE` keeps a sweep's verdicts in a snapshot); delete it";

/// The leading bytes of each form earlier builds could write, with the
/// name it is refused by and what to do with it. The forms are gone; their
/// files are refused by name rather than failing as "not UTF-8", "not
/// JSON" or "no `version` field".
const REMOVED_FORMS: [(&[u8], &str, &str); 6] = [
    (
        b"{\"journal\":\"verdict-cache\"",
        "JSON cache journal",
        CONVERT_CACHE,
    ),
    (b"LVBJ", "binary cache journal", CONVERT_CACHE),
    (b"LVCS", "binary snapshot", CONVERT_CACHE),
    (
        b"{\"journal\":\"shard-report\"",
        "shard report journal",
        SHARD_LAYER_GONE,
    ),
    (
        b"{\"journal\":\"shard-claims\"",
        "shard claim journal",
        SHARD_LAYER_GONE,
    ),
    (
        b"{\"journal\":\"cross-run-profile\"",
        "cross-run profile journal",
        SHARD_LAYER_GONE,
    ),
];

/// Parses a JSON snapshot into an entry map; a file of a removed form is a
/// named error.
fn entries_from_bytes(bytes: &[u8]) -> Result<HashMap<CacheKey, CachedVerdict>, String> {
    if let Some((prefix, name, remedy)) = REMOVED_FORMS
        .iter()
        .find(|(prefix, ..)| bytes.starts_with(prefix))
    {
        return Err(format!(
            "cache file is a {} (`{}`), a form this build no longer reads; {}",
            name,
            String::from_utf8_lossy(prefix),
            remedy
        ));
    }
    let text = std::str::from_utf8(bytes).map_err(|e| format!("cache file is not UTF-8: {}", e))?;
    parse_entries(text)
}

fn parse_hex(value: Option<&Value>, field: &str) -> Result<u64, String> {
    let s = value
        .and_then(Value::as_str)
        .ok_or_else(|| format!("entry is missing the `{}` hash", field))?;
    u64::from_str_radix(s, 16).map_err(|_| format!("`{}` is not a hex hash: `{}`", field, s))
}

fn verdict_tag(verdict: Equivalence) -> &'static str {
    match verdict {
        Equivalence::Equivalent => "equivalent",
        Equivalence::NotEquivalent => "not-equivalent",
        Equivalence::Inconclusive => "inconclusive",
    }
}

fn parse_verdict(tag: &str) -> Result<Equivalence, String> {
    match tag {
        "equivalent" => Ok(Equivalence::Equivalent),
        "not-equivalent" => Ok(Equivalence::NotEquivalent),
        "inconclusive" => Ok(Equivalence::Inconclusive),
        other => Err(format!("unknown verdict tag `{}`", other)),
    }
}

fn stage_tag(stage: Stage) -> &'static str {
    match stage {
        Stage::Checksum => "checksum",
        Stage::Alive2 => "alive2",
        Stage::CUnroll => "cunroll",
        Stage::Splitting => "splitting",
    }
}

fn parse_stage(tag: &str) -> Result<Stage, String> {
    match tag {
        "checksum" => Ok(Stage::Checksum),
        "alive2" => Ok(Stage::Alive2),
        "cunroll" => Ok(Stage::CUnroll),
        "splitting" => Ok(Stage::Splitting),
        other => Err(format!("unknown stage tag `{}`", other)),
    }
}

fn checksum_tag(class: ChecksumClass) -> &'static str {
    match class {
        ChecksumClass::Plausible => "plausible",
        ChecksumClass::NotEquivalent => "not-equivalent",
        ChecksumClass::CannotCompile => "cannot-compile",
        ChecksumClass::ScalarFailed => "scalar-failed",
    }
}

fn parse_checksum(value: Option<&Value>) -> Result<Option<ChecksumClass>, String> {
    match value {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Str(s)) => match s.as_str() {
            "plausible" => Ok(Some(ChecksumClass::Plausible)),
            "not-equivalent" => Ok(Some(ChecksumClass::NotEquivalent)),
            "cannot-compile" => Ok(Some(ChecksumClass::CannotCompile)),
            "scalar-failed" => Ok(Some(ChecksumClass::ScalarFailed)),
            other => Err(format!("unknown checksum tag `{}`", other)),
        },
        Some(other) => Err(format!("checksum field has the wrong type: {}", other)),
    }
}

/// Streams one snapshot entry object.
fn emit_entry<W: io::Write>(
    e: &mut Emitter<W>,
    key: &CacheKey,
    verdict: &CachedVerdict,
) -> io::Result<()> {
    e.begin_object()?;
    e.field_hex("scalar", key.scalar)?;
    e.field_hex("candidate", key.candidate)?;
    e.field_hex("config", key.config)?;
    e.field_str("verdict", verdict_tag(verdict.verdict))?;
    e.field_str("stage", stage_tag(verdict.stage))?;
    e.field_str("detail", &verdict.detail)?;
    // `null` for verdicts produced by cascades without a checksum stage.
    e.key("checksum")?;
    match verdict.checksum {
        None => e.null()?,
        Some(class) => e.str(checksum_tag(class))?,
    }
    e.end_object()
}

/// Streams the whole snapshot document (sorted key order, trailing newline)
/// into `w` — byte-identical for identical contents.
fn write_snapshot<W: io::Write>(
    w: W,
    entries: &HashMap<CacheKey, CachedVerdict>,
) -> io::Result<()> {
    let mut sorted: Vec<(&CacheKey, &CachedVerdict)> = entries.iter().collect();
    sorted.sort_by_key(|(key, _)| **key);
    let mut e = Emitter::new(w);
    e.begin_object()?;
    e.field_int("version", CACHE_FORMAT_VERSION)?;
    e.key("entries")?;
    e.begin_array()?;
    for (key, verdict) in sorted {
        emit_entry(&mut e, key, verdict)?;
    }
    e.end_array()?;
    e.end_object()?;
    let mut w = e.into_inner();
    w.write_all(b"\n")
}

/// Streams the snapshot of `entries` to `path` atomically (temp file, then
/// rename), creating parent directories as needed.
fn write_snapshot_atomic(
    path: &Path,
    entries: &HashMap<CacheKey, CachedVerdict>,
) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let tmp = path.with_extension("tmp");
    let mut writer = BufWriter::new(File::create(&tmp)?);
    write_snapshot(&mut writer, entries)?;
    writer.flush()?;
    drop(writer);
    std::fs::rename(&tmp, path)
}

/// Parses one snapshot entry object.
fn parse_entry(item: &Value) -> Result<(CacheKey, CachedVerdict), String> {
    let key = CacheKey {
        scalar: parse_hex(item.get("scalar"), "scalar")?,
        candidate: parse_hex(item.get("candidate"), "candidate")?,
        config: parse_hex(item.get("config"), "config")?,
    };
    let verdict = CachedVerdict {
        verdict: parse_verdict(
            item.get("verdict")
                .and_then(Value::as_str)
                .ok_or("entry is missing `verdict`")?,
        )?,
        stage: parse_stage(
            item.get("stage")
                .and_then(Value::as_str)
                .ok_or("entry is missing `stage`")?,
        )?,
        detail: item
            .get("detail")
            .and_then(Value::as_str)
            .ok_or("entry is missing `detail`")?
            .to_string(),
        checksum: parse_checksum(item.get("checksum"))?,
    };
    Ok((key, verdict))
}

/// Parses the snapshot document. A key listed twice with agreeing verdicts
/// is a no-op (the first listing is kept); listed with *different* verdicts
/// it is corruption and refused — never last-write-wins.
fn parse_entries(text: &str) -> Result<HashMap<CacheKey, CachedVerdict>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    // A shard sweep manifest is a JSON document with a `version` field too;
    // its `shards` field tells it from a snapshot.
    if doc.get("shards").is_some() {
        return Err(format!(
            "cache file is a shard manifest (it has a `shards` field), a form this build \
             no longer reads; {}",
            SHARD_LAYER_GONE
        ));
    }
    match doc.get("version").and_then(Value::as_int) {
        Some(CACHE_FORMAT_VERSION) => {}
        Some(other) => {
            return Err(format!(
                "cache file has format version {}, this build reads version {}; \
                 delete the file to rebuild it",
                other, CACHE_FORMAT_VERSION
            ))
        }
        None => return Err("cache file has no `version` field".to_string()),
    }
    let items = doc
        .get("entries")
        .and_then(Value::as_array)
        .ok_or_else(|| "cache file has no `entries` array".to_string())?;
    let mut entries = HashMap::with_capacity(items.len());
    for item in items {
        let (key, verdict) = parse_entry(item)?;
        insert_agreeing(&mut entries, key, verdict).map_err(|_| {
            format!(
                "cache file lists key (scalar {:016x}, candidate {:016x}, config {:016x}) \
                 twice with different verdicts",
                key.scalar, key.candidate, key.config
            )
        })?;
    }
    Ok(entries)
}

/// Stores `verdict` under `key` unless `entries` holds a disagreeing verdict
/// for it ([`CachedVerdict::agrees_with`]) — the snapshot reader's one
/// conflict rule. `Ok(true)` when the key was added, `Ok(false)` when an
/// agreeing verdict was already stored (the stored entry, its detail
/// included, is kept), and `Err` with the stored verdict, left in place,
/// when they disagree: never last-write-wins.
fn insert_agreeing(
    entries: &mut HashMap<CacheKey, CachedVerdict>,
    key: CacheKey,
    verdict: CachedVerdict,
) -> Result<bool, CachedVerdict> {
    match entries.entry(key) {
        Entry::Vacant(slot) => {
            slot.insert(verdict);
            Ok(true)
        }
        Entry::Occupied(slot) if slot.get().agrees_with(&verdict) => Ok(false),
        Entry::Occupied(slot) => Err(slot.get().clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries() -> Vec<(CacheKey, CachedVerdict)> {
        vec![
            (
                CacheKey {
                    scalar: 1,
                    candidate: 2,
                    config: 3,
                },
                CachedVerdict {
                    verdict: Equivalence::Equivalent,
                    stage: Stage::CUnroll,
                    detail: String::new(),
                    checksum: Some(ChecksumClass::Plausible),
                },
            ),
            (
                CacheKey {
                    scalar: u64::MAX,
                    candidate: 0xdead_beef,
                    config: 42,
                },
                CachedVerdict {
                    verdict: Equivalence::NotEquivalent,
                    stage: Stage::Checksum,
                    detail: "a[0]: expected 1 but \"the\" code\nproduced 2 \\ lane".to_string(),
                    checksum: Some(ChecksumClass::NotEquivalent),
                },
            ),
            (
                CacheKey {
                    scalar: 7,
                    candidate: 8,
                    config: 9,
                },
                CachedVerdict {
                    verdict: Equivalence::Inconclusive,
                    stage: Stage::Splitting,
                    detail: "solver exhausted its budget".to_string(),
                    checksum: None,
                },
            ),
        ]
    }

    /// The leading bytes of a JSON cache journal written by an earlier
    /// build: its CRC-framed header record.
    const REMOVED_JSON_JOURNAL_SAMPLE: &[u8] =
        b"{\"journal\":\"verdict-cache\",\"version\":1} 7c5ebc21\n";

    /// The leading bytes of a binary cache journal written by an earlier
    /// build: the `LVBJ` magic and the start of its header frame.
    const REMOVED_LVBJ_SAMPLE: &[u8] = b"LVBJ\x11\x00\x00\x00verdict-cache";

    /// The leading bytes of a binary snapshot written by an earlier build:
    /// the `LVCS` magic, format version 1, one entry, index offset 56.
    const REMOVED_LVCS_SAMPLE: &[u8] =
        b"LVCS\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x38\x00\x00\x00\x00\x00\x00\x00";

    /// The first bytes of a shard report journal of the deleted
    /// multi-process sweeps: its CRC-framed header record.
    const REMOVED_SHARD_REPORT_SAMPLE: &[u8] =
        b"{\"journal\":\"shard-report\",\"version\":1,\"shard\":0,\"shards\":2,\
          \"fingerprint\":\"d5d4940c130e4c27\"} 49683cfa\n";

    /// A shard manifest of the deleted multi-process sweeps, cut short: a
    /// JSON document with a `version` field, like a snapshot.
    const REMOVED_MANIFEST_SAMPLE: &[u8] = b"{\"version\":1,\"fingerprint\":\"d5d4940c130e4c27\",\
          \"shards\":2,\"policy\":\"hash-mod\",\"threads\":0,\"jobs\":[]}\n";

    /// Every removed form: its leading bytes, the name it is refused by,
    /// and the remedy the refusal names.
    const REMOVED_SAMPLES: [(&[u8], &str, &str); 7] = [
        (
            REMOVED_JSON_JOURNAL_SAMPLE,
            "JSON cache journal",
            "lv-sweep compact",
        ),
        (
            REMOVED_LVBJ_SAMPLE,
            "binary cache journal",
            "lv-sweep compact",
        ),
        (REMOVED_LVCS_SAMPLE, "binary snapshot", "lv-sweep compact"),
        (
            REMOVED_SHARD_REPORT_SAMPLE,
            "shard report journal",
            "lv-sweep run --cache",
        ),
        (
            b"{\"journal\":\"shard-claims\",\"version\":1} 00000000\n",
            "shard claim journal",
            "lv-sweep run --cache",
        ),
        (
            b"{\"journal\":\"cross-run-profile\",\"version\":1} 00000000\n",
            "cross-run profile journal",
            "lv-sweep run --cache",
        ),
        (
            REMOVED_MANIFEST_SAMPLE,
            "shard manifest",
            "lv-sweep run --cache",
        ),
    ];

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("lv-cache-{}-{}", tag, std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_round_trip_preserves_everything() {
        let dir = temp_dir("test");
        let path = dir.join("verdicts.json");
        let _ = std::fs::remove_file(&path);

        let cache = VerdictCache::open(&path).unwrap();
        assert!(cache.is_empty(), "missing file starts empty");
        for (key, verdict) in sample_entries() {
            cache.insert(key, verdict);
        }
        cache.persist().unwrap();
        let first = std::fs::read_to_string(&path).unwrap();
        cache.persist().unwrap();
        let second = std::fs::read_to_string(&path).unwrap();
        assert_eq!(first, second, "persist is deterministic");

        let reloaded = VerdictCache::open(&path).unwrap();
        assert_eq!(reloaded.len(), 3);
        for (key, verdict) in sample_entries() {
            assert_eq!(reloaded.get(&key), Some(verdict));
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupt_and_mismatched_files_are_errors() {
        assert!(parse_entries("not json").is_err());
        assert!(parse_entries("{\"entries\":[]}").is_err(), "no version");
        let future = "{\"version\":999,\"entries\":[]}";
        let err = parse_entries(future).unwrap_err();
        assert!(err.contains("999"), "{}", err);
        let entry = |hash: &str, verdict: &str| {
            format!(
                "{{\"scalar\":\"{}\",\"candidate\":\"0\",\"config\":\"0\",\"verdict\":\"{}\",\
                 \"stage\":\"alive2\",\"detail\":\"\",\"checksum\":null}}",
                hash, verdict
            )
        };
        let snapshot =
            |items: &[String]| format!("{{\"version\":1,\"entries\":[{}]}}", items.join(","));
        assert!(parse_entries(&snapshot(&[entry("zz", "equivalent")])).is_err());
        // A key listed twice is a no-op with the same verdict and corruption
        // with a different one — never last-write-wins.
        let same = parse_entries(&snapshot(&[
            entry("1", "equivalent"),
            entry("1", "equivalent"),
        ]))
        .unwrap();
        assert_eq!(same.len(), 1);
        let err = parse_entries(&snapshot(&[
            entry("1", "equivalent"),
            entry("1", "not-equivalent"),
        ]))
        .expect_err("a key listed with two verdicts must be refused");
        assert!(err.contains("twice with different verdicts"), "{}", err);

        // A file of any removed form is refused by name and left
        // byte-for-byte untouched (`cache_file_stats_cover_all_four_forms`
        // covers the stats path).
        let dir = temp_dir("removed-forms");
        for (sample, name, remedy) in REMOVED_SAMPLES {
            let path = dir.join("old.cache");
            std::fs::write(&path, sample).unwrap();
            let err = VerdictCache::open(&path).expect_err("a removed-form file must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(name), "{}", err);
            assert!(err.to_string().contains(remedy), "{}", err);
            assert_eq!(
                std::fs::read(&path).unwrap(),
                sample,
                "a refused file is left untouched"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Alpha-equivalent kernels (`vsumr` and `s311r` differ only in their
    /// names) share a key, and a detail may name the kernel: two verdicts of
    /// one key whose verdict, stage and checksum class agree are no
    /// conflict, and the stored detail is kept. Any other field conflicts,
    /// leaves the stored verdict in place and reports it, in the reader's
    /// insert and in a snapshot file alike.
    #[test]
    fn a_differing_detail_alone_is_no_conflict() {
        let (key, stored) = sample_entries().remove(1);
        let renamed = CachedVerdict {
            detail: "cannot compile: type error in `s311r`".to_string(),
            ..stored.clone()
        };
        let mut dest = HashMap::new();
        assert_eq!(insert_agreeing(&mut dest, key, stored.clone()), Ok(true));
        assert_eq!(insert_agreeing(&mut dest, key, renamed.clone()), Ok(false));
        assert_eq!(dest.get(&key), Some(&stored), "the stored detail is kept");
        let changed = [
            CachedVerdict {
                verdict: Equivalence::Inconclusive,
                ..renamed.clone()
            },
            CachedVerdict {
                stage: Stage::Alive2,
                ..renamed.clone()
            },
            CachedVerdict {
                checksum: None,
                ..renamed
            },
        ];
        for incoming in changed {
            assert_eq!(
                insert_agreeing(&mut dest, key, incoming),
                Err(stored.clone()),
                "never last-write-wins"
            );
        }
        assert_eq!(dest.get(&key), Some(&stored));

        let entry = |detail: &str| {
            format!(
                "{{\"scalar\":\"1\",\"candidate\":\"0\",\"config\":\"0\",\
                 \"verdict\":\"not-equivalent\",\"stage\":\"checksum\",\
                 \"detail\":\"{}\",\"checksum\":\"not-equivalent\"}}",
                detail
            )
        };
        let parsed = parse_entries(&format!(
            "{{\"version\":1,\"entries\":[{},{}]}}",
            entry("in vsumr"),
            entry("in s311r")
        ))
        .unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed.values().next().unwrap().detail, "in vsumr");
    }

    /// Two verdicts of one key that disagree are an error, in the reader's
    /// insert and in a snapshot file alike: the stored verdict stays, and a
    /// file that lists the key twice is refused, never read last-write-wins.
    #[test]
    fn merge_conflict_is_a_typed_error_not_last_write_wins() {
        let (key, verdict) = sample_entries().remove(0);
        assert_eq!(verdict.verdict, Equivalence::Equivalent);
        let flipped = CachedVerdict {
            verdict: Equivalence::NotEquivalent,
            ..verdict.clone()
        };
        let mut dest = HashMap::new();
        assert_eq!(insert_agreeing(&mut dest, key, verdict.clone()), Ok(true));
        assert_eq!(
            insert_agreeing(&mut dest, key, flipped),
            Err(verdict.clone())
        );
        assert_eq!(dest.get(&key), Some(&verdict));

        let entry = |verdict: &str| {
            format!(
                "{{\"scalar\":\"1\",\"candidate\":\"2\",\"config\":\"3\",\
                 \"verdict\":\"{}\",\"stage\":\"checksum\",\
                 \"detail\":\"\",\"checksum\":\"not-equivalent\"}}",
                verdict
            )
        };
        let sample = format!(
            "{{\"version\":1,\"entries\":[{},{}]}}",
            entry("not-equivalent"),
            entry("equivalent")
        );
        let reason = parse_entries(&sample).expect_err("a conflicting file must be refused");
        assert!(
            reason.contains("twice with different verdicts"),
            "{}",
            reason
        );

        let dir = temp_dir("conflict");
        let path = dir.join("conflict.json");
        std::fs::write(&path, &sample).unwrap();
        let err = VerdictCache::open(&path).expect_err("a conflicting file must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(err.to_string(), reason);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), sample);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn in_memory_cache_round_trips_values() {
        let cache = VerdictCache::in_memory();
        let (key, verdict) = sample_entries().remove(0);
        assert_eq!(cache.get(&key), None);
        cache.insert(key, verdict.clone());
        assert_eq!(cache.get(&key), Some(verdict));
        assert_eq!(cache.len(), 1);
        cache.persist().unwrap(); // no-op without a backing file
        assert!(cache.path().is_none());
    }

    #[test]
    fn cache_file_stats_cover_all_four_forms() {
        let dir = temp_dir("stats");
        let entries = sample_entries();

        let json_path = dir.join("stats.json");
        let cache = VerdictCache::open(&json_path).unwrap();
        for (key, verdict) in &entries {
            cache.insert(*key, verdict.clone());
        }
        cache.persist().unwrap();
        let stats = cache_file_stats(&json_path).unwrap();
        assert_eq!(
            (
                stats.entries,
                stats.equivalent,
                stats.not_equivalent,
                stats.inconclusive
            ),
            (3, 1, 1, 1)
        );
        assert_eq!(
            stats.file_bytes,
            std::fs::metadata(&json_path).unwrap().len()
        );
        assert!(stats.bytes_per_entry() > 0.0);

        // The other three cache forms, the removed JSON cache journal,
        // binary journal and binary snapshot, and the shard layer's files
        // are named errors.
        for (sample, name, _) in REMOVED_SAMPLES {
            let removed_path = dir.join("stats.removed");
            std::fs::write(&removed_path, sample).unwrap();
            let err = cache_file_stats(&removed_path).expect_err("a removed form must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(name), "{}", err);
            assert_eq!(std::fs::read(&removed_path).unwrap(), sample);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
