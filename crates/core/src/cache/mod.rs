//! The persistent, content-addressed verdict cache.
//!
//! Verification is a pure function of `(scalar, candidate, configuration)`:
//! the checksum harness is seeded, the SMT solver is deterministic, and
//! budgets are part of the configuration. The engine therefore memoizes
//! verdicts across batches — and, through the file backing, across
//! *processes* — keyed by content hashes rather than source text:
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
//! # File formats
//!
//! A [`VerdictCache`] is one in-memory `HashMap`, optionally backed by a
//! file in one of two JSON forms that share one entry codec, sniffed by
//! content — [`VerdictCache::open`] accepts either:
//!
//! **JSON snapshot** — a single JSON document (via the `serde` shim's
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
//! verdicts produced by cascades without a checksum stage.
//!
//! **JSON journal** — the append-only form ([`crate::journal`] documents
//! the framing): a `{"journal":"verdict-cache","version":1}` header record
//! followed by one CRC-framed record per entry, so a torn tail is detected
//! and truncated, never mis-parsed.
//!
//! Files of the two binary forms earlier builds could write — the binary
//! cache journal (`LVBJ` magic) and the binary snapshot (`LVCS` magic) —
//! are refused with [`io::ErrorKind::InvalidData`] naming the removed
//! form, never mis-parsed, and left untouched.
//!
//! A journal-mode cache appends through one long-lived buffered handle:
//! every [`VerdictCache::insert`] flushes just that record — O(record)
//! flush I/O instead of the snapshot's O(file) rewrite — which is what lets
//! shard workers flush after every job without quadratic total I/O.
//! [`crate::journal::FsyncPolicy`] picks per-record durability;
//! compaction ([`VerdictCache::compact_journal`]) always `fsync`s the
//! snapshot *and its parent directory* (the rename itself is durable —
//! recorded in [`VerdictCache::sync_events`] so tests can assert the
//! sequence).
//!
//! JSON is the one cache form: [`VerdictCache::persist`] and
//! [`VerdictCache::compact_journal`] both render the canonical sorted JSON
//! snapshot, byte-identical for identical contents whichever form the
//! entries were loaded from.
//!
//! # Invalidation rules
//!
//! There is no explicit invalidation: a key embeds everything a verdict
//! depends on, so stale entries are simply never looked up again. The
//! `version` field guards the *format and hash scheme* in both forms:
//! bump [`CACHE_FORMAT_VERSION`] when [`lv_cir::structural_hash`]'s
//! protocol or any file layout changes, and readers reject files from
//! other versions (a rejected file is reported as an error, not silently
//! discarded, so an operator can delete it deliberately).

pub(crate) mod binary;

use crate::journal::{self, fsync_dir, FsyncPolicy, JournalWriter};
use crate::pipeline::{Equivalence, Stage};
use lv_interp::ChecksumClass;
use serde::json::{self, CountingWriter, Emitter, Value};
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter};
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

/// One durability syscall recorded by a compaction, in order — what the
/// fsync-sequence test asserts: the snapshot's bytes must be on disk
/// *before* the rename is made durable by the directory sync.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncEvent {
    /// `fsync` of the freshly-written snapshot (before it renamed into
    /// place).
    File(PathBuf),
    /// `fsync` of the snapshot's parent directory (after the rename),
    /// making the rename itself durable.
    Dir(PathBuf),
}

/// Why merging two verdict caches failed.
///
/// Verification is deterministic, so two caches built under the same format
/// version can only disagree on a key if one of them is corrupt, was produced
/// by a build with different semantics under the same
/// [`CACHE_FORMAT_VERSION`], or was tampered with. Last-write-wins would
/// silently propagate the corruption into every future sweep, so a merge
/// refuses instead: the conflict is a typed, actionable error naming the key
/// and both verdicts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheMergeError {
    /// Both caches hold the key with different verdict payloads.
    Conflict {
        /// The disputed key.
        key: CacheKey,
        /// What the destination cache holds.
        existing: Box<CachedVerdict>,
        /// What the source cache holds.
        incoming: Box<CachedVerdict>,
    },
}

impl std::fmt::Display for CacheMergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheMergeError::Conflict {
                key,
                existing,
                incoming,
            } => write!(
                f,
                "verdict cache merge conflict on key (scalar {:016x}, candidate {:016x}, \
                 config {:016x}): existing verdict `{}` @ {} vs incoming `{}` @ {} — \
                 one of the caches is corrupt or was produced by a semantically \
                 different build under the same format version",
                key.scalar,
                key.candidate,
                key.config,
                verdict_tag(existing.verdict),
                stage_tag(existing.stage),
                verdict_tag(incoming.verdict),
                stage_tag(incoming.stage),
            ),
        }
    }
}

impl std::error::Error for CacheMergeError {}

/// What a successful [`VerdictCache::merge_from`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeStats {
    /// Keys added to the destination.
    pub added: usize,
    /// Keys present in both caches with identical verdicts (no-ops).
    pub agreed: usize,
}

/// Size bounds applied by [`VerdictCache::compact`], so million-candidate
/// sweeps do not grow the cache file without limit.
///
/// Eviction is deterministic: entries are dropped from the *end* of the
/// sorted key order (the same order [`VerdictCache::persist`] writes), so
/// compacting identical contents always keeps identical survivors —
/// bit-identical files again. The cache is content-addressed, so an evicted
/// entry costs only a re-verification on its next lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheBounds {
    /// Maximum number of entries to keep; `None` means unbounded.
    pub max_entries: Option<usize>,
    /// Maximum size of the rendered cache file in bytes; `None` means
    /// unbounded. Enforced on the serialized JSON form, so it bounds the
    /// file a [`VerdictCache::persist`] would write.
    pub max_bytes: Option<usize>,
}

impl CacheBounds {
    /// Bounds that never evict.
    pub fn unbounded() -> CacheBounds {
        CacheBounds::default()
    }

    /// Returns `true` when neither bound is set.
    pub fn is_unbounded(&self) -> bool {
        self.max_entries.is_none() && self.max_bytes.is_none()
    }
}

/// A thread-safe verdict store, optionally backed by a file.
///
/// Workers on the engine's pool share one cache through an `Arc`; `get`
/// takes a short mutex, never I/O. In the default snapshot mode, file I/O
/// happens only in [`VerdictCache::open`] and [`VerdictCache::persist`]
/// (and [`VerdictCache::compact_journal`]); in journal mode
/// ([`VerdictCache::open_journal`]) each `insert` additionally appends one
/// framed record through the cache's long-lived buffered journal handle
/// (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct VerdictCache {
    /// Every verdict. Lock order where both are held: `journal`, then
    /// `entries`.
    entries: Mutex<HashMap<CacheKey, CachedVerdict>>,
    path: Option<PathBuf>,
    /// The open append handle when the cache is in journal mode.
    journal: Mutex<Option<JournalWriter>>,
    /// Durability syscalls recorded by compactions, for the fsync-sequence
    /// test.
    sync_log: Mutex<Vec<SyncEvent>>,
}

impl VerdictCache {
    /// An empty cache with no file backing.
    pub fn in_memory() -> VerdictCache {
        VerdictCache::default()
    }

    /// A cache backed by `path`, in snapshot mode. A missing file yields an
    /// empty cache; an unreadable or malformed file is an error (never
    /// silently discarded). Both persisted forms are accepted: a journal is
    /// replayed (tolerating a torn final record) and a snapshot is parsed.
    pub fn open(path: impl Into<PathBuf>) -> io::Result<VerdictCache> {
        let path = path.into();
        let invalid = |reason: String| io::Error::new(io::ErrorKind::InvalidData, reason);
        let bytes = match std::fs::read(&path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                return Ok(VerdictCache {
                    path: Some(path),
                    ..VerdictCache::default()
                })
            }
            Err(e) => return Err(e),
            Ok(bytes) => bytes,
        };
        let entries = entries_from_bytes(&bytes).map_err(invalid)?;
        Ok(VerdictCache {
            entries: Mutex::new(entries),
            path: Some(path),
            ..VerdictCache::default()
        })
    }

    /// A cache backed by `path` in **journal mode**: one buffered append
    /// handle is opened now and kept for the cache's lifetime, and every
    /// [`VerdictCache::insert`] appends (and flushes) one framed JSON record
    /// — O(record) flush I/O per new verdict.
    ///
    /// A missing file starts a fresh journal; an existing journal is
    /// replayed, its torn final record (if any) truncated, and appends
    /// continue where it left off; an existing snapshot is converted —
    /// rewritten as a journal (atomically, via a temp file) so appends can
    /// continue incrementally. `fsync` selects the durability policy.
    pub fn open_journal(path: impl Into<PathBuf>, fsync: FsyncPolicy) -> io::Result<VerdictCache> {
        let path = path.into();
        let invalid = |reason: String| io::Error::new(io::ErrorKind::InvalidData, reason);
        let existing = match std::fs::read(&path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
            Ok(bytes) => Some(bytes),
        };
        let (entries, writer) = match existing {
            None => (
                HashMap::new(),
                JournalWriter::create(&path, fsync, emit_cache_header)?,
            ),
            Some(bytes) if is_text_journal(&bytes) => {
                let text = std::str::from_utf8(&bytes)
                    .map_err(|e| invalid(format!("journal is not UTF-8: {}", e)))?;
                let replayed = journal::replay(text).map_err(invalid)?;
                journal::check_header(&replayed, CACHE_JOURNAL_KIND, CACHE_FORMAT_VERSION)
                    .map_err(invalid)?;
                let entries = entries_from_records(&replayed.records).map_err(invalid)?;
                let writer = if replayed.valid_len == 0 {
                    // Torn header (crash at creation): start the journal over.
                    JournalWriter::create(&path, fsync, emit_cache_header)?
                } else {
                    JournalWriter::open_append(&path, fsync, replayed.valid_len)?
                };
                (entries, writer)
            }
            Some(bytes) => {
                // Conversion, atomically: the existing file stays intact
                // until the fully-written journal renames over it.
                let entries = entries_from_bytes(&bytes).map_err(invalid)?;
                let tmp = path.with_extension("tmp");
                let mut writer = JournalWriter::create(&tmp, fsync, emit_cache_header)?;
                let mut sorted: Vec<(&CacheKey, &CachedVerdict)> = entries.iter().collect();
                sorted.sort_by_key(|(key, _)| **key);
                for (key, verdict) in sorted {
                    writer.append(|e| emit_entry(e, key, verdict))?;
                }
                writer.sync()?;
                let len = writer.bytes_written();
                drop(writer);
                std::fs::rename(&tmp, &path)?;
                (entries, JournalWriter::open_append(&path, fsync, len)?)
            }
        };
        Ok(VerdictCache {
            entries: Mutex::new(entries),
            path: Some(path),
            journal: Mutex::new(Some(writer)),
            ..VerdictCache::default()
        })
    }

    /// The backing file, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    /// Whether the cache is in journal mode (appends per insert).
    pub fn is_journaling(&self) -> bool {
        self.journal.lock().unwrap().is_some()
    }

    /// Sets the journal's flush batching (see
    /// [`JournalWriter::set_flush_every`]): every `n`-th appended record
    /// flushes; a crash loses at most `n - 1` buffered tail entries. No-op
    /// in snapshot mode.
    pub fn set_journal_flush_every(&self, n: usize) {
        if let Some(writer) = self.journal.lock().unwrap().as_mut() {
            writer.set_flush_every(n);
        }
    }

    /// The durability syscalls compactions have performed, in order (see
    /// [`SyncEvent`]).
    pub fn sync_events(&self) -> Vec<SyncEvent> {
        self.sync_log.lock().unwrap().clone()
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

    /// Stores a verdict. In journal mode the record is also appended to the
    /// backing file and flushed (best-effort, like the shard flush
    /// protocol: an unwritable journal surfaces later as missing persisted
    /// output, and the in-memory entry is stored regardless). An insert
    /// whose verdict is already stored appends nothing.
    pub fn insert(&self, key: CacheKey, verdict: CachedVerdict) {
        let mut journal = self.journal.lock().unwrap();
        if let Some(writer) = journal.as_mut() {
            let stale = self.get(&key).as_ref() == Some(&verdict);
            if !stale {
                let _ = writer.append(|e| emit_entry(e, &key, &verdict));
            }
        }
        drop(journal);
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

    /// Merges every entry of `other` into this cache.
    ///
    /// A key present in both caches with the *same* verdict is a no-op; a
    /// key present with *different* verdicts aborts the merge with
    /// [`CacheMergeError::Conflict`] — never last-write-wins (see the error
    /// type for why). On error the destination may already contain some of
    /// `other`'s non-conflicting entries; since those entries agree with
    /// `other` by construction, the destination is still internally
    /// consistent.
    pub fn merge_from(&self, other: &VerdictCache) -> Result<MergeStats, CacheMergeError> {
        let incoming = other.map().clone();
        let mut entries = self.map();
        let mut stats = MergeStats::default();
        for (key, verdict) in incoming {
            match entries.get(&key) {
                None => {
                    entries.insert(key, verdict);
                    stats.added += 1;
                }
                Some(existing) if *existing == verdict => stats.agreed += 1,
                Some(existing) => {
                    return Err(CacheMergeError::Conflict {
                        key,
                        existing: Box::new(existing.clone()),
                        incoming: Box::new(verdict),
                    })
                }
            }
        }
        Ok(stats)
    }

    /// [`VerdictCache::merge_from`] over a cache *file*: loads `path` and
    /// merges its entries into this cache. Unreadable or malformed files and
    /// merge conflicts are all reported as [`io::Error`]s (a conflict uses
    /// [`io::ErrorKind::InvalidData`] and carries the rendered
    /// [`CacheMergeError`] message).
    pub fn merge_file(&self, path: impl Into<PathBuf>) -> io::Result<MergeStats> {
        let other = VerdictCache::open(path)?;
        self.merge_from(&other)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Evicts entries until the cache fits `bounds`; returns how many were
    /// dropped. Eviction order is the tail of the sorted key order, so it is
    /// deterministic (see [`CacheBounds`]).
    pub fn compact(&self, bounds: &CacheBounds) -> usize {
        if bounds.is_unbounded() {
            return 0;
        }
        let mut entries = self.map();
        let before = entries.len();
        if let Some(max) = bounds.max_entries {
            if entries.len() > max {
                let mut keys: Vec<CacheKey> = entries.keys().copied().collect();
                keys.sort();
                for key in keys.drain(max..) {
                    entries.remove(&key);
                }
            }
        }
        if let Some(max_bytes) = bounds.max_bytes {
            // One full size measurement establishes the total; each eviction
            // then shrinks it by exactly the entry's serialized bytes plus
            // its separating comma (none once the array is empty), so the
            // bound is enforced without re-measuring per entry.
            let mut size = snapshot_len(&entries);
            if size > max_bytes {
                let mut keys: Vec<CacheKey> = entries.keys().copied().collect();
                keys.sort();
                while size > max_bytes {
                    let Some(key) = keys.pop() else { break };
                    let verdict = entries.remove(&key).expect("key came from the map");
                    let serialized = entry_len(&key, &verdict);
                    size = size.saturating_sub(serialized + usize::from(!entries.is_empty()));
                }
            }
        }
        before - entries.len()
    }

    /// Writes the cache to its backing file. No-op for an in-memory cache.
    ///
    /// In snapshot mode this rewrites the whole file (atomically: temp
    /// file, then rename) as the canonical JSON snapshot, streaming the
    /// entries in sorted key order so persisting the same contents always
    /// produces byte-identical files. In journal mode every insert already
    /// appended and flushed its own record, so this only flushes the
    /// buffered writer.
    pub fn persist(&self) -> io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        {
            let mut journal = self.journal.lock().unwrap();
            if let Some(writer) = journal.as_mut() {
                return writer.flush();
            }
        }
        let entries = self.map().clone();
        write_snapshot_atomic(path, &entries, false)
    }

    /// Compacts the cache file into the canonical JSON snapshot: the
    /// journal (if the cache is in journal mode) is closed and atomically
    /// replaced by the deterministic sorted snapshot of every entry —
    /// byte-identical to what a snapshot-mode [`VerdictCache::persist`] of
    /// the same contents writes.
    ///
    /// This is the durability point of [`FsyncPolicy::OnCompact`]: the
    /// snapshot is `fsync`ed *before* the rename, and the parent directory
    /// is `fsync`ed *after* it, so the rename itself survives power loss.
    /// Both syscalls are recorded in [`VerdictCache::sync_events`].
    /// Afterwards the cache is in snapshot mode; further inserts no longer
    /// append. Idempotent, and callable on a snapshot-mode cache (where it
    /// is a synced persist).
    pub fn compact_journal(&self) -> io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let mut journal = self.journal.lock().unwrap();
        let entries = self.map().clone();
        write_snapshot_atomic(path, &entries, true)?;
        let mut log = self.sync_log.lock().unwrap();
        log.push(SyncEvent::File(path.clone()));
        let parent = match path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir.to_path_buf(),
            _ => PathBuf::from("."),
        };
        fsync_dir(&parent)?;
        log.push(SyncEvent::Dir(parent));
        drop(log);
        *journal = None;
        Ok(())
    }
}

/// Per-file statistics for `lv-sweep cache stats`: which of the two forms
/// a cache file is, how big it is, and what it holds.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheFileStats {
    /// The sniffed form: `json-snapshot` or `json-journal`.
    pub format: &'static str,
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

/// Computes [`CacheFileStats`] for either persisted cache form.
pub fn cache_file_stats(path: &Path) -> io::Result<CacheFileStats> {
    let invalid = |reason: String| io::Error::new(io::ErrorKind::InvalidData, reason);
    let bytes = std::fs::read(path)?;
    let file_bytes = bytes.len() as u64;
    let entries = entries_from_bytes(&bytes).map_err(invalid)?;
    let format = if is_text_journal(&bytes) {
        "json-journal"
    } else {
        "json-snapshot"
    };
    let mut stats = CacheFileStats {
        format,
        file_bytes,
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

/// Does `bytes` look like a *text* (JSON) journal?
fn is_text_journal(bytes: &[u8]) -> bool {
    std::str::from_utf8(bytes)
        .map(journal::is_journal)
        .unwrap_or(false)
}

/// The magics of the binary forms earlier builds could write, with the
/// name each is refused by. The forms are gone; their files are refused by
/// name rather than failing as "not UTF-8".
const REMOVED_BINARY_FORMS: [(&[u8; 4], &str); 2] = [
    (b"LVBJ", "binary cache journal"),
    (b"LVCS", "binary snapshot"),
];

/// Parses either JSON form into an entry map; a file of a removed binary
/// form is a named error.
fn entries_from_bytes(bytes: &[u8]) -> Result<HashMap<CacheKey, CachedVerdict>, String> {
    if let Some((magic, name)) = REMOVED_BINARY_FORMS
        .iter()
        .find(|(magic, _)| bytes.starts_with(*magic))
    {
        return Err(format!(
            "cache file is a {} (`{}`), a form this build no longer reads; convert \
             it to a JSON snapshot with `lv-sweep compact` from an earlier build, \
             or delete it",
            name,
            String::from_utf8_lossy(*magic)
        ));
    }
    let text = std::str::from_utf8(bytes).map_err(|e| format!("cache file is not UTF-8: {}", e))?;
    parse_text(text)
}

pub(crate) fn hex(value: u64) -> Value {
    Value::Str(format!("{:016x}", value))
}

pub(crate) fn parse_hex(value: Option<&Value>, field: &str) -> Result<u64, String> {
    let s = value
        .and_then(Value::as_str)
        .ok_or_else(|| format!("entry is missing the `{}` hash", field))?;
    u64::from_str_radix(s, 16).map_err(|_| format!("`{}` is not a hex hash: `{}`", field, s))
}

pub(crate) fn verdict_tag(verdict: Equivalence) -> &'static str {
    match verdict {
        Equivalence::Equivalent => "equivalent",
        Equivalence::NotEquivalent => "not-equivalent",
        Equivalence::Inconclusive => "inconclusive",
    }
}

pub(crate) fn parse_verdict(tag: &str) -> Result<Equivalence, String> {
    match tag {
        "equivalent" => Ok(Equivalence::Equivalent),
        "not-equivalent" => Ok(Equivalence::NotEquivalent),
        "inconclusive" => Ok(Equivalence::Inconclusive),
        other => Err(format!("unknown verdict tag `{}`", other)),
    }
}

pub(crate) fn stage_tag(stage: Stage) -> &'static str {
    match stage {
        Stage::Checksum => "checksum",
        Stage::Alive2 => "alive2",
        Stage::CUnroll => "cunroll",
        Stage::Splitting => "splitting",
    }
}

pub(crate) fn parse_stage(tag: &str) -> Result<Stage, String> {
    match tag {
        "checksum" => Ok(Stage::Checksum),
        "alive2" => Ok(Stage::Alive2),
        "cunroll" => Ok(Stage::CUnroll),
        "splitting" => Ok(Stage::Splitting),
        other => Err(format!("unknown stage tag `{}`", other)),
    }
}

pub(crate) fn checksum_tag(class: ChecksumClass) -> &'static str {
    match class {
        ChecksumClass::Plausible => "plausible",
        ChecksumClass::NotEquivalent => "not-equivalent",
        ChecksumClass::CannotCompile => "cannot-compile",
        ChecksumClass::ScalarFailed => "scalar-failed",
    }
}

/// Emits `checksum`'s value position: the stable tag, or `null` for
/// verdicts produced by cascades without a checksum stage.
pub(crate) fn emit_checksum<W: io::Write>(
    e: &mut Emitter<W>,
    class: Option<ChecksumClass>,
) -> io::Result<()> {
    match class {
        None => e.null(),
        Some(class) => e.str(checksum_tag(class)),
    }
}

pub(crate) fn parse_checksum(value: Option<&Value>) -> Result<Option<ChecksumClass>, String> {
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

/// The journal-header kind tag for cache journals.
const CACHE_JOURNAL_KIND: &str = "verdict-cache";

/// Emits the JSON cache journal's header record payload.
fn emit_cache_header(e: &mut Emitter<&mut Vec<u8>>) -> io::Result<()> {
    e.begin_object()?;
    e.field_str("journal", CACHE_JOURNAL_KIND)?;
    e.field_int("version", CACHE_FORMAT_VERSION)?;
    e.end_object()
}

/// Streams one entry object — the shape shared by snapshot `entries`
/// elements and journal records.
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
    e.key("checksum")?;
    emit_checksum(e, verdict.checksum)?;
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

/// Streams a document to `path` atomically (temp file, then rename),
/// creating parent directories as needed and optionally `fsync`ing before
/// the rename; returns the document's size in bytes. The one atomic-write
/// protocol shared by every snapshot surface (cache and shard exchange).
pub(crate) fn write_atomic_stream<F>(path: &Path, sync: bool, emit: F) -> io::Result<u64>
where
    F: FnOnce(&mut BufWriter<File>) -> io::Result<()>,
{
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let tmp = path.with_extension("tmp");
    let mut writer = BufWriter::new(File::create(&tmp)?);
    emit(&mut writer)?;
    let file = writer
        .into_inner()
        .map_err(|e| io::Error::other(e.to_string()))?;
    let len = file.metadata()?.len();
    if sync {
        file.sync_all()?;
    }
    drop(file);
    std::fs::rename(&tmp, path)?;
    Ok(len)
}

/// Atomic JSON snapshot rewrite via [`write_atomic_stream`].
fn write_snapshot_atomic(
    path: &Path,
    entries: &HashMap<CacheKey, CachedVerdict>,
    sync: bool,
) -> io::Result<()> {
    write_atomic_stream(path, sync, |w| write_snapshot(w, entries)).map(|_| ())
}

/// Serialized size of the snapshot document for `entries`, measured by
/// streaming into a counting sink (no intermediate `String`).
fn snapshot_len(entries: &HashMap<CacheKey, CachedVerdict>) -> usize {
    let mut counter = CountingWriter::default();
    write_snapshot(&mut counter, entries).expect("counting never fails");
    counter.bytes as usize
}

/// Serialized size of one entry object.
fn entry_len(key: &CacheKey, verdict: &CachedVerdict) -> usize {
    let mut counter = CountingWriter::default();
    let mut e = Emitter::new(&mut counter);
    emit_entry(&mut e, key, verdict).expect("counting never fails");
    counter.bytes as usize
}

/// Parses either JSON persisted format, sniffing the journal marker.
fn parse_text(text: &str) -> Result<HashMap<CacheKey, CachedVerdict>, String> {
    if journal::is_journal(text) {
        let replayed = journal::replay(text)?;
        journal::check_header(&replayed, CACHE_JOURNAL_KIND, CACHE_FORMAT_VERSION)?;
        entries_from_records(&replayed.records)
    } else {
        parse_entries(text)
    }
}

/// Builds the entry map from replayed journal records. A key recorded twice
/// with the same verdict is a no-op (a concurrent duplicate append);
/// recorded with *different* verdicts it is corruption, reported like a
/// merge conflict would be — never last-write-wins.
fn entries_from_records(records: &[Value]) -> Result<HashMap<CacheKey, CachedVerdict>, String> {
    let mut entries = HashMap::with_capacity(records.len());
    for item in records {
        let (key, verdict) = parse_entry(item)?;
        match entries.get(&key) {
            None => {
                entries.insert(key, verdict);
            }
            Some(existing) if *existing == verdict => {}
            Some(_) => {
                return Err(format!(
                    "journal records disagree on key (scalar {:016x}, candidate {:016x}, \
                     config {:016x})",
                    key.scalar, key.candidate, key.config
                ))
            }
        }
    }
    Ok(entries)
}

/// Parses one entry object (shared by snapshot elements and journal
/// records).
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

fn parse_entries(text: &str) -> Result<HashMap<CacheKey, CachedVerdict>, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
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
        entries.insert(key, verdict);
    }
    Ok(entries)
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

    /// The leading bytes of a binary cache journal written by an earlier
    /// build: the `LVBJ` magic and the start of its header frame.
    const REMOVED_LVBJ_SAMPLE: &[u8] = b"LVBJ\x11\x00\x00\x00verdict-cache";

    /// The leading bytes of a binary snapshot written by an earlier build:
    /// the `LVCS` magic, format version 1, one entry, index offset 56.
    const REMOVED_LVCS_SAMPLE: &[u8] =
        b"LVCS\x01\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x38\x00\x00\x00\x00\x00\x00\x00";

    /// Every removed binary form: its leading bytes and the name it is
    /// refused by.
    const REMOVED_SAMPLES: [(&[u8], &str); 2] = [
        (REMOVED_LVBJ_SAMPLE, "binary cache journal"),
        (REMOVED_LVCS_SAMPLE, "binary snapshot"),
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
        let bad_hash =
            "{\"version\":1,\"entries\":[{\"scalar\":\"zz\",\"candidate\":\"0\",\"config\":\"0\",\
             \"verdict\":\"equivalent\",\"stage\":\"alive2\",\"detail\":\"\",\"checksum\":null}]}";
        assert!(parse_entries(bad_hash).is_err());

        // A file of either removed binary form is refused by name on both
        // open paths and the merge path, and left byte-for-byte untouched
        // (`cache_file_stats_cover_all_four_forms` covers the stats path).
        let dir = temp_dir("removed-forms");
        for (sample, name) in REMOVED_SAMPLES {
            let path = dir.join("old.cache");
            std::fs::write(&path, sample).unwrap();
            let refusals = [
                VerdictCache::open(&path).map(|_| ()),
                VerdictCache::open_journal(&path, FsyncPolicy::OnCompact).map(|_| ()),
                VerdictCache::in_memory().merge_file(&path).map(|_| ()),
            ];
            for err in refusals {
                let err = err.expect_err("a removed-form file must be refused");
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                assert!(err.to_string().contains(name), "{}", err);
                assert!(err.to_string().contains("lv-sweep compact"), "{}", err);
            }
            assert_eq!(
                std::fs::read(&path).unwrap(),
                sample,
                "a refused file is left untouched"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_accepts_agreement_and_disjoint_keys() {
        let dest = VerdictCache::in_memory();
        let source = VerdictCache::in_memory();
        let entries = sample_entries();
        // Destination holds entries 0 and 1; source holds 1 (identical) and 2.
        dest.insert(entries[0].0, entries[0].1.clone());
        dest.insert(entries[1].0, entries[1].1.clone());
        source.insert(entries[1].0, entries[1].1.clone());
        source.insert(entries[2].0, entries[2].1.clone());

        let stats = dest.merge_from(&source).expect("agreeing merge succeeds");
        assert_eq!(
            stats,
            MergeStats {
                added: 1,
                agreed: 1
            }
        );
        assert_eq!(dest.len(), 3);
        for (key, verdict) in entries {
            assert_eq!(dest.get(&key), Some(verdict));
        }
    }

    #[test]
    fn merge_conflict_is_a_typed_error_not_last_write_wins() {
        let dest = VerdictCache::in_memory();
        let source = VerdictCache::in_memory();
        let (key, verdict) = sample_entries().remove(0);
        assert_eq!(verdict.verdict, Equivalence::Equivalent);
        let flipped = CachedVerdict {
            verdict: Equivalence::NotEquivalent,
            ..verdict.clone()
        };
        dest.insert(key, verdict.clone());
        source.insert(key, flipped.clone());

        let err = dest.merge_from(&source).expect_err("conflict must error");
        let CacheMergeError::Conflict {
            key: conflict_key,
            existing,
            incoming,
        } = &err;
        assert_eq!(*conflict_key, key);
        assert_eq!(**existing, verdict);
        assert_eq!(**incoming, flipped);
        assert!(err.to_string().contains("merge conflict"), "{}", err);
        // The destination kept its own verdict — no last-write-wins.
        assert_eq!(dest.get(&key), Some(verdict));
    }

    #[test]
    fn merge_file_round_trip_and_conflict() {
        let dir = temp_dir("merge");
        let path = dir.join("shard.json");
        let _ = std::fs::remove_file(&path);

        let source = VerdictCache::open(&path).unwrap();
        for (key, verdict) in sample_entries() {
            source.insert(key, verdict);
        }
        source.persist().unwrap();

        let dest = VerdictCache::in_memory();
        let stats = dest.merge_file(&path).unwrap();
        assert_eq!(stats.added, 3);
        // Merging the same file again is pure agreement.
        let stats = dest.merge_file(&path).unwrap();
        assert_eq!(
            stats,
            MergeStats {
                added: 0,
                agreed: 3
            }
        );

        // A flipped verdict is a conflict surfaced as InvalidData.
        let (key, _) = sample_entries().remove(0);
        let err = {
            let conflicted = VerdictCache::in_memory();
            conflicted.insert(
                key,
                CachedVerdict {
                    verdict: Equivalence::Inconclusive,
                    stage: Stage::Alive2,
                    detail: String::new(),
                    checksum: None,
                },
            );
            conflicted.merge_file(&path).expect_err("conflict")
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn compaction_is_deterministic_and_bounded() {
        let cache = VerdictCache::in_memory();
        for (key, verdict) in sample_entries() {
            cache.insert(key, verdict);
        }
        assert_eq!(cache.compact(&CacheBounds::unbounded()), 0);
        assert_eq!(cache.len(), 3);

        // Entry bound: the survivors are the smallest keys in sorted order.
        let evicted = cache.compact(&CacheBounds {
            max_entries: Some(2),
            max_bytes: None,
        });
        assert_eq!(evicted, 1);
        assert_eq!(cache.len(), 2);
        let mut keys = sample_entries();
        keys.sort_by_key(|(k, _)| *k);
        assert!(cache.get(&keys[0].0).is_some());
        assert!(cache.get(&keys[1].0).is_some());
        assert!(cache.get(&keys[2].0).is_none(), "largest key evicted");

        // Byte bound: shrink until the rendered file fits. The incremental
        // size accounting must agree with an actual render.
        let tiny = cache.compact(&CacheBounds {
            max_entries: None,
            max_bytes: Some(120),
        });
        assert!(tiny >= 1, "at least one entry must go");
        assert!(cache.len() <= 1);

        let dir = temp_dir("compact");
        let path = dir.join("bounded.json");
        let _ = std::fs::remove_file(&path);
        let bounded = VerdictCache::open(&path).unwrap();
        for (key, verdict) in sample_entries() {
            bounded.insert(key, verdict);
        }
        let max_bytes = 260;
        bounded.compact(&CacheBounds {
            max_entries: None,
            max_bytes: Some(max_bytes),
        });
        bounded.persist().unwrap();
        let written = std::fs::read_to_string(&path).unwrap();
        assert!(
            written.len() <= max_bytes,
            "persisted {} bytes > bound {}",
            written.len(),
            max_bytes
        );
        assert!(!bounded.is_empty(), "the bound leaves room for an entry");
        std::fs::remove_file(&path).unwrap();
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
    fn compact_records_the_fsync_sequence() {
        let dir = temp_dir("fsync-seq");
        let path = dir.join("seq.cache");
        let _ = std::fs::remove_file(&path);
        let cache = VerdictCache::open_journal(&path, FsyncPolicy::OnCompact).unwrap();
        let (key, verdict) = sample_entries().remove(0);
        cache.insert(key, verdict);
        assert!(cache.sync_events().is_empty(), "no compaction yet");
        cache.compact_journal().unwrap();
        assert_eq!(
            cache.sync_events(),
            vec![SyncEvent::File(path.clone()), SyncEvent::Dir(dir.clone())],
            "file must be synced before the directory"
        );
        let _ = std::fs::remove_file(&path);
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
        assert_eq!(stats.format, "json-snapshot");
        assert_eq!(
            (
                stats.entries,
                stats.equivalent,
                stats.not_equivalent,
                stats.inconclusive
            ),
            (3, 1, 1, 1)
        );
        assert!(stats.bytes_per_entry() > 0.0);

        let journal_path = dir.join("stats.journal");
        let journaling = VerdictCache::open_journal(&journal_path, FsyncPolicy::OnCompact).unwrap();
        for (key, verdict) in &entries {
            journaling.insert(*key, verdict.clone());
        }
        journaling.persist().unwrap();
        let stats = cache_file_stats(&journal_path).unwrap();
        assert_eq!(stats.format, "json-journal");
        assert_eq!(stats.entries, 3);

        // The third and fourth forms, the removed binary journal and
        // binary snapshot, are named errors.
        for (sample, name) in REMOVED_SAMPLES {
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
