//! The persistent, content-addressed, **tiered** verdict cache.
//!
//! Verification is a pure function of `(scalar, candidate, configuration)`:
//! the checksum harness is seeded, the SMT solver is deterministic, and
//! budgets are part of the configuration. The engine therefore memoizes
//! verdicts across batches — and, through the file backing, across
//! *processes* — keyed by content hashes rather than source text:
//!
//! * `scalar` — [`lv_cir::structural_hash`] of the scalar kernel, so
//!   renaming its variables, labels, or the kernel itself still hits;
//! * `candidate` — [`lv_cir::hash::structural_hash_in_env`] of the
//!   candidate in the scalar's parameter-name environment: renaming the
//!   candidate's locals or labels still hits, but renaming its *parameters*
//!   away from the scalar's misses — the harnesses bind arrays by parameter
//!   name, so that rename genuinely changes the verification problem. Any
//!   semantic edit (a constant, an operator, a type, the statement shape)
//!   misses;
//! * `config` — [`EngineConfig::semantic_fingerprint`](crate::EngineConfig::semantic_fingerprint),
//!   covering the cascade stage list, the checksum harness configuration,
//!   and every solver budget. Anything that could change a verdict — or an
//!   `Inconclusive` outcome — invalidates the entry by changing its key.
//!
//! # Tiers
//!
//! A [`VerdictCache`] is a three-tier store; lookups fall through in order
//! and the first tier holding the key answers:
//!
//! 1. **hot** — the in-memory delta `HashMap`. Every [`VerdictCache::insert`]
//!    lands here (and, in journal mode, appends to the backing journal).
//!    The hot tier *shadows* the others: if a key exists in several tiers,
//!    the hot entry wins.
//! 2. **warm** — the local immutable binary snapshot the cache was opened
//!    from ([`CacheSnapshot`]): loaded zero-copy as one owned buffer,
//!    binary-searched in place, payloads decoded lazily on hit, negative
//!    lookups short-circuited by its bloom block.
//! 3. **cold** — optional shared-directory snapshots attached with
//!    [`VerdictCache::attach_cold_dir`], consulted in attach order. An
//!    attach re-checks the typed-conflict contract: a cold snapshot that
//!    *disagrees* with the currently-visible entries is rejected with the
//!    rendered [`CacheMergeError`] — never silently shadowed.
//!
//! There is no promotion on lookup (a warm/cold hit stays where it is —
//! promotion would re-journal bytes that are already durable). Promotion
//! happens at **compaction**: [`VerdictCache::compact_to`] folds every tier
//! into one sorted snapshot file, after which a reopen serves the whole
//! cache from the warm tier again.
//!
//! # File formats
//!
//! Three interchangeable on-disk forms, sniffed by content (first bytes) —
//! [`VerdictCache::open`] accepts any of them:
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
//! **Binary snapshot** — the sorted immutable tier file (`LVCS` magic):
//! a fixed-stride key index, an optional bloom block, and a payload region
//! of compact binary verdict records, each region CRC-covered:
//!
//! ```text
//! [scalar u64 LE][candidate u64 LE][config u64 LE]  -- 24-byte index key
//! [verdict u8][stage u8][checksum u8]               -- payload enum tags
//! [detail varint length][detail UTF-8 bytes]
//! ```
//!
//! [`snapshot`] documents the exact layout. A file in the binary cache
//! journal form of earlier builds (`LVBJ` magic) is refused with
//! [`io::ErrorKind::InvalidData`] naming that removed form, never
//! mis-parsed.
//!
//! A journal-mode cache appends through one long-lived buffered handle:
//! every [`VerdictCache::insert`] flushes just that record — O(record)
//! flush I/O instead of the snapshot's O(file) rewrite — which is what lets
//! shard workers flush after every job without quadratic total I/O.
//! [`crate::journal::FsyncPolicy`] picks per-record durability;
//! compaction ([`VerdictCache::compact_journal`] /
//! [`VerdictCache::compact_to`]) always `fsync`s the snapshot *and its
//! parent directory* (the rename itself is durable — recorded in
//! [`VerdictCache::sync_events`] so tests can assert the sequence).
//!
//! # JSON interop guarantee
//!
//! JSON stays the import/export format. [`VerdictCache::persist`] and
//! [`VerdictCache::compact_journal`] always render the canonical sorted
//! JSON snapshot — byte-identical for identical contents regardless of
//! which tier or form each entry came from — so the byte-identity CI
//! pins survive the binary snapshot as conversion round-trip tests, and
//! `lv-sweep compact --format json` converts a binary snapshot back to the
//! JSON snapshot byte-for-byte.
//!
//! # Invalidation rules
//!
//! There is no explicit invalidation: a key embeds everything a verdict
//! depends on, so stale entries are simply never looked up again. The
//! `version` field guards the *format and hash scheme* in all three forms:
//! bump [`CACHE_FORMAT_VERSION`] when [`lv_cir::structural_hash`]'s
//! protocol or any file layout changes, and readers reject files from
//! other versions (a rejected file is reported as an error, not silently
//! discarded, so an operator can delete it deliberately).

pub(crate) mod binary;
pub mod snapshot;

pub use snapshot::{BloomStats, CacheSnapshot, SnapshotError};

use crate::journal::{self, fsync_dir, FsyncPolicy, JournalWriter};
use crate::pipeline::{Equivalence, Stage};
use lv_interp::ChecksumClass;
use serde::json::{self, CountingWriter, Emitter, Value};
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, BufWriter};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, RwLock};

/// The on-disk format version; readers reject any other value.
pub const CACHE_FORMAT_VERSION: i64 = 1;

/// The content-addressed key of one verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// [`lv_cir::structural_hash`] of the scalar kernel.
    pub scalar: u64,
    /// [`lv_cir::hash::structural_hash_in_env`] of the candidate in the
    /// scalar's parameter-name environment (see the module docs for why the
    /// pairing is semantic).
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

/// Which snapshot form [`VerdictCache::compact_to`] writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheFormat {
    /// The human-readable JSON snapshot — the import/export format.
    #[default]
    Json,
    /// The compact binary `LVCS` snapshot.
    Binary,
}

impl CacheFormat {
    /// Parses the `lv-sweep compact --format` value (`json` / `binary`).
    pub fn from_tag(tag: &str) -> Result<CacheFormat, String> {
        match tag {
            "json" => Ok(CacheFormat::Json),
            "binary" | "bin" => Ok(CacheFormat::Binary),
            other => Err(format!("unknown cache format `{}`", other)),
        }
    }
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

/// A thread-safe tiered verdict store, optionally backed by a file.
///
/// Workers on the engine's pool share one cache through an `Arc`; `get`
/// takes a short mutex for the hot tier and a read lock for the snapshot
/// tiers, never I/O. In the default snapshot mode, file I/O happens only in
/// [`VerdictCache::open`] and [`VerdictCache::persist`]; in journal mode
/// ([`VerdictCache::open_journal`]) each `insert` additionally appends one
/// framed record through the cache's long-lived buffered journal handle
/// (see the [module docs](self)).
#[derive(Debug, Default)]
pub struct VerdictCache {
    /// The hot tier. Lock order where multiple are nested: `journal`, then
    /// `tiers`, then `entries` (lookups acquire sequentially, never
    /// nested).
    entries: Mutex<HashMap<CacheKey, CachedVerdict>>,
    path: Option<PathBuf>,
    /// The open append handle when the cache is in journal mode.
    journal: Mutex<Option<JournalWriter>>,
    /// The warm snapshot (index 0, when the cache was opened from one)
    /// followed by attached cold snapshots, consulted in order after the
    /// hot tier misses.
    tiers: RwLock<Vec<CacheSnapshot>>,
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
    /// silently discarded). All three persisted forms are accepted: a JSON
    /// journal is replayed into the hot tier (tolerating a torn final
    /// record), a JSON snapshot is parsed into the hot tier, and a **binary
    /// snapshot becomes the warm tier** — loaded zero-copy, not parsed.
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
        if snapshot::is_snapshot(&bytes) {
            let snap = CacheSnapshot::from_bytes(bytes).map_err(|e| invalid(e.to_string()))?;
            return Ok(VerdictCache {
                path: Some(path),
                tiers: RwLock::new(vec![snap]),
                ..VerdictCache::default()
            });
        }
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
    /// continue where it left off; an existing snapshot (either form) is
    /// converted — rewritten as a journal (atomically, via a temp file) so
    /// appends can continue incrementally. `fsync` selects the durability
    /// policy.
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
                let entries = if snapshot::is_snapshot(&bytes) {
                    let snap =
                        CacheSnapshot::from_bytes(bytes).map_err(|e| invalid(e.to_string()))?;
                    snap.entries().into_iter().collect()
                } else {
                    entries_from_bytes(&bytes).map_err(invalid)?
                };
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

    /// Attaches every binary snapshot found directly in `dir` as a cold
    /// tier, in file-name order (deterministic). Files that are not binary
    /// snapshots are skipped; a snapshot that fails validation is an error;
    /// a snapshot that *disagrees* with the currently-visible entries on
    /// any key is rejected with the rendered [`CacheMergeError`] (the
    /// typed-conflict contract — see the module docs). Returns how many
    /// snapshots were attached.
    pub fn attach_cold_dir(&self, dir: impl AsRef<Path>) -> io::Result<usize> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(dir.as_ref())?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|entry| entry.path())
            .filter(|p| p.is_file() && Some(p.as_path()) != self.path.as_deref())
            .collect();
        paths.sort();
        let mut attached = 0;
        for path in paths {
            let mut magic = [0u8; 4];
            let readable = File::open(&path).and_then(|mut f| {
                use std::io::Read;
                f.read_exact(&mut magic)
            });
            if readable.is_err() || magic != snapshot::SNAPSHOT_MAGIC {
                continue;
            }
            self.attach_snapshot(&path)?;
            attached += 1;
        }
        Ok(attached)
    }

    /// Attaches one binary snapshot file as a cold tier, after checking the
    /// typed-conflict contract against the currently-visible entries.
    pub fn attach_snapshot(&self, path: &Path) -> io::Result<()> {
        let snap = CacheSnapshot::open(path)?;
        for (key, verdict) in snap.entries() {
            if let Some(existing) = self.get(&key) {
                if existing != verdict {
                    let conflict = CacheMergeError::Conflict {
                        key,
                        existing: Box::new(existing),
                        incoming: Box::new(verdict),
                    };
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("cold snapshot {}: {}", path.display(), conflict),
                    ));
                }
            }
        }
        self.tiers.write().unwrap().push(snap);
        Ok(())
    }

    /// Looks up a verdict: hot tier first, then each snapshot tier in
    /// order.
    pub fn get(&self, key: &CacheKey) -> Option<CachedVerdict> {
        if let Some(found) = self.entries.lock().unwrap().get(key) {
            return Some(found.clone());
        }
        let tiers = self.tiers.read().unwrap();
        tiers.iter().find_map(|snap| snap.get(key))
    }

    /// Stores a verdict in the hot tier. In journal mode the record is also
    /// appended to the backing file and flushed (best-effort, like the
    /// shard flush protocol: an unwritable journal surfaces later as
    /// missing persisted output, and the in-memory entry is stored
    /// regardless). An insert whose verdict is already visible in *any*
    /// tier appends nothing.
    pub fn insert(&self, key: CacheKey, verdict: CachedVerdict) {
        let mut journal = self.journal.lock().unwrap();
        if let Some(writer) = journal.as_mut() {
            let stale = self.get(&key).as_ref() == Some(&verdict);
            if !stale {
                let _ = writer.append(|e| emit_entry(e, &key, &verdict));
            }
        }
        drop(journal);
        self.entries.lock().unwrap().insert(key, verdict);
    }

    /// Number of distinct visible verdicts across every tier (hot entries
    /// shadow snapshot entries with the same key).
    pub fn len(&self) -> usize {
        let hot = self.entries.lock().unwrap().clone();
        let tiers = self.tiers.read().unwrap();
        if tiers.is_empty() {
            return hot.len();
        }
        let mut seen = hot;
        for snap in tiers.iter() {
            for (key, verdict) in snap.entries() {
                seen.entry(key).or_insert(verdict);
            }
        }
        seen.len()
    }

    /// Returns `true` if the cache holds no verdicts in any tier.
    pub fn is_empty(&self) -> bool {
        if !self.entries.lock().unwrap().is_empty() {
            return false;
        }
        self.tiers.read().unwrap().iter().all(|s| s.is_empty())
    }

    /// Every visible entry, tier-merged (hot shadows warm shadows cold).
    fn effective_entries(&self) -> HashMap<CacheKey, CachedVerdict> {
        let mut map = self.entries.lock().unwrap().clone();
        let tiers = self.tiers.read().unwrap();
        for snap in tiers.iter() {
            for (key, verdict) in snap.entries() {
                map.entry(key).or_insert(verdict);
            }
        }
        map
    }

    /// Folds every snapshot tier into the hot map (shadowed keys keep their
    /// hot value) and drops the tiers — the mutable view compaction and
    /// eviction work on.
    fn materialize(&self) {
        let mut tiers = self.tiers.write().unwrap();
        if tiers.is_empty() {
            return;
        }
        let mut entries = self.entries.lock().unwrap();
        for snap in tiers.iter() {
            for (key, verdict) in snap.entries() {
                entries.entry(key).or_insert(verdict);
            }
        }
        tiers.clear();
    }

    /// Merges every visible entry of `other` into this cache's hot tier.
    ///
    /// A key present in both caches with the *same* verdict is a no-op; a
    /// key present with *different* verdicts aborts the merge with
    /// [`CacheMergeError::Conflict`] — never last-write-wins (see the error
    /// type for why). On error the destination may already contain some of
    /// `other`'s non-conflicting entries; since those entries agree with
    /// `other` by construction, the destination is still internally
    /// consistent.
    pub fn merge_from(&self, other: &VerdictCache) -> Result<MergeStats, CacheMergeError> {
        let incoming = other.effective_entries();
        let tiers = self.tiers.read().unwrap();
        let mut entries = self.entries.lock().unwrap();
        let mut stats = MergeStats::default();
        for (key, verdict) in incoming {
            let existing = entries
                .get(&key)
                .cloned()
                .or_else(|| tiers.iter().find_map(|snap| snap.get(&key)));
            match existing {
                None => {
                    entries.insert(key, verdict);
                    stats.added += 1;
                }
                Some(existing) if existing == verdict => stats.agreed += 1,
                Some(existing) => {
                    return Err(CacheMergeError::Conflict {
                        key,
                        existing: Box::new(existing),
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
    /// deterministic (see [`CacheBounds`]). Snapshot tiers are materialized
    /// into the hot tier first — eviction needs a mutable view of every
    /// entry.
    pub fn compact(&self, bounds: &CacheBounds) -> usize {
        if bounds.is_unbounded() {
            return 0;
        }
        self.materialize();
        let mut entries = self.entries.lock().unwrap();
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

    /// Writes the cache to its backing file. No-op for an in-memory cache,
    /// and for an unmodified snapshot-tier view (an empty hot tier over
    /// loaded snapshots — the file already holds the canonical contents,
    /// and a read-only open must not rewrite it).
    ///
    /// In snapshot mode this rewrites the whole file (atomically: temp
    /// file, then rename) as the canonical **JSON** snapshot — the export
    /// format (see the module docs) — streaming the tier-merged entries in
    /// sorted key order so persisting the same contents always produces
    /// byte-identical files. In journal mode every insert already appended
    /// and flushed its own record, so this only flushes the buffered
    /// writer.
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
        if self.entries.lock().unwrap().is_empty() && !self.tiers.read().unwrap().is_empty() {
            return Ok(());
        }
        write_snapshot_atomic(path, &self.effective_entries(), false)
    }

    /// Compacts the cache file into the canonical **JSON snapshot** format;
    /// equivalent to [`VerdictCache::compact_to`] with
    /// [`CacheFormat::Json`].
    pub fn compact_journal(&self) -> io::Result<()> {
        self.compact_to(CacheFormat::Json)
    }

    /// Compacts the cache file into the snapshot form of `format`: the
    /// journal (if the cache is in journal mode) is closed and atomically
    /// replaced by the deterministic sorted snapshot of every visible entry
    /// — for [`CacheFormat::Json`], byte-identical to what a snapshot-mode
    /// [`VerdictCache::persist`] of the same contents writes; for
    /// [`CacheFormat::Binary`], the `LVCS` tier file (bloom block
    /// included).
    ///
    /// This is the durability point of [`FsyncPolicy::OnCompact`], honored
    /// uniformly for both formats: the snapshot is `fsync`ed *before* the
    /// rename, and the parent directory is `fsync`ed *after* it, so the
    /// rename itself survives power loss. Both syscalls are recorded in
    /// [`VerdictCache::sync_events`]. Afterwards the cache is in snapshot
    /// mode; further inserts no longer append. Idempotent, and callable on
    /// a snapshot-mode cache (where it is a synced persist).
    pub fn compact_to(&self, format: CacheFormat) -> io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let mut journal = self.journal.lock().unwrap();
        let entries = self.effective_entries();
        match format {
            CacheFormat::Json => write_snapshot_atomic(path, &entries, true)?,
            CacheFormat::Binary => {
                let mut sorted: Vec<(CacheKey, CachedVerdict)> = entries.into_iter().collect();
                sorted.sort_by_key(|(key, _)| *key);
                CacheSnapshot::write_file(path, &sorted, true, true)?;
            }
        }
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

/// Per-file statistics for `lv-sweep cache stats`: which of the three forms
/// a cache file is, how big it is, and what it holds.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheFileStats {
    /// The sniffed form: `json-snapshot`, `json-journal`, or
    /// `binary-snapshot`.
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
    /// Bloom-block shape and estimated false-positive rate, for binary
    /// snapshots that carry one.
    pub bloom: Option<BloomStats>,
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

/// Computes [`CacheFileStats`] for any of the three persisted cache forms.
pub fn cache_file_stats(path: &Path) -> io::Result<CacheFileStats> {
    let invalid = |reason: String| io::Error::new(io::ErrorKind::InvalidData, reason);
    let bytes = std::fs::read(path)?;
    let file_bytes = bytes.len() as u64;
    let (format, entries, bloom) = if snapshot::is_snapshot(&bytes) {
        let snap = CacheSnapshot::from_bytes(bytes).map_err(|e| invalid(e.to_string()))?;
        let bloom = snap.bloom_stats();
        ("binary-snapshot", snap.entries(), bloom)
    } else {
        let entries = entries_from_bytes(&bytes).map_err(invalid)?;
        let format = if is_text_journal(&bytes) {
            "json-journal"
        } else {
            "json-snapshot"
        };
        (format, entries.into_iter().collect(), None)
    };
    let mut stats = CacheFileStats {
        format,
        file_bytes,
        entries: entries.len(),
        equivalent: 0,
        not_equivalent: 0,
        inconclusive: 0,
        bloom,
    };
    for (_, verdict) in &entries {
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

/// The magic of the binary cache journal earlier builds could write. The
/// form is gone; its files are refused by name rather than failing as
/// "not UTF-8".
const REMOVED_BINARY_JOURNAL_MAGIC: &[u8; 4] = b"LVBJ";

/// Parses either JSON form into an entry map; a file of the removed binary
/// journal form is a named error.
fn entries_from_bytes(bytes: &[u8]) -> Result<HashMap<CacheKey, CachedVerdict>, String> {
    if bytes.starts_with(REMOVED_BINARY_JOURNAL_MAGIC) {
        return Err(
            "cache file is a binary cache journal (`LVBJ`), a form this build no \
                    longer reads; convert it to a snapshot with `lv-sweep compact` from an \
                    earlier build, or delete it"
                .to_string(),
        );
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

        // A file of the removed binary journal form is refused by name on
        // both open paths (`cache_file_stats_cover_all_four_forms` covers
        // the stats path).
        let dir = temp_dir("removed-lvbj");
        let path = dir.join("old.bjournal");
        std::fs::write(&path, REMOVED_LVBJ_SAMPLE).unwrap();
        let refusals = [
            VerdictCache::open(&path).map(|_| ()),
            VerdictCache::open_journal(&path, FsyncPolicy::OnCompact).map(|_| ()),
        ];
        for err in refusals {
            let err = err.expect_err("an LVBJ file must be refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("binary cache journal"), "{}", err);
        }
        assert!(
            std::fs::read(&path).unwrap().starts_with(b"LVBJ"),
            "a refused file is left untouched"
        );
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
    fn binary_compact_round_trips_through_the_warm_tier() {
        let dir = temp_dir("binary-compact");
        let path = dir.join("tiered.cache");
        let _ = std::fs::remove_file(&path);

        let cache = VerdictCache::open(&path).unwrap();
        for (key, verdict) in sample_entries() {
            cache.insert(key, verdict);
        }
        cache.compact_to(CacheFormat::Binary).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        assert!(snapshot::is_snapshot(&bytes), "binary compact writes LVCS");

        // Reopen: the file becomes the warm tier, served without parsing.
        let reopened = VerdictCache::open(&path).unwrap();
        assert!(!reopened.is_journaling());
        assert_eq!(reopened.len(), 3);
        for (key, verdict) in sample_entries() {
            assert_eq!(reopened.get(&key), Some(verdict));
        }
        // A read-only tiered view never rewrites its file.
        reopened.persist().unwrap();
        assert!(
            snapshot::is_snapshot(&std::fs::read(&path).unwrap()),
            "persist of an unmodified tier view must not rewrite the file"
        );

        // Compacting the warm tier back to JSON is byte-identical to a
        // JSON-native persist of the same contents (the interop guarantee).
        reopened.compact_journal().unwrap();
        let json_path = dir.join("native.json");
        let native = VerdictCache::open(&json_path).unwrap();
        for (key, verdict) in sample_entries() {
            native.insert(key, verdict);
        }
        native.persist().unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            std::fs::read_to_string(&json_path).unwrap(),
            "binary → JSON conversion must be byte-identical to the legacy snapshot"
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&json_path);
    }

    #[test]
    fn hot_tier_shadows_warm_tier() {
        let dir = temp_dir("shadow");
        let path = dir.join("warm.cache");
        let _ = std::fs::remove_file(&path);

        let cache = VerdictCache::open(&path).unwrap();
        for (key, verdict) in sample_entries() {
            cache.insert(key, verdict);
        }
        cache.compact_to(CacheFormat::Binary).unwrap();

        let tiered = VerdictCache::open(&path).unwrap();
        let (key, verdict) = sample_entries().remove(0);
        let shadowing = CachedVerdict {
            detail: "hot shadows warm".to_string(),
            ..verdict
        };
        tiered.insert(key, shadowing.clone());
        assert_eq!(tiered.get(&key), Some(shadowing), "hot wins");
        assert_eq!(tiered.len(), 3, "shadowed key counted once");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn compact_records_the_fsync_sequence() {
        let dir = temp_dir("fsync-seq");
        for format in [CacheFormat::Json, CacheFormat::Binary] {
            let path = dir.join(format!("seq.{:?}.cache", format));
            let _ = std::fs::remove_file(&path);
            let cache = VerdictCache::open_journal(&path, FsyncPolicy::OnCompact).unwrap();
            let (key, verdict) = sample_entries().remove(0);
            cache.insert(key, verdict);
            assert!(cache.sync_events().is_empty(), "no compaction yet");
            cache.compact_to(format).unwrap();
            let events = cache.sync_events();
            assert_eq!(
                events,
                vec![SyncEvent::File(path.clone()), SyncEvent::Dir(dir.clone()),],
                "{:?}: file must be synced before the directory",
                format
            );
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn cold_snapshots_attach_and_honor_conflicts() {
        let dir = temp_dir("cold");
        let shared = dir.join("shared");
        std::fs::create_dir_all(&shared).unwrap();
        let entries = sample_entries();

        // Two cold snapshots with one overlapping (agreeing) entry.
        CacheSnapshot::write_file(&shared.join("a.lvcs"), &entries[0..2], true, false).unwrap();
        CacheSnapshot::write_file(&shared.join("b.lvcs"), &entries[1..3], true, false).unwrap();
        // A non-snapshot file in the directory is skipped.
        std::fs::write(shared.join("notes.txt"), "not a snapshot").unwrap();

        let cache = VerdictCache::in_memory();
        let attached = cache.attach_cold_dir(&shared).unwrap();
        assert_eq!(attached, 2);
        assert_eq!(cache.len(), 3);
        for (key, verdict) in &entries {
            assert_eq!(cache.get(key).as_ref(), Some(verdict));
        }

        // A disagreeing cold snapshot is rejected with the typed conflict.
        let mut flipped = entries[0].clone();
        flipped.1.verdict = Equivalence::Inconclusive;
        CacheSnapshot::write_file(&shared.join("c.lvcs"), &[flipped], true, false).unwrap();
        let err = cache
            .attach_snapshot(&shared.join("c.lvcs"))
            .expect_err("conflicting cold snapshot must be rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("merge conflict"), "{}", err);
        let _ = std::fs::remove_dir_all(&shared);
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
        assert!(stats.bloom.is_none());
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

        journaling.compact_to(CacheFormat::Binary).unwrap();
        let stats = cache_file_stats(&journal_path).unwrap();
        assert_eq!(stats.format, "binary-snapshot");
        assert_eq!(stats.entries, 3);
        let bloom = stats.bloom.expect("binary compact writes a bloom block");
        assert!(bloom.fp_estimate < 0.05);

        // The fourth form, the removed binary journal, is a named error.
        let lvbj_path = dir.join("stats.bjournal");
        std::fs::write(&lvbj_path, REMOVED_LVBJ_SAMPLE).unwrap();
        let err = cache_file_stats(&lvbj_path).expect_err("an LVBJ file must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("binary cache journal"), "{}", err);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
