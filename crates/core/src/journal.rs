//! Framed append-only journals: O(records) flush I/O for the shard report,
//! the persistence surface that would otherwise rewrite its whole file
//! after every update.
//!
//! The shard report ([`crate::shard::exchange`]) follows a write-heavy
//! pattern: one new record per finished verification job, flushed
//! immediately so a killed process loses at most one job. Whole-file
//! atomic rewrite makes that flush cost O(file) — quadratic total I/O over
//! a shard's lifetime. A journal makes it O(record): the file is a
//! sequence of self-delimiting records, each appended through one buffered
//! writer that stays open for the journal's lifetime (no
//! reopen-per-record), and a crash can only tear the final record, which
//! loading detects and truncates.
//!
//! # Record framing
//!
//! One record per line:
//!
//! ```text
//! <payload JSON> <crc32:8 lower-case hex>\n
//! ```
//!
//! * The payload is a single-line JSON object streamed through the `serde`
//!   shim's [`Emitter`] (strings escape `\n`, so the only newline in a
//!   record is its terminator — a truncated record can never contain one).
//! * The trailing CRC-32 (IEEE, over the payload bytes) makes a torn tail
//!   *detected*, never mis-parsed: a record is valid only if it is
//!   newline-terminated, its checksum matches, and its payload parses.
//!   Putting the checksum after the payload is what lets a record stream
//!   straight from the emitter without being buffered for a length prefix.
//! * Record 0 is the **header**: a payload whose first field is
//!   `"journal": "<kind>"` plus a format `"version"` (each journal kind
//!   reuses its snapshot format's version constant, so bumping the snapshot
//!   format invalidates the journal too) and any kind-specific metadata.
//!   [`is_journal`] sniffs that marker, which is how readers tell a
//!   journal from a snapshot document.
//!
//! # Torn-tail semantics
//!
//! Truncation can only shorten the file, so the damage is always a suffix:
//! [`replay`] accepts every valid record up to the first invalid *final*
//! line and reports the clean byte length ([`Replay::valid_len`]). An
//! invalid line that is **not** the final one is real corruption and a hard
//! error — a torn tail never looks like that, so nothing is silently
//! dropped.
//!
//! # Durability
//!
//! Every append flushes the buffered writer (one small `write` syscall), so
//! the loss window after a crash is at most one record — same contract the
//! whole-file rewrite gave, at O(record) cost. [`FsyncPolicy`] controls
//! `fsync`: [`FsyncPolicy::EveryRecord`] syncs after each append (power-loss
//! durability, slower), [`FsyncPolicy::OnCompact`] (the default) syncs only
//! when a journal is compacted (rewritten without its torn tail, as
//! `lv-sweep compact` does) — crash-consistent against process death, which
//! is the failure mode sharded sweeps recover from.

use serde::json::{self, Emitter, Value};
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// The byte sequence every journal file starts with (the header record's
/// first field). Snapshot documents start with `{"version":` — sniffing this
/// marker is how readers tell the two apart.
pub const JOURNAL_MARKER: &str = "{\"journal\":";

/// Bytes of framing appended after each payload: `" "` + 8 hex digits + `\n`.
const FRAME_BYTES: u64 = 10;

/// When journal appends reach the disk platter, not just the kernel.
///
/// Appends always *flush* (buffered bytes reach the kernel, surviving
/// process death); the policy decides when they are *synced* (surviving
/// power loss).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` after every appended record. Maximum durability; one disk
    /// sync per finished job.
    EveryRecord,
    /// `fsync` only when the journal is compacted (and on explicit
    /// [`JournalWriter::sync`]). The default: process-crash consistency
    /// without a disk sync per record.
    #[default]
    OnCompact,
}

impl FsyncPolicy {
    /// Stable CLI tag (`record` / `compact`).
    pub fn tag(&self) -> &'static str {
        match self {
            FsyncPolicy::EveryRecord => "record",
            FsyncPolicy::OnCompact => "compact",
        }
    }

    /// Parses [`FsyncPolicy::tag`] output.
    pub fn from_tag(tag: &str) -> Result<FsyncPolicy, String> {
        match tag {
            "record" | "every-record" => Ok(FsyncPolicy::EveryRecord),
            "compact" | "on-compact" => Ok(FsyncPolicy::OnCompact),
            other => Err(format!("unknown fsync policy `{}`", other)),
        }
    }
}

/// CRC-32 (IEEE 802.3, the `cksum`/zlib polynomial) lookup tables for
/// slicing-by-8: `CRC_TABLES[0]` is the bytewise table, and
/// `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `bytes` (IEEE polynomial, standard init/final xor).
///
/// Slicing-by-8 (Kounavis & Berry, ISCC 2005): eight bytes per step
/// through eight lookup tables, then the tail bytewise. The output is the
/// bytewise table-driven CRC's, bit for bit.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

/// An open journal: one buffered file handle held for the journal's
/// lifetime, appending framed records.
///
/// Records are emitted into a reusable scratch buffer (so the checksum can
/// be computed before the frame is written, and so steady-state appends
/// allocate nothing — the buffer's capacity is retained across records),
/// then written and flushed as one frame. See the [module docs](self) for
/// the format.
#[derive(Debug)]
pub struct JournalWriter {
    file: BufWriter<File>,
    scratch: Vec<u8>,
    fsync: FsyncPolicy,
    bytes: u64,
    poisoned: bool,
    /// Appends buffered per syscall flush (see [`JournalWriter::set_flush_every`]).
    flush_every: usize,
    /// Appends accumulated since the last flush.
    pending: usize,
}

impl JournalWriter {
    /// Creates a new journal at `path` (truncating any existing file) and
    /// writes its header record with `emit_header`.
    pub fn create<F>(path: &Path, fsync: FsyncPolicy, emit_header: F) -> io::Result<JournalWriter>
    where
        F: FnOnce(&mut Emitter<&mut Vec<u8>>) -> io::Result<()>,
    {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let file = File::create(path)?;
        let mut writer = JournalWriter {
            file: BufWriter::new(file),
            scratch: Vec::with_capacity(256),
            fsync,
            bytes: 0,
            poisoned: false,
            flush_every: 1,
            pending: 0,
        };
        writer.append(emit_header)?;
        Ok(writer)
    }

    /// Sets flush batching: every `n`-th append flushes the buffered writer
    /// (and, under [`FsyncPolicy::EveryRecord`], syncs); the appends in
    /// between only reach the in-process buffer. `n = 1` (the default) is
    /// the original flush-per-record contract. Trade-off: a crash loses up
    /// to `n - 1` buffered tail records (plus at most one torn record when
    /// the kill lands mid-write) instead of at most one — replay still
    /// truncates cleanly, because everything unflushed is a missing or torn
    /// *suffix*. `n = 0` is clamped to 1.
    pub fn set_flush_every(&mut self, n: usize) {
        self.flush_every = n.max(1);
    }

    /// Total bytes of journal (header + records + framing) written through
    /// this writer — i.e. the current file length.
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Whether an earlier append failed mid-frame, permanently closing this
    /// writer to further appends (see [`JournalWriter::append`]).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Appends one record: `emit` streams the payload (one JSON object, no
    /// raw newlines — the emitter's string escaping guarantees that), then
    /// the checksum frame is written and the writer flushed. With
    /// [`FsyncPolicy::EveryRecord`] the file is also synced.
    ///
    /// An `emit` error aborts cleanly before anything reaches the file. A
    /// *file* error, however, may have left a partial frame behind — on
    /// disk that is an ordinary torn tail, but only as long as nothing is
    /// ever appended after it (a record *behind* a partial frame is
    /// interior corruption, which replay rejects wholesale). So a failed
    /// file write **poisons** the writer: every later append fails fast,
    /// the valid prefix stays loadable, and the loss window stays bounded
    /// at the failed record and its successors rather than the whole
    /// journal.
    pub fn append<F>(&mut self, emit: F) -> io::Result<()>
    where
        F: FnOnce(&mut Emitter<&mut Vec<u8>>) -> io::Result<()>,
    {
        if self.poisoned {
            return Err(io::Error::other(
                "journal writer is poisoned: an earlier append failed mid-frame, and \
                 appending past a partial frame would corrupt the journal's interior",
            ));
        }
        self.scratch.clear();
        let mut emitter = Emitter::new(&mut self.scratch);
        // Scratch-only failure: nothing reached the file, no poison needed.
        emit(&mut emitter)?;
        let crc = crc32(&self.scratch);
        match self.write_frame(crc) {
            Ok(()) => {
                self.bytes += self.scratch.len() as u64 + FRAME_BYTES;
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// The file half of an append; any failure here may leave a partial
    /// frame behind (the caller poisons the writer).
    fn write_frame(&mut self, crc: u32) -> io::Result<()> {
        self.file.write_all(&self.scratch)?;
        write!(self.file, " {:08x}", crc)?;
        self.file.write_all(b"\n")?;
        // Flush every `flush_every`-th record (default: every record, so the
        // crash loss window stays one record); the whole point over
        // rewrite-per-record is that this flush is O(record), not O(file).
        self.pending += 1;
        if self.pending >= self.flush_every {
            self.pending = 0;
            self.file.flush()?;
            if self.fsync == FsyncPolicy::EveryRecord {
                self.file.get_ref().sync_all()?;
            }
        }
        Ok(())
    }

    /// Flushes buffered bytes to the kernel (appends already do, unless
    /// batched by [`JournalWriter::set_flush_every`]; this is the batched
    /// mode's commit point and a belt-and-braces final flush otherwise).
    pub fn flush(&mut self) -> io::Result<()> {
        self.pending = 0;
        self.file.flush()
    }

    /// Forces the journal to disk (`fsync`), regardless of policy.
    pub fn sync(&mut self) -> io::Result<()> {
        self.pending = 0;
        self.file.flush()?;
        self.file.get_ref().sync_all()
    }
}

/// The result of [`replay`]: the parsed header and records of the journal's
/// valid prefix, plus where (and whether) a torn tail was cut.
#[derive(Debug)]
pub struct Replay {
    /// The header record's payload (`Value::Null` for a journal whose
    /// header itself was torn — a crash at creation; zero records).
    pub header: Value,
    /// Every complete record after the header, in append order.
    pub records: Vec<Value>,
    /// Byte length of the valid prefix; bytes past this are the torn tail.
    pub valid_len: u64,
    /// Whether a torn final record was discarded.
    pub torn: bool,
}

/// Does `text` look like a journal (vs a whole-file snapshot document)?
///
/// True for any file starting with [`JOURNAL_MARKER`] — including a
/// non-empty *prefix* of the marker, which is what a crash during header
/// creation leaves behind (replaying such a file yields zero records).
pub fn is_journal(text: &str) -> bool {
    text.starts_with(JOURNAL_MARKER) || (!text.is_empty() && JOURNAL_MARKER.starts_with(text))
}

/// Replays a journal: validates framing line by line, tolerating (and
/// reporting) a torn **final** record. An invalid line anywhere else is
/// corruption and a hard error — see the [module docs](self).
pub fn replay(text: &str) -> Result<Replay, String> {
    let mut records = Vec::new();
    let mut valid_len = 0u64;
    let mut torn = false;
    let bytes = text.as_bytes();
    let mut start = 0usize;
    while start < bytes.len() {
        let Some(nl) = bytes[start..].iter().position(|&b| b == b'\n') else {
            // Unterminated final line: the torn tail of an interrupted
            // append. Everything before `start` already validated.
            torn = true;
            break;
        };
        let line = &text[start..start + nl];
        let line_end = start + nl + 1;
        let is_last = line_end == bytes.len();
        match validate_line(line) {
            Ok(payload) => records.push(payload),
            Err(reason) if is_last => {
                // A newline-terminated final line that fails validation can
                // happen when the tail of a partial block write survived
                // with garbage; with nothing after it, it is a torn tail.
                let _ = reason;
                torn = true;
                break;
            }
            Err(reason) => {
                return Err(format!(
                    "journal record at byte {} is corrupt (not a torn tail — \
                     {} bytes follow it): {}",
                    start,
                    bytes.len() - line_end,
                    reason
                ));
            }
        }
        valid_len = line_end as u64;
        start = line_end;
    }
    let mut records = records.into_iter();
    let header = match records.next() {
        Some(header) => header,
        None => {
            // Torn (or empty) header: a crash at creation. Zero records.
            return Ok(Replay {
                header: Value::Null,
                records: Vec::new(),
                valid_len: 0,
                torn: true,
            });
        }
    };
    Ok(Replay {
        header,
        records: records.collect(),
        valid_len,
        torn,
    })
}

/// Validates one journal line (sans newline): checksum then payload parse.
fn validate_line(line: &str) -> Result<Value, String> {
    let (payload, crc_hex) = line
        .rsplit_once(' ')
        .ok_or_else(|| "record has no checksum frame".to_string())?;
    let recorded = u32::from_str_radix(crc_hex, 16)
        .map_err(|_| format!("record checksum `{}` is not hex", crc_hex))?;
    if crc_hex.len() != 8 {
        return Err(format!("record checksum `{}` is not 8 hex digits", crc_hex));
    }
    let computed = crc32(payload.as_bytes());
    if recorded != computed {
        return Err(format!(
            "record checksum mismatch: recorded {:08x}, computed {:08x}",
            recorded, computed
        ));
    }
    json::parse(payload).map_err(|e| format!("record payload is not valid JSON: {}", e))
}

/// Validates a replayed header against the expected `kind` and `version`.
/// A [`Value::Null`] header (torn at creation) passes with zero records.
pub fn check_header(replay: &Replay, kind: &str, version: i64) -> Result<(), String> {
    if replay.header == Value::Null && replay.records.is_empty() {
        return Ok(());
    }
    match replay.header.get("journal").and_then(Value::as_str) {
        Some(found) if found == kind => {}
        Some(found) => {
            return Err(format!(
                "journal is of kind `{}`, expected `{}`",
                found, kind
            ))
        }
        None => return Err("journal header has no `journal` kind field".to_string()),
    }
    match replay.header.get("version").and_then(Value::as_int) {
        Some(found) if found == version => Ok(()),
        Some(found) => Err(format!(
            "journal has format version {}, this build reads version {}",
            found, version
        )),
        None => Err("journal header has no `version` field".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("lv-journal-{}-{}", tag, std::process::id()))
    }

    fn write_sample(path: &Path, records: usize) -> JournalWriter {
        let mut journal = JournalWriter::create(path, FsyncPolicy::OnCompact, |e| {
            e.begin_object()?;
            e.field_str("journal", "test")?;
            e.field_int("version", 1)?;
            e.end_object()
        })
        .unwrap();
        for i in 0..records {
            journal
                .append(|e| {
                    e.begin_object()?;
                    e.field_int("i", i as i64)?;
                    e.field_str("s", "line\nbreak \"quoted\"")?;
                    e.end_object()
                })
                .unwrap();
        }
        journal
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn journal_round_trips_and_reports_sizes() {
        let path = temp_path("roundtrip");
        let journal = write_sample(&path, 3);
        let written = journal.bytes_written();
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.len() as u64, written);
        assert!(is_journal(&text));
        let replayed = replay(&text).unwrap();
        check_header(&replayed, "test", 1).unwrap();
        assert!(!replayed.torn);
        assert_eq!(replayed.valid_len, written);
        assert_eq!(replayed.records.len(), 3);
        for (i, record) in replayed.records.iter().enumerate() {
            assert_eq!(record.get("i").and_then(Value::as_int), Some(i as i64));
            assert_eq!(
                record.get("s").and_then(Value::as_str),
                Some("line\nbreak \"quoted\"")
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tails_are_truncated_never_misparsed() {
        let path = temp_path("torn");
        drop(write_sample(&path, 2));
        let full = std::fs::read_to_string(&path).unwrap();
        let intact = replay(&full).unwrap();
        assert_eq!(intact.records.len(), 2);
        // Truncating anywhere inside the final record must yield exactly the
        // first record; truncating inside earlier records yields fewer.
        let second_record_start = intact.valid_len as usize
            - full[..intact.valid_len as usize]
                .trim_end_matches('\n')
                .rsplit('\n')
                .next()
                .unwrap()
                .len()
            - 1;
        for cut in second_record_start + 1..full.len() {
            let truncated = &full[..cut];
            let replayed = replay(truncated)
                .unwrap_or_else(|e| panic!("cut at {} must be a torn tail, got: {}", cut, e));
            assert!(replayed.torn, "cut at {} must report a torn tail", cut);
            assert_eq!(
                replayed.records.len(),
                1,
                "cut at {} must keep exactly the first record",
                cut
            );
            assert_eq!(replayed.valid_len as usize, second_record_start);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn interior_corruption_is_a_hard_error() {
        let path = temp_path("corrupt");
        drop(write_sample(&path, 2));
        let full = std::fs::read_to_string(&path).unwrap();
        // Flip a payload byte in the *first* data record (not the last
        // line): the checksum catches it and it is not a torn tail.
        let target = full.find("\"i\":0").unwrap();
        let mut bytes = full.clone().into_bytes();
        bytes[target + 4] = b'7';
        let corrupted = String::from_utf8(bytes).unwrap();
        let err = replay(&corrupted).expect_err("interior corruption must error");
        assert!(err.contains("checksum mismatch"), "{}", err);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_header_reads_as_empty_journal() {
        for cut in 1..JOURNAL_MARKER.len() {
            let text = &JOURNAL_MARKER[..cut];
            assert!(is_journal(text), "prefix `{}` must sniff as journal", text);
            let replayed = replay(text).unwrap();
            assert!(replayed.torn);
            assert_eq!(replayed.records.len(), 0);
            assert_eq!(replayed.valid_len, 0);
            check_header(&replayed, "anything", 1).unwrap();
        }
        assert!(!is_journal("{\"version\":1}"));
        assert!(!is_journal(""));
    }

    #[test]
    fn emit_errors_abort_cleanly_without_poisoning() {
        let path = temp_path("emit-abort");
        let mut journal = write_sample(&path, 1);
        let bytes_before = journal.bytes_written();
        let err = journal
            .append(|e| {
                e.begin_object()?;
                e.field_int("half", 1)?;
                Err(io::Error::other("emitter bailed"))
            })
            .expect_err("emit error must surface");
        assert_eq!(err.to_string(), "emitter bailed");
        // Nothing reached the file, so the writer is still usable …
        assert!(!journal.is_poisoned());
        assert_eq!(journal.bytes_written(), bytes_before);
        journal
            .append(|e| {
                e.begin_object()?;
                e.field_int("i", 99)?;
                e.end_object()
            })
            .expect("writer survives an emit abort");
        drop(journal);
        // … and the journal on disk holds only whole records.
        let replayed = replay(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert!(!replayed.torn);
        assert_eq!(replayed.records.len(), 2);
        assert_eq!(
            replayed.records[1].get("i").and_then(Value::as_int),
            Some(99)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flush_batching_buffers_n_appends_per_flush() {
        let path = temp_path("flush-every");
        let mut journal = write_sample(&path, 0);
        journal.set_flush_every(3);
        let record = |i: i64| {
            move |e: &mut Emitter<&mut Vec<u8>>| {
                e.begin_object()?;
                e.field_int("i", i)?;
                e.end_object()
            }
        };
        journal.append(record(0)).unwrap();
        journal.append(record(1)).unwrap();
        // Two appends buffered, none flushed: on disk only the header.
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            replay(&on_disk).unwrap().records.len(),
            0,
            "buffered records must not have reached the file yet"
        );
        // The third append completes the batch and flushes all three.
        journal.append(record(2)).unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(replay(&on_disk).unwrap().records.len(), 3);
        // A manual flush commits a partial batch.
        journal.append(record(3)).unwrap();
        journal.flush().unwrap();
        let on_disk = std::fs::read_to_string(&path).unwrap();
        assert_eq!(replay(&on_disk).unwrap().records.len(), 4);
        drop(journal);
        let _ = std::fs::remove_file(&path);
    }
}
