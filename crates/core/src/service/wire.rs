//! The framed binary wire protocol of the verification service.
//!
//! Every message travels in one **CRC32 frame**, its payload length-prefixed
//! and followed by its [`crc32`] checksum:
//!
//! ```text
//! [payload length u32 LE][payload bytes][crc32(payload) u32 LE]
//! ```
//!
//! and each side opens its half of the connection by sending the raw
//! 4-byte [`WIRE_MAGIC`] before its first frame, so a stray client that
//! dials the port with a different protocol is rejected on byte one. Frame
//! payloads are tagged messages (byte 0 is the [`Message`] variant tag,
//! client tags in `0x01..`, server tags in `0x81..`); verdict payloads use
//! the compact binary verdict-record codec of the verdict cache module.
//!
//! Decoding is strict: a truncated frame, a CRC mismatch, an unknown tag,
//! an out-of-range enum byte, or trailing payload bytes are all typed
//! [`WireError`]s — never a guessed or silently dropped message. `crates/core/tests/service_wire.rs`
//! pins this exhaustively (truncation and a flip at every byte offset).

use crate::cache::binary::{decode_verdict, encode_verdict};
use crate::cache::CachedVerdict;
use crate::service::ServiceError;
use serde::bin::{self, Reader};
use std::io::{Read, Write};

/// The 4-byte connection preamble each side sends before its first frame.
pub const WIRE_MAGIC: [u8; 4] = *b"LVSV";

/// The wire-protocol version, exchanged in [`Message::Hello`] /
/// [`Message::ServerHello`]; both sides reject a mismatch. Version 2 added
/// CNF-preprocessing counters to [`Message::StatusReport`]; version 3
/// removed them again with the preprocessing layer; version 4 removed the
/// server-side generation request (tag `0x06`) and its two status counters.
pub const WIRE_VERSION: u32 = 4;

/// Capacity of each side's buffered socket writer. Frames queue in it until
/// an explicit flush (the client's `Run`, the daemon's flush points; see the
/// [module docs](crate::service)) or until it fills, so a batch costs a few
/// `write` syscalls instead of one per frame.
pub(crate) const WRITE_BUFFER_BYTES: usize = 64 << 10;

/// Upper bound on a frame's payload length. A length prefix beyond this is
/// rejected before any allocation — a corrupt or hostile length field must
/// not make the daemon try to buffer gigabytes.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Everything that can be wrong with wire bytes, typed: a corrupt frame is
/// always one of these, never a wrong message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The connection preamble was not [`WIRE_MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a different [`WIRE_VERSION`].
    VersionMismatch {
        /// The version the peer announced.
        theirs: u32,
        /// The version this build speaks.
        ours: u32,
    },
    /// The bytes end before the frame does (mid-length, mid-payload, or
    /// mid-CRC).
    Truncated {
        /// Bytes the frame needs.
        needed: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// The declared payload length.
        len: usize,
        /// The enforced maximum.
        max: usize,
    },
    /// The frame's recorded CRC32 does not match the payload.
    FrameCrc {
        /// CRC recorded in the frame.
        recorded: u32,
        /// CRC computed over the payload.
        computed: u32,
    },
    /// The payload's leading message tag is not one this build knows.
    UnknownTag(u8),
    /// The payload has bytes left over after its message decoded.
    TrailingBytes(usize),
    /// A field inside the payload failed to decode (truncated string,
    /// out-of-range enum byte, non-UTF-8 text, …).
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(magic) => {
                write!(f, "bad connection magic {:02x?} (expected \"LVSV\")", magic)
            }
            WireError::VersionMismatch { theirs, ours } => write!(
                f,
                "wire protocol version mismatch: peer speaks {}, this build speaks {}",
                theirs, ours
            ),
            WireError::Truncated { needed, have } => write!(
                f,
                "truncated frame: {} byte(s) present, {} needed",
                have, needed
            ),
            WireError::Oversized { len, max } => write!(
                f,
                "oversized frame: length prefix says {} bytes, limit is {}",
                len, max
            ),
            WireError::FrameCrc { recorded, computed } => write!(
                f,
                "frame checksum mismatch: recorded {:08x}, computed {:08x}",
                recorded, computed
            ),
            WireError::UnknownTag(tag) => write!(f, "unknown message tag {:#04x}", tag),
            WireError::TrailingBytes(extra) => {
                write!(f, "{} trailing byte(s) after the message payload", extra)
            }
            WireError::Malformed(e) => write!(f, "malformed message payload: {}", e),
        }
    }
}

impl std::error::Error for WireError {}

/// Live daemon counters, as reported by [`Message::StatusReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStatus {
    /// Connections accepted since the daemon started.
    pub connections: u64,
    /// Jobs received over all connections.
    pub received: u64,
    /// Jobs answered (from the cache or by running stages).
    pub completed: u64,
    /// Jobs answered by the dedupe/admission pre-pass or the engine's own
    /// cache consultation — no stage ran for these.
    pub dedupe_hits: u64,
    /// Cascade stage executions across all admitted jobs.
    pub stages: u64,
}

/// One streamed verdict: the submission index and label it answers, whether
/// the dedupe path answered it, and the cached-verdict payload (the same
/// bytes the verdict cache stores).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerdictFrame {
    /// Index of the job within its submission batch.
    pub index: u32,
    /// The job's label, echoed back so the client can cross-check that no
    /// verdict was reordered or dropped.
    pub label: String,
    /// Whether the verdict came from the cache (dedupe) rather than a
    /// fresh cascade run.
    pub cache_hit: bool,
    /// The verdict payload.
    pub verdict: CachedVerdict,
}

/// The service's message vocabulary. Client → server tags live in `0x01..`,
/// server → client tags in `0x81..`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Client hello: announces the client's wire version.
    Hello {
        /// The client's [`WIRE_VERSION`].
        version: u32,
    },
    /// One verification job: a label plus the scalar and candidate
    /// functions as printed C source (the manifest's function exchange
    /// form — re-parsing yields a structurally equal AST, so content
    /// hashes and cache keys are unaffected).
    Submit {
        /// The job label.
        label: String,
        /// The scalar function, printed.
        scalar: String,
        /// The candidate function, printed.
        candidate: String,
    },
    /// Runs the pending submissions; `count` is the client's view of how
    /// many [`Message::Submit`]s it sent, cross-checked server-side.
    Run {
        /// Expected pending job count.
        count: u32,
    },
    /// Requests a [`Message::StatusReport`].
    Status,
    /// Asks the daemon to stop serving after acknowledging.
    Shutdown,
    /// Server hello: the server's wire version plus the engine
    /// configuration's semantic fingerprint, so a client can tell which
    /// cache-key space its verdicts live in.
    ServerHello {
        /// The server's [`WIRE_VERSION`].
        version: u32,
        /// [`EngineConfig::semantic_fingerprint`](crate::EngineConfig::semantic_fingerprint)
        /// of the serving engine.
        fingerprint: u64,
    },
    /// One verdict, streamed as soon as it is known.
    Verdict(VerdictFrame),
    /// The batch is complete; `count` verdict frames were sent.
    Done {
        /// Verdicts streamed for this batch.
        count: u32,
    },
    /// The daemon's live counters.
    StatusReport(ServiceStatus),
    /// A server-side error for this connection (the daemon keeps serving
    /// other connections).
    Error {
        /// Human-readable cause.
        detail: String,
    },
    /// Acknowledges [`Message::Shutdown`]; the daemon exits its accept
    /// loop after sending this.
    ShutdownAck,
}

const TAG_HELLO: u8 = 0x01;
const TAG_SUBMIT: u8 = 0x02;
const TAG_RUN: u8 = 0x03;
const TAG_STATUS: u8 = 0x04;
const TAG_SHUTDOWN: u8 = 0x05;
// 0x06 stays unassigned: peers of versions 1–3 framed their server-side
// generation requests under it.
const TAG_SERVER_HELLO: u8 = 0x81;
const TAG_VERDICT: u8 = 0x82;
const TAG_DONE: u8 = 0x83;
const TAG_STATUS_REPORT: u8 = 0x84;
const TAG_ERROR: u8 = 0x85;
const TAG_SHUTDOWN_ACK: u8 = 0x86;

impl Message {
    /// Appends the tagged payload bytes (no frame) to `buf`.
    pub fn encode_payload(&self, buf: &mut Vec<u8>) {
        match self {
            Message::Hello { version } => {
                bin::put_u8(buf, TAG_HELLO);
                bin::put_u32(buf, *version);
            }
            Message::Submit {
                label,
                scalar,
                candidate,
            } => encode_submit(buf, label, scalar, candidate),
            Message::Run { count } => {
                bin::put_u8(buf, TAG_RUN);
                bin::put_u32(buf, *count);
            }
            Message::Status => bin::put_u8(buf, TAG_STATUS),
            Message::Shutdown => bin::put_u8(buf, TAG_SHUTDOWN),
            Message::ServerHello {
                version,
                fingerprint,
            } => {
                bin::put_u8(buf, TAG_SERVER_HELLO);
                bin::put_u32(buf, *version);
                bin::put_u64(buf, *fingerprint);
            }
            Message::Verdict(frame) => {
                bin::put_u8(buf, TAG_VERDICT);
                bin::put_u32(buf, frame.index);
                bin::put_str(buf, &frame.label);
                bin::put_u8(buf, u8::from(frame.cache_hit));
                encode_verdict(buf, &frame.verdict);
            }
            Message::Done { count } => {
                bin::put_u8(buf, TAG_DONE);
                bin::put_u32(buf, *count);
            }
            Message::StatusReport(status) => {
                bin::put_u8(buf, TAG_STATUS_REPORT);
                bin::put_u64(buf, status.connections);
                bin::put_u64(buf, status.received);
                bin::put_u64(buf, status.completed);
                bin::put_u64(buf, status.dedupe_hits);
                bin::put_u64(buf, status.stages);
            }
            Message::Error { detail } => {
                bin::put_u8(buf, TAG_ERROR);
                bin::put_str(buf, detail);
            }
            Message::ShutdownAck => bin::put_u8(buf, TAG_SHUTDOWN_ACK),
        }
    }

    /// Decodes a tagged payload, strictly: an unknown tag, a short field,
    /// an out-of-range enum byte, and trailing bytes are all typed errors.
    pub fn decode(payload: &[u8]) -> Result<Message, WireError> {
        let mut r = Reader::new(payload);
        let field = WireError::Malformed;
        let tag = r.u8().map_err(field)?;
        let message = match tag {
            TAG_HELLO => Message::Hello {
                version: r.u32().map_err(field)?,
            },
            TAG_SUBMIT => Message::Submit {
                label: r.str().map_err(field)?.to_string(),
                scalar: r.str().map_err(field)?.to_string(),
                candidate: r.str().map_err(field)?.to_string(),
            },
            TAG_RUN => Message::Run {
                count: r.u32().map_err(field)?,
            },
            TAG_STATUS => Message::Status,
            TAG_SHUTDOWN => Message::Shutdown,
            TAG_SERVER_HELLO => Message::ServerHello {
                version: r.u32().map_err(field)?,
                fingerprint: r.u64().map_err(field)?,
            },
            TAG_VERDICT => {
                let index = r.u32().map_err(field)?;
                let label = r.str().map_err(field)?.to_string();
                let cache_hit = match r.u8().map_err(field)? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(WireError::Malformed(format!(
                            "cache-hit flag must be 0 or 1, got {}",
                            other
                        )))
                    }
                };
                let verdict = decode_verdict(&mut r).map_err(field)?;
                Message::Verdict(VerdictFrame {
                    index,
                    label,
                    cache_hit,
                    verdict,
                })
            }
            TAG_DONE => Message::Done {
                count: r.u32().map_err(field)?,
            },
            TAG_STATUS_REPORT => Message::StatusReport(ServiceStatus {
                connections: r.u64().map_err(field)?,
                received: r.u64().map_err(field)?,
                completed: r.u64().map_err(field)?,
                dedupe_hits: r.u64().map_err(field)?,
                stages: r.u64().map_err(field)?,
            }),
            TAG_ERROR => Message::Error {
                detail: r.str().map_err(field)?.to_string(),
            },
            TAG_SHUTDOWN_ACK => Message::ShutdownAck,
            other => return Err(WireError::UnknownTag(other)),
        };
        if !r.is_empty() {
            return Err(WireError::TrailingBytes(r.remaining()));
        }
        Ok(message)
    }
}

/// Appends the payload of a [`Message::Submit`] from borrowed text, so a
/// client can encode a job from buffers it reuses, without building the
/// message.
pub(crate) fn encode_submit(buf: &mut Vec<u8>, label: &str, scalar: &str, candidate: &str) {
    bin::put_u8(buf, TAG_SUBMIT);
    bin::put_str(buf, label);
    bin::put_str(buf, scalar);
    bin::put_str(buf, candidate);
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

/// Validates a connection preamble.
pub fn check_magic(magic: &[u8; 4]) -> Result<(), WireError> {
    if *magic == WIRE_MAGIC {
        Ok(())
    } else {
        Err(WireError::BadMagic(*magic))
    }
}

/// Appends one complete frame (`[len][payload][crc]`) for `payload`.
pub fn encode_frame(buf: &mut Vec<u8>, payload: &[u8]) {
    write_frame(buf, payload).expect("writing to a Vec cannot fail");
}

/// Encodes `message` as one complete frame.
pub fn encode_message(message: &Message) -> Vec<u8> {
    let mut payload = Vec::new();
    message.encode_payload(&mut payload);
    let mut frame = Vec::with_capacity(payload.len() + 8);
    encode_frame(&mut frame, &payload);
    frame
}

/// Decodes one frame from the front of `bytes`, verifying its CRC. Returns
/// the payload slice and the total bytes the frame consumed.
pub fn decode_frame(bytes: &[u8]) -> Result<(&[u8], usize), WireError> {
    if bytes.len() < 4 {
        return Err(WireError::Truncated {
            needed: 4,
            have: bytes.len(),
        });
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized {
            len,
            max: MAX_FRAME_BYTES,
        });
    }
    let total = 4 + len + 4;
    if bytes.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            have: bytes.len(),
        });
    }
    let payload = &bytes[4..4 + len];
    let recorded = u32::from_le_bytes(bytes[4 + len..total].try_into().expect("4 bytes"));
    let computed = crc32(payload);
    if recorded != computed {
        return Err(WireError::FrameCrc { recorded, computed });
    }
    Ok((payload, total))
}

/// Decodes `bytes` as exactly one whole message frame: the frame must
/// consume every byte, its CRC must verify, and the payload must decode
/// strictly. This is the pure form the corruption tests drive offline; the
/// stream readers below produce the same payloads from a socket.
pub fn decode_message_frame(bytes: &[u8]) -> Result<Message, WireError> {
    let (payload, consumed) = decode_frame(bytes)?;
    if consumed != bytes.len() {
        return Err(WireError::TrailingBytes(bytes.len() - consumed));
    }
    Message::decode(payload)
}

/// Writes one frame for `payload`: its length, the payload and its CRC go
/// straight into `w`, with no frame buffer in between. Both sides hand it a
/// buffered writer, so the three writes are copies into that buffer.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.write_all(&crc32(payload).to_le_bytes())
}

/// Writes `message` as one frame (see [`write_frame`]).
pub fn write_message<W: Write>(w: &mut W, message: &Message) -> std::io::Result<()> {
    let mut payload = Vec::new();
    message.encode_payload(&mut payload);
    write_frame(w, &payload)
}

/// Reads exactly `buf.len()` bytes, returning how many arrived before EOF.
fn read_fully<R: Read>(r: &mut R, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        let n = r.read(&mut buf[filled..])?;
        if n == 0 {
            break;
        }
        filled += n;
    }
    Ok(filled)
}

/// Reads one frame's payload from a stream. `Ok(None)` is a clean EOF *at a
/// frame boundary* (the peer closed after its last complete frame); EOF
/// anywhere inside a frame is a typed [`WireError::Truncated`].
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, ServiceError> {
    let mut len_bytes = [0u8; 4];
    let have = read_fully(r, &mut len_bytes)?;
    if have == 0 {
        return Ok(None);
    }
    if have < 4 {
        return Err(WireError::Truncated { needed: 4, have }.into());
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized {
            len,
            max: MAX_FRAME_BYTES,
        }
        .into());
    }
    // The payload and its CRC land in one buffer, which becomes the
    // payload once the CRC checks.
    let mut payload = vec![0u8; len + 4];
    let have = read_fully(r, &mut payload)?;
    if have < payload.len() {
        return Err(WireError::Truncated {
            needed: 4 + len + 4,
            have: 4 + have,
        }
        .into());
    }
    let recorded = u32::from_le_bytes(payload[len..].try_into().expect("4 bytes"));
    let computed = crc32(&payload[..len]);
    if recorded != computed {
        return Err(WireError::FrameCrc { recorded, computed }.into());
    }
    payload.truncate(len);
    Ok(Some(payload))
}

/// Reads one message from a stream (`Ok(None)` on clean EOF, see
/// [`read_frame`]).
pub fn read_message<R: Read>(r: &mut R) -> Result<Option<Message>, ServiceError> {
    match read_frame(r)? {
        None => Ok(None),
        Some(payload) => Ok(Some(Message::decode(&payload)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
