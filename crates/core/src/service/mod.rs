//! The long-running verification service: a loopback-first TCP daemon plus
//! client, surfaced on the CLI as `lv-sweep serve` / `submit` / `status`.
//!
//! The batch engine, verdict cache, and observer plumbing were all built
//! batch-shaped; this module puts a socket in front of them so
//! verification traffic can arrive continuously instead of as one offline
//! sweep.
//!
//! # Wire framing
//!
//! The protocol is binary and CRC-framed (see [`wire`]): each side opens
//! with the 4-byte [`WIRE_MAGIC`] preamble, then exchanges frames of
//! `[payload length u32 LE][payload][crc32(payload) u32 LE]`. Frame
//! payloads are tagged [`Message`]s; verdicts travel as compact binary
//! verdict records. Corruption anywhere — truncation, a flipped bit,
//! an unknown tag, trailing bytes — decodes to a typed [`WireError`],
//! never to a wrong or silently dropped verdict.
//!
//! # Dedupe / admission semantics
//!
//! A connection submits `(label, scalar, candidate)` jobs and then asks for
//! them to run. Before *any* stage runs, the daemon dedupes every submitted
//! job through the content-addressed
//! [`VerdictCache`](crate::VerdictCache) under the serving engine's
//! [`semantic_fingerprint`](crate::EngineConfig::semantic_fingerprint):
//! jobs already answered (by an earlier connection, an offline sweep that
//! produced the cache file, or a duplicate in the same batch) are answered
//! immediately from the cache with `cache_hit = true` and are never
//! admitted to the engine. Admitted jobs run on the engine's
//! worker pool, and their verdicts stream back incrementally through the
//! [`BatchObserver`](crate::BatchObserver) path as each job finishes —
//! the client does not wait for the batch. A warm resubmission of a whole
//! workload therefore answers entirely from the dedupe path with zero
//! stage executions, which `examples/service_sweep.rs` pins in CI.
//!
//! The connection thread walks the batch itself. The engine starts, on one
//! thread of its own, at the first job the walk admits, so a batch the
//! cache answers whole spawns no thread and builds no worker state. Both
//! sides write through a bounded buffer (64 KiB): the client sends a
//! batch's `Submit` frames with its `Run` in one flush, and the daemon
//! queues dedupe answers and flushes them
//!
//! * before each job it pushes to the engine, so no known answer waits
//!   behind a verification;
//! * after the walk over the batch;
//! * after each verdict the engine streams back;
//! * with every `Done`, `ServerHello`, `StatusReport`, `ShutdownAck` and
//!   `Error` frame.
//!
//! Each slot gets exactly one verdict frame and `Done` comes last; a
//! dedupe answer that precedes an admitted job in the batch arrives before
//! that job's verdict.
//!
//! A dedupe answer needs only the job's cache key, and the daemon gets it
//! without parsing when it can: a key memo shared by all connections maps
//! the **exact bytes** of a submitted source to the
//! [`structural_hash`](lv_cir::structural_hash) of its parse (both key
//! halves are such hashes). When both sources of a submission hit the
//! memo, the job is queued under its key as text and parsed only if the
//! cache misses at run time — a known scalar paired with a known candidate
//! for the first time, say. On any memo miss the daemon parses both
//! sources at submission, as it always has, and memoizes them only after
//! both parse, so unparsable text is refused with the same error frame on
//! every submission and never memoized. The memo is keyed by the client's
//! bytes, never by a client-supplied hash, and hashed with std's
//! per-process keyed SipHash, because clients are untrusted; any byte
//! change (whitespace, a renamed variable) is a memo miss that parses and
//! can still hit the cache. It holds at most a constant 4 MiB of source
//! text and is cleared wholesale when an insert would pass that.
//!
//! # Server-side generation
//!
//! A connection can also submit a [`GenerationRequest`] (`SubmitGenerate`:
//! a scalar kernel, a completion count `k`, and a base seed) instead of
//! finished candidates. The daemon expands it into `k` per-cell seeded
//! completions ([`lv_agents::derive_cell_seed`]) on a generator thread that
//! streams each job into the engine's bounded job channel as it is
//! produced — generation overlaps verification, and the verdicts are
//! bit-identical to submitting the precomputed candidate list. Queued and
//! completed generation counts surface in [`ServiceStatus`]
//! (`lv-sweep status` prints them as `gen queued` / `generated`).
//!
//! # Fault containment
//!
//! Connections are isolated: a client that sends garbage, speaks the wrong
//! version, or dies mid-frame terminates *its own* connection with a typed
//! error while the daemon keeps accepting (pinned by the client-kill test
//! in `tests/service_e2e.rs`). The daemon exits its accept loop only on an
//! explicit [`Message::Shutdown`].

pub mod client;
pub mod daemon;
pub mod wire;

pub use client::{GenerationRequest, ServiceClient};
pub use daemon::VerificationService;
pub use wire::{
    Message, ServiceStatus, VerdictFrame, WireError, MAX_FRAME_BYTES, WIRE_MAGIC, WIRE_VERSION,
};

use std::io;

/// Everything that can go wrong on a service connection, typed.
#[derive(Debug)]
pub enum ServiceError {
    /// A socket-level failure (bind, accept, read, write).
    Io(io::Error),
    /// The peer's bytes violated the wire protocol.
    Wire(WireError),
    /// The peer's bytes framed correctly but violated the conversation
    /// protocol (message out of sequence, count mismatch, unparsable job
    /// source, …).
    Protocol(String),
    /// The server reported an error frame for this connection.
    Remote(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "service i/o error: {}", e),
            ServiceError::Wire(e) => write!(f, "wire protocol error: {}", e),
            ServiceError::Protocol(e) => write!(f, "protocol violation: {}", e),
            ServiceError::Remote(e) => write!(f, "server reported: {}", e),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Io(e) => Some(e),
            ServiceError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServiceError {
    fn from(e: io::Error) -> ServiceError {
        ServiceError::Io(e)
    }
}

impl From<WireError> for ServiceError {
    fn from(e: WireError) -> ServiceError {
        ServiceError::Wire(e)
    }
}
