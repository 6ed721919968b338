//! The serving side: a TCP listener that dedupes submissions through the
//! verdict cache, runs admitted jobs on the engine's worker pool, and
//! streams verdicts back as they finish.

use crate::cache::{CachedVerdict, VerdictCache};
use crate::engine::{job_cache_key, job_channel, EngineConfig, Job, VerificationEngine};
use crate::observer::{CallbackObserver, CountingObserver, TeeObserver};
use crate::service::wire::{
    check_magic, read_message, write_message, Message, ServiceStatus, VerdictFrame, WireError,
    WIRE_MAGIC, WIRE_VERSION,
};
use crate::service::ServiceError;
use lv_agents::{sample_completion_cell, LlmConfig};
use lv_cir::parse_function;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The verification daemon: owns the listener, the engine, and the shared
/// verdict cache every connection dedupes through.
///
/// [`serve_forever`](VerificationService::serve_forever) serves each
/// connection on its own thread and isolates their failures — a slow or
/// idle client never blocks a sibling connection — while the engine's
/// worker pool provides the parallelism *within* each submitted batch.
/// See the [module docs](crate::service) for the protocol.
pub struct VerificationService {
    listener: TcpListener,
    addr: SocketAddr,
    engine: VerificationEngine,
    cache: Arc<VerdictCache>,
    fingerprint: u64,
    connections: AtomicU64,
    received: AtomicU64,
    completed: AtomicU64,
    dedupe_hits: AtomicU64,
    stages: AtomicU64,
    generation_queued: AtomicU64,
    generated: AtomicU64,
}

/// How many generated-but-unverified candidates a connection's streaming
/// run may hold in flight before generation blocks (backpressure).
const GENERATION_QUEUE_CAPACITY: usize = 32;

/// One unit of pending work on a connection: a fully specified job, or a
/// generation request still to be expanded into `k` seeded jobs.
enum Pending {
    Job(Job),
    Generate {
        label: String,
        scalar: lv_cir::ast::Function,
        k: u32,
        seed: u64,
    },
}

impl Pending {
    /// Verdict slots this entry occupies in its batch.
    fn slots(&self) -> usize {
        match self {
            Pending::Job(_) => 1,
            Pending::Generate { k, .. } => *k as usize,
        }
    }
}

impl std::fmt::Debug for VerificationService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerificationService")
            .field("addr", &self.addr)
            .field("fingerprint", &self.fingerprint)
            .finish_non_exhaustive()
    }
}

impl VerificationService {
    /// Binds a daemon to `addr` (use `127.0.0.1:0` for an ephemeral
    /// loopback port) serving `config` with `cache` as the shared dedupe
    /// store. The cache is attached to the engine too, so admitted jobs
    /// persist their verdicts for later connections.
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: EngineConfig,
        cache: Arc<VerdictCache>,
    ) -> Result<VerificationService, ServiceError> {
        let fingerprint = config.semantic_fingerprint();
        let engine = VerificationEngine::new(config.with_cache(cache.clone()));
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(VerificationService {
            listener,
            addr,
            engine,
            cache,
            fingerprint,
            connections: AtomicU64::new(0),
            received: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            dedupe_hits: AtomicU64::new(0),
            stages: AtomicU64::new(0),
            generation_queued: AtomicU64::new(0),
            generated: AtomicU64::new(0),
        })
    }

    /// The address the daemon is actually listening on (resolves the
    /// ephemeral port of a `:0` bind).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving engine configuration's semantic fingerprint — the
    /// cache-key space this daemon's verdicts live in.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The daemon's live counters.
    pub fn status(&self) -> ServiceStatus {
        ServiceStatus {
            connections: self.connections.load(Ordering::Relaxed),
            received: self.received.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            dedupe_hits: self.dedupe_hits.load(Ordering::Relaxed),
            stages: self.stages.load(Ordering::Relaxed),
            generation_queued: self.generation_queued.load(Ordering::Relaxed),
            generated: self.generated.load(Ordering::Relaxed),
        }
    }

    /// Accepts and serves connections — each on its own thread — until a
    /// client sends [`Message::Shutdown`]. A connection that fails —
    /// garbage bytes, a version mismatch, a client killed mid-frame — is
    /// reported to stderr and dropped; the daemon keeps serving, and an
    /// idle or slow connection never blocks a new one.
    ///
    /// On shutdown every live connection's socket is closed so blocked
    /// handler threads unwind before this returns.
    pub fn serve_forever(&self) -> Result<(), ServiceError> {
        self.listener.set_nonblocking(true)?;
        let stop = AtomicBool::new(false);
        // Half-open clones of every live connection, so shutdown can yank
        // handler threads out of blocking reads.
        let active: Mutex<Vec<TcpStream>> = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            while !stop.load(Ordering::Relaxed) {
                match self.listener.accept() {
                    Ok((stream, peer)) => {
                        self.connections.fetch_add(1, Ordering::Relaxed);
                        if let Ok(clone) = stream.try_clone() {
                            active.lock().unwrap().push(clone);
                        }
                        let stop = &stop;
                        scope.spawn(move || {
                            let _ = stream.set_nonblocking(false);
                            match self.handle_connection(stream) {
                                Ok(true) => stop.store(true, Ordering::Relaxed),
                                Ok(false) => {}
                                // A connection torn down by shutdown is not
                                // worth reporting.
                                Err(_) if stop.load(Ordering::Relaxed) => {}
                                Err(e) => {
                                    eprintln!("lv-service: connection from {} failed: {}", peer, e)
                                }
                            }
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    }
                    Err(e) => return Err(ServiceError::Io(e)),
                }
            }
            for stream in active.lock().unwrap().iter() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
            Ok(())
        })
    }

    /// Serves one connection to completion. `Ok(true)` means the client
    /// requested shutdown.
    fn handle_connection(&self, stream: TcpStream) -> Result<bool, ServiceError> {
        let _ = stream.set_nodelay(true);
        let mut reader = BufReader::new(stream.try_clone()?);

        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        check_magic(&magic)?;
        let hello = read_message(&mut reader)?
            .ok_or_else(|| ServiceError::Protocol("connection closed before hello".into()))?;
        let writer = Mutex::new(stream);
        match hello {
            Message::Hello {
                version: WIRE_VERSION,
            } => {}
            Message::Hello { version } => {
                let err = WireError::VersionMismatch {
                    theirs: version,
                    ours: WIRE_VERSION,
                };
                self.send_error(&writer, &err.to_string())?;
                return Err(err.into());
            }
            other => {
                let detail = format!("expected hello, got {:?}", other);
                self.send_error(&writer, &detail)?;
                return Err(ServiceError::Protocol(detail));
            }
        }
        {
            let mut out = writer.lock().unwrap();
            out.write_all(&WIRE_MAGIC)?;
            write_message(
                &mut *out,
                &Message::ServerHello {
                    version: WIRE_VERSION,
                    fingerprint: self.fingerprint,
                },
            )?;
        }

        let mut pending: Vec<Pending> = Vec::new();
        loop {
            let message = match read_message(&mut reader)? {
                None => return Ok(false),
                Some(message) => message,
            };
            match message {
                Message::Submit {
                    label,
                    scalar,
                    candidate,
                } => {
                    let scalar = match parse_function(&scalar) {
                        Ok(f) => f,
                        Err(e) => {
                            let detail = format!("job '{}': unparsable scalar: {}", label, e);
                            self.send_error(&writer, &detail)?;
                            return Err(ServiceError::Protocol(detail));
                        }
                    };
                    let candidate = match parse_function(&candidate) {
                        Ok(f) => f,
                        Err(e) => {
                            let detail = format!("job '{}': unparsable candidate: {}", label, e);
                            self.send_error(&writer, &detail)?;
                            return Err(ServiceError::Protocol(detail));
                        }
                    };
                    pending.push(Pending::Job(Job::new(label, scalar, candidate)));
                    self.received.fetch_add(1, Ordering::Relaxed);
                }
                Message::SubmitGenerate {
                    label,
                    scalar,
                    k,
                    seed,
                } => {
                    let scalar = match parse_function(&scalar) {
                        Ok(f) => f,
                        Err(e) => {
                            let detail =
                                format!("generation '{}': unparsable scalar: {}", label, e);
                            self.send_error(&writer, &detail)?;
                            return Err(ServiceError::Protocol(detail));
                        }
                    };
                    self.received.fetch_add(u64::from(k), Ordering::Relaxed);
                    self.generation_queued
                        .fetch_add(u64::from(k), Ordering::Relaxed);
                    pending.push(Pending::Generate {
                        label,
                        scalar,
                        k,
                        seed,
                    });
                }
                Message::Run { count } => {
                    let slots: usize = pending.iter().map(Pending::slots).sum();
                    if count as usize != slots {
                        let detail = format!(
                            "run count mismatch: client says {}, server holds {}",
                            count, slots
                        );
                        self.send_error(&writer, &detail)?;
                        return Err(ServiceError::Protocol(detail));
                    }
                    let entries = std::mem::take(&mut pending);
                    self.run_pending(entries, &writer)?;
                }
                Message::Status => {
                    let mut out = writer.lock().unwrap();
                    write_message(&mut *out, &Message::StatusReport(self.status()))?;
                }
                Message::Shutdown => {
                    let mut out = writer.lock().unwrap();
                    write_message(&mut *out, &Message::ShutdownAck)?;
                    return Ok(true);
                }
                other => {
                    let detail = format!("unexpected client message {:?}", other);
                    self.send_error(&writer, &detail)?;
                    return Err(ServiceError::Protocol(detail));
                }
            }
        }
    }

    /// Runs a batch of pending entries *overlapped*: a producer thread
    /// walks the entries in slot order — deduping explicit jobs through
    /// the cache and expanding generation requests into per-cell-seeded
    /// jobs as it goes — while the engine's streaming intake verifies
    /// admitted jobs as they appear. Dedupe answers are streamed the
    /// moment the producer sees them, engine answers in completion order;
    /// the batch closes with [`Message::Done`] over all slots.
    fn run_pending(
        &self,
        entries: Vec<Pending>,
        out: &Mutex<TcpStream>,
    ) -> Result<(), ServiceError> {
        let total_slots: usize = entries.iter().map(Pending::slots).sum();
        let write_failure: Mutex<Option<std::io::Error>> = Mutex::new(None);
        let record_failure = |e: std::io::Error| {
            let mut slot = write_failure.lock().unwrap();
            if slot.is_none() {
                *slot = Some(e);
            }
        };

        // Streams one verdict frame; failures are recorded, not fatal, so
        // the batch still drains deterministically.
        let stream_verdict = |frame: VerdictFrame| {
            let mut locked = out.lock().unwrap();
            if let Err(e) = write_message(&mut *locked, &Message::Verdict(frame)) {
                record_failure(e);
            }
        };

        // Dedupe check: answered from the cache → streamed immediately,
        // never admitted to the engine.
        let try_dedupe = |slot: usize, job: &Job| -> bool {
            let key = job_cache_key(job, self.fingerprint);
            if let Some(verdict) = self.cache.get(&key) {
                self.dedupe_hits.fetch_add(1, Ordering::Relaxed);
                self.completed.fetch_add(1, Ordering::Relaxed);
                stream_verdict(VerdictFrame {
                    index: slot as u32,
                    label: job.label.clone(),
                    cache_hit: true,
                    verdict,
                });
                true
            } else {
                false
            }
        };

        let counting = CountingObserver::new();
        let streaming = CallbackObserver::new(|slot: usize, report: &crate::JobReport| {
            stream_verdict(VerdictFrame {
                index: slot as u32,
                label: report.label.clone(),
                cache_hit: report.cache_hit,
                verdict: CachedVerdict {
                    verdict: report.verdict,
                    stage: report.stage,
                    detail: report.detail.clone(),
                    checksum: report.checksum,
                },
            });
        });
        let tee = TeeObserver(&counting, &streaming);

        let (producer, source) = job_channel(GENERATION_QUEUE_CAPACITY);
        let batch = std::thread::scope(|scope| {
            scope.spawn(move || {
                // The producer owns the only channel handle: the stream
                // closes when this thread finishes (or panics).
                let mut slot = 0usize;
                for (ordinal, entry) in entries.into_iter().enumerate() {
                    match entry {
                        Pending::Job(job) => {
                            if !try_dedupe(slot, &job) {
                                producer.push(slot, job);
                            }
                            slot += 1;
                        }
                        Pending::Generate {
                            label,
                            scalar,
                            k,
                            seed,
                        } => {
                            let config = LlmConfig {
                                seed,
                                ..LlmConfig::default()
                            };
                            for j in 0..k as usize {
                                // The entry's ordinal is the "kernel index"
                                // of the seed-derivation cell, so two
                                // generation requests with the same base
                                // seed still sample distinct cells.
                                let completion =
                                    sample_completion_cell(&scalar, &config, ordinal, j);
                                self.generation_queued.fetch_sub(1, Ordering::Relaxed);
                                self.generated.fetch_add(1, Ordering::Relaxed);
                                let job = Job::new(
                                    format!("{}#{}", label, j),
                                    scalar.clone(),
                                    completion.candidate,
                                );
                                if !try_dedupe(slot, &job) {
                                    producer.push(slot, job);
                                }
                                slot += 1;
                            }
                        }
                    }
                }
            });
            self.engine.run_stream_observed(&source, &tee)
        });

        self.stages
            .fetch_add(counting.stage_count() as u64, Ordering::Relaxed);
        // In-batch duplicates of an admitted job take the verdict of the
        // copy that ran — from the cache entry it stored, or as in-flight
        // followers while it was still running — and count as dedupe
        // answers too.
        self.dedupe_hits
            .fetch_add(batch.cache_hits as u64, Ordering::Relaxed);
        self.completed
            .fetch_add(batch.jobs.len() as u64, Ordering::Relaxed);
        if let Some(e) = write_failure.into_inner().unwrap() {
            return Err(e.into());
        }

        let mut locked = out.lock().unwrap();
        write_message(
            &mut *locked,
            &Message::Done {
                count: total_slots as u32,
            },
        )?;
        locked.flush()?;
        Ok(())
    }

    /// Best-effort error frame before tearing the connection down.
    fn send_error(&self, out: &Mutex<TcpStream>, detail: &str) -> Result<(), ServiceError> {
        let mut locked = out.lock().unwrap();
        write_message(
            &mut *locked,
            &Message::Error {
                detail: detail.to_string(),
            },
        )?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::PipelineConfig;

    #[test]
    fn a_version_2_hello_gets_the_typed_version_mismatch() {
        let service = VerificationService::bind(
            "127.0.0.1:0",
            EngineConfig::full(PipelineConfig::default()).with_threads(1),
            Arc::new(VerdictCache::in_memory()),
        )
        .unwrap();
        // A client of the previous protocol, whose status reports still
        // carried the preprocessing counters.
        let mut client = TcpStream::connect(service.local_addr()).unwrap();
        client.write_all(&WIRE_MAGIC).unwrap();
        write_message(&mut client, &Message::Hello { version: 2 }).unwrap();
        let (stream, _) = service.listener.accept().unwrap();
        match service.handle_connection(stream) {
            Err(ServiceError::Wire(WireError::VersionMismatch { theirs, ours })) => {
                assert_eq!((theirs, ours), (2, WIRE_VERSION));
                assert_eq!(WIRE_VERSION, 3);
            }
            other => panic!("expected a version mismatch, got {:?}", other),
        }
        // The client is told why, in an error frame instead of a hello.
        let mut reader = BufReader::new(client);
        match read_message(&mut reader).unwrap() {
            Some(Message::Error { detail }) => {
                assert!(detail.contains("peer speaks 2"), "{}", detail)
            }
            other => panic!("expected an error frame, got {:?}", other),
        }
    }
}
