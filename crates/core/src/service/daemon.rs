//! The serving side: a TCP listener that dedupes submissions through the
//! verdict cache, runs admitted jobs on the engine's worker pool, and
//! streams verdicts back as they finish.

use crate::cache::{CacheKey, CachedVerdict, VerdictCache};
use crate::engine::{job_cache_key, job_channel, EngineConfig, Job, VerificationEngine};
use crate::observer::CallbackObserver;
use crate::service::wire::{
    check_magic, read_message, write_message, Message, ServiceStatus, VerdictFrame, WireError,
    WIRE_MAGIC, WIRE_VERSION, WRITE_BUFFER_BYTES,
};
use crate::service::ServiceError;
use lv_cir::ast::Function;
use lv_cir::{parse_function, ParseError};
use std::collections::HashMap;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

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
    memo: Mutex<KeyMemo>,
    /// Sources parsed for submissions, memo misses and cache misses alike.
    parsed: AtomicU64,
    /// Engine runs started: one per batch that admits a job.
    engine_runs: AtomicU64,
}

/// A connection's outgoing half: frames queue in the buffer until a flush
/// point (see [`VerificationService::run_pending`]).
type Out = Mutex<BufWriter<TcpStream>>;

/// Writes `message` and flushes everything queued before it.
fn send(out: &Out, message: &Message) -> std::io::Result<()> {
    let mut locked = out.lock().unwrap();
    write_message(&mut *locked, message)?;
    locked.flush()
}

/// How many admitted-but-unverified jobs a connection's streaming run may
/// hold in flight before the walk over its batch blocks (backpressure).
const ENGINE_QUEUE_CAPACITY: usize = 32;

/// The most source bytes the [`KeyMemo`] holds; an insert that would pass
/// it clears the memo first.
const KEY_MEMO_BYTES: usize = 4 << 20;

/// Exact submitted source text → [`lv_cir::structural_hash`] of its parse,
/// shared by every connection, so a resubmitted job gets its [`CacheKey`]
/// without a parse. Both key halves are structural hashes of one function,
/// so one map serves scalars and candidates alike.
///
/// It is keyed by the client's bytes, never by a hash a client supplies,
/// and hashed with std's per-process keyed SipHash, because clients are
/// untrusted. It holds only text that parsed, so a hit always parses. It
/// holds at most [`KEY_MEMO_BYTES`] of text and is cleared wholesale when
/// an insert would pass that.
#[derive(Default)]
struct KeyMemo {
    hashes: HashMap<String, u64>,
    /// Total bytes of the keys in `hashes`.
    bytes: usize,
}

impl KeyMemo {
    fn get(&self, source: &str) -> Option<u64> {
        self.hashes.get(source).copied()
    }

    fn insert(&mut self, source: String, hash: u64) {
        if source.len() > KEY_MEMO_BYTES || self.hashes.contains_key(&source) {
            return;
        }
        if self.bytes + source.len() > KEY_MEMO_BYTES {
            self.hashes.clear();
            self.bytes = 0;
        }
        self.bytes += source.len();
        self.hashes.insert(source, hash);
    }
}

/// A submitted job's functions.
enum Submitted {
    /// Parsed on submission, because the key memo missed.
    Parsed(Job),
    /// The exact text of a key-memo hit, parsed only if the cache misses.
    Text {
        label: String,
        scalar: String,
        candidate: String,
    },
}

impl Submitted {
    fn label(&self) -> &str {
        match self {
            Submitted::Parsed(job) => &job.label,
            Submitted::Text { label, .. } => label,
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
            memo: Mutex::new(KeyMemo::default()),
            parsed: AtomicU64::new(0),
            engine_runs: AtomicU64::new(0),
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
        let writer: Out = Mutex::new(BufWriter::with_capacity(WRITE_BUFFER_BYTES, stream));
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
        writer.lock().unwrap().write_all(&WIRE_MAGIC)?;
        send(
            &writer,
            &Message::ServerHello {
                version: WIRE_VERSION,
                fingerprint: self.fingerprint,
            },
        )?;

        // Submitted jobs under their cache keys, in slot order.
        let mut pending: Vec<(CacheKey, Submitted)> = Vec::new();
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
                    let entry = match self.memo_key(&scalar, &candidate) {
                        Some(key) => (
                            key,
                            Submitted::Text {
                                label,
                                scalar,
                                candidate,
                            },
                        ),
                        None => {
                            let parse = |source: &str, role: &str| {
                                self.parse(source).map_err(|e| {
                                    format!("job '{}': unparsable {}: {}", label, role, e)
                                })
                            };
                            let parsed = parse(&scalar, "scalar")
                                .and_then(|s| Ok((s, parse(&candidate, "candidate")?)));
                            let (parsed_scalar, parsed_candidate) = match parsed {
                                Ok(pair) => pair,
                                Err(detail) => {
                                    self.send_error(&writer, &detail)?;
                                    return Err(ServiceError::Protocol(detail));
                                }
                            };
                            let job = Job::new(label, parsed_scalar, parsed_candidate);
                            let key = job_cache_key(&job, self.fingerprint);
                            let mut memo = self.memo();
                            memo.insert(scalar, key.scalar);
                            memo.insert(candidate, key.candidate);
                            (key, Submitted::Parsed(job))
                        }
                    };
                    pending.push(entry);
                    self.received.fetch_add(1, Ordering::Relaxed);
                }
                Message::Run { count } => {
                    if count as usize != pending.len() {
                        let detail = format!(
                            "run count mismatch: client says {}, server holds {}",
                            count,
                            pending.len()
                        );
                        self.send_error(&writer, &detail)?;
                        return Err(ServiceError::Protocol(detail));
                    }
                    let entries = std::mem::take(&mut pending);
                    self.run_pending(entries, &writer)?;
                }
                Message::Status => send(&writer, &Message::StatusReport(self.status()))?,
                Message::Shutdown => {
                    send(&writer, &Message::ShutdownAck)?;
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

    /// The cache key of a submitted job when the key memo holds both of
    /// its sources' exact text.
    fn memo_key(&self, scalar: &str, candidate: &str) -> Option<CacheKey> {
        let memo = self.memo();
        Some(CacheKey {
            scalar: memo.get(scalar)?,
            candidate: memo.get(candidate)?,
            config: self.fingerprint,
        })
    }

    /// The key memo. The lock is poisoned only when a thread panicked
    /// while holding it, a bug in this program.
    fn memo(&self) -> MutexGuard<'_, KeyMemo> {
        self.memo
            .lock()
            .expect("key memo lock poisoned by a panicked thread")
    }

    fn parse(&self, source: &str) -> Result<Function, ParseError> {
        self.parsed.fetch_add(1, Ordering::Relaxed);
        parse_function(source)
    }

    /// A submitted job's [`Job`], parsing the text of a key-memo hit.
    fn job_of(&self, submitted: Submitted) -> Job {
        match submitted {
            Submitted::Parsed(job) => job,
            Submitted::Text {
                label,
                scalar,
                candidate,
            } => {
                let parse = |source: &str| {
                    self.parse(source)
                        .expect("the key memo holds only text that parsed")
                };
                Job::new(label, parse(&scalar), parse(&candidate))
            }
        }
    }

    /// Runs a batch of pending jobs *overlapped*. The connection thread
    /// walks the jobs in slot order and dedupes each through the cache by
    /// its key, parsing one only when the cache misses. The engine's
    /// streaming intake verifies the admitted jobs on one scoped thread,
    /// started at the first job admitted, so a batch the cache answers
    /// whole spawns no thread and builds no worker. The batch closes with
    /// [`Message::Done`] over all slots.
    ///
    /// Dedupe answers are queued in the connection's write buffer, and the
    /// buffer is flushed before each job is pushed to the engine (no known
    /// answer waits behind a verification), after the walk, after each
    /// engine verdict, and with `Done`.
    fn run_pending(
        &self,
        entries: Vec<(CacheKey, Submitted)>,
        out: &Out,
    ) -> Result<(), ServiceError> {
        let total_slots = entries.len();
        let write_failure: Mutex<Option<std::io::Error>> = Mutex::new(None);
        // Failures are recorded, not fatal, so the batch still drains
        // deterministically.
        let record = |written: std::io::Result<()>| {
            if let Err(e) = written {
                let mut slot = write_failure.lock().unwrap();
                if slot.is_none() {
                    *slot = Some(e);
                }
            }
        };
        let flush = || record(out.lock().unwrap().flush());
        let queue_verdict = |frame: VerdictFrame| {
            record(write_message(
                &mut *out.lock().unwrap(),
                &Message::Verdict(frame),
            ))
        };

        let streaming = CallbackObserver::new(|slot: usize, report: &crate::JobReport| {
            queue_verdict(VerdictFrame {
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
            flush();
        });

        let (producer, source) = job_channel(ENGINE_QUEUE_CAPACITY);
        let batch = std::thread::scope(|scope| {
            // The walk owns the only producer, so the stream closes when the
            // walk ends, also by a panic.
            let producer = producer;
            let mut engine = None;
            for (slot, (key, submitted)) in entries.into_iter().enumerate() {
                // Dedupe check: answered from the cache → queued at once,
                // never admitted to the engine.
                if let Some(verdict) = self.cache.get(&key) {
                    self.dedupe_hits.fetch_add(1, Ordering::Relaxed);
                    self.completed.fetch_add(1, Ordering::Relaxed);
                    queue_verdict(VerdictFrame {
                        index: slot as u32,
                        label: submitted.label().to_string(),
                        cache_hit: true,
                        verdict,
                    });
                    continue;
                }
                flush();
                engine.get_or_insert_with(|| {
                    self.engine_runs.fetch_add(1, Ordering::Relaxed);
                    scope.spawn(|| self.engine.run_stream_observed(&source, &streaming))
                });
                producer.push(slot, self.job_of(submitted));
            }
            flush();
            drop(producer);
            engine.map(|run| {
                run.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
        });

        if let Some(batch) = batch {
            self.stages
                .fetch_add(batch.stage_runs() as u64, Ordering::Relaxed);
            // In-batch duplicates of an admitted job take the verdict of
            // the copy that ran — from the cache entry it stored, or as
            // in-flight followers while it was still running — and count
            // as dedupe answers too.
            self.dedupe_hits
                .fetch_add(batch.cache_hits as u64, Ordering::Relaxed);
            self.completed
                .fetch_add(batch.jobs.len() as u64, Ordering::Relaxed);
        }
        if let Some(e) = write_failure.into_inner().unwrap() {
            return Err(e.into());
        }
        send(
            out,
            &Message::Done {
                count: total_slots as u32,
            },
        )?;
        Ok(())
    }

    /// Best-effort error frame before tearing the connection down.
    fn send_error(&self, out: &Out, detail: &str) -> Result<(), ServiceError> {
        send(
            out,
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
    use crate::service::ServiceClient;

    const S000: &str =
        "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }";
    /// The rule-based vectorizer's `s000` candidate.
    const S000_RULE: &str = "void s000(int n, int *a, int *b) { int i; for (i = 0; i + 8 <= n; i += 8) { __m256i b_v1 = _mm256_loadu_si256((__m256i *)&b[i]); __m256i a_v2 = _mm256_add_epi32(b_v1, _mm256_set1_epi32(1)); _mm256_storeu_si256((__m256i *)&a[i], a_v2); } for (; i < n; i += 1) { a[i] = b[i] + 1; } }";
    const S000_WRONG: &str =
        "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 2; } }";
    const TRIPLE: &str =
        "void triple(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] * 3; } }";

    /// Three jobs over four distinct source texts.
    const BATCH: [(&str, &str); 3] = [(S000, S000_RULE), (S000, S000_WRONG), (TRIPLE, TRIPLE)];

    fn config() -> EngineConfig {
        EngineConfig::full(PipelineConfig::default()).with_threads(1)
    }

    /// Runs `f` against a daemon serving on loopback, then shuts it down,
    /// also when `f` panics (the scope would otherwise wait on the server
    /// forever), and re-raises the panic.
    fn with_daemon<T>(f: impl FnOnce(&VerificationService) -> T) -> T {
        let service =
            VerificationService::bind("127.0.0.1:0", config(), Arc::new(VerdictCache::in_memory()))
                .unwrap();
        std::thread::scope(|scope| {
            let server = scope.spawn(|| service.serve_forever().unwrap());
            let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&service)));
            ServiceClient::connect(service.local_addr())
                .unwrap()
                .shutdown()
                .unwrap();
            server.join().unwrap();
            out.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        })
    }

    /// A client of the raw protocol, so a test can submit exact source
    /// text (`ServiceClient` prints an AST).
    struct RawClient {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
    }

    impl RawClient {
        fn connect(service: &VerificationService) -> RawClient {
            let mut writer = TcpStream::connect(service.local_addr()).unwrap();
            writer.write_all(&WIRE_MAGIC).unwrap();
            write_message(
                &mut writer,
                &Message::Hello {
                    version: WIRE_VERSION,
                },
            )
            .unwrap();
            let mut reader = BufReader::new(writer.try_clone().unwrap());
            let mut magic = [0u8; 4];
            reader.read_exact(&mut magic).unwrap();
            check_magic(&magic).unwrap();
            match read_message(&mut reader).unwrap() {
                Some(Message::ServerHello { .. }) => {}
                other => panic!("expected a server hello, got {:?}", other),
            }
            RawClient { reader, writer }
        }

        fn send_submit(&mut self, label: String, scalar: &str, candidate: &str) {
            let submit = Message::Submit {
                label,
                scalar: scalar.to_string(),
                candidate: candidate.to_string(),
            };
            write_message(&mut self.writer, &submit).unwrap();
        }

        /// Submits and runs `(scalar, candidate)` texts labeled `job<i>`:
        /// the verdict frames in slot order.
        fn submit(&mut self, jobs: &[(&str, &str)]) -> Vec<VerdictFrame> {
            let mut frames = self.submit_in_arrival_order(jobs);
            frames.sort_by_key(|frame| frame.index);
            frames
        }

        /// [`submit`](Self::submit), with the verdict frames in the order
        /// they arrived. `Done` closes the batch after exactly one frame
        /// per job.
        fn submit_in_arrival_order(&mut self, jobs: &[(&str, &str)]) -> Vec<VerdictFrame> {
            for (i, (scalar, candidate)) in jobs.iter().enumerate() {
                self.send_submit(format!("job{}", i), scalar, candidate);
            }
            let run = Message::Run {
                count: jobs.len() as u32,
            };
            write_message(&mut self.writer, &run).unwrap();
            let mut frames = Vec::new();
            loop {
                match read_message(&mut self.reader).unwrap() {
                    Some(Message::Verdict(frame)) => frames.push(frame),
                    Some(Message::Done { count }) => {
                        assert_eq!(count as usize, jobs.len());
                        break;
                    }
                    other => panic!("expected a verdict, got {:?}", other),
                }
            }
            assert_eq!(frames.len(), jobs.len(), "one frame per job before Done");
            frames
        }

        /// The daemon's counters, read over the wire: the next frame after
        /// a batch's `Done` must be the report, not a stray verdict.
        fn status(&mut self) -> ServiceStatus {
            write_message(&mut self.writer, &Message::Status).unwrap();
            match read_message(&mut self.reader).unwrap() {
                Some(Message::StatusReport(status)) => status,
                other => panic!("expected a status report, got {:?}", other),
            }
        }

        /// Submits one job the daemon refuses: the error frame's detail.
        fn refused(mut self, scalar: &str, candidate: &str) -> String {
            self.send_submit("bad".to_string(), scalar, candidate);
            match read_message(&mut self.reader).unwrap() {
                Some(Message::Error { detail }) => detail,
                other => panic!("expected an error frame, got {:?}", other),
            }
        }
    }

    fn parsed(service: &VerificationService) -> u64 {
        service.parsed.load(Ordering::Relaxed)
    }

    fn engine_runs(service: &VerificationService) -> u64 {
        service.engine_runs.load(Ordering::Relaxed)
    }

    /// The frames' slots, labels and verdicts, without the cache-hit flag.
    fn answers(frames: &[VerdictFrame]) -> Vec<(u32, String, CachedVerdict)> {
        frames
            .iter()
            .map(|frame| (frame.index, frame.label.clone(), frame.verdict.clone()))
            .collect()
    }

    fn verdicts(frames: &[VerdictFrame]) -> Vec<CachedVerdict> {
        frames.iter().map(|frame| frame.verdict.clone()).collect()
    }

    #[test]
    fn a_warm_resubmission_parses_nothing() {
        with_daemon(|service| {
            let cold = RawClient::connect(service).submit(&BATCH);
            assert!(cold.iter().all(|frame| !frame.cache_hit));
            assert_eq!(parsed(service), 6, "a cold job parses both sources");
            let stages = service.status().stages;
            assert!(stages > 0);

            let warm = RawClient::connect(service).submit(&BATCH);
            assert!(warm.iter().all(|frame| frame.cache_hit));
            assert_eq!(verdicts(&warm), verdicts(&cold));
            assert_eq!(parsed(service), 6, "a warm resubmission parses nothing");
            assert_eq!(service.status().stages, stages);
        });
    }

    #[test]
    fn the_stage_count_is_the_stage_runs_of_the_distinct_jobs() {
        // Slots 2, 3, 5, 6 and 7 repeat slots 0, 1 and 4.
        let doubled = [
            BATCH[0], BATCH[1], BATCH[0], BATCH[1], BATCH[2], BATCH[0], BATCH[1], BATCH[2],
        ];
        let jobs: Vec<Job> = doubled
            .iter()
            .enumerate()
            .map(|(i, (scalar, candidate))| {
                Job::new(
                    format!("job{}", i),
                    parse_function(scalar).unwrap(),
                    parse_function(candidate).unwrap(),
                )
            })
            .collect();
        let cached =
            VerificationEngine::new(config().with_cache(Arc::new(VerdictCache::in_memory())))
                .run_batch(&jobs);
        assert_eq!(cached.cache_misses, BATCH.len());
        let distinct: Vec<Job> = [0, 1, 4].iter().map(|&i| jobs[i].clone()).collect();
        assert_eq!(
            cached.stage_runs(),
            VerificationEngine::new(config())
                .run_batch(&distinct)
                .stage_runs(),
            "duplicates run no stage"
        );
        with_daemon(|service| {
            let cold = RawClient::connect(service).submit(&doubled);
            for (slot, first) in [(2, 0), (3, 1), (5, 0), (6, 1), (7, 4)] {
                assert_eq!(cold[slot].verdict, cold[first].verdict);
            }
            let stages = service.status().stages;
            assert_eq!(stages, cached.stage_runs() as u64);

            let warm = RawClient::connect(service).submit(&doubled);
            assert!(warm.iter().all(|frame| frame.cache_hit));
            assert_eq!(service.status().stages, stages, "a warm batch adds 0");
        });
    }

    #[test]
    fn an_all_hit_batch_starts_no_engine() {
        with_daemon(|service| {
            let mut cold_client = RawClient::connect(service);
            let cold = cold_client.submit(&BATCH);
            assert_eq!(
                engine_runs(service),
                1,
                "a cold batch starts the engine once"
            );
            assert_eq!(cold_client.status().completed, BATCH.len() as u64);

            let mut warm_client = RawClient::connect(service);
            let warm = warm_client.submit(&BATCH);
            assert!(warm.iter().all(|frame| frame.cache_hit));
            assert_eq!(answers(&warm), answers(&cold));
            assert_eq!(engine_runs(service), 1, "an all-hit batch starts none");
            let status = warm_client.status();
            assert_eq!(status.completed, 2 * BATCH.len() as u64);
            assert_eq!(status.dedupe_hits, BATCH.len() as u64);
        });
    }

    #[test]
    fn dedupe_answers_arrive_before_an_admitted_jobs_verdict() {
        with_daemon(|service| {
            let cold = RawClient::connect(service).submit(&BATCH[..2]);
            // Two hits, then a pairing no batch ran: the hits are flushed
            // before the miss is pushed to the engine, so they arrive first.
            let mixed = [BATCH[0], BATCH[1], (S000, TRIPLE)];
            let mut client = RawClient::connect(service);
            let frames = client.submit_in_arrival_order(&mixed);
            let order: Vec<(u32, bool)> = frames
                .iter()
                .map(|frame| (frame.index, frame.cache_hit))
                .collect();
            assert_eq!(order, [(0, true), (1, true), (2, false)]);
            assert_eq!(answers(&frames[..2]), answers(&cold));
            assert_eq!(engine_runs(service), 2);
            assert_eq!(client.status().completed, 5);
        });
    }

    #[test]
    fn changed_text_misses_the_memo_and_is_answered_from_the_cache() {
        with_daemon(|service| {
            let cold = RawClient::connect(service).submit(&BATCH);
            let stages = service.status().stages;
            let spaced = S000.replace("{ ", "{\n    ");
            let renamed = S000_RULE
                .replace("b_v1", "loaded")
                .replace("s000", "renamed");
            let changed = [(spaced.as_str(), S000_RULE), (S000, renamed.as_str())];
            for round in 0..2 {
                let before = parsed(service);
                let frames = RawClient::connect(service).submit(&changed);
                assert!(frames.iter().all(|frame| frame.cache_hit));
                assert_eq!(frames[0].verdict, cold[0].verdict);
                assert_eq!(frames[1].verdict, cold[0].verdict);
                let expected = if round == 0 { 4 } else { 0 };
                assert_eq!(parsed(service) - before, expected, "round {}", round);
            }
            assert_eq!(service.status().stages, stages);
        });
    }

    #[test]
    fn unparsable_source_is_refused_alike_on_every_connection_and_never_memoized() {
        with_daemon(|service| {
            for (scalar, candidate, what) in [
                ("void s000(int n", S000_RULE, "unparsable scalar"),
                (S000, "not C at all", "unparsable candidate"),
            ] {
                let first = RawClient::connect(service).refused(scalar, candidate);
                assert!(
                    first.starts_with(&format!("job 'bad': {}: ", what)),
                    "{}",
                    first
                );
                let second = RawClient::connect(service).refused(scalar, candidate);
                assert_eq!(first, second);
            }
            // One parse per refusal of the scalar, two per refusal of the
            // candidate: nothing was memoized, not even the scalar that
            // parsed next to an unparsable candidate.
            assert_eq!(parsed(service), 2 + 4);
            assert!(service.memo().hashes.is_empty());
        });
    }

    #[test]
    fn memoized_sources_in_a_new_pairing_run_the_cascade() {
        with_daemon(|service| {
            RawClient::connect(service).submit(&BATCH);
            let (before, stages) = (parsed(service), service.status().stages);

            // Both texts are memoized, but never ran together.
            let frames = RawClient::connect(service).submit(&[(S000, TRIPLE)]);
            assert!(!frames[0].cache_hit);
            assert_eq!(parsed(service) - before, 2, "a cache miss parses");
            assert!(service.status().stages > stages, "and runs the cascade");
            let cold = VerificationEngine::new(config()).run_batch(&[Job::new(
                "job0",
                parse_function(S000).unwrap(),
                parse_function(TRIPLE).unwrap(),
            )]);
            let report = &cold.jobs[0];
            assert_eq!(report.verdict, crate::Equivalence::NotEquivalent);
            assert_eq!(
                frames[0].verdict,
                CachedVerdict {
                    verdict: report.verdict,
                    stage: report.stage,
                    detail: report.detail.clone(),
                    checksum: report.checksum,
                }
            );
        });
    }

    #[test]
    fn the_memo_stays_under_its_byte_bound() {
        with_daemon(|service| {
            let cold = RawClient::connect(service).submit(&BATCH);
            let mut inserted = 0;
            for i in 0..5 {
                let padding = " ".repeat(KEY_MEMO_BYTES / 3 + i);
                let padded = S000.replacen('{', &format!("{{{}", padding), 1);
                inserted += padded.len();
                let frames = RawClient::connect(service).submit(&[(&padded, S000_RULE)]);
                assert!(frames[0].cache_hit);
                assert_eq!(frames[0].verdict, cold[0].verdict);
                let memo = service.memo();
                assert!(memo.bytes <= KEY_MEMO_BYTES, "{} bytes", memo.bytes);
                assert_eq!(
                    memo.bytes,
                    memo.hashes.keys().map(String::len).sum::<usize>()
                );
            }
            assert!(
                inserted > KEY_MEMO_BYTES,
                "the padded texts overfill the memo"
            );
            let frames = RawClient::connect(service).submit(&BATCH);
            assert_eq!(verdicts(&frames), verdicts(&cold));
        });
    }

    #[test]
    fn a_version_2_hello_gets_the_typed_version_mismatch() {
        assert_eq!(WIRE_VERSION, 4);
        let service = VerificationService::bind(
            "127.0.0.1:0",
            EngineConfig::full(PipelineConfig::default()).with_threads(1),
            Arc::new(VerdictCache::in_memory()),
        )
        .unwrap();
        // Clients of the earlier protocols: version 2 status reports still
        // carried the preprocessing counters, and version 3 still had the
        // server-side generation request and its two counters.
        for version in [2, 3] {
            let mut client = TcpStream::connect(service.local_addr()).unwrap();
            client.write_all(&WIRE_MAGIC).unwrap();
            write_message(&mut client, &Message::Hello { version }).unwrap();
            let (stream, _) = service.listener.accept().unwrap();
            match service.handle_connection(stream) {
                Err(ServiceError::Wire(WireError::VersionMismatch { theirs, ours })) => {
                    assert_eq!((theirs, ours), (version, WIRE_VERSION));
                }
                other => panic!("expected a version mismatch, got {:?}", other),
            }
            // The client is told why, in an error frame instead of a hello.
            let mut reader = BufReader::new(client);
            match read_message(&mut reader).unwrap() {
                Some(Message::Error { detail }) => assert!(
                    detail.contains(&format!("peer speaks {}", version)),
                    "{}",
                    detail
                ),
                other => panic!("expected an error frame, got {:?}", other),
            }
        }
    }
}
