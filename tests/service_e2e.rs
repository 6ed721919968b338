//! End-to-end verification-service tests over real loopback TCP: verdicts
//! served over the wire are bit-identical to the in-process engine, a warm
//! resubmission is answered entirely from the dedupe cache with zero stages
//! run, and killed clients — garbage bytes, or a valid handshake followed
//! by a torn frame — never take the daemon down. A submission carrying one
//! job several times runs its cascade once, a client's batch is exactly its
//! framed `Submit`s and `Run`, and a client refuses a verdict stream that
//! does not answer its batch slot for slot. The seeded generated jobs that
//! `lv-sweep submit --generate` sends get the verdicts the in-process
//! generated run (`run --generate`) reports for the same cells.

use llm_vectorizer_repro::agents::LlmConfig;
use llm_vectorizer_repro::cir::print_function;
use llm_vectorizer_repro::core::service::wire::{
    check_magic, encode_message, read_message, write_message, Message,
};
use llm_vectorizer_repro::core::service::{ServiceError, VerdictFrame, WIRE_MAGIC, WIRE_VERSION};
use llm_vectorizer_repro::core::{
    generate_then_verify_pass_at_k, seeded_jobs, CachedVerdict, EngineConfig, Equivalence, Job,
    PipelineConfig, ServiceClient, Stage, VerdictCache, VerificationEngine, VerificationService,
};
use llm_vectorizer_repro::interp::ChecksumConfig;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

fn quick_config() -> EngineConfig {
    let mut tv = llm_vectorizer_repro::tv::TvConfig {
        alive2_chunks: 1,
        ..Default::default()
    };
    tv.alive2_budget.max_conflicts = 1_000;
    tv.cunroll_budget.max_conflicts = 10_000;
    tv.spatial_budget.max_conflicts = 4_000;
    EngineConfig::full(PipelineConfig {
        checksum: ChecksumConfig {
            trials: 1,
            n: 40,
            ..ChecksumConfig::default()
        },
        tv,
    })
    .with_threads(1)
}

fn small_jobs() -> Vec<Job> {
    ["s000", "s112", "s212", "vsumr"]
        .iter()
        .map(|name| {
            let scalar = llm_vectorizer_repro::tsvc::kernel(name).unwrap().function();
            let candidate = llm_vectorizer_repro::agents::vectorize_correct(&scalar).unwrap();
            Job::new(*name, scalar, candidate)
        })
        .collect()
}

fn assert_frames_match_engine(frames: &[VerdictFrame], jobs: &[Job]) {
    let baseline = VerificationEngine::new(quick_config()).run_batch(jobs);
    assert_eq!(frames.len(), baseline.jobs.len());
    for (frame, report) in frames.iter().zip(&baseline.jobs) {
        assert_eq!(frame.label, report.label);
        assert_eq!(
            frame.verdict.verdict, report.verdict,
            "verdict drifted over the wire for {}",
            report.label
        );
        assert_eq!(
            frame.verdict.stage, report.stage,
            "stage drifted over the wire for {}",
            report.label
        );
        assert_eq!(
            frame.verdict.detail, report.detail,
            "detail drifted over the wire for {}",
            report.label
        );
    }
}

#[test]
fn loopback_service_matches_engine_dedupes_warm_and_survives_killed_clients() {
    let jobs = small_jobs();
    let cache = Arc::new(VerdictCache::in_memory());
    let service =
        VerificationService::bind("127.0.0.1:0", quick_config(), cache.clone()).expect("bind");
    let addr = service.local_addr();
    let daemon = std::thread::spawn(move || {
        service.serve_forever().expect("serve");
        service.status()
    });

    // Killer 1: pure garbage — not even the right magic — then hang up.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"GET / HTTP/1.0\r\n\r\n").expect("write");
    }

    // Killer 2: a *valid* handshake, then die inside a frame — a length
    // prefix promising 64 bytes with only 5 behind it.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(b"LVSV").expect("magic");
        // Hello is tag 0x01 + u32 version; frame it by hand.
        let version = llm_vectorizer_repro::core::service::WIRE_VERSION.to_le_bytes();
        let payload = [0x01u8, version[0], version[1], version[2], version[3]];
        let crc = llm_vectorizer_repro::core::service::wire::crc32(&payload);
        stream
            .write_all(&(payload.len() as u32).to_le_bytes())
            .expect("len");
        stream.write_all(&payload).expect("payload");
        stream.write_all(&crc.to_le_bytes()).expect("crc");
        // Consume the server's magic so the handshake really completed.
        let mut magic = [0u8; 4];
        stream.read_exact(&mut magic).expect("server magic");
        assert_eq!(&magic, b"LVSV");
        // Now the torn frame: claim 64 bytes, send 5, vanish.
        stream.write_all(&64u32.to_le_bytes()).expect("torn len");
        stream.write_all(&[1, 2, 3, 4, 5]).expect("torn bytes");
    }

    // The daemon must still be serving: a real client connects, submits
    // the batch cold, and gets verdicts bit-identical to the in-process
    // engine.
    let mut client = ServiceClient::connect(addr).expect("daemon must have survived the killers");
    let cold = client.submit(&jobs).expect("cold submit");
    assert_frames_match_engine(&cold, &jobs);
    assert!(
        cold.iter().all(|frame| !frame.cache_hit),
        "a cold batch has nothing to dedupe against"
    );
    let after_cold = client.status().expect("status");
    assert_eq!(after_cold.completed, jobs.len() as u64);
    assert_eq!(after_cold.dedupe_hits, 0);
    assert!(after_cold.stages > 0, "cold jobs must actually run stages");

    // Warm resubmission (a *new* connection): every verdict is answered
    // from the dedupe cache before any stage runs — the stage counter does
    // not move — and the verdict payloads are identical to the cold run.
    let mut warm_client = ServiceClient::connect(addr).expect("connect again");
    let warm = warm_client.submit(&jobs).expect("warm submit");
    assert_frames_match_engine(&warm, &jobs);
    assert!(
        warm.iter().all(|frame| frame.cache_hit),
        "a warm batch is answered entirely from dedupe"
    );
    for (cold_frame, warm_frame) in cold.iter().zip(&warm) {
        assert_eq!(cold_frame.verdict, warm_frame.verdict);
    }
    let after_warm = warm_client.status().expect("status");
    assert_eq!(
        after_warm.stages, after_cold.stages,
        "zero stages ran for the warm resubmission"
    );
    assert_eq!(after_warm.dedupe_hits, jobs.len() as u64);
    assert_eq!(after_warm.completed, 2 * jobs.len() as u64);

    // The in-process engine over the daemon's cache answers the same batch
    // entirely from it, with the same verdicts.
    let inproc = VerificationEngine::new(quick_config().with_cache(cache.clone())).run_batch(&jobs);
    assert!(inproc.jobs.iter().all(|report| report.cache_hit));
    for (frame, report) in warm.iter().zip(&inproc.jobs) {
        assert_eq!(frame.verdict.verdict, report.verdict);
    }

    // Clean shutdown stops serve_forever and the daemon thread.
    warm_client.shutdown().expect("shutdown");
    drop(client);
    let final_status = daemon.join().expect("daemon thread");
    assert_eq!(final_status.completed, 2 * jobs.len() as u64);
    assert!(final_status.connections >= 4);
}

#[test]
fn one_submission_of_a_job_four_times_runs_its_cascade_once() {
    let job = small_jobs().remove(0);
    let one_job_stages = VerificationEngine::new(quick_config())
        .run_batch(std::slice::from_ref(&job))
        .stage_runs() as u64;
    assert!(one_job_stages > 0);
    let service = VerificationService::bind(
        "127.0.0.1:0",
        quick_config().with_threads(4),
        Arc::new(VerdictCache::in_memory()),
    )
    .expect("bind");
    let addr = service.local_addr();
    let daemon = std::thread::spawn(move || service.serve_forever().expect("serve"));

    let mut client = ServiceClient::connect(addr).expect("connect");
    let frames = client.submit(&vec![job.clone(); 4]).expect("submit");
    assert_eq!(frames.len(), 4);
    assert_frames_match_engine(&frames[..1], std::slice::from_ref(&job));
    for frame in &frames {
        assert_eq!(frame.verdict, frames[0].verdict, "slot {}", frame.index);
    }
    assert_eq!(frames.iter().filter(|frame| !frame.cache_hit).count(), 1);
    let status = client.status().expect("status");
    assert_eq!(status.stages, one_job_stages, "the cascade ran once");
    assert_eq!(status.dedupe_hits, 3);
    assert_eq!(status.completed, 4);

    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread");
}

#[test]
fn a_client_batch_is_its_framed_submits_then_run() {
    let jobs = small_jobs();
    let mut expected = Vec::new();
    for job in &jobs {
        expected.extend(encode_message(&Message::Submit {
            label: job.label.clone(),
            scalar: print_function(&job.scalar),
            candidate: print_function(&job.candidate),
        }));
    }
    expected.extend(encode_message(&Message::Run {
        count: jobs.len() as u32,
    }));

    // A recording peer: it completes the handshake, records the batch's
    // bytes, answers every slot, and then records what follows until the
    // client hangs up.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let labels: Vec<String> = jobs.iter().map(|job| job.label.clone()).collect();
    let (batch_len, slots) = (expected.len(), jobs.len());
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut magic = [0u8; 4];
        stream.read_exact(&mut magic).expect("client magic");
        check_magic(&magic).expect("LVSV");
        match read_message(&mut stream).expect("hello") {
            Some(Message::Hello {
                version: WIRE_VERSION,
            }) => {}
            other => panic!("expected a hello, got {:?}", other),
        }
        let mut reply = WIRE_MAGIC.to_vec();
        reply.extend(encode_message(&Message::ServerHello {
            version: WIRE_VERSION,
            fingerprint: 7,
        }));
        stream.write_all(&reply).expect("server hello");
        let mut batch = vec![0u8; batch_len];
        stream.read_exact(&mut batch).expect("the batch");
        for (index, label) in labels.into_iter().enumerate() {
            let frame = VerdictFrame {
                index: index as u32,
                label,
                cache_hit: true,
                verdict: CachedVerdict {
                    verdict: Equivalence::Equivalent,
                    stage: Stage::Alive2,
                    detail: String::new(),
                    checksum: None,
                },
            };
            write_message(&mut stream, &Message::Verdict(frame)).expect("verdict");
        }
        write_message(
            &mut stream,
            &Message::Done {
                count: slots as u32,
            },
        )
        .expect("done");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("the rest");
        (batch, rest)
    });

    let mut client = ServiceClient::connect(addr).expect("connect");
    let frames = client.submit(&jobs).expect("submit");
    drop(client);
    let (batch, rest) = peer.join().expect("recording peer");
    assert_eq!(batch, expected, "the client sends exactly the framed batch");
    assert!(rest.is_empty(), "{} stray byte(s) after Run", rest.len());
    assert_eq!(frames.len(), jobs.len());
}

/// A peer that completes one client's handshake, reads its batch up to and
/// including `Run`, answers with `replies` and hangs up.
fn scripted_peer(replies: Vec<Message>) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let mut magic = [0u8; 4];
        stream.read_exact(&mut magic).expect("client magic");
        assert!(matches!(
            read_message(&mut stream).expect("hello"),
            Some(Message::Hello { .. })
        ));
        let mut reply = WIRE_MAGIC.to_vec();
        reply.extend(encode_message(&Message::ServerHello {
            version: WIRE_VERSION,
            fingerprint: 7,
        }));
        stream.write_all(&reply).expect("server hello");
        while !matches!(
            read_message(&mut stream).expect("the batch"),
            Some(Message::Run { .. })
        ) {}
        for message in &replies {
            write_message(&mut stream, message).expect("reply");
        }
    });
    (addr, peer)
}

fn verdict(index: u32, label: &str) -> Message {
    Message::Verdict(VerdictFrame {
        index,
        label: label.to_string(),
        cache_hit: true,
        verdict: CachedVerdict {
            verdict: Equivalence::Equivalent,
            stage: Stage::Alive2,
            detail: String::new(),
            checksum: None,
        },
    })
}

#[test]
fn a_client_refuses_a_verdict_stream_that_does_not_answer_its_batch() {
    let jobs = &small_jobs()[..2];
    let cases = [
        (
            vec![verdict(2, "s112")],
            "verdict index 2 out of range for a 2-job batch",
        ),
        (
            vec![verdict(1, "s000")],
            "verdict 1 labeled 's000' but job 1 is 's112'",
        ),
        (
            vec![verdict(0, "s000"), verdict(0, "s000")],
            "duplicate verdict for job 0 ('s000')",
        ),
        (
            vec![verdict(0, "s000"), Message::Done { count: 1 }],
            "batch closed with 1 verdict(s), 2 submitted",
        ),
        (
            vec![verdict(1, "s112"), Message::Done { count: 2 }],
            "no verdict arrived for job 0",
        ),
        (
            vec![verdict(0, "s000")],
            "server closed the connection mid-batch",
        ),
    ];
    for (replies, expected) in cases {
        let (addr, peer) = scripted_peer(replies);
        let mut client = ServiceClient::connect(addr).expect("connect");
        match client.submit(jobs) {
            Err(ServiceError::Protocol(detail)) => assert_eq!(detail, expected),
            other => panic!("expected '{}', got {:?}", expected, other),
        }
        peer.join().expect("scripted peer");
    }
}

/// `lv-sweep submit --generate 4` sends the [`seeded_jobs`] list: each
/// slot's label, verdict, stage and checksum class equal the in-process
/// generate-then-verify run's over the same cells, and an immediate
/// resubmission is answered whole from the dedupe cache.
#[test]
fn submitted_seeded_jobs_match_the_in_process_generated_run() {
    let kernels: Vec<_> = ["s000", "s112", "vsumr"]
        .iter()
        .map(|name| {
            let scalar = llm_vectorizer_repro::tsvc::kernel(name).unwrap().function();
            (name.to_string(), scalar)
        })
        .collect();
    let llm_config = LlmConfig {
        seed: 42,
        ..LlmConfig::default()
    };
    let k = 4;
    let reference = generate_then_verify_pass_at_k(
        &VerificationEngine::new(quick_config()),
        &kernels,
        &llm_config,
        k,
        &[k],
        1,
    );

    let service = VerificationService::bind(
        "127.0.0.1:0",
        quick_config(),
        Arc::new(VerdictCache::in_memory()),
    )
    .expect("bind");
    let addr = service.local_addr();
    let daemon = std::thread::spawn(move || service.serve_forever().expect("serve"));
    let mut client = ServiceClient::connect(addr).expect("connect");
    let jobs = seeded_jobs(&kernels, &llm_config, k, 0);
    let cold = client.submit(&jobs).expect("cold submit");
    assert_eq!(cold.len(), kernels.len() * k);
    assert_eq!(cold.len(), reference.report.jobs.len());
    for (frame, report) in cold.iter().zip(&reference.report.jobs) {
        assert_eq!(frame.label, report.label);
        assert_eq!(
            (
                frame.verdict.verdict,
                frame.verdict.stage,
                frame.verdict.checksum
            ),
            (report.verdict, report.stage, report.checksum),
            "{}",
            report.label
        );
    }
    let labels: Vec<&str> = cold.iter().map(|frame| frame.label.as_str()).collect();
    assert_eq!(labels[..k], ["s000#0", "s000#1", "s000#2", "s000#3"]);
    let stages = client.status().expect("status").stages;
    assert!(stages > 0, "cold cells run stages");

    let warm = client.submit(&jobs).expect("warm submit");
    assert!(warm.iter().all(|frame| frame.cache_hit), "all dedupe hits");
    for (cold_frame, warm_frame) in cold.iter().zip(&warm) {
        assert_eq!(cold_frame.label, warm_frame.label);
        assert_eq!(cold_frame.verdict, warm_frame.verdict);
    }
    assert_eq!(
        client.status().expect("status").stages,
        stages,
        "the resubmission ran no stage"
    );

    client.shutdown().expect("shutdown");
    daemon.join().expect("daemon thread");
}
