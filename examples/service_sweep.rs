//! The verification-service acceptance check, run by CI.
//!
//! Builds the full TSVC Table 3 workload (one FSM-produced candidate per
//! kernel) plus the bitwise-select
//! conditional candidates that still reach the SAT search
//! (`lv_bench::bitwise_select_jobs`). Every Table 3 job folds before SAT,
//! so those jobs are the only place the daemon's cold run meets a
//! SAT-searching job (`tests/service_e2e.rs` submits none). It then checks
//! the `lv-sweep serve` subsystem's contract end to end over real loopback
//! TCP:
//!
//! * a daemon ([`VerificationService`]) serves the whole workload to a
//!   [`ServiceClient`] **cold** — every streamed verdict bit-identical
//!   (verdict, stage, detail, checksum class) to an offline
//!   single-process `run_batch` under the same configuration;
//! * a **warm** resubmission over a fresh connection is answered entirely
//!   from the dedupe/admission cache: every frame is flagged as a dedupe
//!   hit, the payloads equal the cold run's, and the daemon's stage
//!   counter does not move — zero stages ran.
//!
//! Exits non-zero (panics) on any violation.

use llm_vectorizer_repro::agents::{fsm_candidate_batch, FsmConfig, LlmConfig, SyntheticLlm};
use llm_vectorizer_repro::core::service::VerdictFrame;
use llm_vectorizer_repro::core::{
    BatchReport, EngineConfig, Job, ServiceClient, VerdictCache, VerificationEngine,
    VerificationService,
};
use llm_vectorizer_repro::interp::ChecksumConfig;
use llm_vectorizer_repro::tsvc::KERNELS;
use lv_bench::{bitwise_select_jobs, small_budget_pipeline};
use std::sync::Arc;

/// The Table 3 workload: the FSM's best candidate per TSVC kernel.
fn table3_jobs(checksum: &ChecksumConfig) -> Vec<Job> {
    let scalars: Vec<_> = KERNELS.iter().map(|k| k.function()).collect();
    let llm_config = LlmConfig::default();
    let mut llm = SyntheticLlm::new(llm_config.clone());
    let fsm_config = FsmConfig {
        max_attempts: 10,
        checksum: checksum.clone(),
        llm: llm_config,
    };
    fsm_candidate_batch(&scalars, &fsm_config, &mut llm)
        .into_iter()
        .enumerate()
        .filter_map(|(i, fsm)| {
            fsm.candidate
                .map(|candidate| Job::new(KERNELS[i].name, scalars[i].clone(), candidate))
        })
        .collect()
}

fn assert_frames_match(frames: &[VerdictFrame], baseline: &BatchReport, what: &str) {
    assert_eq!(frames.len(), baseline.jobs.len(), "{}: job count", what);
    for (frame, report) in frames.iter().zip(&baseline.jobs) {
        assert_eq!(frame.label, report.label, "{}: job order", what);
        assert_eq!(
            frame.verdict.verdict, report.verdict,
            "{}: verdict for {}",
            what, report.label
        );
        assert_eq!(
            frame.verdict.stage, report.stage,
            "{}: stage for {}",
            what, report.label
        );
        assert_eq!(
            frame.verdict.detail, report.detail,
            "{}: detail for {}",
            what, report.label
        );
        assert_eq!(
            frame.verdict.checksum, report.checksum,
            "{}: checksum class for {}",
            what, report.label
        );
    }
}

fn main() {
    // Reduced solver budgets keep the full-suite runs CI-friendly; the
    // bit-identity contracts hold for any budget.
    let config = EngineConfig::full(small_budget_pipeline());
    let mut jobs = table3_jobs(&config.pipeline.checksum);
    jobs.extend(bitwise_select_jobs());
    assert!(
        jobs.len() >= 30,
        "expected the full TSVC workload, got {} jobs",
        jobs.len()
    );

    println!(
        "== offline single-process baseline ({} jobs) ==",
        jobs.len()
    );
    let baseline = VerificationEngine::new(config.clone()).run_batch(&jobs);

    println!("== daemon + client, cold over loopback ==");
    let service = VerificationService::bind(
        "127.0.0.1:0",
        config.clone(),
        Arc::new(VerdictCache::in_memory()),
    )
    .expect("bind daemon");
    let addr = service.local_addr();
    println!(
        "daemon on {} (fingerprint {:016x})",
        addr,
        service.fingerprint()
    );
    let daemon = std::thread::spawn(move || {
        service.serve_forever().expect("serve");
        service.status()
    });
    let mut client = ServiceClient::connect(addr).expect("connect");
    let cold = client.submit(&jobs).expect("cold submit");
    assert_frames_match(&cold, &baseline, "cold service run");
    let after_cold = client.status().expect("status");
    assert_eq!(after_cold.completed, jobs.len() as u64);
    assert!(after_cold.stages > 0, "the cold run must run stages");
    println!(
        "cold: {} verdicts, {} dedupe hit(s), {} stage run(s)",
        cold.len(),
        after_cold.dedupe_hits,
        after_cold.stages
    );

    println!("== warm resubmission: all dedupe, zero stages ==");
    let mut warm_client = ServiceClient::connect(addr).expect("reconnect");
    let warm = warm_client.submit(&jobs).expect("warm submit");
    assert_frames_match(&warm, &baseline, "warm service run");
    assert!(
        warm.iter().all(|frame| frame.cache_hit),
        "a warm resubmission must be answered entirely from dedupe"
    );
    for (c, w) in cold.iter().zip(&warm) {
        assert_eq!(
            c.verdict, w.verdict,
            "warm verdict payload drifted for {}",
            c.label
        );
    }
    let after_warm = warm_client.status().expect("status");
    assert_eq!(
        after_warm.stages, after_cold.stages,
        "zero stages may run for a fully deduped batch"
    );
    assert_eq!(after_warm.completed, 2 * jobs.len() as u64);
    println!(
        "warm: {} verdicts, all dedupe; stages still {}",
        warm.len(),
        after_warm.stages
    );
    warm_client.shutdown().expect("shutdown");
    drop(client);
    let final_status = daemon.join().expect("daemon thread");
    println!(
        "daemon served {} connection(s), {} job(s)",
        final_status.connections, final_status.received
    );

    println!("service sweep acceptance: all checks passed");
}
