//! The overlapped generation→verification pipeline must be an
//! observationally pure speed-up: per-cell seeded generation is a pure
//! function of `(base seed, kernel index, completion index)` — injective
//! across cells, platform-stable, and identical at any generator thread
//! count — and streaming jobs into the engine as they are produced yields a
//! `BatchReport` bit-identical to running the precomputed job list, at any
//! worker count.

use llm_vectorizer_repro::agents::{derive_cell_seed, LlmConfig};
use llm_vectorizer_repro::cir::ast::Function;
use llm_vectorizer_repro::cir::print_function;
use llm_vectorizer_repro::core::{
    generate_then_verify_pass_at_k, job_channel, overlapped_pass_at_k, seeded_jobs, BatchReport,
    EngineConfig, PassKRun, VerificationEngine,
};
use llm_vectorizer_repro::tsvc::kernel;
use lv_bench::small_budget_pipeline;
use proptest::prelude::*;
use std::time::Duration;

/// A small kernel slice with a mix of verdict outcomes under the synthetic
/// LLM: straight-line, reduction, and control-flow categories.
fn pipeline_kernels() -> Vec<(String, Function)> {
    ["s000", "s112", "vsumr"]
        .iter()
        .map(|name| (name.to_string(), kernel(name).unwrap().function()))
        .collect()
}

/// The observable outcome of one job, excluding wall times (which may vary
/// run to run) — everything the pipeline identity claims cover.
fn outcomes(report: &BatchReport) -> Vec<(String, String)> {
    report
        .jobs
        .iter()
        .map(|job| {
            (
                job.label.clone(),
                format!(
                    "{:?}|{:?}|{:?}|{}|{}",
                    job.verdict, job.stage, job.checksum, job.detail, job.cache_hit
                ),
            )
        })
        .collect()
}

fn assert_same_run(reference: &PassKRun, candidate: &PassKRun, what: &str) {
    assert_eq!(
        outcomes(&reference.report),
        outcomes(&candidate.report),
        "job outcomes diverged: {}",
        what
    );
    assert_eq!(
        reference.plausible_per_kernel, candidate.plausible_per_kernel,
        "plausible counts diverged: {}",
        what
    );
    assert_eq!(reference.curve, candidate.curve, "curve diverged: {}", what);
}

/// `derive_cell_seed` must reproduce these exact values on every platform —
/// the seeds (and therefore every generated candidate, in process or
/// submitted to a daemon) are part of the cross-process contract.
#[test]
fn cell_seed_golden_values_are_platform_stable() {
    for (base, i, j, expected) in [
        (0x0, 0, 0, 0x48218226FF3CD4BF),
        (0x0, 0, 1, 0x9E0160293A33AAF7),
        (0x0, 1, 0, 0x16AD48B0285970E5),
        (0xC0FFEE, 0, 0, 0xDFFD7DC90F638802),
        (0xC0FFEE, 3, 7, 0x69527716C97060AA),
        (0xDEADBEEF, 12, 34, 0x8493487671FD4D7B),
    ] {
        assert_eq!(
            derive_cell_seed(base, i, j),
            expected,
            "derive_cell_seed(0x{:X}, {}, {})",
            base,
            i,
            j
        );
    }
}

/// Seeded generation is a pure function of the seed: one, two, and eight
/// generator threads produce the identical job list.
#[test]
fn seeded_generation_is_identical_at_gen_thread_counts_1_2_8() {
    let kernels = pipeline_kernels();
    let config = LlmConfig {
        seed: 0xC0FFEE,
        ..LlmConfig::default()
    };
    let texts = |threads: usize| -> Vec<String> {
        seeded_jobs(&kernels, &config, 5, threads)
            .iter()
            .map(|job| format!("{}\n{}", job.label, print_function(&job.candidate)))
            .collect()
    };
    let reference = texts(1);
    assert_eq!(reference, texts(2), "2 generator threads diverged");
    assert_eq!(reference, texts(8), "8 generator threads diverged");
}

/// A producer that trickles jobs into the channel — stalling between pushes
/// so workers repeatedly drain the queue dry and block — still yields a
/// `BatchReport` identical to `run_batch` on the precomputed job list, at
/// worker counts 1, 2, and 8.
#[test]
fn delayed_producer_stream_matches_precomputed_batch_at_worker_counts_1_2_8() {
    let kernels = pipeline_kernels();
    let config = LlmConfig {
        seed: 7,
        ..LlmConfig::default()
    };
    let jobs = seeded_jobs(&kernels, &config, 3, 1);

    for workers in [1, 2, 8] {
        let engine = VerificationEngine::new(
            EngineConfig::full(small_budget_pipeline()).with_threads(workers),
        );
        let reference = engine.run_batch(&jobs);
        let (producer, source) = job_channel(2);
        let streamed = std::thread::scope(|scope| {
            scope.spawn(|| {
                for (index, job) in jobs.iter().enumerate() {
                    std::thread::sleep(Duration::from_millis(1));
                    producer.push(index, job.clone());
                }
                drop(producer);
            });
            engine.run_stream(&source)
        });
        assert_eq!(
            outcomes(&reference),
            outcomes(&streamed),
            "streamed report diverged from batch at {} workers",
            workers
        );
    }
}

/// The tentpole pin: the overlapped pipeline is bit-identical to
/// generate-then-verify with the same seed, across worker counts 1/2/8 and
/// generator thread counts 1/2/8.
#[test]
fn overlapped_pipeline_matches_generate_then_verify_at_thread_counts_1_2_8() {
    let kernels = pipeline_kernels();
    let config = LlmConfig {
        seed: 0xC0FFEE,
        ..LlmConfig::default()
    };
    let k = 4;
    let ks = [1, 2, 4];

    let reference_engine =
        VerificationEngine::new(EngineConfig::full(small_budget_pipeline()).with_threads(1));
    let reference = generate_then_verify_pass_at_k(&reference_engine, &kernels, &config, k, &ks, 1);
    assert!(
        reference.plausible_per_kernel.iter().any(|&c| c > 0),
        "degenerate pin: no plausible candidates at all"
    );

    for workers in [1, 2, 8] {
        let engine = VerificationEngine::new(
            EngineConfig::full(small_budget_pipeline()).with_threads(workers),
        );
        for gen_threads in [1, 2, 8] {
            let overlapped =
                overlapped_pass_at_k(&engine, &kernels, &config, k, &ks, gen_threads, 2);
            assert_same_run(
                &reference,
                &overlapped,
                &format!("{} workers, {} generator threads", workers, gen_threads),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// For any base seed, distinct `(kernel, completion)` cells derive
    /// distinct seeds — the packing is injective and the SplitMix64
    /// finalizer is a bijection, so candidate streams never alias.
    #[test]
    fn cell_seed_derivation_is_injective(
        base in any::<u64>(),
        i1 in 0usize..1 << 20,
        j1 in 0usize..1 << 20,
        i2 in 0usize..1 << 20,
        j2 in 0usize..1 << 20,
    ) {
        // The shim has no prop_assume; identical cells are simply vacuous.
        if (i1, j1) != (i2, j2) {
            prop_assert_ne!(
                derive_cell_seed(base, i1, j1),
                derive_cell_seed(base, i2, j2),
                "cells ({}, {}) and ({}, {}) collided under base {:#x}",
                i1, j1, i2, j2, base
            );
        }
    }
}
