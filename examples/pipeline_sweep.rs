//! The overlapped-pipeline acceptance check, run by CI.
//!
//! Builds a generation grid (representative TSVC kernels × k seeded
//! completions) and checks the generation→verification pipeline's contract
//! end to end: an **overlapped** run (`overlapped_pass_at_k`: generator
//! threads streaming cells into the engine's bounded job channel) produces
//! per-job verdicts and plausible counts identical to the unoverlapped
//! `generate_then_verify_pass_at_k` reference with the same seed.
//!
//! Exits non-zero (panics) on any violation.

use llm_vectorizer_repro::agents::LlmConfig;
use llm_vectorizer_repro::cir::ast::Function;
use llm_vectorizer_repro::core::{
    generate_then_verify_pass_at_k, overlapped_pass_at_k, BatchReport, EngineConfig,
    VerificationEngine,
};
use lv_bench::{small_budget_pipeline, REPRESENTATIVE_KERNELS};

const GEN_SEED: u64 = 0xC0FFEE;
const K: usize = 4;

fn spec_kernels() -> Vec<(String, Function)> {
    REPRESENTATIVE_KERNELS
        .iter()
        .map(|name| {
            (
                name.to_string(),
                llm_vectorizer_repro::tsvc::kernel(name).unwrap().function(),
            )
        })
        .collect()
}

/// Verdict identity across pipeline arrangements: same labels in the same
/// job order, same verdict, stage, detail, and checksum class. Traces are
/// execution artifacts and are deliberately not compared.
fn assert_verdicts_match(reference: &BatchReport, candidate: &BatchReport, what: &str) {
    assert_eq!(
        reference.jobs.len(),
        candidate.jobs.len(),
        "{}: job count",
        what
    );
    for (r, c) in reference.jobs.iter().zip(&candidate.jobs) {
        assert_eq!(r.label, c.label, "{}: job order", what);
        assert_eq!(r.verdict, c.verdict, "{}: verdict for {}", what, r.label);
        assert_eq!(r.stage, c.stage, "{}: stage for {}", what, r.label);
        assert_eq!(r.detail, c.detail, "{}: detail for {}", what, r.label);
        assert_eq!(r.checksum, c.checksum, "{}: checksum for {}", what, r.label);
    }
}

fn main() {
    // Reduced solver budgets keep the sweep CI-friendly; the identity
    // contract holds for any budget.
    let config = EngineConfig::full(small_budget_pipeline());
    let kernels = spec_kernels();
    let llm_config = LlmConfig {
        seed: GEN_SEED,
        ..LlmConfig::default()
    };
    let cells = kernels.len() * K;
    let points = [1, K];

    println!("== overlapped vs generate-then-verify ({} cells) ==", cells);
    let engine = VerificationEngine::new(config);
    let reference = generate_then_verify_pass_at_k(&engine, &kernels, &llm_config, K, &points, 1);
    let overlapped = overlapped_pass_at_k(&engine, &kernels, &llm_config, K, &points, 2, 8);
    assert_verdicts_match(&reference.report, &overlapped.report, "overlapped run");
    assert_eq!(
        reference.plausible_per_kernel, overlapped.plausible_per_kernel,
        "overlap must not change plausible counts"
    );
    let plausible: usize = reference.plausible_per_kernel.iter().sum();
    assert!(
        plausible > 0 && plausible < cells,
        "degenerate workload: {}/{} plausible",
        plausible,
        cells
    );

    println!(
        "pipeline sweep: all identities hold ({} cells, k={})",
        cells, K
    );
}
