//! # lv-bench — benchmark support code
//!
//! The Criterion benchmarks in `benches/` regenerate every table and figure
//! of the paper; since the experiment drivers run on `lv_core`'s parallel
//! [`VerificationEngine`](lv_core::VerificationEngine), every bench
//! exercises the same batched code path as the tables. This small library
//! holds the shared configuration so all benches run on the same kernel
//! subset and random seed, plus the job-list builders for the engine sweep
//! benches, the sweep examples and the integration tests.

#![warn(missing_docs)]

use lv_agents::{derive_cell_seed, sample_completion_cell, LlmConfig};
use lv_core::{ExperimentConfig, Job, PipelineConfig};
use lv_interp::ChecksumConfig;
use lv_tv::{SolverBudget, TvConfig};

/// A reduced-cost experiment configuration used inside the timed benchmark
/// loops (the full-suite runs are done once, outside the measurement).
pub fn quick_config(kernels: &[&str]) -> ExperimentConfig {
    ExperimentConfig {
        kernel_names: Some(kernels.iter().map(|s| s.to_string()).collect()),
        checksum: ChecksumConfig {
            trials: 1,
            n: 40,
            ..ChecksumConfig::default()
        },
        ..ExperimentConfig::default()
    }
}

/// The full-suite configuration used to print the paper-shaped tables.
pub fn full_config() -> ExperimentConfig {
    ExperimentConfig::default()
}

/// A representative kernel subset covering every category; used by the timed
/// benchmark loops to keep wall-clock time reasonable.
pub const REPRESENTATIVE_KERNELS: &[&str] = &[
    "s000", "s112", "s212", "s221", "s2711", "s274", "s278", "vsumr", "s3111", "s453",
];

/// A [`TvConfig`] with reduced solver budgets and a one-chunk window, so a
/// full-suite symbolic sweep finishes in benchmark-friendly time while still
/// exercising every cascade stage.
pub fn sweep_tv_config() -> TvConfig {
    TvConfig {
        alive2_budget: SolverBudget {
            max_conflicts: 5_000,
            max_clauses: 200_000,
        },
        cunroll_budget: SolverBudget {
            max_conflicts: 50_000,
            max_clauses: 1_000_000,
        },
        spatial_budget: SolverBudget {
            max_conflicts: 20_000,
            max_clauses: 500_000,
        },
        alive2_chunks: 1,
        ..TvConfig::default()
    }
}

/// A pipeline for tests and examples that sweep many jobs: one checksum
/// trial at `n` = 40, solver budgets of 1,000/10,000/4,000 conflicts and
/// 200,000/1,000,000/500,000 clauses for Alive2/C-unroll/splitting, and a
/// one-chunk Alive2 window. It still reaches every cascade stage.
pub fn small_budget_pipeline() -> PipelineConfig {
    PipelineConfig {
        checksum: ChecksumConfig {
            trials: 1,
            n: 40,
            ..ChecksumConfig::default()
        },
        tv: TvConfig {
            alive2_budget: SolverBudget {
                max_conflicts: 1_000,
                max_clauses: 200_000,
            },
            cunroll_budget: SolverBudget {
                max_conflicts: 10_000,
                max_clauses: 1_000_000,
            },
            spatial_budget: SolverBudget {
                max_conflicts: 4_000,
                max_clauses: 500_000,
            },
            alive2_chunks: 1,
            ..TvConfig::default()
        },
    }
}

/// The streamed pass@k benchmark's jobs: its ten kernels in TSVC order, 16
/// seeded completions each, over four rounds. Round 0 samples with the
/// synthetic model's default seed and round `r` with
/// `derive_cell_seed(seed, 0xFFFF_FFFF, r)`. Labels are `name#round.j`.
pub fn passk_jobs() -> Vec<Job> {
    const PASSK_KERNELS: &[&str] = &[
        "s000", "s112", "s212", "s221", "s314", "s3113", "s278", "vsumr", "s3111", "s453",
    ];
    const K: usize = 16;
    const ROUNDS: usize = 4;
    let seed = LlmConfig::default().seed;
    let kernels: Vec<(&str, lv_cir::ast::Function)> = lv_tsvc::KERNELS
        .iter()
        .filter(|kernel| PASSK_KERNELS.contains(&kernel.name))
        .map(|kernel| (kernel.name, kernel.function()))
        .collect();
    assert_eq!(kernels.len(), PASSK_KERNELS.len());
    let mut jobs = Vec::new();
    for round in 0..ROUNDS {
        let llm = LlmConfig {
            seed: match round {
                0 => seed,
                _ => derive_cell_seed(seed, 0xFFFF_FFFF, round),
            },
            ..LlmConfig::default()
        };
        for (i, (name, scalar)) in kernels.iter().enumerate() {
            for j in 0..K {
                let completion = sample_completion_cell(scalar, &llm, i, j);
                jobs.push(Job::new(
                    format!("{name}#{round}.{j}"),
                    scalar.clone(),
                    completion.candidate,
                ));
            }
        }
    }
    jobs
}

/// One verification job per TSVC kernel the rule-based vectorizer supports:
/// the correct candidate, so the whole cascade (not just the checksum
/// filter) is exercised. This is the workload of the engine sweep bench and
/// of the engine-vs-sequential equivalence tests.
pub fn sweep_jobs() -> Vec<Job> {
    lv_tsvc::KERNELS
        .iter()
        .filter_map(|kernel| {
            let scalar = kernel.function();
            let candidate = lv_agents::vectorize_correct(&scalar).ok()?;
            Some(Job::new(kernel.name, scalar, candidate))
        })
        .collect()
}

/// Correct conditional candidates that select with bitwise operations
/// instead of a blend: `vif` as `or(and(b, m), andnot(m, a))` or as
/// `xor(a, and(xor(a, b), m))`, and `s271` as the first form over
/// `a + b * c`. No term rewrite turns these into the scalar kernel's `ite`,
/// so under 1,000/10,000-conflict Alive2/C-unroll budgets their Alive2
/// attempt stops at its budget and C-unroll, which builds the identical
/// instance, searches it afresh and concludes (at 1,024, 1,511 and 1,032
/// conflicts).
pub fn bitwise_select_jobs() -> Vec<Job> {
    let vector = |name: &str, params: &str, body: &str| {
        lv_cir::parse_function(&format!(
            "void {name}({params}) {{ int i; for (i = 0; i + 8 <= n; i += 8) {{ \
             __m256i av = _mm256_loadu_si256((__m256i *)&a[i]); \
             __m256i bv = _mm256_loadu_si256((__m256i *)&b[i]); \
             __m256i m = _mm256_cmpgt_epi32(bv, _mm256_setzero_si256()); {body} }} }}"
        ))
        .expect("candidate parses")
    };
    let kernel = |name: &str| lv_tsvc::kernel(name).expect("known kernel").function();
    let store_or = "_mm256_storeu_si256((__m256i *)&a[i], \
                    _mm256_or_si256(_mm256_and_si256(s, m), _mm256_andnot_si256(m, av)));";
    vec![
        Job::new(
            "vif#or",
            kernel("vif"),
            vector(
                "vif",
                "int n, int *a, int *b",
                &format!("__m256i s = bv; {store_or}"),
            ),
        ),
        Job::new(
            "vif#xor",
            kernel("vif"),
            vector(
                "vif",
                "int n, int *a, int *b",
                "_mm256_storeu_si256((__m256i *)&a[i], \
                 _mm256_xor_si256(av, _mm256_and_si256(_mm256_xor_si256(av, bv), m)));",
            ),
        ),
        Job::new(
            "s271#or",
            kernel("s271"),
            vector(
                "s271",
                "int n, int *a, int *b, int *c",
                &format!(
                    "__m256i cv = _mm256_loadu_si256((__m256i *)&c[i]); \
                     __m256i s = _mm256_add_epi32(av, _mm256_mullo_epi32(bv, cv)); {store_or}"
                ),
            ),
        ),
    ]
}
