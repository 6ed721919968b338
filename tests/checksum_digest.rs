//! Pins the checksum stage bit for bit.
//!
//! Every TSVC kernel is tested against its rule-based candidate and against
//! each of the 25 seeded synthetic completions Table 2 draws (the default
//! `ExperimentConfig`'s seed and temperature, sampled in sequence). Every
//! report is folded into one FNV-1a digest: the class, the mismatch fields,
//! the reason or error text, both checksums and `trials_run`. A change to
//! the interpreter, the type checker or the harness that moves any report,
//! or any diagnostic text, moves the digest.

use llm_vectorizer_repro::agents::{sample_completion_batch, vectorize_correct, LlmConfig};
use llm_vectorizer_repro::cir::ast::Function;
use llm_vectorizer_repro::cir::{parse_function, Fnv64};
use llm_vectorizer_repro::core::ExperimentConfig;
use llm_vectorizer_repro::interp::{
    checksum_test, ChecksumConfig, ChecksumOutcome, ChecksumReport,
};
use llm_vectorizer_repro::tsvc::KERNELS;

/// The digest of every report, as the checksum stage computes them at
/// `4cadb73`.
const DIGEST: u64 = 0x9dbe_0619_1013_d775;

/// Completions per kernel: the largest `k` of the Table 2 example.
const COMPLETIONS: usize = 25;

/// Candidates for `s000` that stop on fatal undefined behaviour, which no
/// Table 2 completion does, so that every UB text is in the digest too.
const HOSTILE_S000: [&str; 5] = [
    "void s000(int n, int *a, int *b) { __m256i x = _mm256_loadu_si256((__m256i *)&b[n + 4]); _mm256_storeu_si256((__m256i *)&a[0], x); }",
    "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i + 9] = b[i] + 1; } }",
    "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] / (b[i] - b[i]); } }",
    "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] << (n - 60); } }",
    "void s000(int n, int *a, int *b) { __m256i m = _mm256_set1_epi32(-1); for (int i = 0; i < n + 8; i += 8) { _mm256_maskstore_epi32(&a[i], m, _mm256_maskload_epi32(&b[i], m)); } }",
];

fn hash_option(fnv: &mut Fnv64, value: Option<i64>) {
    match value {
        None => fnv.write_u8(0),
        Some(v) => {
            fnv.write_u8(1);
            fnv.write_i64(v);
        }
    }
}

/// Hashes one report and returns which of the four shapes it has: plausible,
/// value mismatch, refusal without a mismatch (UB or an execution error),
/// cannot compile (scalar failures share the last slot).
fn hash_report(fnv: &mut Fnv64, report: &ChecksumReport) -> usize {
    let shape = match &report.outcome {
        ChecksumOutcome::Plausible => 0,
        ChecksumOutcome::NotEquivalent {
            mismatch: Some(_), ..
        } => 1,
        ChecksumOutcome::NotEquivalent { mismatch: None, .. } => 2,
        _ => 3,
    };
    match &report.outcome {
        ChecksumOutcome::Plausible => fnv.write_u8(0),
        ChecksumOutcome::NotEquivalent { mismatch, reason } => {
            fnv.write_u8(1);
            match mismatch {
                None => fnv.write_u8(0),
                Some(m) => {
                    fnv.write_u8(1);
                    fnv.write_str(&m.array);
                    fnv.write_u64(m.index as u64);
                    fnv.write_i64(i64::from(m.expected));
                    fnv.write_i64(i64::from(m.actual));
                    fnv.write_u32(m.trial);
                }
            }
            fnv.write_str(reason);
        }
        ChecksumOutcome::CannotCompile { error } => {
            fnv.write_u8(2);
            fnv.write_str(error);
        }
        ChecksumOutcome::ScalarExecutionFailed { error } => {
            fnv.write_u8(3);
            fnv.write_str(error);
        }
    }
    hash_option(fnv, report.scalar_checksum);
    hash_option(fnv, report.vector_checksum);
    fnv.write_u32(report.trials_run);
    shape
}

#[test]
fn checksum_reports_of_every_table2_candidate_are_pinned() {
    let experiment = ExperimentConfig::default();
    let config: &ChecksumConfig = &experiment.checksum;
    let scalars: Vec<Function> = KERNELS.iter().map(|k| k.function()).collect();
    let llm = LlmConfig {
        temperature: experiment.temperature,
        seed: experiment.seed,
        ..LlmConfig::default()
    };
    let batch = sample_completion_batch(&scalars, &llm, COMPLETIONS);

    let mut fnv = Fnv64::new();
    let mut shapes = [0usize; 4];
    for (i, scalar) in scalars.iter().enumerate() {
        fnv.write_str(KERNELS[i].name);
        match vectorize_correct(scalar) {
            Ok(candidate) => {
                fnv.write_u8(1);
                shapes[hash_report(&mut fnv, &checksum_test(scalar, &candidate, config))] += 1;
            }
            Err(_) => fnv.write_u8(0),
        }
    }
    let s000 = KERNELS.iter().position(|k| k.name == "s000").unwrap();
    for source in HOSTILE_S000 {
        let candidate = parse_function(source).unwrap();
        let report = checksum_test(&scalars[s000], &candidate, config);
        shapes[hash_report(&mut fnv, &report)] += 1;
    }
    for (i, j, completion) in batch.jobs() {
        fnv.write_u64(i as u64);
        fnv.write_u64(j as u64);
        let report = checksum_test(&scalars[i], &completion.candidate, config);
        shapes[hash_report(&mut fnv, &report)] += 1;
    }

    // Every shape of report, and so every kind of diagnostic text, is in
    // the digest.
    let reports: usize = shapes.iter().sum();
    assert!(reports > KERNELS.len() * COMPLETIONS, "{shapes:?}");
    assert!(shapes.iter().all(|&n| n > 0), "{shapes:?}");
    assert_eq!(
        fnv.finish(),
        DIGEST,
        "checksum reports moved (digest {:#018x} over {reports} reports)",
        fnv.finish()
    );
}
