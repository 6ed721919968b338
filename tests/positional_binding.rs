//! Positional binding, end to end.
//!
//! Every stage binds a candidate's parameters to the scalar kernel's by
//! position, as a C call does. Under the earlier name binding, a candidate
//! that renamed its arrays ran on arrays of its own and a candidate that
//! reordered them read the scalar's inputs under the wrong names; both
//! wrong candidates below verified `Equivalent @ Alive2`.
//!
//! The checksum stage shares each scalar's half of the test across
//! candidates through one [`ReferenceTable`]; every report it gives must be
//! the report the one-shot [`checksum_test`] gives.

use llm_vectorizer_repro::agents::{
    sample_completion_batch, sample_completion_cell, vectorize_correct, LlmConfig,
};
use llm_vectorizer_repro::cir::ast::Function;
use llm_vectorizer_repro::cir::parse_function;
use llm_vectorizer_repro::core::{
    check_equivalence, Equivalence, ExperimentConfig, PipelineConfig, ReferenceTable, Stage,
};
use llm_vectorizer_repro::interp::{checksum_test, ChecksumConfig, ChecksumOutcome};
use llm_vectorizer_repro::tsvc::{kernel, KERNELS};

const S000: &str =
    "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }";

fn f(src: &str) -> Function {
    parse_function(src).unwrap()
}

fn verdict(candidate: &str) -> (Equivalence, Stage, String) {
    let report = check_equivalence(&f(S000), &f(candidate), &PipelineConfig::default());
    (report.verdict, report.stage, report.detail)
}

#[test]
fn renamed_or_reordered_wrong_candidates_are_not_equivalent() {
    // Renamed arrays and the wrong constant.
    let (renamed, _, detail) = verdict(
        "void s000(int n, int *x, int *y) { for (int i = 0; i < n; i++) { x[i] = y[i] + 2; } }",
    );
    assert_eq!(renamed, Equivalence::NotEquivalent, "{detail}");
    // The scalar's own body with its arrays swapped in the signature: by
    // position it writes the caller's `b` from the caller's `a`.
    let (reordered, _, detail) = verdict(
        "void s000(int n, int *b, int *a) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }",
    );
    assert_eq!(reordered, Equivalence::NotEquivalent, "{detail}");
}

#[test]
fn a_renamed_correct_candidate_is_equivalent() {
    let (renamed, stage, detail) = verdict(
        "void s000(int n, int *x, int *y) { for (int i = 0; i < n; i++) { x[i] = y[i] + 1; } }",
    );
    assert_eq!(renamed, Equivalence::Equivalent, "{detail}");
    assert_ne!(stage, Stage::Checksum);
}

#[test]
fn arity_and_parameter_type_mismatches_cannot_compile() {
    let scalar = f(S000);
    let config = ChecksumConfig::default();
    let cases = [
        (
            "void s000(int n, int *a) { for (int i = 0; i < n; i++) { a[i] = a[i] + 1; } }",
            "the candidate takes 2 parameters but the scalar kernel takes 3",
        ),
        (
            "void s000(int n, int *a, int *b, int *c) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }",
            "the candidate takes 4 parameters but the scalar kernel takes 3",
        ),
        (
            "void s000(int *a, int n, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }",
            "parameter 1 `a` has type int * but parameter 1 `n` of the scalar kernel has type int",
        ),
        (
            "void s000(int n, int *a, int b) { for (int i = 0; i < n; i++) { a[i] = b + 1; } }",
            "parameter 3 `b` has type int but parameter 3 `b` of the scalar kernel has type int *",
        ),
    ];
    for (source, diagnostic) in cases {
        let candidate = f(source);
        let report = checksum_test(&scalar, &candidate, &config);
        match &report.outcome {
            ChecksumOutcome::CannotCompile { error } => assert_eq!(error, diagnostic),
            other => panic!("{source}: expected CannotCompile, got {other:?}"),
        }
        assert_eq!(report.trials_run, 0);
        // The engine reports it the way it reports a type error.
        let engine = check_equivalence(&scalar, &candidate, &PipelineConfig::default());
        assert_eq!(
            (engine.verdict, engine.stage, engine.detail),
            (
                Equivalence::NotEquivalent,
                Stage::Checksum,
                format!("cannot compile: {diagnostic}")
            )
        );
    }
}

/// Every `(scalar, candidate)` pair through one shared table must report
/// exactly what the one-shot harness reports.
fn assert_shared_table_reports_match(pairs: &[(&Function, &Function)], config: &ChecksumConfig) {
    let table = ReferenceTable::new();
    let fingerprint = config.fingerprint();
    for (scalar, candidate) in pairs {
        let shared = table.reference(scalar, config, fingerprint).test(candidate);
        let one_shot = checksum_test(scalar, candidate, config);
        assert_eq!(
            format!("{shared:?}"),
            format!("{one_shot:?}"),
            "{} against {}",
            candidate.name,
            scalar.name
        );
    }
}

#[test]
fn a_shared_reference_table_reports_what_checksum_test_reports() {
    // The Table 2 population: every kernel's rule-based candidate and its
    // 25 seeded completions, plus the hostile `s000` candidates that stop
    // on undefined behaviour.
    let experiment = ExperimentConfig::default();
    let scalars: Vec<Function> = KERNELS.iter().map(|k| k.function()).collect();
    let llm = LlmConfig {
        temperature: experiment.temperature,
        seed: experiment.seed,
        ..LlmConfig::default()
    };
    let batch = sample_completion_batch(&scalars, &llm, 25);
    let rules: Vec<(usize, Function)> = scalars
        .iter()
        .enumerate()
        .filter_map(|(i, s)| vectorize_correct(s).ok().map(|c| (i, c)))
        .collect();
    let s000 = KERNELS.iter().position(|k| k.name == "s000").unwrap();
    let hostile: Vec<Function> = [
        "void s000(int n, int *a, int *b) { __m256i x = _mm256_loadu_si256((__m256i *)&b[n + 4]); _mm256_storeu_si256((__m256i *)&a[0], x); }",
        "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i + 9] = b[i] + 1; } }",
        "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] / (b[i] - b[i]); } }",
    ]
    .iter()
    .map(|s| f(s))
    .collect();
    let mut table2: Vec<(&Function, &Function)> =
        rules.iter().map(|(i, c)| (&scalars[*i], c)).collect();
    table2.extend(hostile.iter().map(|c| (&scalars[s000], c)));
    table2.extend(
        batch
            .jobs()
            .map(|(i, _, completion)| (&scalars[i], &completion.candidate)),
    );
    assert!(table2.len() > 1_600, "{} pairs", table2.len());

    // One pass@k round as the streamed benchmark draws it: ten kernels,
    // sixteen completions each.
    let passk_kernels = [
        "s000", "s112", "s212", "s221", "s314", "s3113", "s278", "vsumr", "s3111", "s453",
    ];
    let passk_scalars: Vec<Function> = passk_kernels
        .iter()
        .map(|name| kernel(name).unwrap().function())
        .collect();
    let passk_llm = LlmConfig::default();
    let passk_candidates: Vec<(usize, Function)> = (0..passk_scalars.len())
        .flat_map(|i| (0..16).map(move |j| (i, j)))
        .map(|(i, j)| {
            let completion = sample_completion_cell(&passk_scalars[i], &passk_llm, i, j);
            (i, completion.candidate)
        })
        .collect();
    let passk: Vec<(&Function, &Function)> = passk_candidates
        .iter()
        .map(|(i, c)| (&passk_scalars[*i], c))
        .collect();

    for trials in [1, 3] {
        let table2_config = ChecksumConfig {
            trials,
            ..experiment.checksum.clone()
        };
        assert_shared_table_reports_match(&table2, &table2_config);
        let passk_config = ChecksumConfig {
            trials,
            n: 40,
            ..ChecksumConfig::default()
        };
        assert_shared_table_reports_match(&passk, &passk_config);
    }
}
