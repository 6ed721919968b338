//! Every symbolic counterexample replays concretely.
//!
//! A symbolic stage refutes a candidate by evaluating its verification
//! condition under seeded edge-biased assignments, or, when none falsifies
//! it, by a SAT model. Either way the counterexample is run on the scalar
//! kernel and the candidate in the interpreter, and the verdict is
//! `NotEquivalent` only when that run shows a differing output or undefined
//! behaviour in the candidate. A counterexample the run does not confirm is
//! `Inconclusive` with a "model divergence" reason.
//!
//! The job set is the streamed pass@k benchmark's (`lv_bench::passk_jobs`):
//! its ten kernels, sixteen seeded completions each, over four round seeds.

use llm_vectorizer_repro::cir::ast::Function;
use llm_vectorizer_repro::cir::parse_function;
use llm_vectorizer_repro::core::{
    BatchReport, EngineConfig, EngineReuse, Equivalence, Job, PipelineConfig, Stage,
    VerificationEngine,
};
use llm_vectorizer_repro::interp::{checksum_test, ChecksumConfig, ChecksumOutcome};
use llm_vectorizer_repro::tv::{
    replay_counterexample, ReplayFrame, SymbolicStrategy, TvConfig, TvSession, TvVerdict,
    MODEL_DIVERGENCE,
};
use lv_bench::{passk_jobs, small_budget_pipeline};

const S000: &str =
    "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }";

/// Correct except where `b[i] == 123456789`: there the mask (-1) is added
/// too, so `a[i]` gets `b[i]` instead of `b[i] + 1`.
const S000_MAGIC: &str = "void s000(int n, int *a, int *b) { int i; for (i = 0; i + 8 <= n; i += 8) { __m256i x = _mm256_loadu_si256((__m256i *)&b[i]); __m256i m = _mm256_cmpeq_epi32(x, _mm256_set1_epi32(123456789)); _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(_mm256_add_epi32(x, _mm256_set1_epi32(1)), m)); } for (; i < n; i++) { a[i] = b[i] + 1; } }";

/// Undefined where `c[i] == 0`, and where `b[i] == INT_MIN && c[i] == -1`.
const DIVIDE: &str = "void divide(int n, int *a, int *b, int *c) { for (int i = 0; i < n; i++) { a[i] = b[i] / c[i]; } }";

/// [`DIVIDE`], storing 0 where it overflows: a refinement, since the scalar
/// is undefined there.
const DIVIDE_GUARDED: &str = "void divide(int n, int *a, int *b, int *c) { for (int i = 0; i < n; i++) { if (b[i] == -2147483647 - 1 && c[i] == -1) { a[i] = 0; } else { a[i] = b[i] / c[i]; } } }";

/// Copies `b` to `a`: defined everywhere.
const COPY: &str =
    "void copy(int n, int *a, int *b, int *c) { for (int i = 0; i < n; i++) { a[i] = b[i]; } }";

/// [`COPY`], adding a division that never divides by zero but overflows
/// where `b[i] == INT_MIN` and `c[i]` is -1 or -2.
const COPY_DIVIDING: &str = "void copy(int n, int *a, int *b, int *c) { for (int i = 0; i < n; i++) { a[i] = b[i] + b[i] / (c[i] | 1) * 0; } }";

/// [`COPY`], adding a shift by an unchecked count.
const COPY_SHIFTING: &str = "void copy(int n, int *a, int *b, int *c) { for (int i = 0; i < n; i++) { a[i] = b[i] + (b[i] << c[i]) * 0; } }";

fn f(src: &str) -> Function {
    parse_function(src).unwrap()
}

/// The first conclusive verdict of the symbolic strategies in Algorithm 1
/// order, or the last strategy's verdict when none concludes.
fn first_conclusive(scalar: &Function, candidate: &Function, config: &TvConfig) -> TvVerdict {
    let mut session = TvSession::new();
    let mut verdict = TvVerdict::Inconclusive {
        reason: String::new(),
    };
    for strategy in SymbolicStrategy::ALL {
        verdict = strategy.run(scalar, candidate, config, &mut session);
        if !verdict.is_inconclusive() {
            break;
        }
    }
    verdict
}

/// Whether `detail` is rendered from a concrete run: the first differing
/// output cell, `array[index]: expected E but the vectorized code produced
/// P` (spatial splitting prefixes `lane L: `), or the candidate's undefined
/// behaviour.
fn is_replay_detail(detail: &str) -> bool {
    let detail = match detail.strip_prefix("lane ") {
        Some(rest) => match rest.split_once(": ") {
            Some((lane, rest)) if lane.parse::<usize>().is_ok() => rest,
            _ => return false,
        },
        None => detail,
    };
    if detail.starts_with("the vectorized code triggered ") {
        return detail.ends_with(" that the scalar code does not");
    }
    let Some((cell, values)) = detail.split_once("]: expected ") else {
        return false;
    };
    let Some((array, index)) = cell.split_once('[') else {
        return false;
    };
    let Some((expected, produced)) = values.split_once(" but the vectorized code produced ") else {
        return false;
    };
    !array.is_empty()
        && !array.contains(' ')
        && index.parse::<usize>().is_ok()
        && expected.parse::<i32>().is_ok()
        && produced.parse::<i32>().is_ok()
}

/// (a) Every symbolic strategy, run on every pass@k job (the candidates
/// the checksum stage refutes included, since they are the wrong ones),
/// refutes only with a counterexample that replays.
#[test]
fn every_passk_refutation_replays() {
    let config = small_budget_pipeline();
    let mut session = TvSession::new();
    let mut refuted = [0usize; 3];
    for job in passk_jobs() {
        for (s, strategy) in SymbolicStrategy::ALL.into_iter().enumerate() {
            match strategy.run(&job.scalar, &job.candidate, &config.tv, &mut session) {
                TvVerdict::NotEquivalent { counterexample } => {
                    assert!(
                        is_replay_detail(&counterexample),
                        "{} @ {:?}: {}",
                        job.label,
                        strategy,
                        counterexample
                    );
                    refuted[s] += 1;
                }
                TvVerdict::Inconclusive { reason } => assert!(
                    !reason.contains(MODEL_DIVERGENCE),
                    "{} @ {:?}: {}",
                    job.label,
                    strategy,
                    reason
                ),
                TvVerdict::Equivalent => {}
            }
        }
    }
    // Every strategy refuted candidates, so the replays above are real.
    assert!(refuted.iter().all(|&n| n > 0), "{refuted:?}");
    // No wrong candidate reached the SAT search: evaluation refuted them
    // all, and the valid conditions fold to constants.
    assert_eq!(session.stats.conflicts, 0, "{:?}", session.stats);
}

fn engine_run(jobs: &[Job], threads: usize) -> BatchReport {
    VerificationEngine::new(
        EngineConfig::full(small_budget_pipeline())
            .with_threads(threads)
            .with_reuse(EngineReuse { memo: true }),
    )
    .run_batch(jobs)
}

/// (a, d) Through the engine as the benchmark runs it, every symbolic
/// `NotEquivalent` carries a replayed detail, and every detail is
/// byte-identical at 1 and 2 workers and across runs: the assignments are
/// seeded from the query, not from time or the thread.
#[test]
fn passk_details_are_replayed_and_deterministic() {
    let jobs = passk_jobs();
    let baseline = engine_run(&jobs, 1);
    let symbolic_refutations: Vec<&str> = baseline
        .jobs
        .iter()
        .filter(|job| job.verdict == Equivalence::NotEquivalent && job.stage != Stage::Checksum)
        .map(|job| job.detail.as_str())
        .collect();
    assert!(!symbolic_refutations.is_empty());
    for detail in &symbolic_refutations {
        assert!(is_replay_detail(detail), "{}", detail);
    }
    assert!(baseline
        .jobs
        .iter()
        .all(|job| !job.detail.contains(MODEL_DIVERGENCE)));
    let verdicts = |report: &BatchReport| -> Vec<(String, Equivalence, Stage, String)> {
        report
            .jobs
            .iter()
            .map(|job| {
                (
                    job.label.clone(),
                    job.verdict,
                    job.stage,
                    job.detail.clone(),
                )
            })
            .collect()
    };
    let expected = verdicts(&baseline);
    for (threads, run) in [(2, 1), (2, 2), (1, 2)] {
        assert_eq!(
            verdicts(&engine_run(&jobs, threads)),
            expected,
            "{threads} workers, run {run}"
        );
    }
}

/// (b) A candidate wrong at one magic input passes the checksum stage, no
/// edge-biased assignment hits the input, and the SAT model that does
/// replays at the cell where it sets it.
#[test]
fn a_magic_input_bug_is_found_by_sat_and_replays() {
    let (scalar, magic) = (f(S000), f(S000_MAGIC));
    for config in [ChecksumConfig::default(), small_budget_pipeline().checksum] {
        let report = checksum_test(&scalar, &magic, &config);
        assert_eq!(report.outcome, ChecksumOutcome::Plausible);
    }
    let config = TvConfig {
        alive2_chunks: 1,
        ..TvConfig::default()
    };
    let mut session = TvSession::new();
    let verdict = SymbolicStrategy::Alive2Unroll.run(&scalar, &magic, &config, &mut session);
    // Only a condition no assignment falsifies is bit-blasted.
    assert!(session.stats.clauses > 0, "{:?}", session.stats);
    let TvVerdict::NotEquivalent { counterexample } = verdict else {
        panic!("{:?}", verdict);
    };
    assert!(
        counterexample.starts_with("a[")
            && counterexample
                .ends_with("]: expected 123456790 but the vectorized code produced 123456789"),
        "{}",
        counterexample
    );

    // The engine reports the same replayed detail at the Alive2 stage.
    let report = VerificationEngine::new(EngineConfig::full(PipelineConfig {
        tv: config,
        ..PipelineConfig::default()
    }))
    .check_one(&scalar, &magic);
    assert_eq!(
        (report.verdict, report.stage, report.detail),
        (Equivalence::NotEquivalent, Stage::Alive2, counterexample)
    );
}

/// (c) A model that does not distinguish the kernels is a divergence, not
/// a refutation.
#[test]
fn a_wrong_model_is_a_model_divergence() {
    let (scalar, magic) = (f(S000), f(S000_MAGIC));
    let frame = ReplayFrame {
        n: 8,
        array_len: 16,
        cell: None,
    };
    match replay_counterexample(&scalar, &magic, &frame, &|_| 0) {
        TvVerdict::Inconclusive { reason } => {
            assert!(reason.starts_with(MODEL_DIVERGENCE), "{}", reason)
        }
        other => panic!("{:?}", other),
    }
    // The same frame with the magic input in cell 5 replays.
    let magic_at_5 = |name: &str| match name {
        "b!5" => 123_456_789,
        _ => 0,
    };
    assert_eq!(
        replay_counterexample(&scalar, &magic, &frame, &magic_at_5),
        TvVerdict::NotEquivalent {
            counterexample: "a[5]: expected 123456790 but the vectorized code produced 123456789"
                .to_string()
        }
    );
}

/// (e) The symbolic executor records the undefined behaviour the
/// interpreter stops on. A candidate defined where the scalar overflows is
/// a refinement: `Equivalent`, with no stage reporting a model divergence.
#[test]
fn a_candidate_defined_where_the_scalar_overflows_is_equivalent() {
    let (scalar, candidate) = (f(DIVIDE), f(DIVIDE_GUARDED));
    let config = small_budget_pipeline().tv;
    let mut session = TvSession::new();
    for strategy in SymbolicStrategy::ALL {
        let verdict = strategy.run(&scalar, &candidate, &config, &mut session);
        match &verdict {
            TvVerdict::Equivalent => {}
            TvVerdict::Inconclusive { reason } => {
                assert!(
                    !reason.contains(MODEL_DIVERGENCE),
                    "{:?}: {}",
                    strategy,
                    reason
                )
            }
            TvVerdict::NotEquivalent { .. } => panic!("{:?}: {:?}", strategy, verdict),
        }
    }
    assert_eq!(
        first_conclusive(&scalar, &candidate, &config),
        TvVerdict::Equivalent
    );
}

/// (e) A candidate that adds undefined behaviour the scalar does not have
/// is refuted, and the refutation replays as the candidate's undefined
/// behaviour.
#[test]
fn a_candidate_adding_overflow_or_a_wild_shift_is_not_equivalent() {
    let config = small_budget_pipeline().tv;
    for (candidate, ub) in [
        (COPY_DIVIDING, "INT_MIN division overflow"),
        (COPY_SHIFTING, "shift amount out of range"),
    ] {
        let verdict = first_conclusive(&f(COPY), &f(candidate), &config);
        let TvVerdict::NotEquivalent { counterexample } = verdict else {
            panic!("{}: {:?}", candidate, verdict);
        };
        assert!(is_replay_detail(&counterexample), "{}", counterexample);
        assert!(counterexample.contains(ub), "{}", counterexample);
    }
}
