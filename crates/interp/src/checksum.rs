//! Checksum-based testing (Section 2.1 of the paper).
//!
//! The harness initializes the input arrays randomly, executes the scalar
//! function and the vectorized candidate on identical copies of the inputs,
//! and compares the outputs. A candidate that fails to type check, or whose
//! parameter list differs from the scalar's in length or in any parameter's
//! type, is `CannotCompile`; a candidate whose outputs differ on any trial
//! is `NotEquivalent`; otherwise it is `Plausible` — the same three-way
//! classification as Table 2.
//!
//! # Binding
//!
//! Arguments bind by parameter position, as a C call does: the candidate's
//! `i`-th parameter receives the scalar's `i`-th input, whatever either
//! function calls it, and output array `k` of the candidate is compared
//! with output array `k` of the scalar. Inputs are seeded from the scalar's
//! parameter list alone.
//!
//! # Reference and test
//!
//! The scalar half of a test depends only on the scalar and the
//! configuration, so it is split out: [`ScalarReference::new`] draws every
//! trial's inputs and runs the scalar on them once, and
//! [`ScalarReference::test`] runs one candidate against those recorded
//! inputs and outputs. Testing many candidates of one kernel (pass@k)
//! builds one reference and calls `test` once per candidate.
//! [`checksum_test`] is the one-shot composition of the two, so a shared
//! reference reports exactly what a reference built per candidate would.

use crate::error::ExecError;
use crate::exec::{run_function, Arg, ArgBindings, ExecConfig};
use lv_cir::ast::{Function, Type};
use lv_cir::typecheck::check_types;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Configuration for the checksum harness.
#[derive(Debug, Clone)]
pub struct ChecksumConfig {
    /// The loop upper bound supplied for every scalar `int` parameter.
    /// Deliberately *not* a multiple of the vector width so that missing
    /// scalar epilogues are caught.
    pub n: i32,
    /// Number of random trials with different array contents.
    pub trials: u32,
    /// RNG seed, so experiments are reproducible.
    pub seed: u64,
}

/// Extra elements allocated past `n` in every array. The slack is
/// initialized identically for both runs and compared afterwards, so a
/// candidate that overruns the logical length is caught either by the
/// comparison or by the out-of-bounds detector.
const SLACK: usize = 8;

/// Range of random initial values, inclusive of the endpoints.
const VALUE_RANGE: (i32, i32) = (-100, 100);

impl Default for ChecksumConfig {
    fn default() -> Self {
        ChecksumConfig {
            n: 100,
            trials: 3,
            seed: 0x5eed,
        }
    }
}

impl ChecksumConfig {
    /// A stable 64-bit fingerprint of everything that can influence an
    /// outcome — the configured fields, the slack, the value range and the
    /// interpreter's step limit — folded into the engine-configuration hash
    /// that keys the persistent verdict cache.
    pub fn fingerprint(&self) -> u64 {
        let mut fnv = lv_cir::Fnv64::new();
        fnv.write_i64(i64::from(self.n));
        fnv.write_u64(u64::from(self.trials));
        fnv.write_u64(self.seed);
        fnv.write_u64(SLACK as u64);
        fnv.write_i64(i64::from(VALUE_RANGE.0));
        fnv.write_i64(i64::from(VALUE_RANGE.1));
        fnv.write_u64(ExecConfig::default().max_steps);
        fnv.finish()
    }
}

/// Why a pair of programs was found not equivalent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Which array differs.
    pub array: String,
    /// First differing index.
    pub index: usize,
    /// Value produced by the scalar (reference) program.
    pub expected: i32,
    /// Value produced by the vectorized candidate.
    pub actual: i32,
    /// Trial number (0-based) on which the mismatch was found.
    pub trial: u32,
}

impl fmt::Display for Mismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: expected {} but the vectorized code produced {} (trial {})",
            self.array, self.index, self.expected, self.actual, self.trial
        )
    }
}

/// The outcome of checksum-based testing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChecksumOutcome {
    /// All trials produced identical outputs; the candidate is possibly
    /// correct and proceeds to symbolic verification.
    Plausible,
    /// Outputs differed, or the candidate hit fatal UB that the scalar
    /// program did not.
    NotEquivalent {
        /// First mismatch found, if the difference was a value difference.
        mismatch: Option<Mismatch>,
        /// Human-readable description (also used as agent feedback).
        reason: String,
    },
    /// The candidate does not type check ("cannot compile").
    CannotCompile {
        /// The compiler-style diagnostic.
        error: String,
    },
    /// The *scalar* program itself failed to execute; the test is unusable.
    ScalarExecutionFailed {
        /// The interpreter error.
        error: String,
    },
}

impl ChecksumOutcome {
    /// Returns `true` for the `Plausible` outcome.
    pub fn is_plausible(&self) -> bool {
        matches!(self, ChecksumOutcome::Plausible)
    }

    /// The payload-free classification of this outcome.
    pub fn class(&self) -> ChecksumClass {
        match self {
            ChecksumOutcome::Plausible => ChecksumClass::Plausible,
            ChecksumOutcome::NotEquivalent { .. } => ChecksumClass::NotEquivalent,
            ChecksumOutcome::CannotCompile { .. } => ChecksumClass::CannotCompile,
            ChecksumOutcome::ScalarExecutionFailed { .. } => ChecksumClass::ScalarFailed,
        }
    }
}

/// The four-way classification of a checksum run without its payload —
/// what Table 2 counts and what the batch engine records per job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChecksumClass {
    /// All trials agreed; the candidate proceeds to symbolic verification.
    Plausible,
    /// A trial refuted the candidate.
    NotEquivalent,
    /// The candidate failed to type check.
    CannotCompile,
    /// The scalar reference itself failed, so the test says nothing.
    ScalarFailed,
}

/// The full report of a checksum run, including the checksums themselves
/// (sums over the output arrays, which is what the TSVC harness prints).
#[derive(Debug, Clone)]
pub struct ChecksumReport {
    /// Classification of the candidate.
    pub outcome: ChecksumOutcome,
    /// Checksum (wrapping sum of all output array elements) of the scalar
    /// program on the last trial, when it ran successfully.
    pub scalar_checksum: Option<i64>,
    /// Checksum of the candidate on the last trial, when it ran successfully.
    pub vector_checksum: Option<i64>,
    /// Number of trials executed.
    pub trials_run: u32,
}

/// Runs checksum-based testing of `vectorized` against the reference
/// `scalar` kernel: [`ScalarReference::new`] followed by
/// [`ScalarReference::test`].
///
/// Arguments bind by position (see the module docs), so a candidate whose
/// parameter list differs from the scalar's in length or in a parameter's
/// type is `CannotCompile`.
pub fn checksum_test(
    scalar: &Function,
    vectorized: &Function,
    config: &ChecksumConfig,
) -> ChecksumReport {
    ScalarReference::new(scalar, config).test(vectorized)
}

/// The scalar half of checksum testing: the seeded inputs of every trial
/// and the scalar kernel's outputs on them, computed once and shared by
/// every candidate tested against the same scalar under the same
/// configuration.
///
/// Trials stop at the first one the scalar fails to execute; the reference
/// then holds the trials before it and the interpreter's error.
#[derive(Debug, Clone)]
pub struct ScalarReference {
    scalar: Function,
    /// The trials the scalar completed, in order.
    trials: Vec<ReferenceTrial>,
    /// The scalar's error on the trial after the completed ones, if any.
    failure: Option<String>,
    /// The configured number of trials.
    planned: u32,
    /// Array positions in comparison order: sorted by the scalar's parameter
    /// names, the order that decides which mismatch a report names first.
    compare_order: Vec<usize>,
}

/// One completed trial of a [`ScalarReference`].
#[derive(Debug, Clone)]
struct ReferenceTrial {
    inputs: ArgBindings,
    /// The scalar's final arrays, by array position.
    outputs: Vec<Vec<i32>>,
    /// Wrapping sum of `outputs`.
    checksum: i64,
}

impl ScalarReference {
    /// Draws the inputs of every trial from `config` and runs `scalar` on
    /// them.
    pub fn new(scalar: &Function, config: &ChecksumConfig) -> ScalarReference {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut trials = Vec::with_capacity(config.trials as usize);
        let mut failure = None;
        for _ in 0..config.trials {
            let inputs = random_bindings(scalar, config, &mut rng);
            match run_function(scalar, &inputs, &ExecConfig::default()) {
                Ok(result) => trials.push(ReferenceTrial {
                    checksum: checksum_of(&result.arrays),
                    outputs: result.arrays,
                    inputs,
                }),
                Err(err) => {
                    failure = Some(err.to_string());
                    break;
                }
            }
        }
        let names = scalar.array_params();
        let mut compare_order: Vec<usize> = (0..names.len()).collect();
        compare_order.sort_by_key(|&k| names[k]);
        ScalarReference {
            scalar: scalar.clone(),
            trials,
            failure,
            planned: config.trials,
            compare_order,
        }
    }

    /// The scalar kernel this reference was built from.
    pub fn scalar(&self) -> &Function {
        &self.scalar
    }

    /// Tests `candidate` against the recorded trials.
    pub fn test(&self, candidate: &Function) -> ChecksumReport {
        // "Compilation" of the candidate: it must type check and take the
        // scalar's parameter types in the scalar's order.
        if let Err(error) = check_types(candidate)
            .map_err(|err| err.to_string())
            .and_then(|()| self.check_signature(candidate))
        {
            return ChecksumReport {
                outcome: ChecksumOutcome::CannotCompile { error },
                scalar_checksum: None,
                vector_checksum: None,
                trials_run: 0,
            };
        }

        let exec = ExecConfig::default();
        let mut scalar_checksum = None;
        let mut vector_checksum = None;
        for (trial, reference) in (0u32..).zip(&self.trials) {
            let result = match run_function(candidate, &reference.inputs, &exec) {
                Ok(r) => r,
                Err(err) => {
                    let reason = match &err {
                        ExecError::Ub(event) => format!(
                            "the vectorized code triggered {} that the scalar code does not",
                            event
                        ),
                        other => format!("the vectorized code failed to execute: {}", other),
                    };
                    return ChecksumReport {
                        outcome: ChecksumOutcome::NotEquivalent {
                            mismatch: None,
                            reason,
                        },
                        scalar_checksum,
                        vector_checksum,
                        trials_run: trial + 1,
                    };
                }
            };

            scalar_checksum = Some(reference.checksum);
            vector_checksum = Some(checksum_of(&result.arrays));

            for &k in &self.compare_order {
                let (expected, actual) = (&reference.outputs[k], &result.arrays[k]);
                if let Some(index) = expected.iter().zip(actual).position(|(a, b)| a != b) {
                    let mismatch = Mismatch {
                        array: self.scalar.array_params()[k].to_string(),
                        index,
                        expected: expected[index],
                        actual: actual[index],
                        trial,
                    };
                    let reason = mismatch.to_string();
                    return ChecksumReport {
                        outcome: ChecksumOutcome::NotEquivalent {
                            mismatch: Some(mismatch),
                            reason,
                        },
                        scalar_checksum,
                        vector_checksum,
                        trials_run: trial + 1,
                    };
                }
            }
        }

        if let Some(error) = &self.failure {
            return ChecksumReport {
                outcome: ChecksumOutcome::ScalarExecutionFailed {
                    error: error.clone(),
                },
                scalar_checksum,
                vector_checksum,
                trials_run: self.trials.len() as u32,
            };
        }
        ChecksumReport {
            outcome: ChecksumOutcome::Plausible,
            scalar_checksum,
            vector_checksum,
            trials_run: self.planned,
        }
    }

    /// Why `candidate` cannot be called with the scalar's arguments: a
    /// different parameter count, or a parameter whose type differs from
    /// the scalar's at the same position.
    fn check_signature(&self, candidate: &Function) -> Result<(), String> {
        let expected = &self.scalar.params;
        if candidate.params.len() != expected.len() {
            return Err(format!(
                "the candidate takes {} parameters but the scalar kernel takes {}",
                candidate.params.len(),
                expected.len()
            ));
        }
        match (1..).zip(expected.iter().zip(&candidate.params)).find(|(_, (s, c))| s.ty != c.ty) {
            None => Ok(()),
            Some((position, (s, c))) => Err(format!(
                "parameter {} `{}` has type {} but parameter {} `{}` of the scalar kernel has type {}",
                position, c.name, c.ty, position, s.name, s.ty
            )),
        }
    }
}

/// Draws one trial's arguments for the scalar's parameters, in order:
/// every `int` parameter gets `n`, every array `n` + [`SLACK`] random
/// values in [`VALUE_RANGE`].
fn random_bindings(scalar: &Function, config: &ChecksumConfig, rng: &mut StdRng) -> ArgBindings {
    let len = config.n as usize + SLACK;
    let (lo, hi) = VALUE_RANGE;
    let args = scalar
        .params
        .iter()
        .map(|param| match &param.ty {
            Type::Ptr(_) => Arg::Array((0..len).map(|_| rng.gen_range(lo..=hi)).collect()),
            // A parameter of another type makes the run fail; it still
            // takes its position.
            _ => Arg::Int(config.n),
        })
        .collect();
    ArgBindings { args }
}

/// Wrapping sum of every element of `arrays`.
fn checksum_of(arrays: &[Vec<i32>]) -> i64 {
    arrays
        .iter()
        .flatten()
        .fold(0i64, |sum, &v| sum.wrapping_add(i64::from(v)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_cir::parse_function;

    const SCALAR: &str =
        "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }";

    const VECTOR_OK: &str = "void s000(int n, int *a, int *b) { int i; for (i = 0; i + 8 <= n; i += 8) { __m256i x = _mm256_loadu_si256((__m256i *)&b[i]); _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(x, _mm256_set1_epi32(1))); } for (; i < n; i++) { a[i] = b[i] + 1; } }";

    /// Missing the scalar epilogue: the last `n % 8` elements are never written.
    const VECTOR_NO_EPILOGUE: &str = "void s000(int n, int *a, int *b) { int i; for (i = 0; i + 8 <= n; i += 8) { __m256i x = _mm256_loadu_si256((__m256i *)&b[i]); _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(x, _mm256_set1_epi32(1))); } }";

    /// Uses an unknown intrinsic, so it cannot compile.
    const VECTOR_BAD_CALL: &str =
        "void s000(int n, int *a, int *b) { __m256i x = _mm256_frobnicate(_mm256_set1_epi32(1)); }";

    fn cfg() -> ChecksumConfig {
        ChecksumConfig {
            trials: 2,
            ..ChecksumConfig::default()
        }
    }

    #[test]
    fn correct_candidate_is_plausible() {
        let scalar = parse_function(SCALAR).unwrap();
        let vector = parse_function(VECTOR_OK).unwrap();
        let report = checksum_test(&scalar, &vector, &cfg());
        assert!(report.outcome.is_plausible(), "{:?}", report.outcome);
        assert_eq!(report.scalar_checksum, report.vector_checksum);
        assert_eq!(report.trials_run, 2);
    }

    #[test]
    fn missing_epilogue_is_caught() {
        let scalar = parse_function(SCALAR).unwrap();
        let vector = parse_function(VECTOR_NO_EPILOGUE).unwrap();
        let report = checksum_test(&scalar, &vector, &cfg());
        match report.outcome {
            ChecksumOutcome::NotEquivalent { mismatch, .. } => {
                let m = mismatch.expect("value mismatch expected");
                assert_eq!(m.array, "a");
                assert!(
                    m.index >= 96,
                    "mismatch should be in the tail, got {}",
                    m.index
                );
            }
            other => panic!("expected NotEquivalent, got {:?}", other),
        }
    }

    #[test]
    fn unknown_intrinsic_cannot_compile() {
        let scalar = parse_function(SCALAR).unwrap();
        let vector = parse_function(VECTOR_BAD_CALL).unwrap();
        let report = checksum_test(&scalar, &vector, &cfg());
        assert!(matches!(
            report.outcome,
            ChecksumOutcome::CannotCompile { .. }
        ));
    }

    #[test]
    fn candidate_ub_is_not_equivalent() {
        let scalar = parse_function(SCALAR).unwrap();
        // Reads 8 lanes starting at n-1: out of bounds beyond the slack.
        let vector = parse_function(
            "void s000(int n, int *a, int *b) { __m256i x = _mm256_loadu_si256((__m256i *)&b[n + 4]); _mm256_storeu_si256((__m256i *)&a[0], x); }",
        )
        .unwrap();
        let report = checksum_test(&scalar, &vector, &cfg());
        match report.outcome {
            ChecksumOutcome::NotEquivalent { reason, .. } => {
                assert!(reason.contains("out-of-bounds"), "{}", reason);
            }
            other => panic!("expected NotEquivalent, got {:?}", other),
        }
    }

    #[test]
    fn identical_functions_are_plausible() {
        let scalar = parse_function(SCALAR).unwrap();
        let report = checksum_test(&scalar, &scalar, &cfg());
        assert!(report.outcome.is_plausible());
    }

    #[test]
    fn parameters_bind_by_position() {
        let scalar = parse_function(SCALAR).unwrap();
        let reference = ScalarReference::new(&scalar, &cfg());
        let renamed = parse_function(
            "void s000(int m, int *x, int *y) { for (int i = 0; i < m; i++) { x[i] = y[i] + 1; } }",
        )
        .unwrap();
        assert!(reference.test(&renamed).outcome.is_plausible());
        // The same body with the arrays swapped in the signature writes the
        // second array; the mismatch names the scalar's first array.
        let swapped = parse_function(
            "void s000(int n, int *b, int *a) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }",
        )
        .unwrap();
        match reference.test(&swapped).outcome {
            ChecksumOutcome::NotEquivalent {
                mismatch: Some(m), ..
            } => assert_eq!((m.array.as_str(), m.index, m.trial), ("a", 0, 0)),
            other => panic!("expected a mismatch, got {:?}", other),
        }
    }

    #[test]
    fn a_failing_scalar_fails_every_candidate_that_compiles() {
        // Writes past the slack on the first trial.
        let scalar = parse_function("void f(int n, int *a) { a[n + 20] = 1; }").unwrap();
        let reference = ScalarReference::new(&scalar, &cfg());
        let report = reference.test(&scalar);
        assert!(
            matches!(
                report.outcome,
                ChecksumOutcome::ScalarExecutionFailed { ref error } if error.contains("out-of-bounds write")
            ),
            "{:?}",
            report.outcome
        );
        assert_eq!(report.trials_run, 0);
        let wrong_arity = parse_function("void f(int n) { }").unwrap();
        assert!(matches!(
            reference.test(&wrong_arity).outcome,
            ChecksumOutcome::CannotCompile { .. }
        ));
    }

    /// The fingerprint keys every cached checksum verdict, so it must not
    /// move: these are the default harness and the end-to-end benchmark's
    /// independent oracle configuration.
    #[test]
    fn fingerprints_are_pinned() {
        assert_eq!(
            ChecksumConfig::default().fingerprint(),
            0xc08e_200b_4cfc_aecf
        );
        let oracle = ChecksumConfig {
            n: 96,
            trials: 4,
            seed: 0x0bad_5eed,
        };
        assert_eq!(oracle.fingerprint(), 0xe680_0efd_d427_1420);
    }
}
