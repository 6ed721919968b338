//! The synthetic LLM: a stochastic wrapper around the rule-based vectorizer.
//!
//! The paper samples completions from GPT-4 at temperature 1.0. The
//! reproduction replaces the model with a sampler that, per completion,
//! either emits the correct candidate produced by
//! [`crate::vectorizer::vectorize_correct`] or injects one of the failure
//! modes the paper documents (Section 4.1.3 and the s453 walk-through):
//! missing scalar epilogues, wrong accumulator seeding, unsafe hoisting of
//! conditional stores, swapped blend operands, off-by-one subscripts,
//! dropped statements and calls to unsupported intrinsics. The per-kernel
//! success probability is derived from the dependence report, so dependence-
//! heavy kernels need many more completions — which is what produces the
//! k = 1/10/100 growth of Table 2 and the pass@k curve of Figure 5.

use crate::vectorizer::{vectorize_analyzed, UnsupportedKernel};
use lv_analysis::{analyze_function, DependenceReport};
use lv_cir::ast::{AssignOp, Block, Expr, Function, Stmt};
use lv_cir::visit::map_exprs_in_block;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::rc::Rc;

/// Configuration of the synthetic model.
#[derive(Debug, Clone)]
pub struct LlmConfig {
    /// Sampling temperature; higher values increase the error-injection rate
    /// (the paper uses 1.0).
    pub temperature: f64,
    /// RNG seed for reproducible experiments.
    pub seed: u64,
    /// Simulated per-completion inference wall-clock cost. The real model
    /// behind the paper takes seconds per completion; the synthetic sampler
    /// takes microseconds, which makes generation/verification overlap
    /// experiments vacuous. A non-zero latency sleeps for that long inside
    /// [`SyntheticLlm::complete`] — it never affects the sampled content,
    /// only the wall clock. Zero (the default) everywhere outside latency
    /// experiments.
    pub latency: std::time::Duration,
}

impl Default for LlmConfig {
    fn default() -> Self {
        LlmConfig {
            temperature: 1.0,
            seed: 0xC0FFEE,
            latency: std::time::Duration::ZERO,
        }
    }
}

/// A prompt for one completion: the scalar kernel plus optional feedback.
#[derive(Debug, Clone)]
pub struct VectorizePrompt {
    /// The scalar kernel to vectorize.
    pub scalar: Function,
    /// Clang-style dependence remarks supplied by the user proxy agent.
    pub dependence_feedback: Option<String>,
    /// Checksum mismatch / compile error feedback from the tester agent.
    pub checksum_feedback: Option<String>,
    /// 0-based repair attempt number within the FSM.
    pub attempt: u32,
}

impl VectorizePrompt {
    /// A fresh prompt with no feedback.
    pub fn new(scalar: Function) -> VectorizePrompt {
        VectorizePrompt {
            scalar,
            dependence_feedback: None,
            checksum_feedback: None,
            attempt: 0,
        }
    }
}

/// One sampled completion.
#[derive(Debug, Clone)]
pub struct Completion {
    /// The candidate function (it may be wrong or may not even compile).
    pub candidate: Function,
    /// What the model "did", for transcripts and debugging.
    pub notes: String,
}

/// The error modes injected into candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ErrorMode {
    MissingEpilogue,
    WrongSeed,
    UnsafeHoist,
    SwappedBlend,
    OffByOne,
    DroppedStatement,
    UnknownIntrinsic,
    NaiveScalarCopy,
}

/// What a completion needs to know about its scalar kernel: the dependence
/// report and the rule-based vectorization. Both are pure functions of the
/// scalar.
struct Plan {
    report: DependenceReport,
    correct: Result<Function, UnsupportedKernel>,
}

thread_local! {
    /// The last scalar this thread planned, with its plan. Consecutive
    /// completions of one kernel (a sweep's 3, a pass@k kernel's `k`, a
    /// daemon generation request's `k`) derive it once; any other scalar
    /// replaces it.
    static LAST_PLAN: RefCell<Option<(Function, Rc<Plan>)>> = const { RefCell::new(None) };
}

/// The plan of `scalar`, from this thread's one-entry memo when the last
/// scalar planned is equal to it.
fn plan(scalar: &Function) -> Rc<Plan> {
    LAST_PLAN.with(|last| {
        let mut last = last.borrow_mut();
        if let Some((planned, plan)) = last.as_ref() {
            if planned == scalar {
                return Rc::clone(plan);
            }
        }
        let report = analyze_function(scalar);
        let correct = vectorize_analyzed(scalar, &report);
        let plan = Rc::new(Plan { report, correct });
        *last = Some((scalar.clone(), Rc::clone(&plan)));
        plan
    })
}

/// The synthetic LLM.
#[derive(Debug)]
pub struct SyntheticLlm {
    config: LlmConfig,
    rng: StdRng,
}

impl SyntheticLlm {
    /// Creates a model with the given configuration.
    pub fn new(config: LlmConfig) -> SyntheticLlm {
        let rng = StdRng::seed_from_u64(config.seed);
        SyntheticLlm { config, rng }
    }

    /// The probability that a single completion for this kernel is correct,
    /// derived from the kernel's dependence features. Feedback from the
    /// dependence analysis and from failed checksum runs raises it, which is
    /// how the multi-agent FSM improves over blind sampling (Section 4.4).
    pub fn success_probability(&self, report: &DependenceReport, prompt: &VectorizePrompt) -> f64 {
        let mut p: f64 = if !report.loop_found {
            0.05
        } else if report.has_goto {
            0.25
        } else if !report.opaque_arrays.is_empty() {
            0.10
        } else if !report.recurrences.is_empty() && report.has_control_flow {
            0.30
        } else if !report.recurrences.is_empty() {
            0.45
        } else if report.has_loop_carried() && report.has_control_flow {
            0.40
        } else if report.has_loop_carried() && report.reductions.is_empty() {
            0.50
        } else if !report.reductions.is_empty() {
            0.65
        } else if report.has_control_flow {
            0.60
        } else {
            0.80
        };
        if prompt.dependence_feedback.is_some() {
            p += 0.10;
        }
        if prompt.checksum_feedback.is_some() {
            p += 0.25 * f64::from(prompt.attempt.min(3));
        }
        // Higher temperature means noisier generations.
        p /= self.config.temperature.max(0.1);
        p.clamp(0.02, 0.97)
    }

    /// Samples one completion for the prompt.
    pub fn complete(&mut self, prompt: &VectorizePrompt) -> Completion {
        if !self.config.latency.is_zero() {
            std::thread::sleep(self.config.latency);
        }
        let plan = plan(&prompt.scalar);
        let p = self.success_probability(&plan.report, prompt);
        let roll: f64 = self.rng.gen();
        match &plan.correct {
            Ok(candidate) if roll < p => Completion {
                notes: "emitted the strip-mined vectorization".to_string(),
                candidate: candidate.clone(),
            },
            Ok(candidate) => {
                let mode = self.pick_error_mode(&plan.report);
                let mutated = self.inject_error(candidate, &prompt.scalar, mode);
                Completion {
                    notes: format!("emitted a flawed vectorization ({:?})", mode),
                    candidate: mutated,
                }
            }
            Err(_) => {
                // The kernel is outside the model's competence: it still
                // answers, but the candidate is built from a flawed strategy.
                // Only mutations that genuinely change a scalar program are
                // eligible, so the "candidate" is never just the input code.
                let mode = match self.rng.gen_range(0..3) {
                    0 => ErrorMode::NaiveScalarCopy,
                    1 => ErrorMode::OffByOne,
                    _ => ErrorMode::UnknownIntrinsic,
                };
                let base = naive_candidate(&prompt.scalar);
                let mutated = self.inject_error(&base, &prompt.scalar, mode);
                Completion {
                    notes: format!(
                        "guessed a vectorization for an unsupported kernel ({:?})",
                        mode
                    ),
                    candidate: mutated,
                }
            }
        }
    }

    fn pick_error_mode(&mut self, report: &DependenceReport) -> ErrorMode {
        let mut choices = vec![
            ErrorMode::MissingEpilogue,
            ErrorMode::OffByOne,
            ErrorMode::DroppedStatement,
            ErrorMode::NaiveScalarCopy,
        ];
        if !report.recurrences.is_empty() || !report.reductions.is_empty() {
            choices.push(ErrorMode::WrongSeed);
            choices.push(ErrorMode::WrongSeed);
        }
        if report.has_control_flow {
            choices.push(ErrorMode::UnsafeHoist);
            choices.push(ErrorMode::SwappedBlend);
        }
        // A small chance of emitting something that does not compile at all
        // (Table 2's "Cannot compile" row at k = 1).
        if self.rng.gen::<f64>() < 0.12 {
            return ErrorMode::UnknownIntrinsic;
        }
        choices[self.rng.gen_range(0..choices.len())]
    }

    fn inject_error(
        &mut self,
        candidate: &Function,
        scalar: &Function,
        mode: ErrorMode,
    ) -> Function {
        let mut out = candidate.clone();
        match mode {
            ErrorMode::MissingEpilogue => {
                // Drop the trailing scalar epilogue loop (and anything after it).
                if let Some(pos) = out
                    .body
                    .stmts
                    .iter()
                    .rposition(|s| matches!(s, Stmt::For { init: None, .. }))
                {
                    out.body.stmts.remove(pos);
                }
            }
            ErrorMode::WrongSeed => {
                // Replace a `setr` seed with a `set1` seed: the paper's s453
                // first attempt.
                out.body = map_exprs_in_block(out.body, &|e| match e {
                    Expr::Call {
                        ref callee,
                        ref args,
                    } if callee == "_mm256_setr_epi32" => {
                        Expr::call("_mm256_set1_epi32", vec![args[0].clone()])
                    }
                    other => other,
                });
            }
            ErrorMode::UnsafeHoist => {
                // Drop the blend: unconditionally store the "then" value.
                out.body = map_exprs_in_block(out.body, &|e| match e {
                    Expr::Call {
                        ref callee,
                        ref args,
                    } if callee == "_mm256_blendv_epi8" => args[1].clone(),
                    other => other,
                });
            }
            ErrorMode::SwappedBlend => {
                out.body = map_exprs_in_block(out.body, &|e| match e {
                    Expr::Call {
                        ref callee,
                        ref args,
                    } if callee == "_mm256_blendv_epi8" => Expr::call(
                        "_mm256_blendv_epi8",
                        vec![args[1].clone(), args[0].clone(), args[2].clone()],
                    ),
                    other => other,
                });
            }
            ErrorMode::OffByOne => {
                // Shift every subscript by one element: the candidate reads
                // and writes the wrong slice of each array.
                out.body = map_exprs_in_block(out.body, &|e| match e {
                    Expr::Index { base, index } => Expr::Index {
                        base,
                        index: Box::new(Expr::bin(lv_cir::BinOp::Add, *index, Expr::lit(1))),
                    },
                    other => other,
                });
            }
            ErrorMode::DroppedStatement => {
                // Remove the last store of the vector loop body.
                remove_last_store(&mut out.body);
            }
            ErrorMode::UnknownIntrinsic => {
                // Introduce a call to an intrinsic the toolchain does not know.
                out.body.stmts.insert(
                    0,
                    Stmt::Decl {
                        ty: lv_cir::Type::M256i,
                        name: "bad".to_string(),
                        init: Some(Expr::call("_mm256_dpbusd_epi32", vec![Expr::lit(0)])),
                    },
                );
            }
            ErrorMode::NaiveScalarCopy => {
                // "Vectorize" by copying the scalar loop but claiming a stride
                // of 8 — processes only every 8th element.
                out = scalar.clone();
                if let Some(Stmt::For { step, .. }) =
                    out.body.stmts.iter_mut().find(|s| s.is_loop())
                {
                    *step = Some(Expr::assign(
                        AssignOp::AddAssign,
                        Expr::var(loop_iv(scalar).unwrap_or_else(|| "i".to_string())),
                        Expr::lit(8),
                    ));
                }
            }
        }
        out
    }
}

fn loop_iv(func: &Function) -> Option<String> {
    lv_analysis::loop_nest(func)
        .loops
        .first()
        .map(|l| l.iv.clone())
}

fn naive_candidate(scalar: &Function) -> Function {
    scalar.clone()
}

fn remove_last_store(block: &mut Block) {
    fn is_store(stmt: &Stmt) -> bool {
        matches!(
            stmt,
            Stmt::Expr(Expr::Call { callee, .. }) if callee == "_mm256_storeu_si256"
        )
    }
    for stmt in block.stmts.iter_mut().rev() {
        if let Stmt::For { body, .. } = stmt {
            if let Some(pos) = body.stmts.iter().rposition(is_store) {
                body.stmts.remove(pos);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_cir::parse_function;
    use lv_interp::{checksum_test, ChecksumConfig, ChecksumOutcome};

    const S000: &str =
        "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }";
    const S453: &str = "void s453(int *a, int *b, int n) { int s = 0; for (int i = 0; i < n; i++) { s += 2; a[i] = s * b[i]; } }";

    #[test]
    fn low_temperature_reliably_vectorizes_easy_kernels() {
        let scalar = parse_function(S000).unwrap();
        let mut llm = SyntheticLlm::new(LlmConfig {
            temperature: 0.2,
            seed: 1,
            ..LlmConfig::default()
        });
        let prompt = VectorizePrompt::new(scalar.clone());
        let mut successes = 0;
        for _ in 0..20 {
            let completion = llm.complete(&prompt);
            let report = checksum_test(&scalar, &completion.candidate, &ChecksumConfig::default());
            if report.outcome.is_plausible() {
                successes += 1;
            }
        }
        assert!(
            successes >= 15,
            "only {} of 20 completions were plausible",
            successes
        );
    }

    #[test]
    fn sampling_is_reproducible() {
        let scalar = parse_function(S000).unwrap();
        let prompt = VectorizePrompt::new(scalar);
        let mut a = SyntheticLlm::new(LlmConfig::default());
        let mut b = SyntheticLlm::new(LlmConfig::default());
        for _ in 0..5 {
            assert_eq!(a.complete(&prompt).candidate, b.complete(&prompt).candidate);
        }
    }

    #[test]
    fn error_injection_produces_detectable_bugs() {
        let scalar = parse_function(S000).unwrap();
        let mut llm = SyntheticLlm::new(LlmConfig {
            temperature: 5.0, // force errors
            seed: 7,
            ..LlmConfig::default()
        });
        let prompt = VectorizePrompt::new(scalar.clone());
        let mut not_equivalent = 0;
        let mut cannot_compile = 0;
        for _ in 0..30 {
            let completion = llm.complete(&prompt);
            match checksum_test(&scalar, &completion.candidate, &ChecksumConfig::default()).outcome
            {
                ChecksumOutcome::Plausible => {}
                ChecksumOutcome::NotEquivalent { .. } => not_equivalent += 1,
                ChecksumOutcome::CannotCompile { .. } => cannot_compile += 1,
                ChecksumOutcome::ScalarExecutionFailed { .. } => {}
            }
        }
        assert!(
            not_equivalent > 5,
            "expected many wrong candidates, got {}",
            not_equivalent
        );
        assert!(cannot_compile > 0, "expected some non-compiling candidates");
    }

    #[test]
    fn feedback_raises_success_probability() {
        let scalar = parse_function(S453).unwrap();
        let llm = SyntheticLlm::new(LlmConfig::default());
        let report = lv_analysis::analyze_function(&scalar);
        let blind = VectorizePrompt::new(scalar.clone());
        let with_feedback = VectorizePrompt {
            scalar,
            dependence_feedback: Some("recurrence on s".to_string()),
            checksum_feedback: Some("a[0]: expected 2 but got 0".to_string()),
            attempt: 2,
        };
        assert!(
            llm.success_probability(&report, &with_feedback)
                > llm.success_probability(&report, &blind)
        );
    }

    #[test]
    fn the_plan_memo_leaves_completions_unchanged() {
        let kernels = [parse_function(S453).unwrap(), parse_function(S000).unwrap()];
        let sample = |kernel: usize, j: u64| {
            let mut llm = SyntheticLlm::new(LlmConfig {
                seed: j,
                ..LlmConfig::default()
            });
            let completion = llm.complete(&VectorizePrompt::new(kernels[kernel].clone()));
            lv_cir::print_function(&completion.candidate)
        };
        // One kernel's completions in a row hit the memo; alternating
        // kernels replace it on every completion.
        let consecutive: Vec<String> = (0..2)
            .flat_map(|kernel| (0..8).map(move |j| (kernel, j)))
            .map(|(kernel, j)| sample(kernel, j))
            .collect();
        let mut alternating = vec![String::new(); 16];
        for j in 0..8 {
            for kernel in 0..2 {
                alternating[kernel * 8 + j as usize] = sample(kernel, j);
            }
        }
        assert_eq!(consecutive, alternating);
    }

    #[test]
    fn wrong_seed_mode_reproduces_s453_first_attempt() {
        let scalar = parse_function(S453).unwrap();
        let candidate = crate::vectorize_correct(&scalar).unwrap();
        let mut llm = SyntheticLlm::new(LlmConfig::default());
        let broken = llm.inject_error(&candidate, &scalar, ErrorMode::WrongSeed);
        let printed = lv_cir::print_function(&broken);
        assert!(printed.contains("_mm256_set1_epi32"), "{}", printed);
        assert!(!printed.contains("_mm256_setr_epi32"), "{}", printed);
        let report = checksum_test(&scalar, &broken, &ChecksumConfig::default());
        assert!(matches!(
            report.outcome,
            ChecksumOutcome::NotEquivalent { .. }
        ));
    }
}
