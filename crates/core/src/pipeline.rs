//! The end-to-end LLM-Vectorizer pipeline (Algorithm 1).
//!
//! `check_equivalence` composes the checksum filter with the three symbolic
//! strategies exactly as Algorithm 1 does: a candidate refuted by testing is
//! `NotEquivalent` immediately; a plausible candidate is passed to Alive2
//! unrolling, then C-level unrolling, then spatial splitting, stopping at the
//! first conclusive verdict.

use crate::engine::{EngineConfig, JobReport, VerificationEngine};
use lv_cir::ast::Function;
use lv_interp::ChecksumConfig;
use lv_tv::TvConfig;
use serde::{Deserialize, Serialize};

/// The stage of Algorithm 1 that produced the final verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Checksum-based testing (line 2).
    Checksum,
    /// Alive2-style unrolling (line 6).
    Alive2,
    /// C-level unrolling (line 9).
    CUnroll,
    /// Spatial case splitting (line 12).
    Splitting,
}

impl Stage {
    /// Display label matching Table 3.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Checksum => "Checksum",
            Stage::Alive2 => "Alive2",
            Stage::CUnroll => "C-Unroll",
            Stage::Splitting => "Splitting",
        }
    }
}

/// The three-valued verdict of the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Equivalence {
    /// Formally verified (modulo bounded unrolling).
    Equivalent,
    /// Proven different (by a failing test or a symbolic counterexample).
    NotEquivalent,
    /// Could not be decided (timeouts, unsupported features).
    Inconclusive,
}

/// Configuration of the pipeline.
#[derive(Debug, Clone, Default)]
pub struct PipelineConfig {
    /// Checksum testing configuration.
    pub checksum: ChecksumConfig,
    /// Symbolic verification configuration.
    pub tv: TvConfig,
}

/// Algorithm 1: checksum testing followed by the three symbolic strategies.
///
/// This is a thin wrapper over a single-job run of the
/// [`VerificationEngine`], so the one-shot path and the parallel batch path
/// exercise exactly the same cascade code, and report in the same form.
pub fn check_equivalence(
    scalar: &Function,
    candidate: &Function,
    config: &PipelineConfig,
) -> JobReport {
    VerificationEngine::new(EngineConfig::full(config.clone())).check_one(scalar, candidate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_agents::vectorize_correct;
    use lv_cir::parse_function;

    #[test]
    fn correct_candidate_is_verified() {
        let scalar = parse_function(
            "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }",
        )
        .unwrap();
        let candidate = vectorize_correct(&scalar).unwrap();
        let report = check_equivalence(&scalar, &candidate, &PipelineConfig::default());
        assert_eq!(report.verdict, Equivalence::Equivalent, "{}", report.detail);
    }

    #[test]
    fn wrong_candidate_is_refuted_by_checksum() {
        let scalar = parse_function(
            "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }",
        )
        .unwrap();
        let wrong = parse_function(
            "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 2; } }",
        )
        .unwrap();
        let report = check_equivalence(&scalar, &wrong, &PipelineConfig::default());
        assert_eq!(report.verdict, Equivalence::NotEquivalent);
        assert_eq!(report.stage, Stage::Checksum);
    }

    #[test]
    fn paper_s212_candidate_is_verified_symbolically() {
        let scalar = lv_tsvc::kernel("s212").unwrap().function();
        let candidate = vectorize_correct(&scalar).unwrap();
        let report = check_equivalence(&scalar, &candidate, &PipelineConfig::default());
        assert_eq!(report.verdict, Equivalence::Equivalent, "{}", report.detail);
        assert_ne!(report.stage, Stage::Checksum);
    }

    #[test]
    fn stage_labels() {
        assert_eq!(Stage::Checksum.label(), "Checksum");
        assert_eq!(Stage::Splitting.label(), "Splitting");
    }
}
