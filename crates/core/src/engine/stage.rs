//! The stage layer: one cascade stage as a [`VerificationStrategy`].
//!
//! A stage knows how to check one `(scalar, candidate)` pair and nothing
//! about ordering, scheduling, or parallelism — those live in the
//! [`schedule`](super::schedule) and [`pool`](super::pool) layers.
//! Implementations exist for the checksum filter (wrapping
//! [`lv_interp::ChecksumFilter`]) and for each [`lv_tv::SymbolicStrategy`];
//! the trait is public so alternative cascades (e.g. a future fuzzing stage)
//! can plug in without touching the engine.

use crate::pipeline::{Equivalence, Stage};
use lv_cir::ast::Function;
use lv_interp::{ChecksumClass, ChecksumFilter, ChecksumOutcome};
use lv_tv::{SymbolicStrategy, TvConfig, TvReuse, TvSession};

/// Per-worker mutable state threaded through every strategy call.
///
/// One value lives per worker thread for the whole batch; strategies use it
/// to reuse expensive resources (the SMT session) and to report side-band
/// facts (the checksum classification) without widening their return type.
#[derive(Debug, Default)]
pub struct WorkerState {
    /// The worker's reusable SMT session.
    pub session: TvSession,
    /// Checksum classification of the current job, recorded by the checksum
    /// strategy so reports can distinguish "cannot compile" from "refuted".
    pub checksum: Option<ChecksumClass>,
    /// Set by the checksum strategy when the candidate's array parameter
    /// names differ from the scalar's — the harness binds arrays by name, so
    /// such a candidate is tested on disjoint arrays (see
    /// [`lv_interp::array_param_names_mismatch`]). Telemetry only; the
    /// verdict is unchanged.
    pub name_mismatch: bool,
}

impl WorkerState {
    /// A worker whose SMT session runs with the given reuse mechanisms.
    pub fn with_reuse(reuse: TvReuse) -> WorkerState {
        WorkerState {
            session: TvSession::with_reuse(reuse),
            ..WorkerState::default()
        }
    }
}

/// What one strategy concluded about one job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StrategyOutcome {
    /// The cascade stops here with this verdict.
    Conclusive {
        /// The final verdict.
        verdict: Equivalence,
        /// Counterexample, mismatch, or failure description.
        detail: String,
    },
    /// This strategy could not decide; the cascade continues.
    Continue {
        /// Why the strategy passed (checksum: "plausible"; symbolic: the
        /// inconclusive reason, reported if no later stage concludes).
        reason: String,
    },
}

/// One stage of the verification cascade.
pub trait VerificationStrategy: Send + Sync {
    /// The Algorithm 1 stage this strategy implements, for reports.
    fn stage(&self) -> Stage;

    /// Checks one candidate against its scalar kernel.
    fn verify(
        &self,
        scalar: &Function,
        candidate: &Function,
        worker: &mut WorkerState,
    ) -> StrategyOutcome;
}

/// Algorithm 1 line 2: checksum testing as a cascade stage.
#[derive(Debug, Clone, Default)]
pub struct ChecksumStage {
    filter: ChecksumFilter,
}

impl ChecksumStage {
    /// A stage running the given checksum harness configuration.
    pub fn new(config: lv_interp::ChecksumConfig) -> ChecksumStage {
        ChecksumStage {
            filter: ChecksumFilter::new(config),
        }
    }
}

impl VerificationStrategy for ChecksumStage {
    fn stage(&self) -> Stage {
        Stage::Checksum
    }

    fn verify(
        &self,
        scalar: &Function,
        candidate: &Function,
        worker: &mut WorkerState,
    ) -> StrategyOutcome {
        if lv_interp::array_param_names_mismatch(scalar, candidate) {
            // Diagnostic only: the harness binds arrays by parameter name, so
            // this candidate runs on disjoint arrays and the comparison is
            // vacuous. The flag surfaces in the job's checksum StageTrace and
            // the funnel; the behavioral fix (positional binding or a
            // CannotCompile classification) shifts Table 2 counts and is a
            // separate change (see ROADMAP).
            worker.name_mismatch = true;
            eprintln!(
                "warning: candidate `{}` renames array parameters away from the scalar's; \
                 the checksum harness binds arrays by name, so the candidate was tested on \
                 disjoint arrays (verdict unchanged)",
                candidate.name
            );
        }
        let report = self.filter.run(scalar, candidate);
        worker.checksum = Some(report.outcome.class());
        match report.outcome {
            ChecksumOutcome::NotEquivalent { reason, .. } => StrategyOutcome::Conclusive {
                verdict: Equivalence::NotEquivalent,
                detail: reason,
            },
            ChecksumOutcome::CannotCompile { error } => StrategyOutcome::Conclusive {
                verdict: Equivalence::NotEquivalent,
                detail: format!("cannot compile: {}", error),
            },
            ChecksumOutcome::ScalarExecutionFailed { error } => StrategyOutcome::Conclusive {
                verdict: Equivalence::Inconclusive,
                detail: format!("scalar kernel failed to execute: {}", error),
            },
            ChecksumOutcome::Plausible => StrategyOutcome::Continue {
                reason: String::new(),
            },
        }
    }
}

/// Algorithm 1 lines 6–13: one symbolic strategy as a cascade stage.
#[derive(Debug, Clone)]
pub struct SymbolicStage {
    strategy: SymbolicStrategy,
    config: TvConfig,
}

impl SymbolicStage {
    /// A stage running `strategy` under `config`.
    pub fn new(strategy: SymbolicStrategy, config: TvConfig) -> SymbolicStage {
        SymbolicStage { strategy, config }
    }
}

impl VerificationStrategy for SymbolicStage {
    fn stage(&self) -> Stage {
        match self.strategy {
            SymbolicStrategy::Alive2Unroll => Stage::Alive2,
            SymbolicStrategy::CUnroll => Stage::CUnroll,
            SymbolicStrategy::SpatialSplitting => Stage::Splitting,
        }
    }

    fn verify(
        &self,
        scalar: &Function,
        candidate: &Function,
        worker: &mut WorkerState,
    ) -> StrategyOutcome {
        match self
            .strategy
            .run(scalar, candidate, &self.config, &mut worker.session)
        {
            lv_tv::TvVerdict::Equivalent => StrategyOutcome::Conclusive {
                verdict: Equivalence::Equivalent,
                detail: String::new(),
            },
            lv_tv::TvVerdict::NotEquivalent { counterexample } => StrategyOutcome::Conclusive {
                verdict: Equivalence::NotEquivalent,
                detail: counterexample,
            },
            lv_tv::TvVerdict::Inconclusive { reason } => StrategyOutcome::Continue { reason },
        }
    }
}
