//! The stage layer: one cascade stage as a [`VerificationStrategy`].
//!
//! A stage knows how to check one `(scalar, candidate)` pair and nothing
//! about ordering or parallelism — the engine runs the cascade in its
//! configured order, on the [`pool`](super::pool) layer.
//! Implementations exist for the checksum filter (testing each candidate
//! against a [`lv_interp::ScalarReference`] from the worker's
//! [`ReferenceTable`]) and for each [`lv_tv::SymbolicStrategy`];
//! the trait is public so alternative cascades (e.g. a future fuzzing stage)
//! can plug in without touching the engine.

use super::reference::ReferenceTable;
use crate::pipeline::{Equivalence, Stage};
use lv_cir::ast::Function;
use lv_cir::typecheck::check_types;
use lv_interp::{ChecksumClass, ChecksumConfig, ChecksumOutcome};
use lv_tv::{SymbolicStrategy, TvConfig, TvReuse, TvSession};
use std::sync::Arc;

/// Per-worker mutable state threaded through every strategy call.
///
/// One value lives per worker thread for the whole batch; strategies use it
/// to reuse expensive resources (the SMT session, the scalar checksum
/// references) and to report side-band facts (the checksum classification)
/// without widening their return type.
#[derive(Debug, Default)]
pub struct WorkerState {
    /// The worker's reusable SMT session.
    pub session: TvSession,
    /// Checksum classification of the current job, recorded by the checksum
    /// strategy so reports can distinguish "cannot compile" from "refuted".
    pub checksum: Option<ChecksumClass>,
    /// The scalar checksum references of this worker's run, shared with the
    /// run's other workers. A state made outside an engine run has its own.
    pub references: Arc<ReferenceTable>,
}

impl WorkerState {
    /// A worker whose SMT session runs with the given reuse, with a fresh
    /// reference table.
    pub fn with_reuse(reuse: TvReuse) -> WorkerState {
        WorkerState::sharing(reuse, Arc::default())
    }

    /// A worker of an engine run: its session runs with `reuse`, and it
    /// shares the run's reference table.
    pub(crate) fn sharing(reuse: TvReuse, references: Arc<ReferenceTable>) -> WorkerState {
        WorkerState {
            session: TvSession::with_reuse(reuse),
            checksum: None,
            references,
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
#[derive(Debug, Clone)]
pub struct ChecksumStage {
    config: ChecksumConfig,
    /// `config.fingerprint()`, part of every reference-table key.
    fingerprint: u64,
}

impl Default for ChecksumStage {
    fn default() -> Self {
        ChecksumStage::new(ChecksumConfig::default())
    }
}

impl ChecksumStage {
    /// A stage running the given checksum harness configuration.
    pub fn new(config: ChecksumConfig) -> ChecksumStage {
        ChecksumStage {
            fingerprint: config.fingerprint(),
            config,
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
        let report = worker
            .references
            .reference(scalar, &self.config, self.fingerprint)
            .test(candidate);
        worker.checksum = Some(report.outcome.class());
        match report.outcome {
            ChecksumOutcome::NotEquivalent { reason, .. } => StrategyOutcome::Conclusive {
                verdict: Equivalence::NotEquivalent,
                detail: reason,
            },
            ChecksumOutcome::CannotCompile { error } => StrategyOutcome::Conclusive {
                verdict: Equivalence::NotEquivalent,
                detail: format!("cannot compile: {}", compile_error(candidate, error)),
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

/// The diagnostic of a candidate that cannot compile, without the name of
/// its function. A type error's text names the function it occurred in, but
/// the cache key does not cover function names: a kernel and an
/// alpha-equivalent one share their candidates' keys, so a detail naming
/// either would be served for both.
fn compile_error(candidate: &Function, error: String) -> String {
    match check_types(candidate) {
        Err(type_error) => type_error.message,
        // A signature mismatch names no function.
        Ok(()) => error,
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
