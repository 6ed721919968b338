//! The verdict oracle. It runs outside every timed phase and counts each
//! job that errored, got no verdict, or got a verdict the oracle rejects.

use crate::workload::candidate_hash;
use lv_core::{CachedVerdict, Equivalence, Job, JobReport};
use lv_interp::{ChecksumConfig, ChecksumOutcome};
use std::collections::HashMap;

/// The independent concrete check: more trials, another seed and a larger
/// `n` than the cascade's own checksum stage (1 trial, `n` = 40). Like 40,
/// `n` is a multiple of every vector width, because `Equivalent` holds
/// under the paper's divisibility assumption: a candidate without a scalar
/// epilogue is equivalent exactly when the trip count divides evenly.
fn independent_checksum() -> ChecksumConfig {
    ChecksumConfig {
        n: 96,
        trials: 4,
        seed: 0x0bad_5eed,
        ..ChecksumConfig::default()
    }
}

/// The verdict payload of a report, in the form the cache and the wire
/// carry.
pub fn cached(report: &JobReport) -> CachedVerdict {
    CachedVerdict {
        verdict: report.verdict,
        stage: report.stage,
        detail: report.detail.clone(),
        checksum: report.checksum,
    }
}

/// Verdict counts and oracle violations over every job of a run.
#[derive(Debug)]
pub struct Oracle {
    config: ChecksumConfig,
    /// Independent-checksum outcomes by (scalar, candidate) hash, so a
    /// candidate repeated across sweeps is executed once.
    plausible: HashMap<(u64, u64), bool>,
    /// Jobs whose verdicts were checked.
    pub attempted: usize,
    /// Jobs that failed a check.
    pub failed: usize,
    /// Jobs that ended `Equivalent`.
    pub equivalent: usize,
    /// Jobs that ended `Equivalent` or `NotEquivalent`.
    pub conclusive: usize,
    /// The first few violations, for the report.
    pub violations: Vec<String>,
}

impl Default for Oracle {
    fn default() -> Oracle {
        Oracle {
            config: independent_checksum(),
            plausible: HashMap::new(),
            attempted: 0,
            failed: 0,
            equivalent: 0,
            conclusive: 0,
            violations: Vec::new(),
        }
    }
}

impl Oracle {
    /// Checks one job's verdict.
    pub fn check(&mut self, job: &Job, rule_equal: bool, verdict: &CachedVerdict) {
        self.tally(verdict);
        if let Some(problem) = self.violation(job, rule_equal, verdict) {
            self.fail(format!("{}: {}", job.label, problem));
        }
    }

    /// Counts a verdict without checking it (it was checked elsewhere).
    pub fn tally(&mut self, verdict: &CachedVerdict) {
        self.attempted += 1;
        self.equivalent += usize::from(verdict.verdict == Equivalence::Equivalent);
        self.conclusive += usize::from(verdict.verdict != Equivalence::Inconclusive);
    }

    /// Counts a job that got no verdict.
    pub fn missing(&mut self, job: &Job, why: &str) {
        self.attempted += 1;
        self.fail(format!("{}: no verdict ({})", job.label, why));
    }

    /// Records a failure that is not about one verdict's content.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.violations.len() < 8 {
            self.violations.push(problem);
        }
    }

    /// Checks that two runs of the same job agree: `exact` compares every
    /// field, otherwise only verdict and stage.
    pub fn agree(&mut self, label: &str, a: &CachedVerdict, b: &CachedVerdict, exact: bool) {
        let same = if exact {
            a == b
        } else {
            (a.verdict, a.stage) == (b.verdict, b.stage)
        };
        if !same {
            self.fail(format!(
                "{}: {:?} @ {:?} vs {:?} @ {:?}",
                label, a.verdict, a.stage, b.verdict, b.stage
            ));
        }
    }

    fn violation(
        &mut self,
        job: &Job,
        rule_equal: bool,
        verdict: &CachedVerdict,
    ) -> Option<String> {
        if rule_equal && verdict.verdict == Equivalence::NotEquivalent {
            return Some(format!(
                "the rule-based candidate came out NotEquivalent at {:?}: {}",
                verdict.stage, verdict.detail
            ));
        }
        if verdict.verdict != Equivalence::Equivalent {
            return None;
        }
        let (scalar, candidate) = (&job.scalar, &job.candidate);
        let key = (
            lv_cir::structural_hash(scalar),
            candidate_hash(scalar, candidate),
        );
        let config = &self.config;
        let plausible = *self.plausible.entry(key).or_insert_with(|| {
            let report = lv_interp::checksum_test(scalar, candidate, config);
            matches!(report.outcome, ChecksumOutcome::Plausible)
        });
        (!plausible).then(|| "Equivalent, but the independent checksum test refutes it".to_string())
    }

    /// Share of checked jobs that ended `Equivalent`.
    pub fn verified_frac(&self) -> f64 {
        crate::metrics::ratio(self.equivalent as f64, self.attempted as f64)
    }

    /// Share of checked jobs that ended conclusively.
    pub fn conclusive_frac(&self) -> f64 {
        crate::metrics::ratio(self.conclusive as f64, self.attempted as f64)
    }

    /// Share of checked jobs that failed.
    pub fn failed_frac(&self) -> f64 {
        crate::metrics::ratio(self.failed as f64, self.attempted as f64)
    }
}
