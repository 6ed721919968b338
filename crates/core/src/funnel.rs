//! The telemetry funnel and the adaptive budget policy built on it.
//!
//! Every job the engine runs records a [`StageTrace`](crate::StageTrace)
//! per cascade stage; PR 1
//! added the telemetry, this module is its first consumer. A
//! [`FunnelReport`] aggregates a batch's traces per stage — how many jobs
//! reached the stage, how many it killed (and with which verdict), and the
//! distribution of SAT conflicts it spent — and renders the result as a
//! funnel table with log₂ conflict histograms.
//!
//! The [`AdaptiveBudgetPolicy`] turns that distribution into tuned
//! [`SolverBudget`]s: conclusive queries tell us how much effort proofs
//! *actually* need at each stage, so the policy caps each stage's budget at
//! the maximum conclusive effort observed plus a safety margin. Inconclusive
//! queries at a stage — the ones that burn the whole budget and fall
//! through anyway — then give up earlier and fall through to the next
//! (cheaper-per-verdict) strategy sooner. Derived budgets only ever
//! *tighten* the configured base and never drop below the policy floor.
//! Tuning is opt-in ([`EngineConfig::adaptive`](crate::EngineConfig)): with
//! it off, budgets are exactly the configured ones and verdicts stay
//! bit-identical.

use crate::engine::JobReport;
use crate::pipeline::{Equivalence, Stage};
use lv_tv::{SolverBudget, TvConfig};
use std::time::Duration;

/// Number of log₂ buckets in a conflict histogram: bucket 0 counts
/// zero-conflict stage runs, bucket `i ≥ 1` counts runs spending
/// `[2^(i-1), 2^i)` conflicts, and the last bucket absorbs everything above.
pub const HISTOGRAM_BUCKETS: usize = 16;

/// Aggregated telemetry for one cascade stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageFunnel {
    /// The stage.
    pub stage: Stage,
    /// Jobs whose cascade reached this stage.
    pub entered: usize,
    /// Jobs this stage concluded `Equivalent`.
    pub equivalent: usize,
    /// Jobs this stage concluded `NotEquivalent`.
    pub not_equivalent: usize,
    /// Jobs whose cascade ended here without a usable answer: a conclusive
    /// `Inconclusive` (e.g. the scalar itself failed to execute) or an
    /// exhausted cascade whose last stage this was.
    pub gave_up: usize,
    /// Jobs that fell through to a later stage.
    pub passed: usize,
    /// SAT conflicts spent by this stage across all jobs.
    pub total_conflicts: u64,
    /// Largest conflict count any single run of this stage spent.
    pub max_conflicts: u64,
    /// Largest conflict count among *conclusive* runs — what the adaptive
    /// policy budgets for.
    pub conclusive_max_conflicts: u64,
    /// CNF clauses built by this stage across all jobs.
    pub total_clauses: u64,
    /// Largest clause count among conclusive runs.
    pub conclusive_max_clauses: u64,
    /// Wall time spent in this stage across all jobs.
    pub wall: Duration,
    /// Histogram of per-run conflict counts (see [`HISTOGRAM_BUCKETS`]).
    pub conflict_histogram: [usize; HISTOGRAM_BUCKETS],
    /// Runs whose candidate renamed its array parameters away from the
    /// scalar's ([`StageTrace::name_mismatch`](crate::StageTrace)) — on the
    /// checksum stage this counts candidates the harness tested vacuously on
    /// disjoint arrays.
    pub name_mismatches: usize,
}

impl StageFunnel {
    fn new(stage: Stage) -> StageFunnel {
        StageFunnel {
            stage,
            entered: 0,
            equivalent: 0,
            not_equivalent: 0,
            gave_up: 0,
            passed: 0,
            total_conflicts: 0,
            max_conflicts: 0,
            conclusive_max_conflicts: 0,
            total_clauses: 0,
            conclusive_max_clauses: 0,
            wall: Duration::ZERO,
            conflict_histogram: [0; HISTOGRAM_BUCKETS],
            name_mismatches: 0,
        }
    }

    /// Jobs this stage removed from the funnel with a definite answer.
    pub fn killed(&self) -> usize {
        self.equivalent + self.not_equivalent
    }
}

fn histogram_bucket(conflicts: u64) -> usize {
    if conflicts == 0 {
        0
    } else {
        ((64 - conflicts.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Aggregated per-stage telemetry for a batch.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FunnelReport {
    /// Stages in cascade order of first appearance.
    pub stages: Vec<StageFunnel>,
    /// Jobs aggregated (including cached ones).
    pub jobs: usize,
    /// Jobs answered from the verdict cache (they contribute no traces).
    pub cached: usize,
    /// Cross-job SMT reuse activity summed over all jobs (all zero when
    /// [`EngineReuse`](crate::EngineReuse) is off).
    pub reuse: crate::engine::ReuseCounters,
    /// Preprocessing activity summed over all jobs (all zero when
    /// [`EngineReuse::preprocess`](crate::EngineReuse) is off).
    pub simplify: crate::engine::SimplifyCounters,
}

impl FunnelReport {
    /// Builds the funnel from per-job reports (usually
    /// [`BatchReport::jobs`](crate::BatchReport)).
    pub fn from_jobs(reports: &[JobReport]) -> FunnelReport {
        let mut funnel = FunnelReport {
            stages: Vec::new(),
            jobs: reports.len(),
            cached: reports.iter().filter(|r| r.cache_hit).count(),
            reuse: Default::default(),
            simplify: Default::default(),
        };
        for report in reports {
            funnel.reuse.absorb(report.reuse);
            funnel.simplify.absorb(report.simplify);
            let last = report.traces.len().saturating_sub(1);
            for (i, trace) in report.traces.iter().enumerate() {
                let stage = match funnel.stages.iter_mut().find(|s| s.stage == trace.stage) {
                    Some(stage) => stage,
                    None => {
                        funnel.stages.push(StageFunnel::new(trace.stage));
                        funnel.stages.last_mut().expect("just pushed")
                    }
                };
                stage.entered += 1;
                stage.total_conflicts += trace.conflicts;
                stage.max_conflicts = stage.max_conflicts.max(trace.conflicts);
                stage.total_clauses += trace.clauses;
                stage.wall += trace.wall;
                stage.conflict_histogram[histogram_bucket(trace.conflicts)] += 1;
                if trace.name_mismatch {
                    stage.name_mismatches += 1;
                }
                if trace.conclusive {
                    stage.conclusive_max_conflicts =
                        stage.conclusive_max_conflicts.max(trace.conflicts);
                    stage.conclusive_max_clauses = stage.conclusive_max_clauses.max(trace.clauses);
                    match report.verdict {
                        Equivalence::Equivalent => stage.equivalent += 1,
                        Equivalence::NotEquivalent => stage.not_equivalent += 1,
                        Equivalence::Inconclusive => stage.gave_up += 1,
                    }
                } else if i == last {
                    // The cascade ran out of stages here.
                    stage.gave_up += 1;
                } else {
                    stage.passed += 1;
                }
            }
        }
        funnel
    }

    /// The aggregate for one stage, if any job reached it.
    pub fn stage(&self, stage: Stage) -> Option<&StageFunnel> {
        self.stages.iter().find(|s| s.stage == stage)
    }

    /// Renders the funnel as a text table, one stage per row, with a log₂
    /// conflict histogram sparkline per stage.
    pub fn render(&self) -> String {
        let mut out = format!(
            "jobs: {} ({} from cache)\nStage\tEntered\tEquiv\tNot Equiv\tGave up\tPassed\tConflicts\tMax\tWall\tConflict histogram (log2)\n",
            self.jobs, self.cached
        );
        for s in &self.stages {
            let bars: String = {
                let peak = s.conflict_histogram.iter().copied().max().unwrap_or(0);
                s.conflict_histogram
                    .iter()
                    .map(|&n| spark(n, peak))
                    .collect()
            };
            out += &format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}ms\t{}\n",
                s.stage.label(),
                s.entered,
                s.equivalent,
                s.not_equivalent,
                s.gave_up,
                s.passed,
                s.total_conflicts,
                s.max_conflicts,
                s.wall.as_millis(),
                bars
            );
        }
        let mismatched: usize = self.stages.iter().map(|s| s.name_mismatches).sum();
        if mismatched > 0 {
            out += &format!(
                "warning: {} candidate(s) renamed array parameters away from the scalar's \
                 (checksum ran on disjoint arrays)\n",
                mismatched
            );
        }
        if !self.reuse.is_zero() {
            out += &format!(
                "reuse: {} blast-cache hits / {} misses, {} assumption reuses\n",
                self.reuse.blast_hits, self.reuse.blast_misses, self.reuse.assumption_reuses
            );
        }
        if !self.simplify.is_zero() {
            out += &format!(
                "simplify: {} vars eliminated, {} clauses subsumed, \
                 {} strengthened, {} arena bytes peak, {}us preprocessing\n",
                self.simplify.vars_eliminated,
                self.simplify.clauses_subsumed,
                self.simplify.clauses_strengthened,
                self.simplify.arena_bytes,
                self.simplify.preprocess_micros
            );
        }
        out
    }
}

fn spark(count: usize, peak: usize) -> char {
    const LEVELS: [char; 5] = ['.', '▁', '▄', '▆', '█'];
    if count == 0 || peak == 0 {
        LEVELS[0]
    } else {
        // 1..=peak maps onto the four non-empty glyphs.
        LEVELS[1 + (count * 3).div_ceil(peak)]
    }
}

/// Derives per-stage solver budgets from a funnel's conflict distribution.
///
/// See the module docs for the tuning rationale. The policy also decides how
/// a batch is split into the *pilot* (run under base budgets to gather the
/// distribution) and the remainder (run under the derived budgets) by
/// [`VerificationEngine::run_batch_adaptive`](crate::VerificationEngine::run_batch_adaptive).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveBudgetPolicy {
    /// Fraction of the batch used as the pilot, in `(0, 1]`.
    pub pilot_fraction: f64,
    /// Lower bound on the pilot size (small batches are all pilot).
    pub min_pilot: usize,
    /// Safety margin over the maximum conclusive effort observed, in
    /// percent: `100` doubles it.
    pub margin_percent: u64,
    /// Budgets never tuned below this floor.
    pub floor: SolverBudget,
}

impl Default for AdaptiveBudgetPolicy {
    fn default() -> Self {
        AdaptiveBudgetPolicy {
            pilot_fraction: 0.25,
            min_pilot: 8,
            margin_percent: 100,
            floor: SolverBudget {
                max_conflicts: 1_000,
                max_clauses: 100_000,
            },
        }
    }
}

impl AdaptiveBudgetPolicy {
    /// How many of `jobs` jobs the pilot phase covers.
    pub fn pilot_len(&self, jobs: usize) -> usize {
        if jobs == 0 {
            return 0;
        }
        let by_fraction = (jobs as f64 * self.pilot_fraction).ceil() as usize;
        by_fraction.max(self.min_pilot).min(jobs)
    }

    /// Tunes the three symbolic-stage budgets of `base` from the observed
    /// funnel. Stages the funnel never saw conclude keep their base budget —
    /// there is no evidence to tune from.
    pub fn derive(&self, funnel: &FunnelReport, base: &TvConfig) -> TvConfig {
        let mut tuned = base.clone();
        tuned.alive2_budget = self.tune(funnel.stage(Stage::Alive2), base.alive2_budget);
        tuned.cunroll_budget = self.tune(funnel.stage(Stage::CUnroll), base.cunroll_budget);
        tuned.spatial_budget = self.tune(funnel.stage(Stage::Splitting), base.spatial_budget);
        tuned
    }

    /// Tunes the symbolic-stage budgets of `base` from a persisted
    /// [`CrossRunProfile`](crate::profile::CrossRunProfile) instead of a
    /// pilot slice's funnel: the profile's per-category cells are aggregated
    /// per stage (kills summed, conclusive-effort highwater marks maxed) and
    /// fed through the same tightening rule, so a warm-profile run starts
    /// under tuned budgets without sacrificing any leading jobs as a pilot.
    /// Like [`AdaptiveBudgetPolicy::derive`], the result only tightens
    /// `base` and never drops below the policy floor; stages the profile
    /// never saw conclude keep their base budget.
    pub fn derive_from_profile(
        &self,
        profile: &crate::profile::CrossRunProfile,
        base: &TvConfig,
    ) -> TvConfig {
        let mut tuned = base.clone();
        tuned.alive2_budget = self.tune(
            profile_stage_funnel(profile, Stage::Alive2).as_ref(),
            base.alive2_budget,
        );
        tuned.cunroll_budget = self.tune(
            profile_stage_funnel(profile, Stage::CUnroll).as_ref(),
            base.cunroll_budget,
        );
        tuned.spatial_budget = self.tune(
            profile_stage_funnel(profile, Stage::Splitting).as_ref(),
            base.spatial_budget,
        );
        tuned
    }

    fn tune(&self, observed: Option<&StageFunnel>, base: SolverBudget) -> SolverBudget {
        let Some(stage) = observed else {
            return base;
        };
        if stage.killed() == 0 {
            return base;
        }
        let scale = |v: u64| v.saturating_mul(100 + self.margin_percent) / 100;
        let derived = SolverBudget {
            max_conflicts: scale(stage.conclusive_max_conflicts).max(1),
            // The clause budget models memory, and bit-blasting happens
            // before any conflict is spent — budget for the largest
            // conclusive query seen, with the same margin.
            max_clauses: usize::try_from(scale(stage.conclusive_max_clauses).max(1))
                .unwrap_or(usize::MAX),
        };
        derived.max_with(self.floor).min_with(base)
    }
}

/// Aggregates a profile's per-category cells for one stage into the
/// [`StageFunnel`] shape the tuning rule consumes. `None` when no category
/// ever reached the stage (no evidence — keep the base budget).
fn profile_stage_funnel(
    profile: &crate::profile::CrossRunProfile,
    stage: Stage,
) -> Option<StageFunnel> {
    let mut funnel = StageFunnel::new(stage);
    let mut seen = false;
    for category in lv_analysis::KernelCategory::all() {
        if let Some(cell) = profile.cell(category, stage) {
            seen = true;
            funnel.entered += usize::try_from(cell.entered).unwrap_or(usize::MAX);
            // The tuning rule only consumes `killed()` and the conclusive
            // highwater marks; the profile does not split kills by verdict,
            // so they all land in `equivalent`.
            funnel.equivalent += usize::try_from(cell.killed).unwrap_or(usize::MAX);
            funnel.total_conflicts += cell.conflicts;
            funnel.conclusive_max_conflicts = funnel
                .conclusive_max_conflicts
                .max(cell.conclusive_max_conflicts);
            funnel.conclusive_max_clauses = funnel
                .conclusive_max_clauses
                .max(cell.conclusive_max_clauses);
        }
    }
    seen.then_some(funnel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::StageTrace;

    fn job(verdict: Equivalence, traces: Vec<StageTrace>) -> JobReport {
        JobReport {
            label: "job".to_string(),
            verdict,
            stage: traces.last().map_or(Stage::Alive2, |t| t.stage),
            detail: String::new(),
            checksum: None,
            traces,
            wall: Duration::ZERO,
            cache_hit: false,
            reuse: Default::default(),
            simplify: Default::default(),
        }
    }

    fn trace(stage: Stage, conclusive: bool, conflicts: u64, clauses: u64) -> StageTrace {
        StageTrace {
            stage,
            conclusive,
            wall: Duration::from_millis(1),
            conflicts,
            clauses,
            name_mismatch: false,
        }
    }

    #[test]
    fn funnel_counts_add_up() {
        let reports = vec![
            // Killed by checksum.
            job(
                Equivalence::NotEquivalent,
                vec![trace(Stage::Checksum, true, 0, 0)],
            ),
            // Passed checksum, proven by Alive2.
            job(
                Equivalence::Equivalent,
                vec![
                    trace(Stage::Checksum, false, 0, 0),
                    trace(Stage::Alive2, true, 500, 10_000),
                ],
            ),
            // Fell through Alive2, exhausted the cascade at C-Unroll.
            job(
                Equivalence::Inconclusive,
                vec![
                    trace(Stage::Checksum, false, 0, 0),
                    trace(Stage::Alive2, false, 5_000, 90_000),
                    trace(Stage::CUnroll, false, 9_000, 120_000),
                ],
            ),
        ];
        let funnel = FunnelReport::from_jobs(&reports);
        assert_eq!(funnel.jobs, 3);
        assert_eq!(funnel.cached, 0);

        let checksum = funnel.stage(Stage::Checksum).unwrap();
        assert_eq!(checksum.entered, 3);
        assert_eq!(checksum.not_equivalent, 1);
        assert_eq!(checksum.passed, 2);

        let alive2 = funnel.stage(Stage::Alive2).unwrap();
        assert_eq!(alive2.entered, 2);
        assert_eq!(alive2.equivalent, 1);
        assert_eq!(alive2.passed, 1);
        assert_eq!(alive2.conclusive_max_conflicts, 500);
        assert_eq!(alive2.max_conflicts, 5_000);

        let cunroll = funnel.stage(Stage::CUnroll).unwrap();
        assert_eq!(cunroll.entered, 1);
        assert_eq!(cunroll.gave_up, 1, "cascade exhausted here");

        for stage in &funnel.stages {
            assert_eq!(
                stage.entered,
                stage.killed() + stage.gave_up + stage.passed,
                "{:?}",
                stage.stage
            );
            assert_eq!(
                stage.conflict_histogram.iter().sum::<usize>(),
                stage.entered
            );
        }
        let rendered = funnel.render();
        assert!(rendered.contains("Checksum"), "{}", rendered);
        assert!(rendered.contains("Alive2"), "{}", rendered);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(histogram_bucket(0), 0);
        assert_eq!(histogram_bucket(1), 1);
        assert_eq!(histogram_bucket(2), 2);
        assert_eq!(histogram_bucket(3), 2);
        assert_eq!(histogram_bucket(4), 3);
        assert_eq!(histogram_bucket(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn adaptive_policy_tightens_toward_observed_effort() {
        let reports = vec![
            job(
                Equivalence::Equivalent,
                vec![trace(Stage::Alive2, true, 400, 50_000)],
            ),
            job(
                Equivalence::Equivalent,
                vec![trace(Stage::Alive2, true, 900, 80_000)],
            ),
            job(
                Equivalence::Inconclusive,
                vec![
                    trace(Stage::Alive2, false, 60_000, 600_000),
                    trace(Stage::CUnroll, false, 1_000, 1_000),
                ],
            ),
        ];
        let funnel = FunnelReport::from_jobs(&reports);
        let base = TvConfig::default();
        let policy = AdaptiveBudgetPolicy::default();
        let tuned = policy.derive(&funnel, &base);

        // Alive2 concluded at ≤900 conflicts: tuned to 1800 (margin 100%),
        // well below the 60k base — inconclusive jobs stop wasting 60k.
        assert_eq!(tuned.alive2_budget.max_conflicts, 1_800);
        assert_eq!(tuned.alive2_budget.max_clauses, 160_000);
        // C-Unroll never concluded: keep the base budget.
        assert_eq!(
            tuned.cunroll_budget.max_conflicts,
            base.cunroll_budget.max_conflicts
        );
        // Splitting never ran: keep the base budget.
        assert_eq!(
            tuned.spatial_budget.max_conflicts,
            base.spatial_budget.max_conflicts
        );
        // Non-budget fields are untouched.
        assert_eq!(tuned.alive2_chunks, base.alive2_chunks);
    }

    #[test]
    fn adaptive_policy_respects_floor_and_base() {
        let reports = vec![job(
            Equivalence::Equivalent,
            vec![trace(Stage::Alive2, true, 1, 10)],
        )];
        let funnel = FunnelReport::from_jobs(&reports);
        let base = TvConfig::default();
        let policy = AdaptiveBudgetPolicy::default();
        let tuned = policy.derive(&funnel, &base);
        // Tiny observations are floored.
        assert_eq!(
            tuned.alive2_budget.max_conflicts,
            policy.floor.max_conflicts
        );
        assert_eq!(tuned.alive2_budget.max_clauses, policy.floor.max_clauses);

        // Huge observations are capped at the base.
        let reports = vec![job(
            Equivalence::Equivalent,
            vec![trace(Stage::Alive2, true, u64::MAX / 2, u64::MAX / 2)],
        )];
        let funnel = FunnelReport::from_jobs(&reports);
        let tuned = policy.derive(&funnel, &base);
        assert_eq!(
            tuned.alive2_budget.max_conflicts,
            base.alive2_budget.max_conflicts
        );
    }

    #[test]
    fn profile_derivation_matches_pilot_derivation() {
        use crate::profile::CrossRunProfile;
        use lv_analysis::KernelCategory;

        // The same evidence, once as a pilot funnel and once as a persisted
        // profile, must derive the same budgets.
        let reports = vec![
            job(
                Equivalence::Equivalent,
                vec![trace(Stage::Alive2, true, 400, 50_000)],
            ),
            job(
                Equivalence::Equivalent,
                vec![trace(Stage::Alive2, true, 900, 80_000)],
            ),
        ];
        let funnel = FunnelReport::from_jobs(&reports);
        let mut profile = CrossRunProfile::new();
        for report in &reports {
            profile.observe(KernelCategory::Reduction, report);
        }
        let base = TvConfig::default();
        let policy = AdaptiveBudgetPolicy::default();
        let from_pilot = policy.derive(&funnel, &base);
        let from_profile = policy.derive_from_profile(&profile, &base);
        assert_eq!(
            from_pilot.alive2_budget, from_profile.alive2_budget,
            "same evidence, same tightening"
        );
        // Unobserved stages keep the base budget either way.
        assert_eq!(from_profile.cunroll_budget, base.cunroll_budget);
        assert_eq!(from_profile.spatial_budget, base.spatial_budget);

        // An empty profile changes nothing at all.
        let untouched = policy.derive_from_profile(&CrossRunProfile::new(), &base);
        assert_eq!(untouched.alive2_budget, base.alive2_budget);
    }

    #[test]
    fn pilot_sizing() {
        let policy = AdaptiveBudgetPolicy::default();
        assert_eq!(policy.pilot_len(0), 0);
        assert_eq!(policy.pilot_len(4), 4, "small batches are all pilot");
        assert_eq!(policy.pilot_len(100), 25);
        assert_eq!(policy.pilot_len(20), 8, "min_pilot dominates");
    }
}
