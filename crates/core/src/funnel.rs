//! The telemetry funnel.
//!
//! Every job the engine runs records a [`StageTrace`](crate::StageTrace)
//! per cascade stage, and this module aggregates them. A [`FunnelReport`]
//! sums a batch's traces per stage — how many jobs reached the stage, how
//! many it killed (and with which verdict), and the distribution of SAT
//! conflicts it spent — and renders the result as a funnel table with log₂
//! conflict histograms. It reports; it tunes nothing: stage order and
//! budgets come from the [`EngineConfig`](crate::EngineConfig) alone.

use crate::engine::JobReport;
use crate::pipeline::{Equivalence, Stage};
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
    /// CNF clauses built by this stage across all jobs.
    pub total_clauses: u64,
    /// Wall time spent in this stage across all jobs.
    pub wall: Duration,
    /// Histogram of per-run conflict counts (see [`HISTOGRAM_BUCKETS`]).
    pub conflict_histogram: [usize; HISTOGRAM_BUCKETS],
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
            total_clauses: 0,
            wall: Duration::ZERO,
            conflict_histogram: [0; HISTOGRAM_BUCKETS],
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
        };
        for report in reports {
            funnel.reuse.absorb(report.reuse);
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
                if trace.conclusive {
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
        if !self.reuse.is_zero() {
            out += &format!(
                "reuse: {} blast-cache hits / {} misses\n",
                self.reuse.blast_hits, self.reuse.blast_misses
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
        }
    }

    fn trace(stage: Stage, conclusive: bool, conflicts: u64, clauses: u64) -> StageTrace {
        StageTrace {
            stage,
            conclusive,
            wall: Duration::from_millis(1),
            conflicts,
            clauses,
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
}
