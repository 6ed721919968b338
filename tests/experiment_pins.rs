//! Exact outputs of the experiment drivers on small kernel subsets.
//!
//! Each driver classifies its jobs by reading the engine's `BatchReport` in
//! job order: job `idx` of Table 2, Figure 5 and the FSM evaluation is one
//! `(kernel, completion)` cell, and each Table 3 job is one kernel's
//! plausible candidate. These pins hold the Table 2 columns, the Figure 5
//! points, the FSM evaluation counts, the Table 3 rows and each kernel's
//! `(verdict, stage)` at one and at three engine workers, so a slip in that
//! index mapping (or a worker count leaking into a table) fails here.

use llm_vectorizer_repro::core::{
    figure5, figure6, fsm_evaluation, table2, table3, Equivalence, ExperimentConfig, NoopObserver,
    Stage, Table2Column, Table3Row,
};
use llm_vectorizer_repro::interp::ChecksumConfig;

/// The drivers' unit-test configuration: one checksum trial at n = 40.
fn small_config(names: &[&str], threads: usize) -> ExperimentConfig {
    ExperimentConfig {
        kernel_names: Some(names.iter().map(|s| s.to_string()).collect()),
        checksum: ChecksumConfig {
            trials: 1,
            n: 40,
            ..ChecksumConfig::default()
        },
        threads,
        ..ExperimentConfig::default()
    }
}

const THREADS: [usize; 2] = [1, 3];

#[test]
fn table2_columns_are_pinned() {
    for threads in THREADS {
        let config = small_config(&["s000", "s112", "s212", "s278", "vsumr"], threads);
        let table = table2(&config, &[1, 3]);
        assert_eq!(
            table.columns,
            [
                Table2Column {
                    k: 1,
                    plausible: 4,
                    not_equivalent: 0,
                    cannot_compile: 1,
                },
                Table2Column {
                    k: 3,
                    plausible: 4,
                    not_equivalent: 1,
                    cannot_compile: 0,
                },
            ],
            "{} workers",
            threads
        );
        assert_eq!(table.suite, 5);
    }
}

#[test]
fn figure5_points_are_pinned() {
    for threads in THREADS {
        let config = small_config(&["s000", "s212", "s2711"], threads);
        let figure = figure5(&config, 6, &[1, 2, 4, 6]);
        assert_eq!(
            figure.points,
            [
                (1, 0.7222222222222222),
                (2, 0.9111111111111111),
                (4, 1.0),
                (6, 1.0),
            ],
            "{} workers",
            threads
        );
    }
}

#[test]
fn fsm_evaluation_counts_are_pinned() {
    for threads in THREADS {
        let config = small_config(&["s000", "s112", "s212", "s2711", "s274", "vsumr"], threads);
        let eval = fsm_evaluation(&config);
        assert_eq!(
            (
                eval.plain_single_shot,
                eval.fsm_single_shot,
                eval.fsm_ten_attempts,
                eval.repaired,
                eval.max_attempts_used,
                eval.suite,
            ),
            (5, 5, 6, 1, 2, 6),
            "{} workers",
            threads
        );
    }
}

#[test]
fn table3_rows_and_kernel_verdicts_are_pinned() {
    let row = |technique, total, equivalent, not_equivalent, inconclusive| Table3Row {
        technique,
        total,
        equivalent,
        not_equivalent,
        inconclusive,
    };
    for threads in THREADS {
        let config = small_config(&["s000", "s112", "s212", "vsumr", "s278"], threads);
        let table = table3(&config, &NoopObserver);
        assert_eq!(
            table.rows,
            [
                row("Checksum", 5, 0, 1, 4),
                row("Alive2", 4, 4, 0, 0),
                row("C-Unroll", 0, 0, 0, 0),
                row("Splitting", 0, 0, 0, 0),
                row("All", 5, 4, 1, 0),
            ],
            "{} workers",
            threads
        );
        let verdicts: Vec<(&str, Equivalence, Stage, bool)> = table
            .verdicts
            .iter()
            .map(|v| (v.name, v.verdict, v.stage, v.candidate.is_some()))
            .collect();
        assert_eq!(
            verdicts,
            [
                ("s000", Equivalence::Equivalent, Stage::Alive2, true),
                ("s112", Equivalence::Equivalent, Stage::Alive2, true),
                ("s212", Equivalence::Equivalent, Stage::Alive2, true),
                ("s278", Equivalence::NotEquivalent, Stage::Checksum, false),
                ("vsumr", Equivalence::Equivalent, Stage::Alive2, true),
            ],
            "{} workers",
            threads
        );
        for v in &table.verdicts {
            if let Some(candidate) = &v.candidate {
                assert_eq!(
                    candidate.name, v.name,
                    "each kernel keeps its own candidate"
                );
            }
        }
        let plotted: Vec<&str> = figure6(&config, &table.verdicts)
            .rows
            .iter()
            .map(|r| r.name)
            .collect();
        assert_eq!(plotted, ["s000", "s112", "s212", "vsumr"]);
    }
}
