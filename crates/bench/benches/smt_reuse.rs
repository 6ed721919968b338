//! SMT cross-job reuse on the Table 3 workload: run the same multi-candidate
//! TSVC batch under three solver configurations — fresh (reuse off),
//! blasted-CNF memoization, and memo + incremental per-scalar sessions (with
//! scalar-affinity scheduling) — and compare the symbolic-stage wall time
//! each needs for the *same verdicts*.
//!
//! The workload is the Table 3 shape with the candidate axis widened: every
//! supported TSVC kernel gets its rule-based vectorization plus `k` synthetic
//! LLM completions, so each scalar kernel has several candidates and the
//! per-scalar warm sessions actually get revisited. Verdict classes are
//! asserted identical across every arm; within the memo arm, reports are
//! bit-identical to fresh. Results are printed and written to `BENCH_6.json`
//! (override the path with `BENCH_OUT`); `LV_BENCH_QUICK=1` shrinks the
//! workload to a category-covering slice for CI smoke runs.

use criterion::{criterion_group, criterion_main, Criterion};
use lv_agents::{sample_completion_batch, LlmConfig};
use lv_cir::ast::Function;
use lv_core::{
    BatchReport, EngineConfig, EngineReuse, Job, PipelineConfig, Stage, VerificationEngine,
};
use lv_interp::ChecksumConfig;
use lv_tv::{SolverBudget, TvConfig};
use std::time::Duration;

/// Completions sampled per kernel on top of the rule-based candidate.
const COMPLETIONS_PER_KERNEL: usize = 3;

/// A category-covering slice for quick (CI smoke) runs.
const QUICK_KERNELS: &[&str] = &[
    "s000", "s112", "vsumr", "s313", "s2711", "s441", "s443", "s212", "s453",
];

/// The Table 3 verification regime, with the reduced sweep budgets the other
/// engine benches use so a three-arm run stays benchmark-friendly.
fn pipeline() -> PipelineConfig {
    PipelineConfig {
        checksum: ChecksumConfig {
            trials: 1,
            n: 40,
            ..ChecksumConfig::default()
        },
        tv: TvConfig {
            alive2_budget: SolverBudget {
                max_conflicts: 1_000,
                max_clauses: 200_000,
            },
            cunroll_budget: SolverBudget {
                max_conflicts: 10_000,
                max_clauses: 1_000_000,
            },
            spatial_budget: SolverBudget {
                max_conflicts: 4_000,
                max_clauses: 500_000,
            },
            alive2_chunks: 1,
            ..TvConfig::default()
        },
    }
}

/// The multi-candidate workload: for every selected kernel, the rule-based
/// vectorization plus `COMPLETIONS_PER_KERNEL` synthetic LLM completions.
/// Candidate generation is sequential (the sampler is stateful) so the job
/// list is deterministic.
fn jobs_for(names: Option<&[&str]>) -> Vec<Job> {
    let kernels: Vec<_> = lv_tsvc::KERNELS
        .iter()
        .filter(|kernel| names.is_none_or(|names| names.contains(&kernel.name)))
        .filter(|kernel| lv_agents::vectorize_correct(&kernel.function()).is_ok())
        .collect();
    let scalars: Vec<Function> = kernels.iter().map(|k| k.function()).collect();
    let batch = sample_completion_batch(&scalars, &LlmConfig::default(), COMPLETIONS_PER_KERNEL);
    let mut jobs = Vec::new();
    for (i, kernel) in kernels.iter().enumerate() {
        let rule_based = lv_agents::vectorize_correct(&scalars[i]).expect("filtered above");
        jobs.push(Job::new(
            format!("{}#rule", kernel.name),
            scalars[i].clone(),
            rule_based,
        ));
        for (j, completion) in batch.completions[i].iter().enumerate() {
            jobs.push(Job::new(
                format!("{}#{}", kernel.name, j),
                scalars[i].clone(),
                completion.candidate.clone(),
            ));
        }
    }
    jobs
}

/// Sum of symbolic-stage (everything after checksum) trace wall time.
fn symbolic_wall(report: &BatchReport) -> Duration {
    report
        .jobs
        .iter()
        .flat_map(|job| &job.traces)
        .filter(|trace| trace.stage != Stage::Checksum)
        .map(|trace| trace.wall)
        .sum()
}

struct Arm {
    name: &'static str,
    reuse: EngineReuse,
}

const ARMS: &[Arm] = &[
    Arm {
        name: "fresh",
        reuse: EngineReuse {
            memo: false,
            incremental: false,
            preprocess: false,
        },
    },
    Arm {
        name: "memo",
        reuse: EngineReuse {
            memo: true,
            incremental: false,
            preprocess: false,
        },
    },
    Arm {
        name: "memo_incremental",
        reuse: EngineReuse {
            memo: true,
            incremental: true,
            preprocess: false,
        },
    },
];

fn engine_for(reuse: EngineReuse) -> VerificationEngine {
    VerificationEngine::new(
        EngineConfig::full(pipeline())
            .with_threads(1)
            .with_reuse(reuse),
    )
}

fn bench(c: &mut Criterion) {
    let quick = std::env::var("LV_BENCH_QUICK").is_ok();
    let jobs = jobs_for(if quick { Some(QUICK_KERNELS) } else { None });

    let runs: Vec<(&'static str, BatchReport)> = ARMS
        .iter()
        .map(|arm| (arm.name, engine_for(arm.reuse).run_batch(&jobs)))
        .collect();
    let fresh = &runs[0].1;
    // Verdicts are pinned across every arm. The concluding *stage* may only
    // improve under incremental reuse: learned clauses on the warm session
    // can let a budget-capped query conclude where a fresh solver exhausted
    // its budget (which is why the incremental layer perturbs the
    // configuration fingerprint).
    for (name, run) in &runs[1..] {
        for (f, r) in fresh.jobs.iter().zip(&run.jobs) {
            assert_eq!(
                (&f.label, f.verdict, f.checksum),
                (&r.label, r.verdict, r.checksum),
                "arm `{}` changed a verdict for {}",
                name,
                f.label
            );
        }
    }
    // The memo arm is clause-identical to fresh: its reports match in full —
    // concluding stage, details, and per-stage solver effort included.
    for (f, m) in fresh.jobs.iter().zip(&runs[1].1.jobs) {
        assert_eq!(f.stage, m.stage, "memo must be clause-identical");
        assert_eq!(f.detail, m.detail, "memo must be clause-identical");
        for (ft, mt) in f.traces.iter().zip(&m.traces) {
            assert_eq!((ft.conflicts, ft.clauses), (mt.conflicts, mt.clauses));
        }
    }

    let fresh_symbolic = symbolic_wall(fresh);
    println!(
        "\n=== smt_reuse: {} jobs ({} kernels x rule-based + {} completions) ===",
        jobs.len(),
        jobs.len() / (1 + COMPLETIONS_PER_KERNEL),
        COMPLETIONS_PER_KERNEL
    );
    let mut arm_json = Vec::new();
    for (name, run) in &runs {
        let symbolic = symbolic_wall(run);
        let totals = run.reuse_totals();
        println!(
            "{:<18} symbolic {:>12?} total {:>12?} ({:.2}x) — {} blast hits / {} misses, {} assumption reuses",
            name,
            symbolic,
            run.wall,
            fresh_symbolic.as_secs_f64() / symbolic.as_secs_f64().max(1e-9),
            totals.blast_hits,
            totals.blast_misses,
            totals.assumption_reuses,
        );
        arm_json.push(format!(
            "{{\"arm\":\"{}\",\"symbolic_wall_us\":{},\"total_wall_us\":{},\
             \"blast_hits\":{},\"blast_misses\":{},\"assumption_reuses\":{}}}",
            name,
            symbolic.as_micros(),
            run.wall.as_micros(),
            totals.blast_hits,
            totals.blast_misses,
            totals.assumption_reuses,
        ));
    }
    let best_symbolic = runs[1..]
        .iter()
        .map(|(_, run)| symbolic_wall(run))
        .min()
        .expect("reuse arms exist");
    let speedup = fresh_symbolic.as_secs_f64() / best_symbolic.as_secs_f64().max(1e-9);
    println!(
        "best reuse arm: {:.2}x symbolic-stage speedup over fresh",
        speedup
    );

    let out =
        std::env::var("BENCH_OUT").unwrap_or_else(|_| match std::env::var("CARGO_MANIFEST_DIR") {
            Ok(pkg) => format!("{}/../../BENCH_6.json", pkg),
            Err(_) => "BENCH_6.json".to_string(),
        });
    let json = format!(
        "{{\"bench\":\"smt_reuse\",\
         \"compares\":\"fresh solver per query vs blasted-CNF memoization vs incremental \
         per-scalar sessions, identical verdicts\",\
         \"jobs\":{},\"arms\":[{}],\"symbolic_speedup_x\":{:.2}}}\n",
        jobs.len(),
        arm_json.join(","),
        speedup,
    );
    std::fs::write(&out, json).expect("write bench JSON");
    println!("wrote {}", out);

    // Timed loops always run the quick slice so local full runs stay
    // benchmark-friendly.
    let loop_jobs = jobs_for(Some(QUICK_KERNELS));
    let fresh_engine = engine_for(ARMS[0].reuse);
    let reuse_engine = engine_for(ARMS[2].reuse);
    c.bench_function("smt_fresh_per_query", |b| {
        b.iter(|| fresh_engine.run_batch(&loop_jobs))
    });
    c.bench_function("smt_full_reuse", |b| {
        b.iter(|| reuse_engine.run_batch(&loop_jobs))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(3);
    targets = bench
}
criterion_main!(benches);
