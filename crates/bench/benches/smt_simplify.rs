//! CNF preprocessing on the Table 3 workload: run the same multi-candidate
//! TSVC batch with the blast-memo reuse layer `lv-sweep` now defaults on and
//! layer SatELite-style preprocessing (unit propagation, pure literals,
//! subsumption, bounded variable elimination) on top, and compare the
//! symbolic-stage wall time each needs for the *same verdicts*. A final arm
//! runs the whole reuse + preprocessing stack for context.
//!
//! The workload mirrors `smt_reuse`: every supported TSVC kernel gets its
//! rule-based vectorization plus `k` synthetic LLM completions. Verdict and
//! checksum classes are asserted identical across every arm — preprocessing
//! must be invisible in the results, visible only in the clock. Results are
//! printed and written to `BENCH_10.json` (override the path with
//! `BENCH_OUT`); `LV_BENCH_QUICK=1` shrinks the workload to a
//! category-covering slice for CI smoke runs.

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

/// The Table 3 verification regime with the reduced sweep budgets the other
/// engine benches use, so a six-arm run stays benchmark-friendly.
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

const MEMO: EngineReuse = EngineReuse {
    memo: true,
    incremental: false,
    preprocess: false,
};

struct Arm {
    name: &'static str,
    reuse: EngineReuse,
}

/// `raw` is the no-reuse no-preprocessing reference; `memo` is the
/// blast-memo reuse layer `lv-sweep` now defaults on, clause-identical to
/// `raw` — the baseline the headline speedup is measured against.
/// `memo_preprocess` layers preprocessing on top of it, and `full_stack`
/// shows memo + incremental + preprocessing for context (its queries run on
/// incremental sessions, which are never preprocessed).
const ARMS: &[Arm] = &[
    Arm {
        name: "raw",
        reuse: EngineReuse {
            memo: false,
            incremental: false,
            preprocess: false,
        },
    },
    Arm {
        name: "memo",
        reuse: MEMO,
    },
    Arm {
        name: "memo_preprocess",
        reuse: EngineReuse {
            preprocess: true,
            ..MEMO
        },
    },
    Arm {
        name: "full_stack",
        reuse: EngineReuse {
            memo: true,
            incremental: true,
            preprocess: true,
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
    // Hard identity pin: preprocessing must not change a single verdict or
    // checksum class relative to the raw arm — not on a benchmark run, not
    // ever. (Stages may improve under reuse/preprocessing, as in `smt_reuse`.)
    let raw = &runs[0].1;
    for (name, run) in &runs[1..] {
        for (f, r) in raw.jobs.iter().zip(&run.jobs) {
            assert_eq!(
                (&f.label, f.verdict, f.checksum),
                (&r.label, r.verdict, r.checksum),
                "arm `{}` changed a verdict for {}",
                name,
                f.label
            );
        }
    }
    // The preprocessing arms report their counters; the others report
    // exactly zero.
    assert!(runs[0].1.simplify_totals().is_zero());
    assert!(runs[1].1.simplify_totals().is_zero());
    for (name, run) in &runs[2..] {
        assert!(
            !run.simplify_totals().is_zero(),
            "arm `{}` reported no simplification work",
            name
        );
    }

    let memo_symbolic = symbolic_wall(&runs[1].1);
    println!(
        "\n=== smt_simplify: {} jobs ({} kernels x rule-based + {} completions) ===",
        jobs.len(),
        jobs.len() / (1 + COMPLETIONS_PER_KERNEL),
        COMPLETIONS_PER_KERNEL
    );
    let mut arm_json = Vec::new();
    for (name, run) in &runs {
        let symbolic = symbolic_wall(run);
        let totals = run.simplify_totals();
        println!(
            "{:<18} symbolic {:>12?} total {:>12?} ({:.2}x vs memo) — {} vars eliminated, {} subsumed, {} strengthened, {}us preprocessing",
            name,
            symbolic,
            run.wall,
            memo_symbolic.as_secs_f64() / symbolic.as_secs_f64().max(1e-9),
            totals.vars_eliminated,
            totals.clauses_subsumed,
            totals.clauses_strengthened,
            totals.preprocess_micros,
        );
        arm_json.push(format!(
            "{{\"arm\":\"{}\",\"symbolic_wall_us\":{},\"total_wall_us\":{},\
             \"vars_eliminated\":{},\"clauses_subsumed\":{},\"clauses_strengthened\":{},\
             \"preprocess_us\":{}}}",
            name,
            symbolic.as_micros(),
            run.wall.as_micros(),
            totals.vars_eliminated,
            totals.clauses_subsumed,
            totals.clauses_strengthened,
            totals.preprocess_micros,
        ));
    }
    let speedup = memo_symbolic.as_secs_f64() / symbolic_wall(&runs[2].1).as_secs_f64().max(1e-9);
    println!(
        "memo_preprocess: {:.2}x symbolic-stage speedup over the memo reuse baseline",
        speedup
    );

    let out =
        std::env::var("BENCH_OUT").unwrap_or_else(|_| match std::env::var("CARGO_MANIFEST_DIR") {
            Ok(pkg) => format!("{}/../../BENCH_10.json", pkg),
            Err(_) => "BENCH_10.json".to_string(),
        });
    let json = format!(
        "{{\"bench\":\"smt_simplify\",\
         \"compares\":\"blast-memo reuse (the lv-sweep default) vs memo + SatELite-style \
         preprocessing vs the full stack, identical verdicts\",\
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
    let memo_engine = engine_for(ARMS[1].reuse);
    let simplify_engine = engine_for(ARMS[2].reuse);
    c.bench_function("smt_memo_baseline", |b| {
        b.iter(|| memo_engine.run_batch(&loop_jobs))
    });
    c.bench_function("smt_full_simplify", |b| {
        b.iter(|| simplify_engine.run_batch(&loop_jobs))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(3);
    targets = bench
}
criterion_main!(benches);
