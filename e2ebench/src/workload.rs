//! The inputs every workload is built from: the shipped `lv-sweep` engine
//! configuration, the kernel sets, and the seeded job sets.

use lv_agents::LlmConfig;
use lv_cir::ast::Function;
use lv_cir::hash::structural_hash_in_env;
use lv_core::{EngineConfig, EngineReuse, Job, PipelineConfig};
use lv_interp::ChecksumConfig;
use lv_tv::{SolverBudget, TvConfig};
use std::time::{Duration, Instant};

/// Worker threads and client connections: the container's `nproc`.
pub const WORKERS: usize = 2;

/// The recorded default workload seed: `LlmConfig::default().seed`, the
/// generation seed of the `smt_*` benches.
pub const DEFAULT_SEED: u64 = 0xC0FFEE;

/// Synthetic completions per kernel on top of the rule-based candidate.
pub const COMPLETIONS_PER_KERNEL: usize = 3;

/// Supported TSVC kernels left out of the sweep: every conditional kernel
/// but `vif`. Each of their correct candidates takes 0.9–12 s under the
/// sweep budgets, while every other candidate takes under 0.2 s; with them
/// one 148-job sweep takes 42 s on 2 workers, so a run could not repeat the
/// sweep over several seeds, and one `warm_daemon` set-up (a cold fill)
/// alone would outlast a run.
pub const HEAVY_KERNELS: &[&str] = &[
    "s271", "s2711", "s2712", "s272", "s273", "s274", "s441", "s443",
];

/// Supported kernels whose rule-based vectorization is wrong, so the
/// oracle (a rule-based candidate is never `NotEquivalent`) would fail on
/// them. `vectorize_correct(s319)` accumulates the `a[i]` vector twice and
/// never the `b[i]` one, and the checksum stage refutes it.
pub const WRONG_RULE_KERNELS: &[&str] = &["s319"];

/// A category-covering slice of the sweep kernels, for `--smoke`: one
/// dependence-free, reduction, "other" and conditional kernel each.
pub const SMOKE_KERNELS: &[&str] = &["s000", "vsumr", "s212", "vif"];

/// The pass@k kernels: `lv_bench::REPRESENTATIVE_KERNELS` with its two
/// heavy conditional kernels (`s2711`, `s274`) swapped for the light
/// conditional kernels `s314` and `s3113`. Half the kernels are ones the
/// synthetic model never vectorizes correctly, so most candidates die at
/// the checksum stage, as in the paper's pass@k sampling.
pub const PASSK_KERNELS: &[&str] = &[
    "s000", "s112", "s212", "s221", "s314", "s3113", "s278", "vsumr", "s3111", "s453",
];

/// Completions sampled per pass@k kernel.
pub const PASSK_K: usize = 16;

/// The Table 3 regime with the reduced sweep budgets of the `smt_*` benches.
pub fn pipeline() -> PipelineConfig {
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

/// `lv-sweep`'s default reuse: the blast memo alone.
pub fn reuse() -> EngineReuse {
    EngineReuse {
        memo: true,
        ..EngineReuse::default()
    }
}

/// The shipped `lv-sweep` engine configuration: full cascade, default
/// schedule, blast memo on, [`WORKERS`] workers.
pub fn engine_config() -> EngineConfig {
    EngineConfig::full(pipeline())
        .with_threads(WORKERS)
        .with_reuse(reuse())
}

/// One scalar kernel with its rule-based vectorization.
#[derive(Debug, Clone)]
pub struct Kernel {
    /// TSVC name.
    pub name: &'static str,
    /// The scalar kernel.
    pub scalar: Function,
    /// `lv_agents::vectorize_correct(scalar)`, when the rule-based
    /// vectorizer supports the kernel.
    pub rule: Option<Function>,
}

/// The kernels named by `names` in TSVC order, or, when `names` is `None`,
/// every kernel the rule-based vectorizer supports except
/// [`HEAVY_KERNELS`] and [`WRONG_RULE_KERNELS`].
pub fn kernels(names: Option<&[&str]>) -> Vec<Kernel> {
    lv_tsvc::KERNELS
        .iter()
        .filter(|kernel| match names {
            Some(names) => names.contains(&kernel.name),
            None => ![HEAVY_KERNELS, WRONG_RULE_KERNELS]
                .concat()
                .contains(&kernel.name),
        })
        .map(|kernel| {
            let scalar = kernel.function();
            let rule = lv_agents::vectorize_correct(&scalar).ok();
            Kernel {
                name: kernel.name,
                scalar,
                rule,
            }
        })
        .filter(|kernel| names.is_some() || kernel.rule.is_some())
        .collect()
}

/// A set of verification jobs plus what the oracle needs to know about
/// them.
#[derive(Debug, Clone, Default)]
pub struct JobSet {
    /// The jobs as submitted.
    pub jobs: Vec<Job>,
    /// Per job: `true` when the candidate is structurally equal to the
    /// rule-based vectorization (in the scalar's parameter environment), so
    /// it must never come out `NotEquivalent`.
    pub rule_equal: Vec<bool>,
}

impl JobSet {
    /// Appends a job for `kernel`.
    pub fn push(&mut self, kernel: &Kernel, job: Job) {
        let rule_equal = kernel.rule.as_ref().is_some_and(|rule| {
            candidate_hash(&kernel.scalar, &job.candidate) == candidate_hash(&kernel.scalar, rule)
        });
        self.jobs.push(job);
        self.rule_equal.push(rule_equal);
    }
}

/// Structural hash of `candidate` in `scalar`'s parameter environment.
pub fn candidate_hash(scalar: &Function, candidate: &Function) -> u64 {
    structural_hash_in_env(candidate, scalar.params.iter().map(|p| p.name.as_str()))
}

/// The base seed of sweep (or pass@k round) `round` of a run with workload
/// seed `seed`: round 0 uses the seed itself, later rounds derive fresh
/// seeds from it, so one run averages over several seeded job sets.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    // Kernel index 2^32 - 1 is never a real cell, so round seeds cannot
    // coincide with the cell seeds derived from the same base.
    const ROUND_ROW: usize = 0xFFFF_FFFF;
    if round == 0 {
        seed
    } else {
        lv_agents::derive_cell_seed(seed, ROUND_ROW, round)
    }
}

/// The canonical sweep job set at one seed: per kernel, the rule-based
/// candidate plus [`COMPLETIONS_PER_KERNEL`] seeded synthetic completions.
/// Returns the jobs and the total time spent in `sample_completion_cell`.
pub fn sweep_jobs(kernels: &[Kernel], seed: u64) -> (JobSet, Duration) {
    let llm = LlmConfig {
        seed,
        ..LlmConfig::default()
    };
    let mut gen = Duration::ZERO;
    let mut set = JobSet::default();
    for (i, kernel) in kernels.iter().enumerate() {
        let rule = kernel
            .rule
            .clone()
            .expect("sweep kernels are vectorizer-supported");
        set.push(
            kernel,
            Job::new(format!("{}#rule", kernel.name), kernel.scalar.clone(), rule),
        );
        for j in 0..COMPLETIONS_PER_KERNEL {
            let start = Instant::now();
            let completion = lv_agents::sample_completion_cell(&kernel.scalar, &llm, i, j);
            gen += start.elapsed();
            let label = format!("{}#{}", kernel.name, j);
            set.push(
                kernel,
                Job::new(label, kernel.scalar.clone(), completion.candidate),
            );
        }
    }
    (set, gen)
}
