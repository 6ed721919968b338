//! Experiment drivers that regenerate every table and figure of the paper.
//!
//! Each driver returns a plain data structure with a `render()` method that
//! prints rows in the same shape as the paper's tables/figures; the Criterion
//! benches in `lv-bench` and the runnable examples call these drivers.
//!
//! Every driver runs its equivalence checks through the parallel
//! [`VerificationEngine`]: candidates are generated sequentially (the
//! synthetic LLM is a seeded, stateful sampler), collected into
//! `(kernel × candidate)` jobs, and fanned out over the engine's worker
//! pool. Each driver reads its counts and classes from the returned
//! [`BatchReport`](crate::BatchReport), whose reports are in job order, so
//! verdicts are bit-identical for any [`ExperimentConfig::threads`]
//! setting; the thread count only changes wall-clock time.
//!
//! [`table3`] also takes a [`BatchObserver`] and forwards its engine events
//! to it as workers finish, so a [`StreamObserver`](crate::StreamObserver)
//! prints each kernel's verdict while the funnel is still running. A cache
//! configured on [`ExperimentConfig`] is honored by every engine run of
//! every experiment.

use crate::cache::VerdictCache;
use crate::engine::{parallel_map, EngineConfig, Job, VerificationEngine};
use crate::funnel::FunnelReport;
use crate::observer::BatchObserver;
use crate::passk::pass_at_k_curve;
use crate::pipeline::{Equivalence, PipelineConfig, Stage};
use lv_agents::{fsm_candidate_batch, sample_completion_batch, FsmConfig, LlmConfig, SyntheticLlm};
use lv_autovec::{speedup_over, Compiler, CompilerProfile, CostTable};
use lv_cir::ast::Function;
use lv_interp::{ChecksumClass, ChecksumConfig};
use lv_tsvc::{Category, Kernel, KERNELS, PAPER_SUITE_SIZE};
use std::collections::HashMap;
use std::sync::Arc;

/// Common experiment configuration.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Kernels to evaluate (defaults to the whole embedded suite).
    pub kernel_names: Option<Vec<String>>,
    /// RNG seed for the synthetic LLM.
    pub seed: u64,
    /// Sampling temperature.
    pub temperature: f64,
    /// Checksum configuration.
    pub checksum: ChecksumConfig,
    /// Pipeline (verification) configuration.
    pub pipeline: PipelineConfig,
    /// Problem size used for the performance simulations.
    pub performance_n: u64,
    /// Verification-engine worker threads (`0` = one per CPU). Any value
    /// yields identical tables/figures; it only affects wall-clock time.
    pub threads: usize,
    /// Verdict cache shared by every engine a driver builds. `None` (the
    /// default) disables caching.
    pub cache: Option<Arc<VerdictCache>>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            kernel_names: None,
            seed: 2024,
            temperature: 1.0,
            checksum: ChecksumConfig::default(),
            pipeline: PipelineConfig::default(),
            performance_n: 32_000,
            threads: 0,
            cache: None,
        }
    }
}

impl ExperimentConfig {
    /// The kernels selected by this configuration.
    pub fn kernels(&self) -> Vec<&'static Kernel> {
        match &self.kernel_names {
            None => KERNELS.iter().collect(),
            Some(names) => KERNELS
                .iter()
                .filter(|k| names.iter().any(|n| n == k.name))
                .collect(),
        }
    }

    fn llm(&self) -> SyntheticLlm {
        SyntheticLlm::new(self.llm_config())
    }

    fn llm_config(&self) -> LlmConfig {
        LlmConfig {
            temperature: self.temperature,
            seed: self.seed,
            ..LlmConfig::default()
        }
    }

    /// The engine running Algorithm 1's full cascade under this
    /// configuration (Table 3, Figure 1).
    pub fn engine(&self) -> VerificationEngine {
        let mut engine = EngineConfig::full(self.pipeline.clone()).with_threads(self.threads);
        engine.cache = self.cache.clone();
        VerificationEngine::new(engine)
    }

    /// The engine running the checksum-only cascade under this
    /// configuration (Table 2, Figure 5, the Section 4.4 evaluation).
    /// Shares [`ExperimentConfig::cache`] with the full-cascade engine —
    /// the two cascades have different configuration fingerprints, so their
    /// entries never collide.
    pub fn checksum_engine(&self) -> VerificationEngine {
        let mut engine =
            EngineConfig::checksum_only(self.checksum.clone()).with_threads(self.threads);
        engine.cache = self.cache.clone();
        VerificationEngine::new(engine)
    }
}

/// Samples `k` feedback-free completions per kernel and classifies each
/// through the checksum-only cascade (Table 2, Figure 5, the Section 4.4
/// evaluation): `classes[kernel][completion]` is the cell's checksum class.
/// The cells run as jobs labeled `kernel#completion` in
/// [`CompletionBatch::jobs`](lv_agents::CompletionBatch::jobs) order, so
/// report `idx` of the batch is cell `idx` of that walk.
fn checksum_classes(
    config: &ExperimentConfig,
    kernels: &[&'static Kernel],
    scalars: &[Function],
    k: usize,
) -> Vec<Vec<Option<ChecksumClass>>> {
    // Generation is sequential (the sampler is stateful); classification
    // fans out over the engine's worker pool.
    let batch = sample_completion_batch(scalars, &config.llm_config(), k);
    let jobs: Vec<Job> = batch
        .jobs()
        .map(|(i, j, completion)| {
            Job::new(
                format!("{}#{}", kernels[i].name, j),
                scalars[i].clone(),
                completion.candidate.clone(),
            )
        })
        .collect();
    let report = config.checksum_engine().run_batch(&jobs);
    let mut classes = vec![Vec::new(); kernels.len()];
    for ((i, _, _), job) in batch.jobs().zip(&report.jobs) {
        classes[i].push(job.checksum);
    }
    classes
}

/// Scales a count from the embedded suite to the paper's 149-test population.
pub fn scale_to_paper(count: usize, suite: usize) -> usize {
    (count * PAPER_SUITE_SIZE + suite / 2)
        .checked_div(suite)
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Table 2: checksum-based testing at k completions.
// ---------------------------------------------------------------------------

/// One column of Table 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table2Column {
    /// Number of completions sampled per kernel.
    pub k: usize,
    /// Kernels with at least one plausible completion.
    pub plausible: usize,
    /// Kernels where every completion compiled but none matched.
    pub not_equivalent: usize,
    /// Kernels where no completion compiled.
    pub cannot_compile: usize,
}

/// The Table 2 reproduction.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// Columns for each requested k.
    pub columns: Vec<Table2Column>,
    /// Number of kernels evaluated.
    pub suite: usize,
}

impl Table2 {
    /// Renders rows in the paper's format, with counts scaled to 149 tests.
    pub fn render(&self) -> String {
        let mut out = String::from("Parameters");
        for c in &self.columns {
            out += &format!("\tk={}", c.k);
        }
        out += "\nPlausible";
        for c in &self.columns {
            out += &format!("\t{}", scale_to_paper(c.plausible, self.suite));
        }
        out += "\nNot equivalent";
        for c in &self.columns {
            out += &format!("\t{}", scale_to_paper(c.not_equivalent, self.suite));
        }
        out += "\nCannot compile";
        for c in &self.columns {
            out += &format!("\t{}", scale_to_paper(c.cannot_compile, self.suite));
        }
        out
    }
}

/// Runs the Table 2 experiment: for each kernel, sample `max(k_values)`
/// completions without feedback and classify the best outcome within the
/// first `k` completions for each requested `k`.
pub fn table2(config: &ExperimentConfig, k_values: &[usize]) -> Table2 {
    let kernels = config.kernels();
    let max_k = k_values.iter().copied().max().unwrap_or(1);
    let scalars: Vec<Function> = kernels.iter().map(|k| k.function()).collect();
    let classes = checksum_classes(config, &kernels, &scalars, max_k);
    let columns = k_values
        .iter()
        .map(|&k| {
            let mut col = Table2Column {
                k,
                plausible: 0,
                not_equivalent: 0,
                cannot_compile: 0,
            };
            for row in &classes {
                let window = &row[..k.min(row.len())];
                if window.contains(&Some(ChecksumClass::Plausible)) {
                    col.plausible += 1;
                } else if window
                    .iter()
                    .all(|&class| class == Some(ChecksumClass::CannotCompile))
                {
                    col.cannot_compile += 1;
                } else {
                    col.not_equivalent += 1;
                }
            }
            col
        })
        .collect();
    Table2 {
        columns,
        suite: kernels.len(),
    }
}

// ---------------------------------------------------------------------------
// Figure 5: pass@k.
// ---------------------------------------------------------------------------

/// The Figure 5 reproduction: the averaged pass@k curve.
#[derive(Debug, Clone)]
pub struct Figure5 {
    /// `(k, mean pass@k)` points.
    pub points: Vec<(usize, f64)>,
}

impl Figure5 {
    /// Renders the curve as `k<TAB>pass@k` lines.
    pub fn render(&self) -> String {
        self.points
            .iter()
            .map(|(k, p)| format!("{}\t{:.3}", k, p))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Runs the pass@k experiment with `n_samples` completions per kernel.
pub fn figure5(config: &ExperimentConfig, n_samples: usize, ks: &[usize]) -> Figure5 {
    let kernels = config.kernels();
    let scalars: Vec<Function> = kernels.iter().map(|k| k.function()).collect();
    let per_kernel_correct: Vec<usize> = checksum_classes(config, &kernels, &scalars, n_samples)
        .iter()
        .map(|row| {
            row.iter()
                .filter(|&&class| class == Some(ChecksumClass::Plausible))
                .count()
        })
        .collect();
    Figure5 {
        points: pass_at_k_curve(&per_kernel_correct, n_samples, ks),
    }
}

// ---------------------------------------------------------------------------
// Table 3: the verification funnel.
// ---------------------------------------------------------------------------

/// One row of Table 3 (one equivalence-checking technique).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table3Row {
    /// Technique label.
    pub technique: &'static str,
    /// Tests entering this stage.
    pub total: usize,
    /// Tests proven equivalent at this stage.
    pub equivalent: usize,
    /// Tests proven not equivalent at this stage.
    pub not_equivalent: usize,
    /// Tests still inconclusive after this stage.
    pub inconclusive: usize,
}

/// The Table 3 reproduction plus the per-kernel verdicts (used by Figure 6).
#[derive(Debug, Clone)]
pub struct Table3 {
    /// Rows in the order Checksum, Alive2, C-Unroll, Splitting, All.
    pub rows: Vec<Table3Row>,
    /// Per-kernel final verdict and the candidate that was checked.
    pub verdicts: Vec<KernelVerdict>,
    /// Number of kernels evaluated.
    pub suite: usize,
    /// The engine batch behind the funnel: per-job telemetry, wall time,
    /// and the cache hit/miss counters.
    pub batch: crate::BatchReport,
    /// The telemetry funnel over the batch's stage traces.
    pub funnel: FunnelReport,
}

/// The final verdict for one kernel.
#[derive(Debug, Clone)]
pub struct KernelVerdict {
    /// Kernel name.
    pub name: &'static str,
    /// Category (for Figure 6 grouping).
    pub category: Category,
    /// Final verdict.
    pub verdict: Equivalence,
    /// Stage that produced it.
    pub stage: Stage,
    /// The plausible candidate, when one was found.
    pub candidate: Option<Function>,
}

impl Table3 {
    /// Renders rows in the paper's format.
    pub fn render(&self) -> String {
        let mut out = String::from("Techniques\tTotal\tEquiv\tNot Equiv\tInconcl\n");
        for row in &self.rows {
            out += &format!(
                "{}\t{}\t{}\t{}\t{}\n",
                row.technique, row.total, row.equivalent, row.not_equivalent, row.inconclusive
            );
        }
        out
    }
}

/// Runs the full verification funnel: the FSM produces (at most) one
/// plausible candidate per kernel, which is then pushed through Algorithm 1's
/// symbolic stages. The engine's events stream to `observer` as workers
/// finish (`&NoopObserver` to ignore them).
pub fn table3(config: &ExperimentConfig, observer: &dyn BatchObserver) -> Table3 {
    let kernels = config.kernels();
    let scalars: Vec<Function> = kernels.iter().map(|k| k.function()).collect();
    let mut llm = config.llm();
    let fsm_config = FsmConfig {
        max_attempts: 10,
        checksum: config.checksum.clone(),
        llm: config.llm_config(),
    };

    // The FSM's feedback loop is sequential; the symbolic funnel over the
    // plausible candidates is where the wall-clock goes, and that part runs
    // as one engine batch. A kernel without a plausible candidate is
    // refuted at the checksum stage.
    let fsm_results = fsm_candidate_batch(&scalars, &fsm_config, &mut llm);
    let mut job_indices: Vec<usize> = Vec::new();
    let mut jobs: Vec<Job> = Vec::new();
    for (i, fsm) in fsm_results.into_iter().enumerate() {
        if let Some(candidate) = fsm.candidate {
            job_indices.push(i);
            jobs.push(Job::new(kernels[i].name, scalars[i].clone(), candidate));
        }
    }
    let batch = config.engine().run_batch_observed(&jobs, observer);
    let mut verdicts: Vec<KernelVerdict> = kernels
        .iter()
        .map(|kernel| KernelVerdict {
            name: kernel.name,
            category: kernel.category,
            verdict: Equivalence::NotEquivalent,
            stage: Stage::Checksum,
            candidate: None,
        })
        .collect();
    for ((i, job), report) in job_indices.into_iter().zip(jobs).zip(&batch.jobs) {
        let verdict = &mut verdicts[i];
        verdict.verdict = report.verdict;
        verdict.stage = report.stage;
        verdict.candidate = Some(job.candidate);
    }
    let funnel = batch.funnel();

    // Funnel accounting in the paper's style.
    let total = kernels.len();
    let refuted_by_checksum = verdicts
        .iter()
        .filter(|v| v.stage == Stage::Checksum && v.verdict == Equivalence::NotEquivalent)
        .count();
    let plausible = total - refuted_by_checksum;
    let mut rows = vec![Table3Row {
        technique: "Checksum",
        total,
        equivalent: 0,
        not_equivalent: refuted_by_checksum,
        inconclusive: plausible,
    }];
    let mut remaining = plausible;
    for (stage, label) in [
        (Stage::Alive2, "Alive2"),
        (Stage::CUnroll, "C-Unroll"),
        (Stage::Splitting, "Splitting"),
    ] {
        let equivalent = verdicts
            .iter()
            .filter(|v| v.stage == stage && v.verdict == Equivalence::Equivalent)
            .count();
        let not_equivalent = verdicts
            .iter()
            .filter(|v| v.stage == stage && v.verdict == Equivalence::NotEquivalent)
            .count();
        let next_remaining = remaining - equivalent - not_equivalent;
        rows.push(Table3Row {
            technique: label,
            total: remaining,
            equivalent,
            not_equivalent,
            inconclusive: next_remaining,
        });
        remaining = next_remaining;
    }
    let all_equiv: usize = rows.iter().map(|r| r.equivalent).sum();
    let all_not: usize = rows.iter().map(|r| r.not_equivalent).sum();
    rows.push(Table3Row {
        technique: "All",
        total,
        equivalent: all_equiv,
        not_equivalent: all_not,
        inconclusive: total - all_equiv - all_not,
    });

    Table3 {
        rows,
        verdicts,
        suite: total,
        batch,
        funnel,
    }
}

// ---------------------------------------------------------------------------
// Figure 1(c) and Figure 6: run-time speedups.
// ---------------------------------------------------------------------------

/// One bar group of Figure 6 (or Figure 1(c) for s212).
#[derive(Debug, Clone)]
pub struct SpeedupRow {
    /// Kernel name.
    pub name: &'static str,
    /// Category.
    pub category: Category,
    /// Speedup of the LLM candidate over (GCC, Clang, ICC).
    pub speedup: HashMap<Compiler, f64>,
}

/// The speedup figure reproduction.
#[derive(Debug, Clone)]
pub struct SpeedupFigure {
    /// One row per verified kernel.
    pub rows: Vec<SpeedupRow>,
}

impl SpeedupFigure {
    /// Renders `kernel<TAB>category<TAB>gcc<TAB>clang<TAB>icc` rows.
    pub fn render(&self) -> String {
        let mut out = String::from("test\tcategory\tvs GCC\tvs Clang\tvs ICC\n");
        for row in &self.rows {
            out += &format!(
                "{}\t{}\t{:.2}\t{:.2}\t{:.2}\n",
                row.name,
                row.category.label(),
                row.speedup[&Compiler::Gcc],
                row.speedup[&Compiler::Clang],
                row.speedup[&Compiler::Icc],
            );
        }
        out
    }

    /// The geometric-mean speedup per compiler, a convenient summary.
    pub fn geomean(&self) -> HashMap<Compiler, f64> {
        let mut out = HashMap::new();
        for compiler in Compiler::all() {
            let logs: f64 = self
                .rows
                .iter()
                .map(|r| r.speedup[&compiler].max(1e-6).ln())
                .sum();
            let count = self.rows.len().max(1) as f64;
            out.insert(compiler, (logs / count).exp());
        }
        out
    }
}

/// Computes Figure 6: speedups of verified candidates over the baselines.
/// `verdicts` normally comes from [`table3`]; only kernels with an
/// `Equivalent` verdict and a candidate are plotted (57 of 149 in the paper).
pub fn figure6(config: &ExperimentConfig, verdicts: &[KernelVerdict]) -> SpeedupFigure {
    let costs = CostTable::default();
    let verified: Vec<&KernelVerdict> = verdicts
        .iter()
        .filter(|v| {
            v.verdict == Equivalence::Equivalent
                && v.candidate.is_some()
                && lv_tsvc::kernel(v.name).is_some()
        })
        .collect();
    // Cost-model evaluations are independent per kernel: reuse the engine's
    // work-queue pattern to compute the rows in parallel.
    let rows = parallel_map(config.threads, &verified, |v| {
        let candidate = v.candidate.as_ref().expect("filtered above");
        let scalar = lv_tsvc::kernel(v.name).expect("filtered above").function();
        let mut speedup = HashMap::new();
        for compiler in Compiler::all() {
            speedup.insert(
                compiler,
                speedup_over(
                    &CompilerProfile::of(compiler),
                    &scalar,
                    candidate,
                    config.performance_n,
                    &costs,
                ),
            );
        }
        SpeedupRow {
            name: v.name,
            category: v.category,
            speedup,
        }
    });
    SpeedupFigure { rows }
}

/// Computes Figure 1(c): the s212 motivating example's speedups.
///
/// The candidate is first verified through the engine's full cascade — the
/// figure only plots formally verified code, so an unverified candidate
/// (possible under severely reduced solver budgets) yields an empty figure
/// rather than a panic.
pub fn figure1(config: &ExperimentConfig) -> SpeedupFigure {
    let kernel = lv_tsvc::kernel("s212").expect("s212 is part of the suite");
    let scalar = kernel.function();
    let candidate =
        lv_agents::vectorize_correct(&scalar).expect("s212 is a supported kernel shape");
    let jobs = [Job::new("s212", scalar.clone(), candidate.clone())];
    let batch = config.engine().run_batch(&jobs);
    let report = &batch.jobs[0];
    if report.verdict != Equivalence::Equivalent {
        return SpeedupFigure { rows: Vec::new() };
    }
    let costs = CostTable::default();
    let mut speedup = HashMap::new();
    for compiler in Compiler::all() {
        speedup.insert(
            compiler,
            speedup_over(
                &CompilerProfile::of(compiler),
                &scalar,
                &candidate,
                config.performance_n,
                &costs,
            ),
        );
    }
    SpeedupFigure {
        rows: vec![SpeedupRow {
            name: "s212",
            category: Category::Dependence,
            speedup,
        }],
    }
}

// ---------------------------------------------------------------------------
// Section 4.4: multi-agent FSM evaluation.
// ---------------------------------------------------------------------------

/// The FSM-vs-plain-sampling comparison of Section 4.4.
#[derive(Debug, Clone)]
pub struct FsmEvaluation {
    /// Kernels plausible with one *plain* completion (no feedback).
    pub plain_single_shot: usize,
    /// Kernels plausible with one FSM invocation (dependence feedback).
    pub fsm_single_shot: usize,
    /// Kernels solved by the FSM within its ten-attempt budget.
    pub fsm_ten_attempts: usize,
    /// Kernels that needed more than one FSM attempt.
    pub repaired: usize,
    /// Maximum number of attempts used by any solved kernel.
    pub max_attempts_used: u32,
    /// Number of kernels evaluated.
    pub suite: usize,
}

impl FsmEvaluation {
    /// Renders the summary lines of Section 4.4.
    pub fn render(&self) -> String {
        format!(
            "plain single completion plausible: {} / {}\nFSM single invocation plausible: {} / {}\nFSM (10 attempts) plausible: {} / {}\nrepaired via feedback loop: {}\nmax attempts used: {}",
            self.plain_single_shot,
            self.suite,
            self.fsm_single_shot,
            self.suite,
            self.fsm_ten_attempts,
            self.suite,
            self.repaired,
            self.max_attempts_used
        )
    }
}

/// Runs the FSM evaluation.
pub fn fsm_evaluation(config: &ExperimentConfig) -> FsmEvaluation {
    let kernels = config.kernels();
    let scalars: Vec<Function> = kernels.iter().map(|k| k.function()).collect();

    // Plain single-shot sampling, classified by the engine's checksum stage.
    let plain = checksum_classes(config, &kernels, &scalars, 1)
        .iter()
        .flatten()
        .filter(|&&class| class == Some(ChecksumClass::Plausible))
        .count();

    // The FSM's checksum feedback loop is inherently sequential per kernel.
    let mut llm = config.llm();
    let fsm_config = FsmConfig {
        max_attempts: 10,
        checksum: config.checksum.clone(),
        llm: config.llm_config(),
    };
    let mut fsm_single = 0usize;
    let mut fsm_ten = 0usize;
    let mut repaired = 0usize;
    let mut max_attempts = 0u32;
    for result in fsm_candidate_batch(&scalars, &fsm_config, &mut llm) {
        if result.succeeded() {
            fsm_ten += 1;
            if result.attempts == 1 {
                fsm_single += 1;
            } else {
                repaired += 1;
            }
            max_attempts = max_attempts.max(result.attempts);
        }
    }

    FsmEvaluation {
        plain_single_shot: plain,
        fsm_single_shot: fsm_single,
        fsm_ten_attempts: fsm_ten,
        repaired,
        max_attempts_used: max_attempts,
        suite: kernels.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::NoopObserver;

    fn small_config(names: &[&str]) -> ExperimentConfig {
        ExperimentConfig {
            kernel_names: Some(names.iter().map(|s| s.to_string()).collect()),
            checksum: ChecksumConfig {
                trials: 1,
                n: 40,
                ..ChecksumConfig::default()
            },
            ..ExperimentConfig::default()
        }
    }

    #[test]
    fn table2_counts_are_consistent() {
        let config = small_config(&["s000", "s112", "s212", "s278", "vsumr"]);
        let table = table2(&config, &[1, 3]);
        assert_eq!(table.suite, 5);
        for col in &table.columns {
            assert_eq!(col.plausible + col.not_equivalent + col.cannot_compile, 5);
        }
        // More completions can only help.
        assert!(table.columns[1].plausible >= table.columns[0].plausible);
        assert!(table.render().contains("Plausible"));
    }

    #[test]
    fn figure5_is_monotone_in_k() {
        let config = small_config(&["s000", "s212", "s2711"]);
        let fig = figure5(&config, 6, &[1, 2, 4, 6]);
        for pair in fig.points.windows(2) {
            assert!(pair[1].1 >= pair[0].1 - 1e-9, "{:?}", fig.points);
        }
        assert!(fig.render().contains('\t'));
    }

    #[test]
    fn table3_funnel_adds_up() {
        let config = small_config(&["s000", "s112", "s212", "vsumr", "s278"]);
        let table = table3(&config, &NoopObserver);
        let all = table.rows.last().unwrap();
        assert_eq!(all.total, 5);
        assert_eq!(all.equivalent + all.not_equivalent + all.inconclusive, 5);
        assert!(all.equivalent >= 1, "{}", table.render());
        // Verified kernels feed Figure 6.
        let fig = figure6(&config, &table.verdicts);
        assert_eq!(fig.rows.len(), all.equivalent);
    }

    #[test]
    fn figure1_matches_paper_shape() {
        let fig = figure1(&ExperimentConfig::default());
        let row = &fig.rows[0];
        assert!(row.speedup[&Compiler::Gcc] > row.speedup[&Compiler::Icc]);
        assert!(row.speedup[&Compiler::Clang] > row.speedup[&Compiler::Icc]);
        assert!(fig.render().contains("s212"));
        assert!(fig.geomean()[&Compiler::Gcc] > 1.0);
    }

    #[test]
    fn fsm_helps_over_plain_sampling() {
        let config = small_config(&["s000", "s112", "s212", "s2711", "s274", "vsumr"]);
        let eval = fsm_evaluation(&config);
        assert!(eval.fsm_ten_attempts >= eval.fsm_single_shot);
        assert!(eval.fsm_ten_attempts >= eval.plain_single_shot);
        assert!(eval.render().contains("FSM"));
    }

    #[test]
    fn scaling_helper() {
        assert_eq!(scale_to_paper(31, 62), 75);
        assert_eq!(scale_to_paper(0, 62), 0);
        assert_eq!(scale_to_paper(62, 62), 149);
    }
}
