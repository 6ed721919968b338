//! Batch candidate generation feeding the verification engine, in two
//! deterministic modes.
//!
//! Historically generation had to stay sequential: the synthetic LLM is a
//! stateful seeded sampler, so reproducibility meant one model instance
//! walking the kernels in order while only verification parallelized. That
//! rationale is superseded. Generation now has **two modes**, both
//! deterministic, chosen by [`GenerationMode`]:
//!
//! * [`GenerationMode::Sequential`] — the legacy shared-sampler path:
//!   one [`SyntheticLlm`] walks every `(kernel, completion)` cell in order
//!   and each cell consumes the next stretch of the *shared* RNG stream.
//!   Output is byte-identical to every earlier release, which is what the
//!   existing cache and service CI pins (`examples/cache_sweep.rs`,
//!   `service_sweep.rs`) and the `batch_matches_sequential_sampling` test
//!   pin.
//! * [`GenerationMode::Seeded`] — the per-cell seeded path: each
//!   `(kernel i, completion j)` cell samples from a **fresh** model seeded
//!   with [`derive_cell_seed`]`(base, i, j)`, so cells are independent and
//!   any number of generator threads producing cells in any order yields
//!   the same completion set. This is what lets generation overlap with
//!   verification (the engine's streaming `JobSource` intake) and what the
//!   pipeline property tests pin at generator thread counts 1/2/8.
//!
//! # The seed-derivation scheme
//!
//! [`derive_cell_seed`] packs the cell coordinates as
//! `(i as u64) << 32 | j` and mixes them with the base seed through the
//! SplitMix64 finalizer (the same constants the `rand` shim uses for seed
//! expansion). The finalizer is a bijection on `u64` and the packing is
//! injective for `i, j < 2^32`, so for a fixed base seed **distinct cells
//! always get distinct seeds** — pinned, along with golden values that hold
//! on every platform, by `tests/pipeline_overlap.rs`.
//!
//! The two modes produce *different* completion sets for the same base
//! seed (a shared RNG stream cannot be split per-cell without changing the
//! draws); callers choose per workload. New overlapped surfaces
//! (`lv-sweep run --generate`, service generation submits) use `Seeded`; the pre-existing experiment drivers stay `Sequential`.

use crate::fsm::{run_fsm_with_llm, FsmConfig, FsmResult};
use crate::llm::{Completion, LlmConfig, SyntheticLlm, VectorizePrompt};
use lv_cir::ast::Function;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// How a completion batch draws its random numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GenerationMode {
    /// The legacy path: one shared stateful sampler walks the cells in
    /// order. Byte-identical to all earlier releases; inherently serial.
    #[default]
    Sequential,
    /// The overlap-ready path: every `(kernel, completion)` cell gets its
    /// own model seeded by [`derive_cell_seed`], so cells can be produced
    /// on any number of threads in any order with identical output.
    Seeded,
}

/// The SplitMix64 finalizer: a bijective avalanche mix on `u64` (same
/// constants as the `rand` shim's seed expansion).
#[inline]
fn splitmix_finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the RNG seed for the `(kernel, completion)` cell from a base
/// seed.
///
/// Injective in the cell for a fixed base: the coordinates pack injectively
/// into one `u64` (both indices are far below `2^32` in practice), the pack
/// is XORed into a finalized base, and the SplitMix64 finalizer applied on
/// top is a bijection — so distinct cells can never collide.
pub fn derive_cell_seed(base_seed: u64, kernel: usize, completion: usize) -> u64 {
    let cell = ((kernel as u64) << 32) | (completion as u64 & 0xFFFF_FFFF);
    splitmix_finalize(splitmix_finalize(base_seed.wrapping_add(0x9E37_79B9_7F4A_7C15)) ^ cell)
}

/// Samples the single `(kernel, completion)` cell of a seeded batch: a
/// fresh model seeded with [`derive_cell_seed`] answers one prompt.
///
/// This is the unit of work generator threads parallelize over; calling it
/// for every cell in any order reproduces
/// [`sample_completion_batch_seeded`] exactly.
pub fn sample_completion_cell(
    scalar: &Function,
    llm_config: &LlmConfig,
    kernel: usize,
    completion: usize,
) -> Completion {
    let mut llm = SyntheticLlm::new(LlmConfig {
        seed: derive_cell_seed(llm_config.seed, kernel, completion),
        ..llm_config.clone()
    });
    llm.complete(&VectorizePrompt::new(scalar.clone()))
}

/// `k` completions per kernel, sampled without feedback (Table 2 / Figure 5
/// style generation).
#[derive(Debug, Clone)]
pub struct CompletionBatch {
    /// `completions[i][j]` is the `j`-th completion for the `i`-th kernel.
    pub completions: Vec<Vec<Completion>>,
}

impl CompletionBatch {
    /// Flattens the batch into `(kernel index, completion index, completion)`
    /// jobs in generation order, borrowing the completions.
    pub fn jobs(&self) -> impl Iterator<Item = (usize, usize, &Completion)> {
        self.completions
            .iter()
            .enumerate()
            .flat_map(|(i, row)| row.iter().enumerate().map(move |(j, c)| (i, j, c)))
    }

    /// Flattens the batch into owned `(kernel index, completion index,
    /// completion)` jobs in generation order, consuming the batch — the
    /// queue-feeding path, which hands each candidate to the engine without
    /// cloning it.
    pub fn into_jobs(self) -> impl Iterator<Item = (usize, usize, Completion)> {
        self.completions
            .into_iter()
            .enumerate()
            .flat_map(|(i, row)| row.into_iter().enumerate().map(move |(j, c)| (i, j, c)))
    }
}

/// Samples `k` feedback-free completions for every kernel from a single
/// model instance, preserving the sequential sampling order — the
/// [`GenerationMode::Sequential`] path, byte-identical to earlier releases.
pub fn sample_completion_batch(
    scalars: &[Function],
    llm_config: &LlmConfig,
    k: usize,
) -> CompletionBatch {
    let mut llm = SyntheticLlm::new(llm_config.clone());
    let completions = scalars
        .iter()
        .map(|scalar| {
            let prompt = VectorizePrompt::new(scalar.clone());
            (0..k).map(|_| llm.complete(&prompt)).collect()
        })
        .collect();
    CompletionBatch { completions }
}

/// Samples `k` feedback-free completions for every kernel with per-cell
/// derived seeds on `threads` generator threads — the
/// [`GenerationMode::Seeded`] path.
///
/// The output is a pure function of `(scalars, llm_config.seed, k)`:
/// identical at every thread count (pinned at 1/2/8 by the pipeline
/// property tests), because each cell's draws come from its own
/// [`derive_cell_seed`]ed model and threads only race over *which worker*
/// computes a cell, never over what the cell contains. `threads == 0` uses
/// one worker per available CPU.
pub fn sample_completion_batch_seeded(
    scalars: &[Function],
    llm_config: &LlmConfig,
    k: usize,
    threads: usize,
) -> CompletionBatch {
    let cells = scalars.len().saturating_mul(k);
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = (if threads == 0 { hw } else { threads }).clamp(1, cells.max(1));
    if threads <= 1 || cells == 0 {
        let completions = scalars
            .iter()
            .enumerate()
            .map(|(i, scalar)| {
                (0..k)
                    .map(|j| sample_completion_cell(scalar, llm_config, i, j))
                    .collect()
            })
            .collect();
        return CompletionBatch { completions };
    }
    let slots: Vec<Mutex<Option<Completion>>> = (0..cells).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let cell = cursor.fetch_add(1, Ordering::Relaxed);
                if cell >= cells {
                    break;
                }
                let (i, j) = (cell / k, cell % k);
                let completion = sample_completion_cell(&scalars[i], llm_config, i, j);
                *slots[cell].lock().unwrap() = Some(completion);
            });
        }
    });
    let mut flat = slots.into_iter().map(|slot| {
        slot.into_inner()
            .unwrap()
            .expect("every cell index was claimed by a generator")
    });
    let completions = (0..scalars.len())
        .map(|_| (0..k).map(|_| flat.next().unwrap()).collect())
        .collect();
    CompletionBatch { completions }
}

/// Samples a completion batch in the requested [`GenerationMode`].
///
/// `threads` only applies to [`GenerationMode::Seeded`]; the sequential
/// mode is inherently single-threaded.
pub fn sample_completion_batch_with(
    scalars: &[Function],
    llm_config: &LlmConfig,
    k: usize,
    mode: GenerationMode,
    threads: usize,
) -> CompletionBatch {
    match mode {
        GenerationMode::Sequential => sample_completion_batch(scalars, llm_config, k),
        GenerationMode::Seeded => sample_completion_batch_seeded(scalars, llm_config, k, threads),
    }
}

/// Runs the repair FSM once per kernel through a shared model instance,
/// returning one [`FsmResult`] per kernel in order. The results' plausible
/// candidates are what the engine's symbolic cascade consumes.
pub fn fsm_candidate_batch(
    scalars: &[Function],
    fsm_config: &FsmConfig,
    llm: &mut SyntheticLlm,
) -> Vec<FsmResult> {
    scalars
        .iter()
        .map(|scalar| run_fsm_with_llm(scalar, fsm_config, llm))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_cir::parse_function;

    fn scalars() -> Vec<Function> {
        [
            "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }",
            "void vag(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] * b[i]; } }",
        ]
        .iter()
        .map(|s| parse_function(s).unwrap())
        .collect()
    }

    #[test]
    fn batch_matches_sequential_sampling() {
        let config = LlmConfig::default();
        let batch = sample_completion_batch(&scalars(), &config, 3);

        let mut llm = SyntheticLlm::new(config);
        for (i, scalar) in scalars().iter().enumerate() {
            let prompt = VectorizePrompt::new(scalar.clone());
            for j in 0..3 {
                assert_eq!(
                    batch.completions[i][j].candidate,
                    llm.complete(&prompt).candidate,
                    "kernel {} completion {}",
                    i,
                    j
                );
            }
        }
    }

    #[test]
    fn jobs_iterate_in_generation_order() {
        let batch = sample_completion_batch(&scalars(), &LlmConfig::default(), 2);
        let order: Vec<(usize, usize)> = batch.jobs().map(|(i, j, _)| (i, j)).collect();
        assert_eq!(order, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn into_jobs_matches_borrowing_jobs() {
        let batch = sample_completion_batch(&scalars(), &LlmConfig::default(), 2);
        let borrowed: Vec<(usize, usize, Function)> = batch
            .jobs()
            .map(|(i, j, c)| (i, j, c.candidate.clone()))
            .collect();
        let owned: Vec<(usize, usize, Function)> = batch
            .into_jobs()
            .map(|(i, j, c)| (i, j, c.candidate))
            .collect();
        assert_eq!(borrowed, owned);
    }

    #[test]
    fn seeded_batch_matches_cell_by_cell_sampling() {
        let config = LlmConfig::default();
        let batch = sample_completion_batch_seeded(&scalars(), &config, 3, 1);
        for (i, scalar) in scalars().iter().enumerate() {
            for j in 0..3 {
                assert_eq!(
                    batch.completions[i][j].candidate,
                    sample_completion_cell(scalar, &config, i, j).candidate,
                    "kernel {} completion {}",
                    i,
                    j
                );
            }
        }
    }

    #[test]
    fn seeded_batch_is_thread_count_invariant() {
        let config = LlmConfig::default();
        let reference = sample_completion_batch_seeded(&scalars(), &config, 4, 1);
        for threads in [2, 3, 8] {
            let parallel = sample_completion_batch_seeded(&scalars(), &config, 4, threads);
            for (i, (a, b)) in reference
                .completions
                .iter()
                .zip(&parallel.completions)
                .enumerate()
            {
                for (j, (x, y)) in a.iter().zip(b).enumerate() {
                    assert_eq!(
                        x.candidate, y.candidate,
                        "kernel {} completion {} differs at {} threads",
                        i, j, threads
                    );
                }
            }
        }
    }

    #[test]
    fn mode_dispatch_selects_the_right_path() {
        let config = LlmConfig::default();
        let sequential =
            sample_completion_batch_with(&scalars(), &config, 2, GenerationMode::Sequential, 4);
        let legacy = sample_completion_batch(&scalars(), &config, 2);
        for (a, b) in sequential.jobs().zip(legacy.jobs()) {
            assert_eq!(a.2.candidate, b.2.candidate);
        }
        let seeded =
            sample_completion_batch_with(&scalars(), &config, 2, GenerationMode::Seeded, 4);
        let reference = sample_completion_batch_seeded(&scalars(), &config, 2, 1);
        for (a, b) in seeded.jobs().zip(reference.jobs()) {
            assert_eq!(a.2.candidate, b.2.candidate);
        }
    }

    #[test]
    fn cell_seeds_are_distinct_across_a_dense_grid() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..64 {
            for j in 0..64 {
                assert!(
                    seen.insert(derive_cell_seed(0xC0FFEE, i, j)),
                    "collision at cell ({}, {})",
                    i,
                    j
                );
            }
        }
    }

    #[test]
    fn fsm_batch_matches_sequential_runs() {
        let fsm_config = FsmConfig::default();
        let mut llm_a = SyntheticLlm::new(LlmConfig::default());
        let results = fsm_candidate_batch(&scalars(), &fsm_config, &mut llm_a);

        let mut llm_b = SyntheticLlm::new(LlmConfig::default());
        for (scalar, batched) in scalars().iter().zip(&results) {
            let solo = run_fsm_with_llm(scalar, &fsm_config, &mut llm_b);
            assert_eq!(solo.candidate, batched.candidate);
            assert_eq!(solo.attempts, batched.attempts);
        }
    }
}
