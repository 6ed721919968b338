//! Batch candidate generation feeding the verification engine.
//!
//! Two deterministic samplers cover the crate's callers:
//!
//! * [`sample_completion_batch`] (and [`fsm_candidate_batch`]) — one shared
//!   [`SyntheticLlm`] walks every `(kernel, completion)` cell in order, and
//!   each cell consumes the next stretch of the *shared* RNG stream. This
//!   is the experiment drivers' path (Table 2, Figure 5, Table 3, the FSM
//!   evaluation), byte-identical to every earlier release and pinned by
//!   `batch_matches_sequential_sampling`.
//! * [`sample_completion_cell`] — the one seeded path: each `(kernel i,
//!   completion j)` cell samples from a **fresh** model seeded with
//!   [`derive_cell_seed`]`(base, i, j)`, so cells are independent and any
//!   number of generator threads producing cells in any order yields the
//!   same completion set. Every generated sweep samples this way, one cell
//!   at a time on `lv_core`'s pools: `lv-sweep run --generate` streams the
//!   cells into the engine while verification runs, and `lv-sweep submit
//!   --generate` sends the same cells (`lv_core::seeded_jobs`) to a daemon.
//!   `seeded_batch_is_thread_count_invariant`, `lv_core`'s `seeded_jobs`
//!   tests and the pipeline property tests (generator thread counts 1/2/8)
//!   pin it.
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
//! The two samplers produce *different* completion sets for the same base
//! seed: a shared RNG stream cannot be split per cell without changing the
//! draws.

use crate::fsm::{run_fsm_with_llm, FsmConfig, FsmResult};
use crate::llm::{Completion, LlmConfig, SyntheticLlm, VectorizePrompt};
use lv_cir::ast::Function;

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
/// This is the unit of work generator threads parallelize over: a cell's
/// completion depends only on `(llm_config, kernel, completion)`, so cells
/// sampled in any order, on any number of threads, form the same set.
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
}

/// Samples `k` feedback-free completions for every kernel from a single
/// model instance, preserving the sequential sampling order — the shared
/// sampler path, byte-identical to earlier releases.
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

    /// Every cell of a `k`-wide seeded batch, sampled in generation order
    /// on `threads` scoped threads (thread `t` takes cells `t, t+threads, …`).
    fn seeded_cells(config: &LlmConfig, k: usize, threads: usize) -> Vec<Function> {
        let scalars = scalars();
        let cells = scalars.len() * k;
        let mut out: Vec<Option<Function>> = vec![None; cells];
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let scalars = &scalars;
                    scope.spawn(move || {
                        (t..cells)
                            .step_by(threads)
                            .map(|cell| {
                                let (i, j) = (cell / k, cell % k);
                                let c = sample_completion_cell(&scalars[i], config, i, j);
                                (cell, c.candidate)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for handle in handles {
                for (cell, candidate) in handle.join().unwrap() {
                    out[cell] = Some(candidate);
                }
            }
        });
        out.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn seeded_batch_matches_cell_by_cell_sampling() {
        let config = LlmConfig::default();
        let batch = seeded_cells(&config, 3, 1);
        // Each cell is a fresh model seeded with its derived seed, so sampling
        // the cells backwards reproduces the batch cell for cell.
        for (i, scalar) in scalars().iter().enumerate().rev() {
            for j in (0..3).rev() {
                let mut llm = SyntheticLlm::new(LlmConfig {
                    seed: derive_cell_seed(config.seed, i, j),
                    ..config.clone()
                });
                let fresh = llm.complete(&VectorizePrompt::new(scalar.clone()));
                assert_eq!(
                    batch[i * 3 + j],
                    fresh.candidate,
                    "kernel {} completion {}",
                    i,
                    j
                );
                assert_eq!(
                    batch[i * 3 + j],
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
        let reference = seeded_cells(&config, 4, 1);
        for threads in [2, 3, 8] {
            let parallel = seeded_cells(&config, 4, threads);
            for (cell, (x, y)) in reference.iter().zip(&parallel).enumerate() {
                assert_eq!(
                    x,
                    y,
                    "kernel {} completion {} differs at {} threads",
                    cell / 4,
                    cell % 4,
                    threads
                );
            }
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
