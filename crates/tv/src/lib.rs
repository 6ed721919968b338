//! # lv-tv — bounded translation validation (the Alive2 substitute)
//!
//! The paper verifies LLM-generated vectorizations with Alive2: both the
//! scalar kernel and the candidate are unrolled into loop-free programs,
//! their memory effects are encoded as SMT formulas under non-aliasing and
//! trip-count assumptions, and Z3 decides refinement. This crate implements
//! that workflow over the mini-C AST:
//!
//! * [`mod@align`] — loop alignment and the `(end1 - start1) % m == 0`
//!   divisibility assumption (Section 3.1);
//! * [`symexec`] — guarded symbolic execution into `lv-smt` terms with UB
//!   tracking and per-array memory regions;
//! * [`cunroll`] — the C-level unrolling preprocessing step (Section 3.2);
//! * [`verify`] — the three verification strategies of Algorithm 1
//!   ([`check_with_alive2_unroll`], [`check_with_c_unroll`],
//!   [`check_with_spatial_splitting`]) and the combined
//!   [`check_equivalence_symbolic`] driver.
//!
//! # Examples
//!
//! ```
//! use lv_cir::parse_function;
//! use lv_tv::{check_with_c_unroll, TvConfig, TvVerdict};
//!
//! let scalar = parse_function(
//!     "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }",
//! )?;
//! let candidate = parse_function(
//!     "void s000(int n, int *a, int *b) {
//!          int i;
//!          for (i = 0; i + 8 <= n; i += 8) {
//!              __m256i x = _mm256_loadu_si256((__m256i *)&b[i]);
//!              _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(x, _mm256_set1_epi32(1)));
//!          }
//!          for (; i < n; i++) { a[i] = b[i] + 1; }
//!      }",
//! )?;
//! assert_eq!(
//!     check_with_c_unroll(&scalar, &candidate, &TvConfig::default()),
//!     TvVerdict::Equivalent
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod align;
pub mod cunroll;
pub mod symexec;
pub mod verify;

pub use align::{align, Alignment, AlignmentError};
pub use cunroll::{c_unroll, CUnrollError};
pub use lv_smt::{SimplifyStats, SolverBudget};
pub use symexec::{sym_exec, SymExecConfig, SymExecError, SymOutcome};
pub use verify::{
    alignment_assumption, check_equivalence_symbolic, check_with_alive2_unroll,
    check_with_alive2_unroll_in, check_with_c_unroll, check_with_c_unroll_in,
    check_with_spatial_splitting, check_with_spatial_splitting_in, unroll_factor_of,
    SymbolicStrategy, TvConfig, TvReuse, TvSession, TvSessionStats, TvStage, TvVerdict,
};
