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
//!   tracking and per-array memory regions; a candidate reads the scalar
//!   kernel's inputs by parameter position ([`sym_exec_bound`]);
//! * [`cunroll`] — the C-level unrolling preprocessing step (Section 3.2);
//! * [`verify`] — the three verification strategies of Algorithm 1, each
//!   a [`SymbolicStrategy`] run through a [`TvSession`] by
//!   [`SymbolicStrategy::run`];
//! * [`counterexample`] — refutation by evaluation before bit-blasting, and
//!   the concrete replay of every counterexample
//!   ([`replay_counterexample`]).
//!
//! # Examples
//!
//! ```
//! use lv_cir::parse_function;
//! use lv_tv::{SymbolicStrategy, TvConfig, TvSession, TvVerdict};
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
//!     SymbolicStrategy::CUnroll.run(
//!         &scalar,
//!         &candidate,
//!         &TvConfig::default(),
//!         &mut TvSession::new()
//!     ),
//!     TvVerdict::Equivalent
//! );
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod align;
pub mod counterexample;
pub mod cunroll;
pub mod symexec;
pub mod verify;

pub use align::{align, Alignment, AlignmentError};
pub use counterexample::{replay_counterexample, ReplayFrame, MODEL_DIVERGENCE};
pub use cunroll::{c_unroll, CUnrollError};
pub use lv_smt::{SolverBudget, SEARCH_REVISION};
pub use symexec::{sym_exec, sym_exec_bound, SymExecConfig, SymExecError, SymOutcome};
pub use verify::{SymbolicStrategy, TvConfig, TvReuse, TvSession, TvSessionStats, TvVerdict};
