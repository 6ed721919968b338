//! # lv-smt — a QF_BV SMT solver (bit-blasting + CDCL SAT)
//!
//! The paper verifies vectorizations by having Alive2 encode refinement
//! queries into SMT-LIB and discharge them with Z3. Z3 is not available to
//! this reproduction, so this crate provides the decision procedure the
//! translation validator needs: quantifier-free bitvector formulas over
//! 32-bit values, decided by Tseitin bit-blasting into CNF and a CDCL SAT
//! solver. Resource budgets turn long-running queries into `Unknown`
//! results, reproducing the timeout behaviour that motivates the paper's
//! domain-specific optimizations (Sections 3.2 and 3.3).
//!
//! * [`term`] — hash-consed terms with constructor-time simplification
//!   ([`Context`]) and an alpha-insensitive [`structural_hash`];
//! * [`bitblast`] — Tseitin encoding of the bitvector operations
//!   ([`BitBlaster`]), with a blasted-CNF memo ([`BlastCache`]) replaying
//!   recorded clause streams for structurally repeated queries;
//! * [`sat`] — the CDCL SAT solver ([`SatSolver`]) with a flat clause
//!   arena, MiniSat-style assumption solving for the incremental push/pop
//!   pathway, and budget stops that pause and resume
//!   ([`SatSolver::resume`]);
//! * [`preprocess`] — SatELite-style clause-database preprocessing
//!   ([`preprocess::preprocess`]), run once per query before search;
//! * [`solver`] — the user-facing facade ([`Solver`], [`CheckResult`],
//!   [`Validity`]), including the incremental per-scalar session
//!   ([`Solver::begin_incremental`] / [`Solver::check_assuming`]), the
//!   resumption of a budget-stopped one-shot search by an identical
//!   follow-up query, and the reuse counters ([`ReuseStats`]).
//!
//! # Preprocessing
//!
//! With preprocessing on ([`Solver::set_preprocess`]), every one-shot
//! query's bit-blasted CNF is simplified once before CDCL search: unit
//! propagation to fixpoint, pure-literal elimination, subsumption +
//! self-subsuming resolution, and bounded variable elimination. A
//! **reconstruction stack** rebuilds values for eliminated variables when a
//! `Sat` answer needs a counterexample, so models always satisfy the
//! original formula.
//!
//! Preprocessing runs on the *post-replay* clause stream, so
//! [`BlastCache`] records and replays the unsimplified blast and memo hits
//! stay clause-identical. Incremental sessions are never preprocessed:
//! their later per-candidate clauses and activation literals may name any
//! variable of the base instance.
//!
//! # Examples
//!
//! ```
//! use lv_smt::{Solver, SolverBudget, Validity};
//!
//! let mut solver = Solver::new();
//! let x = solver.ctx.bv_var("x", 32);
//! let y = solver.ctx.bv_var("y", 32);
//! let lhs = solver.ctx.bv_add(x, y);
//! let rhs = solver.ctx.bv_add(y, x);
//! let commutes = solver.ctx.eq(lhs, rhs);
//! assert_eq!(
//!     solver.check_validity(commutes, &SolverBudget::default()),
//!     Validity::Valid
//! );
//! ```

#![warn(missing_docs)]

pub mod bitblast;
pub mod preprocess;
pub mod sat;
pub mod solver;
pub mod term;

pub use bitblast::{BitBlaster, Bits, BlastCache, BlastError, BlastState};
pub use preprocess::{PreprocessStats, Preprocessed, SimplifyStats};
pub use sat::{Lit, SatBudget, SatResult, SatSolver, SatStats, Var};
pub use solver::{CheckResult, CheckStats, Model, ReuseStats, Solver, SolverBudget, Validity};
pub use term::{mask, sign_extend, structural_hash, Context, Op, Sort, TermData, TermId};
