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
//! * [`term`] — hash-consed terms ([`Context`]) whose constructors
//!   normalize as they build (sorted commutative arguments, flattened
//!   `bvadd` chains, constant-branch `ite` lifting, `ite` shape rules and a
//!   conditional substitution), so that equivalent source and target terms
//!   share an id and most verification conditions fold to a constant before
//!   any clause is built; [`Context::eval`] evaluates a term under an
//!   assignment, and [`structural_hash`] is alpha-insensitive;
//! * [`bitblast`] — Tseitin encoding of the bitvector operations
//!   ([`BitBlaster`]), with a blasted-CNF memo ([`BlastCache`]) replaying
//!   recorded clause streams for structurally repeated queries;
//! * [`sat`] — the CDCL SAT solver ([`SatSolver`]) with a flat clause
//!   arena, an indexed VSIDS decision heap, and a conflict budget that
//!   turns a long search into `Unknown`; [`SEARCH_REVISION`] names its
//!   search trajectory;
//! * [`solver`] — the user-facing facade ([`Solver`], [`CheckResult`],
//!   [`Validity`]) and the reuse counters ([`ReuseStats`]).
//!
//! Every query takes one path: blast once (replaying from the memo when it
//! is on) and search once.
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
pub mod sat;
pub mod solver;
pub mod term;

pub use bitblast::{BitBlaster, Bits, BlastCache, BlastError};
pub use sat::{Lit, SatBudget, SatResult, SatSolver, SatStats, Var, SEARCH_REVISION};
pub use solver::{CheckResult, CheckStats, Model, ReuseStats, Solver, SolverBudget, Validity};
pub use term::{mask, sign_extend, structural_hash, Context, Op, Sort, TermData, TermId};
