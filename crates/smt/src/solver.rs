//! The user-facing solver: assert terms, check satisfiability, read models.
//!
//! This is the reproduction's stand-in for Z3 as used by Alive2: the
//! translation validator builds one verification condition per query, asks
//! for a model of its negation, and treats resource exhaustion as an
//! inconclusive (timeout-like) answer.
//!
//! # Cross-query reuse
//!
//! The blasted-CNF memo ([`Solver::enable_blast_memo`]) cuts repeated
//! blasting across the queries of a batch sweep. It defaults off, and the
//! plain [`Solver::check`] path is byte-for-byte unchanged when it stays off.
//! The memo is a [`BlastCache`] keyed by the structural hash of each
//! asserted root, replaying the recorded CNF stream for structurally
//! identical assertions (see [`crate::bitblast`] for the keying and the
//! bit-identity guarantee). It lives on the `Solver` *beside* the recycled
//! term [`Context`] — [`Solver::recycle`] clears terms and assertions but
//! keeps the memo, which is the point: one worker verifies many candidates
//! of the same scalar, and their verification conditions re-blast
//! identically across recycles.
//!
//! # One solve per query
//!
//! Every [`Solver::check`] blasts its assertions into a fresh [`SatSolver`]
//! and searches it once under the query's conflict budget. A search stopped
//! by that budget is dropped with the query: a later query that builds the
//! same instance under a larger budget searches it from the start and
//! takes the same trajectory, so it reports the same result, model and
//! total conflict count a continued search would.

use crate::bitblast::{BitBlaster, BlastCache};
use crate::sat::{Lit, SatBudget, SatResult, SatSolver};
use crate::term::{sign_extend, Context, Sort, TermId};
use std::collections::HashMap;
use std::fmt;

/// Resource limits for one `check` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverBudget {
    /// Maximum SAT conflicts before returning [`CheckResult::Unknown`].
    pub max_conflicts: u64,
    /// Maximum number of CNF clauses the bit-blaster may create before the
    /// query is declared too large (models Alive2's memory-outs).
    pub max_clauses: usize,
}

impl Default for SolverBudget {
    fn default() -> Self {
        SolverBudget {
            max_conflicts: 500_000,
            max_clauses: 4_000_000,
        }
    }
}

impl SolverBudget {
    /// A small budget useful in tests and for the "out-of-the-box Alive2"
    /// configuration that times out on hard queries.
    pub fn tight() -> SolverBudget {
        SolverBudget {
            max_conflicts: 20_000,
            max_clauses: 400_000,
        }
    }

    /// A stable 64-bit fingerprint of the budget, folded into the engine
    /// configuration hash that keys the persistent verdict cache (a changed
    /// budget can change `Inconclusive` outcomes, so it must invalidate
    /// cached verdicts).
    pub fn fingerprint(self) -> u64 {
        // FNV-1a over the two limits, little-endian.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self
            .max_conflicts
            .to_le_bytes()
            .into_iter()
            .chain((self.max_clauses as u64).to_le_bytes())
        {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        hash
    }
}

/// A model: concrete values for the free variables of a satisfiable query.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    values: HashMap<String, u64>,
    widths: HashMap<String, u32>,
    bools: HashMap<String, bool>,
}

impl Model {
    /// The unsigned value of a bitvector variable, if it appears in the model.
    pub fn value(&self, name: &str) -> Option<u64> {
        self.values.get(name).copied()
    }

    /// The value of a 32-bit variable interpreted as a signed integer.
    pub fn value_i32(&self, name: &str) -> Option<i32> {
        self.values.get(name).map(|&v| {
            let w = self.widths.get(name).copied().unwrap_or(32);
            sign_extend(v, w) as i32
        })
    }

    /// All bitvector assignments, sorted by name (useful for counterexample
    /// reports).
    pub fn assignments(&self) -> Vec<(String, i64)> {
        let mut out: Vec<(String, i64)> = self
            .values
            .iter()
            .map(|(k, &v)| {
                let w = self.widths.get(k).copied().unwrap_or(32);
                (k.clone(), sign_extend(v, w))
            })
            .collect();
        out.sort();
        out
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in self.assignments() {
            writeln!(f, "{} = {}", name, value)?;
        }
        Ok(())
    }
}

/// The result of a satisfiability check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckResult {
    /// Satisfiable, with a model of the free variables.
    Sat(Box<Model>),
    /// Unsatisfiable.
    Unsat,
    /// The budget was exhausted (the Alive2 analogue of timeout/memory-out).
    Unknown(String),
}

impl CheckResult {
    /// Returns `true` for `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, CheckResult::Unsat)
    }
}

/// Statistics reported by [`Solver::check`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckStats {
    /// CNF variables created by bit-blasting.
    pub cnf_vars: usize,
    /// CNF clauses created by bit-blasting.
    pub cnf_clauses: usize,
    /// SAT conflicts.
    pub conflicts: u64,
    /// SAT decisions.
    pub decisions: u64,
}

/// Counters for the cross-query reuse machinery; see the module docs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseStats {
    /// Assertion roots replayed from the blasted-CNF memo.
    pub blast_hits: u64,
    /// Assertion roots blasted fresh while the memo was enabled.
    pub blast_misses: u64,
}

impl ReuseStats {
    /// Componentwise sum, for aggregating per-worker counters.
    pub fn absorb(&mut self, other: ReuseStats) {
        self.blast_hits += other.blast_hits;
        self.blast_misses += other.blast_misses;
    }
}

/// A solver facade over the term [`Context`].
#[derive(Debug, Default)]
pub struct Solver {
    /// The term context; build terms through this.
    pub ctx: Context,
    assertions: Vec<TermId>,
    /// Statistics from the most recent `check` call.
    pub last_stats: CheckStats,
    /// Blasted-CNF memo; survives [`Solver::recycle`] when enabled.
    blast_memo: Option<BlastCache>,
}

impl Solver {
    /// Creates a solver with an empty context.
    pub fn new() -> Solver {
        Solver::default()
    }

    /// Enables the blasted-CNF memo. Idempotent: an already-populated memo
    /// is kept.
    pub fn enable_blast_memo(&mut self) {
        if self.blast_memo.is_none() {
            self.blast_memo = Some(BlastCache::new());
        }
    }

    /// Cumulative reuse counters (zeros when reuse is off).
    pub fn reuse_stats(&self) -> ReuseStats {
        ReuseStats {
            blast_hits: self.blast_memo.as_ref().map_or(0, BlastCache::hits),
            blast_misses: self.blast_memo.as_ref().map_or(0, BlastCache::misses),
        }
    }

    /// Adds an assertion.
    pub fn assert(&mut self, term: TermId) {
        debug_assert_eq!(self.ctx.sort(term), Sort::Bool);
        self.assertions.push(term);
    }

    /// Resets the solver to its just-constructed state while keeping the
    /// allocations of the term arena and interner.
    ///
    /// Batch-verification workers hold one `Solver` for their whole lifetime
    /// and call this between queries, so per-query setup does not have to
    /// reallocate the term context from scratch. After `recycle` the solver
    /// behaves exactly like `Solver::new()` — same term ids for the same
    /// construction order — which keeps batched runs bit-identical to
    /// one-shot runs.
    pub fn recycle(&mut self) {
        self.ctx.clear();
        self.assertions.clear();
        self.last_stats = CheckStats::default();
        // Term ids are invalidated by the clear, but the blasted-CNF memo is
        // keyed by structural hash, not term id, and deliberately survives:
        // reusing blasts across recycles is its whole purpose.
    }

    /// The current assertions.
    pub fn assertions(&self) -> &[TermId] {
        &self.assertions
    }

    /// Checks satisfiability of the conjunction of all assertions.
    pub fn check(&mut self, budget: &SolverBudget) -> CheckResult {
        // Fast path: constant assertions.
        if self
            .assertions
            .iter()
            .any(|&a| self.ctx.as_bool_const(a) == Some(false))
        {
            return CheckResult::Unsat;
        }

        let mut sat = SatSolver::new();
        let mut blaster = BitBlaster::new(&self.ctx, &mut sat);
        for &assertion in &self.assertions {
            let blasted = match &mut self.blast_memo {
                Some(memo) => blaster.assert_with_cache(assertion, memo),
                None => blaster.assert(assertion),
            };
            if let Err(err) = blasted {
                // An ill-sorted query is inconclusive, not fatal: batch
                // workers treat it like a timeout and move on.
                return CheckResult::Unknown(err.to_string());
            }
        }
        let var_bits = blaster.var_bits().clone();
        let var_bools = blaster.var_bools().clone();

        self.last_stats = CheckStats {
            cnf_vars: sat.num_vars(),
            cnf_clauses: sat.num_clauses(),
            ..CheckStats::default()
        };
        if sat.num_clauses() > budget.max_clauses {
            return CheckResult::Unknown(format!(
                "bit-blasting produced {} clauses, exceeding the budget of {}",
                sat.num_clauses(),
                budget.max_clauses
            ));
        }

        let sat_budget = SatBudget {
            max_conflicts: budget.max_conflicts,
        };
        let result = sat.solve(&sat_budget);
        self.last_stats.conflicts = sat.stats.conflicts;
        self.last_stats.decisions = sat.stats.decisions;

        match result {
            SatResult::Unsat => CheckResult::Unsat,
            SatResult::Unknown => CheckResult::Unknown(format!(
                "solver exhausted its budget of {} conflicts",
                budget.max_conflicts
            )),
            SatResult::Sat => {
                CheckResult::Sat(Box::new(extract_model(&sat, &var_bits, &var_bools)))
            }
        }
    }

    /// Convenience: checks whether `formula` is valid (true for all variable
    /// assignments) by asking for a model of its negation.
    pub fn check_validity(&mut self, formula: TermId, budget: &SolverBudget) -> Validity {
        let negated = self.ctx.not(formula);
        let saved = std::mem::take(&mut self.assertions);
        self.assertions = saved.clone();
        self.assertions.push(negated);
        let result = self.check(budget);
        self.assertions = saved;
        match result {
            CheckResult::Unsat => Validity::Valid,
            CheckResult::Sat(model) => Validity::Invalid(model),
            CheckResult::Unknown(reason) => Validity::Unknown(reason),
        }
    }
}

/// Reads the satisfying assignment for every bound variable out of a `Sat`
/// solver.
fn extract_model(
    sat: &SatSolver,
    var_bits: &HashMap<String, Vec<Lit>>,
    var_bools: &HashMap<String, Lit>,
) -> Model {
    let mut model = Model::default();
    for (name, bits) in var_bits {
        let mut value: u64 = 0;
        for (i, lit) in bits.iter().enumerate() {
            if sat.model_value(lit.var()) ^ lit.is_neg() {
                value |= 1 << i;
            }
        }
        model.values.insert(name.clone(), value);
        model.widths.insert(name.clone(), bits.len() as u32);
    }
    for (name, lit) in var_bools {
        model
            .bools
            .insert(name.clone(), sat.model_value(lit.var()) ^ lit.is_neg());
    }
    model
}

/// The result of a validity check (universally quantified over free variables).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Validity {
    /// The formula holds for every assignment.
    Valid,
    /// A counterexample was found.
    Invalid(Box<Model>),
    /// The budget was exhausted.
    Unknown(String),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sat_with_model() {
        let mut solver = Solver::new();
        let x = solver.ctx.bv_var("x", 32);
        let three = solver.ctx.bv32(3);
        let seven = solver.ctx.bv32(7);
        let prod = solver.ctx.bv_mul(x, three);
        let eq = solver.ctx.eq(prod, seven);
        // 3x == 7 has a solution modulo 2^32 (3 is invertible).
        solver.assert(eq);
        match solver.check(&SolverBudget::default()) {
            CheckResult::Sat(model) => {
                let xv = model.value("x").unwrap();
                assert_eq!((xv.wrapping_mul(3)) & 0xffff_ffff, 7);
            }
            other => panic!("expected sat, got {:?}", other),
        }
    }

    #[test]
    fn unsat_parity() {
        let mut solver = Solver::new();
        let x = solver.ctx.bv_var("x", 32);
        let two = solver.ctx.bv32(2);
        let one = solver.ctx.bv32(1);
        let double = solver.ctx.bv_mul(x, two);
        let eq = solver.ctx.eq(double, one);
        // 2x == 1 has no solution modulo 2^32.
        solver.assert(eq);
        assert!(solver.check(&SolverBudget::default()).is_unsat());
    }

    #[test]
    fn validity_of_commutativity() {
        let mut solver = Solver::new();
        let x = solver.ctx.bv_var("x", 32);
        let y = solver.ctx.bv_var("y", 32);
        let xy = solver.ctx.bv_add(x, y);
        let yx = solver.ctx.bv_add(y, x);
        let eq = solver.ctx.eq(xy, yx);
        assert_eq!(
            solver.check_validity(eq, &SolverBudget::default()),
            Validity::Valid
        );
    }

    #[test]
    fn invalid_formula_produces_counterexample() {
        let mut solver = Solver::new();
        let x = solver.ctx.bv_var("x", 32);
        let one = solver.ctx.bv32(1);
        let inc = solver.ctx.bv_add(x, one);
        let eq = solver.ctx.eq(inc, x);
        match solver.check_validity(eq, &SolverBudget::default()) {
            Validity::Invalid(model) => {
                assert!(model.value("x").is_some());
            }
            other => panic!("expected invalid, got {:?}", other),
        }
    }

    #[test]
    fn distributivity_is_valid() {
        // (x + y) * 2 == 2x + 2y — exercises the multiplier on symbolic inputs.
        let mut solver = Solver::new();
        let x = solver.ctx.bv_var("x", 32);
        let y = solver.ctx.bv_var("y", 32);
        let two = solver.ctx.bv32(2);
        let sum = solver.ctx.bv_add(x, y);
        let lhs = solver.ctx.bv_mul(sum, two);
        let x2 = solver.ctx.bv_mul(x, two);
        let y2 = solver.ctx.bv_mul(y, two);
        let rhs = solver.ctx.bv_add(x2, y2);
        let eq = solver.ctx.eq(lhs, rhs);
        assert_eq!(
            solver.check_validity(eq, &SolverBudget::default()),
            Validity::Valid
        );
    }

    #[test]
    fn budget_exhaustion_is_unknown() {
        // Two symbolic multiplications that are equal but hard for a SAT
        // solver with an extremely small conflict budget.
        let mut solver = Solver::new();
        let x = solver.ctx.bv_var("x", 32);
        let y = solver.ctx.bv_var("y", 32);
        let xy = solver.ctx.bv_mul(x, y);
        let yx = solver.ctx.bv_mul(y, x);
        let eq = solver.ctx.eq(xy, yx);
        let result = solver.check_validity(
            eq,
            &SolverBudget {
                max_conflicts: 3,
                max_clauses: 4_000_000,
            },
        );
        assert!(
            matches!(result, Validity::Unknown(_) | Validity::Valid),
            "tiny budgets must never report Invalid for a valid formula: {:?}",
            result
        );
    }

    #[test]
    fn clause_budget_is_enforced() {
        let mut solver = Solver::new();
        let x = solver.ctx.bv_var("x", 32);
        let y = solver.ctx.bv_var("y", 32);
        let xy = solver.ctx.bv_mul(x, y);
        let z = solver.ctx.bv32(12345);
        let eq = solver.ctx.eq(xy, z);
        solver.assert(eq);
        let result = solver.check(&SolverBudget {
            max_conflicts: 1_000_000,
            max_clauses: 10,
        });
        assert!(matches!(result, CheckResult::Unknown(_)));
    }

    #[test]
    fn stats_are_recorded() {
        let mut solver = Solver::new();
        let x = solver.ctx.bv_var("x", 32);
        let five = solver.ctx.bv32(5);
        let eq = solver.ctx.eq(x, five);
        solver.assert(eq);
        let _ = solver.check(&SolverBudget::default());
        assert!(solver.last_stats.cnf_vars > 0);
        assert!(solver.last_stats.cnf_clauses > 0);
    }

    #[test]
    fn ill_sorted_query_is_unknown_not_a_panic() {
        // `eq` between a boolean and a bitvector is constructible (the
        // Context only folds same-sort cases); it must surface as Unknown.
        let mut solver = Solver::new();
        let p = solver.ctx.bool_var("p");
        let x = solver.ctx.bv_var("x", 32);
        let eq = solver.ctx.eq(p, x);
        solver.assert(eq);
        match solver.check(&SolverBudget::default()) {
            CheckResult::Unknown(reason) => {
                assert!(reason.contains("different encodings"), "{}", reason)
            }
            other => panic!("expected Unknown, got {:?}", other),
        }
    }

    #[test]
    fn recycled_solver_replays_identically() {
        let mut solver = Solver::new();
        let run = |solver: &mut Solver| {
            let x = solver.ctx.bv_var("x", 32);
            let y = solver.ctx.bv_var("y", 32);
            let sum = solver.ctx.bv_add(x, y);
            let ten = solver.ctx.bv32(10);
            let eq = solver.ctx.eq(sum, ten);
            solver.assert(eq);
            (solver.ctx.len(), solver.check(&SolverBudget::default()))
        };
        let (terms_fresh, first) = run(&mut solver);
        solver.recycle();
        assert!(solver.ctx.is_empty());
        assert!(solver.assertions().is_empty());
        let (terms_recycled, second) = run(&mut solver);
        assert_eq!(terms_fresh, terms_recycled);
        assert_eq!(first, second);
    }

    #[test]
    fn blast_memo_survives_recycle_and_replays() {
        let mut solver = Solver::new();
        solver.enable_blast_memo();
        let run = |solver: &mut Solver| {
            let x = solver.ctx.bv_var("x", 32);
            let y = solver.ctx.bv_var("y", 32);
            let sum = solver.ctx.bv_add(x, y);
            let ten = solver.ctx.bv32(10);
            let eq = solver.ctx.eq(sum, ten);
            solver.assert(eq);
            solver.check(&SolverBudget::default())
        };
        let first = run(&mut solver);
        assert_eq!(solver.reuse_stats().blast_hits, 0);
        solver.recycle();
        let second = run(&mut solver);
        assert_eq!(
            solver.reuse_stats().blast_hits,
            1,
            "the re-built query must replay from the memo across recycle"
        );
        assert_eq!(first, second, "memo replay must not change the verdict");
    }

    #[test]
    fn memoized_check_matches_unmemoized_check() {
        let build = |solver: &mut Solver| {
            let x = solver.ctx.bv_var("x", 32);
            let y = solver.ctx.bv_var("y", 32);
            let sum = solver.ctx.bv_add(x, y);
            let diff = solver.ctx.bv_sub(x, y);
            let ten = solver.ctx.bv32(10);
            let four = solver.ctx.bv32(4);
            let c1 = solver.ctx.eq(sum, ten);
            let c2 = solver.ctx.eq(diff, four);
            solver.assert(c1);
            solver.assert(c2);
        };
        let mut plain = Solver::new();
        build(&mut plain);
        let plain_result = plain.check(&SolverBudget::default());

        let mut memoized = Solver::new();
        memoized.enable_blast_memo();
        build(&mut memoized);
        let warmup = memoized.check(&SolverBudget::default());
        let replayed = memoized.check(&SolverBudget::default());
        assert_eq!(plain_result, warmup);
        assert_eq!(plain_result, replayed);
        assert!(memoized.reuse_stats().blast_hits > 0);
    }

    #[test]
    fn model_display_and_i32() {
        let mut solver = Solver::new();
        let x = solver.ctx.bv_var("x", 32);
        let neg = solver.ctx.bv32(-9);
        let eq = solver.ctx.eq(x, neg);
        solver.assert(eq);
        match solver.check(&SolverBudget::default()) {
            CheckResult::Sat(model) => {
                assert_eq!(model.value_i32("x"), Some(-9));
                assert!(model.to_string().contains("x = -9"));
            }
            other => panic!("expected sat, got {:?}", other),
        }
    }
}
