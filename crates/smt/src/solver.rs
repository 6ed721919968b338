//! The user-facing solver: assert terms, check satisfiability, read models.
//!
//! This is the reproduction's stand-in for Z3 as used by Alive2: the
//! translation validator builds one verification condition per query, asks
//! for a model of its negation, and treats resource exhaustion as an
//! inconclusive (timeout-like) answer.
//!
//! # Cross-query reuse
//!
//! Two optional mechanisms cut repeated work across the queries of a batch
//! sweep; both default off, and the plain [`Solver::check`] path is
//! byte-for-byte unchanged when they stay off.
//!
//! - **Blasted-CNF memo** ([`Solver::enable_blast_memo`]): a
//!   [`BlastCache`] keyed by the structural hash of each asserted root,
//!   replaying the recorded CNF stream for structurally identical
//!   assertions (see [`crate::bitblast`] for the keying and the
//!   bit-identity guarantee). The memo lives on the `Solver` *beside* the
//!   recycled term [`Context`] — [`Solver::recycle`] clears terms and
//!   assertions but keeps the memo, which is the point: one worker verifies
//!   many candidates of the same scalar, and their verification conditions
//!   re-blast identically across recycles.
//!
//! - **Incremental push/pop** ([`Solver::begin_incremental`] /
//!   [`Solver::check_assuming`]): the assertions at `begin_incremental`
//!   time (the scalar-side context) are blasted once into a persistent SAT
//!   instance. Each `check_assuming(f)` then blasts only `f`, guards it
//!   behind a fresh *activation literal* `act` (one clause `¬act ∨ f`),
//!   and solves under the assumption `[act]`; the "pop" is an
//!   unconditional unit clause `¬act` that permanently satisfies the
//!   guard, so retired candidate constraints can never influence later
//!   queries. Term encodings are shared through the persistent
//!   [`BitBlaster`] instance cache, so a subterm common to every candidate
//!   (the scalar's symbolic execution, in the verifier) is blasted exactly
//!   once per session.
//!
//! # Resuming a budget-stopped search
//!
//! The verification cascade escalates when a stage runs out of budget, and
//! the next stage can build the *same* instance: with a one-chunk window,
//! C-unroll symbolically executes to the terms the Alive2 stage asked
//! about, under a larger conflict budget. Since CDCL search is
//! deterministic, re-solving would replay every conflict already spent. So
//! a one-shot [`Solver::check`] whose search stops at its conflict budget
//! keeps the paused [`SatSolver`] (one per `Solver`; like the blast memo it
//! survives [`Solver::recycle`]), and the next `check` resumes it when, and
//! only when:
//!
//! - its pre-search instance is *exactly* equal to the paused one: the same
//!   variable count, root units, clause stream in order, and watch lists
//!   ([`SatSolver::encode_instance`], compared element by element — never
//!   by hash), and
//! - its conflict budget is at least the conflicts already spent (a fresh
//!   solve under a smaller budget would stop earlier).
//!
//! Any other query drops the pause. A resumed search reports the search's
//! *total* conflicts and decisions in [`Solver::last_stats`], and returns
//! the result and model a fresh solve with the larger budget returns, so
//! verdicts, stage traces, funnels, profiles and cache keys cannot tell the
//! difference. Assumption solves on incremental sessions and checks with
//! simplification on keep no pause and behave exactly as before.

use crate::bitblast::{BitBlaster, BlastCache, BlastState};
use crate::preprocess::{preprocess_solver, SimplifyConfig, SimplifyStats};
use crate::sat::{InprocessStats, Lit, SatBudget, SatResult, SatSolver, Var};
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

    /// The componentwise minimum of two budgets — used by adaptive tuning,
    /// which only ever *tightens* a configured budget so that a tuned run can
    /// never spend more than the base configuration allowed.
    pub fn min_with(self, other: SolverBudget) -> SolverBudget {
        SolverBudget {
            max_conflicts: self.max_conflicts.min(other.max_conflicts),
            max_clauses: self.max_clauses.min(other.max_clauses),
        }
    }

    /// The componentwise maximum of two budgets — used to apply floors.
    pub fn max_with(self, other: SolverBudget) -> SolverBudget {
        SolverBudget {
            max_conflicts: self.max_conflicts.max(other.max_conflicts),
            max_clauses: self.max_clauses.max(other.max_clauses),
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

    /// The value of a boolean variable.
    pub fn bool_value(&self, name: &str) -> Option<bool> {
        self.bools.get(name).copied()
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

    /// Returns `true` for `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, CheckResult::Sat(_))
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
    /// Queries answered by an assumption solve on a warm incremental
    /// session instead of a from-scratch blast.
    pub assumption_reuses: u64,
}

impl ReuseStats {
    /// Componentwise sum, for aggregating per-worker counters.
    pub fn absorb(&mut self, other: ReuseStats) {
        self.blast_hits += other.blast_hits;
        self.blast_misses += other.blast_misses;
        self.assumption_reuses += other.assumption_reuses;
    }
}

/// The persistent half of an incremental session: the warm SAT instance,
/// the blaster state binding term encodings and variables into it, and the
/// clause count of the scalar-side base (for budget accounting).
#[derive(Debug)]
struct IncSession {
    sat: SatSolver,
    blast: BlastState,
    base_clauses: usize,
}

/// A one-shot search stopped by its conflict budget, kept so that the next
/// query, if it builds the identical instance under a larger budget, picks
/// the search up where it stopped (see the module docs).
#[derive(Debug)]
struct PausedSearch {
    sat: SatSolver,
    /// [`SatSolver::encode_instance`] of the instance before the search.
    instance: Vec<u32>,
}

/// How many keyed incremental sessions a solver keeps warm at once. The
/// verifier's stage cascade builds one scalar-side context per symbolic
/// strategy, so a handful covers a whole same-scalar job group; beyond the
/// cap the oldest session is dropped (each holds a full SAT instance).
const MAX_INC_SESSIONS: usize = 4;

/// An incremental-style solver facade over the term [`Context`].
#[derive(Debug, Default)]
pub struct Solver {
    /// The term context; build terms through this.
    pub ctx: Context,
    assertions: Vec<TermId>,
    /// Statistics from the most recent `check` call.
    pub last_stats: CheckStats,
    /// Blasted-CNF memo; survives [`Solver::recycle`] when enabled.
    blast_memo: Option<BlastCache>,
    /// Warm incremental sessions, keyed by caller-chosen scalar-context
    /// keys; all dropped by [`Solver::recycle`].
    inc: Vec<(u64, IncSession)>,
    /// Cumulative count of `check_assuming` calls on warm sessions.
    assumption_reuses: u64,
    /// Which simplification layers run; both off by default, keeping the
    /// solve path bit-identical to a solver without the subsystem.
    simplify: SimplifyConfig,
    /// Cumulative simplification counters (all zero while `simplify` is off).
    simplify_stats: SimplifyStats,
    /// The last one-shot search, if its budget stopped it; survives
    /// [`Solver::recycle`], and any query that does not resume it drops it.
    paused: Option<PausedSearch>,
    /// Reused buffer for the current query's pre-search image, so encoding
    /// it does not allocate once warm.
    instance_buf: Vec<u32>,
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

    /// Selects which simplification layers run on subsequent checks: CNF
    /// preprocessing before search ([`crate::preprocess`]) and/or the
    /// in-search inprocessing hooks of [`SatSolver`]. Off by default.
    ///
    /// Preprocessing composes with the reuse stack: it runs on the
    /// *post-replay* clause stream (after any [`BlastCache`] record or
    /// replay), so memo entries stay clause-identical; incremental sessions
    /// preprocess only their base clauses, freezing every variable reachable
    /// from the session's blast state.
    pub fn set_simplify(&mut self, simplify: SimplifyConfig) {
        self.simplify = simplify;
    }

    /// Cumulative simplification counters (all zero while simplify is off).
    pub fn simplify_stats(&self) -> SimplifyStats {
        self.simplify_stats
    }

    /// Folds one solve's inprocessing delta and arena high-water mark into
    /// the cumulative simplify counters. No-op while simplify is off, so the
    /// counters stay exactly zero on the default path.
    fn absorb_solve_effects(&mut self, before: InprocessStats, sat: &SatSolver) {
        if !self.simplify.any() {
            return;
        }
        let after = sat.inprocess_stats();
        self.simplify_stats.clauses_subsumed += after.learned_deleted - before.learned_deleted;
        self.simplify_stats.clauses_strengthened += after.minimized_lits - before.minimized_lits;
        self.simplify_stats.arena_bytes = self
            .simplify_stats
            .arena_bytes
            .max(sat.arena_bytes() as u64);
    }

    /// Cumulative reuse counters (zeros when reuse is off).
    pub fn reuse_stats(&self) -> ReuseStats {
        ReuseStats {
            blast_hits: self.blast_memo.as_ref().map_or(0, BlastCache::hits),
            blast_misses: self.blast_memo.as_ref().map_or(0, BlastCache::misses),
            assumption_reuses: self.assumption_reuses,
        }
    }

    /// Adds an assertion.
    pub fn assert(&mut self, term: TermId) {
        debug_assert_eq!(self.ctx.sort(term), Sort::Bool);
        self.assertions.push(term);
    }

    /// Removes all assertions, keeping the term context.
    pub fn reset_assertions(&mut self) {
        self.assertions.clear();
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
        // Term ids are invalidated by the clear, so any warm incremental
        // session dies with them — but the blasted-CNF memo is keyed by
        // structural hash, not term id, and deliberately survives: reusing
        // blasts across recycles is its whole purpose. A paused search
        // survives for the same reason: it is matched by the CNF it was
        // built from, never by term ids.
        self.inc.clear();
    }

    /// The current assertions.
    pub fn assertions(&self) -> &[TermId] {
        &self.assertions
    }

    /// Checks satisfiability of the conjunction of all assertions.
    ///
    /// When the previous one-shot search stopped at its conflict budget and
    /// this query blasts to the identical instance with at least that many
    /// conflicts to spend, the paused search is resumed instead of re-run;
    /// the result, the model and [`Solver::last_stats`] are exactly those
    /// of a fresh solve.
    pub fn check(&mut self, budget: &SolverBudget) -> CheckResult {
        // Only an identical query may resume the paused search; every other
        // path below drops it.
        let paused = self.paused.take();
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

        // Preprocess the post-blast clause stream when enabled: the memo
        // above already recorded/replayed the raw blast, so cache entries
        // stay clause-identical regardless of this step.
        let pre = if self.simplify.preprocess {
            let t0 = std::time::Instant::now();
            let pre = preprocess_solver(&sat, &[]);
            self.simplify_stats.vars_eliminated += pre.stats.vars_eliminated;
            self.simplify_stats.clauses_subsumed += pre.stats.clauses_subsumed;
            self.simplify_stats.clauses_strengthened += pre.stats.clauses_strengthened;
            self.simplify_stats.preprocess_micros += t0.elapsed().as_micros() as u64;
            sat = pre.build_solver();
            Some(pre)
        } else {
            None
        };
        if self.simplify.inprocess {
            sat.set_inprocessing(true);
        }
        let inp_before = sat.inprocess_stats();

        let sat_budget = SatBudget {
            max_conflicts: budget.max_conflicts,
        };
        // Simplified searches are not kept: with simplify on, every query
        // runs from scratch exactly as before.
        let pausable = !self.simplify.any();
        let mut instance = std::mem::take(&mut self.instance_buf);
        if pausable {
            sat.encode_instance(&mut instance);
        }
        let result = match paused {
            Some(p)
                if pausable
                    && p.sat.stats.conflicts <= budget.max_conflicts
                    && p.instance == instance =>
            {
                sat = p.sat;
                sat.resume(&sat_budget)
            }
            _ => sat.solve(&sat_budget),
        };
        self.last_stats.conflicts = sat.stats.conflicts;
        self.last_stats.decisions = sat.stats.decisions;
        self.absorb_solve_effects(inp_before, &sat);
        // The image moves into the pause on a budget stop; otherwise its
        // buffer is kept for the next query's image.
        let keep = pausable && result == SatResult::Unknown;
        if !keep {
            self.instance_buf = std::mem::take(&mut instance);
        }

        match result {
            SatResult::Unsat => CheckResult::Unsat,
            SatResult::Unknown => {
                if keep {
                    self.paused = Some(PausedSearch { sat, instance });
                }
                CheckResult::Unknown(format!(
                    "solver exhausted its budget of {} conflicts",
                    budget.max_conflicts
                ))
            }
            SatResult::Sat => match pre {
                None => CheckResult::Sat(Box::new(extract_model(&sat, &var_bits, &var_bools))),
                Some(pre) => {
                    // Rebuild values for eliminated variables before reading
                    // the model, so counterexamples satisfy the original
                    // (unsimplified) formula.
                    let mut model: Vec<bool> = (0..pre.num_vars())
                        .map(|v| sat.model_value(v as Var))
                        .collect();
                    pre.complete_model(&mut model);
                    CheckResult::Sat(Box::new(extract_model_with(
                        |v| model[v as usize],
                        &var_bits,
                        &var_bools,
                    )))
                }
            },
        }
    }

    /// Begins an incremental session under `key`: blasts the current
    /// assertions (the scalar-side context, in the verifier) into a
    /// persistent SAT instance that later [`Solver::check_assuming`] calls
    /// with the same key extend. An existing session under the key is
    /// replaced; the oldest session is evicted beyond a small cap.
    /// Ill-sorted assertions surface as an error and leave the solver
    /// without a session under the key.
    pub fn begin_incremental(&mut self, key: u64) -> Result<(), String> {
        self.inc.retain(|(k, _)| *k != key);
        let mut sat = SatSolver::new();
        let mut blaster = BitBlaster::new(&self.ctx, &mut sat);
        for &assertion in &self.assertions {
            let blasted = match &mut self.blast_memo {
                Some(memo) => blaster.assert_with_cache(assertion, memo),
                None => blaster.assert(assertion),
            };
            if let Err(err) = blasted {
                return Err(err.to_string());
            }
        }
        let blast = blaster.into_state();
        if self.simplify.preprocess {
            // Preprocess the scalar-side base clauses only. Every variable
            // reachable from the blast state is frozen: later candidate
            // blasts re-use those encodings, and the activation literals of
            // `check_assuming` are created after this point, so only dead
            // Tseitin internals are eliminated.
            let t0 = std::time::Instant::now();
            let frozen = blast.cnf_vars();
            let pre = preprocess_solver(&sat, &frozen);
            self.simplify_stats.vars_eliminated += pre.stats.vars_eliminated;
            self.simplify_stats.clauses_subsumed += pre.stats.clauses_subsumed;
            self.simplify_stats.clauses_strengthened += pre.stats.clauses_strengthened;
            self.simplify_stats.preprocess_micros += t0.elapsed().as_micros() as u64;
            sat = pre.build_solver();
        }
        if self.simplify.inprocess {
            sat.set_inprocessing(true);
        }
        let base_clauses = sat.num_clauses();
        self.inc.push((
            key,
            IncSession {
                sat,
                blast,
                base_clauses,
            },
        ));
        if self.inc.len() > MAX_INC_SESSIONS {
            self.inc.remove(0);
        }
        Ok(())
    }

    /// `true` while a warm incremental session is loaded under `key`.
    pub fn has_incremental_session(&self, key: u64) -> bool {
        self.inc.iter().any(|(k, _)| *k == key)
    }

    /// Drops every incremental session, keeping context and memo.
    pub fn end_incremental(&mut self) {
        self.inc.clear();
    }

    /// Checks satisfiability of the keyed session's assertions ∧ `formula`
    /// on the warm incremental instance, then retracts `formula`.
    ///
    /// `formula` is blasted into the persistent instance (sharing every
    /// already-encoded subterm), guarded behind a fresh activation literal,
    /// and solved under that single assumption; afterwards a unit clause
    /// retires the activation literal for good. Without a session under
    /// `key` this falls back to a one-shot [`Solver::check`] of the
    /// solver's current assertions ∧ `formula`.
    ///
    /// The clause budget is applied to `base + delta` — the scalar-side
    /// clauses plus the clauses this query added — so accumulation from
    /// earlier (retired) candidates does not eat later candidates' budgets.
    pub fn check_assuming(
        &mut self,
        key: u64,
        formula: TermId,
        budget: &SolverBudget,
    ) -> CheckResult {
        let Some(pos) = self.inc.iter().position(|(k, _)| *k == key) else {
            self.assertions.push(formula);
            let result = self.check(budget);
            self.assertions.pop();
            return result;
        };
        // Assumption solves never pause, and a one-shot pause never
        // outlives a query that did not resume it.
        self.paused = None;
        let (_, session) = self.inc.remove(pos);
        let IncSession {
            mut sat,
            blast,
            base_clauses,
        } = session;
        let clauses_before = sat.num_clauses();
        let mut blaster = BitBlaster::resume(&self.ctx, &mut sat, blast);
        let blasted = blaster.blast(formula).and_then(|bits| bits.try_bool());
        let blast = blaster.into_state();
        let lit = match blasted {
            Ok(lit) => lit,
            Err(err) => {
                self.inc.push((
                    key,
                    IncSession {
                        sat,
                        blast,
                        base_clauses,
                    },
                ));
                return CheckResult::Unknown(err.to_string());
            }
        };
        let act = Lit::pos(sat.new_var());
        sat.add_clause(&[act.negate(), lit]);

        let effective_clauses = base_clauses + (sat.num_clauses() - clauses_before);
        self.last_stats = CheckStats {
            cnf_vars: sat.num_vars(),
            cnf_clauses: effective_clauses,
            ..CheckStats::default()
        };
        let result = if effective_clauses > budget.max_clauses {
            CheckResult::Unknown(format!(
                "bit-blasting produced {} clauses, exceeding the budget of {}",
                effective_clauses, budget.max_clauses
            ))
        } else {
            let inp_before = sat.inprocess_stats();
            let sat_result = sat.solve_with_assumptions(
                &SatBudget {
                    max_conflicts: budget.max_conflicts,
                },
                &[act],
            );
            self.last_stats.conflicts = sat.stats.conflicts;
            self.last_stats.decisions = sat.stats.decisions;
            self.absorb_solve_effects(inp_before, &sat);
            match sat_result {
                SatResult::Unsat => CheckResult::Unsat,
                SatResult::Unknown => CheckResult::Unknown(format!(
                    "solver exhausted its budget of {} conflicts",
                    budget.max_conflicts
                )),
                SatResult::Sat => CheckResult::Sat(Box::new(extract_model(
                    &sat,
                    blast.var_bits(),
                    blast.var_bools(),
                ))),
            }
        };
        // Pop: drop the assumption decisions and permanently satisfy the
        // guard, so this candidate's constraints can never fire again.
        sat.reset_to_root();
        sat.add_clause(&[act.negate()]);
        self.assumption_reuses += 1;
        self.inc.push((
            key,
            IncSession {
                sat,
                blast,
                base_clauses,
            },
        ));
        result
    }

    /// [`Solver::check_validity`] on the warm incremental session: asks
    /// [`Solver::check_assuming`] for a model of `¬formula`.
    pub fn check_validity_assuming(
        &mut self,
        key: u64,
        formula: TermId,
        budget: &SolverBudget,
    ) -> Validity {
        let negated = self.ctx.not(formula);
        match self.check_assuming(key, negated, budget) {
            CheckResult::Unsat => Validity::Valid,
            CheckResult::Sat(model) => Validity::Invalid(model),
            CheckResult::Unknown(reason) => Validity::Unknown(reason),
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
    extract_model_with(|v| sat.model_value(v), var_bits, var_bools)
}

/// [`extract_model`] over an arbitrary variable valuation — the preprocessed
/// path reads from a reconstructed assignment instead of the solver.
fn extract_model_with(
    value_of: impl Fn(Var) -> bool,
    var_bits: &HashMap<String, Vec<Lit>>,
    var_bools: &HashMap<String, Lit>,
) -> Model {
    let mut model = Model::default();
    for (name, bits) in var_bits {
        let mut value: u64 = 0;
        for (i, lit) in bits.iter().enumerate() {
            if value_of(lit.var()) ^ lit.is_neg() {
                value |= 1 << i;
            }
        }
        model.values.insert(name.clone(), value);
        model.widths.insert(name.clone(), bits.len() as u32);
    }
    for (name, lit) in var_bools {
        model
            .bools
            .insert(name.clone(), value_of(lit.var()) ^ lit.is_neg());
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

    /// Builds a small deterministic formula over `x`, `y` from an LCG
    /// state: a comparison between affine combinations, occasionally
    /// conjoined or negated. Cheap to solve (no multipliers on symbolic
    /// operands) yet varied enough to hit Sat, Unsat and shared structure.
    fn random_formula(ctx: &mut Context, state: &mut u64) -> TermId {
        let mut next = |m: u64| {
            *state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*state >> 33) % m
        };
        let x = ctx.bv_var("x", 32);
        let y = ctx.bv_var("y", 32);
        let c1 = ctx.bv_const(next(64), 32);
        let c2 = ctx.bv_const(next(64), 32);
        let lhs = ctx.bv_add(x, c1);
        let rhs = match next(3) {
            0 => ctx.bv_add(y, c2),
            1 => ctx.bv_sub(y, c2),
            _ => c2,
        };
        let cmp = match next(3) {
            0 => ctx.eq(lhs, rhs),
            1 => ctx.bv_ult(lhs, rhs),
            _ => ctx.bv_slt(lhs, rhs),
        };
        match next(4) {
            0 => ctx.not(cmp),
            1 => {
                let ten = ctx.bv32(10);
                let bound = ctx.bv_ult(y, ten);
                ctx.and(cmp, bound)
            }
            _ => cmp,
        }
    }

    /// Satellite property test: the incremental (assumption-based) verdict
    /// equals a fresh solve of base ∧ candidate over random term sets.
    #[test]
    fn incremental_verdict_equals_fresh_solve() {
        for seed in 0..12u64 {
            let base_seed = seed.wrapping_mul(0x9e37_79b9) + 1;
            let mut inc = Solver::new();
            let mut state = base_seed;
            let base = random_formula(&mut inc.ctx, &mut state);
            inc.assert(base);
            inc.begin_incremental(7).unwrap();
            let cand_seed = state;
            let mut cand_state = cand_seed;
            for i in 0..6usize {
                let cand = random_formula(&mut inc.ctx, &mut cand_state);
                let warm = inc.check_assuming(7, cand, &SolverBudget::default());

                // A fresh solver replaying the same construction order and
                // solving base ∧ candidate from scratch.
                let mut fresh = Solver::new();
                let mut fresh_state = base_seed;
                let fresh_base = random_formula(&mut fresh.ctx, &mut fresh_state);
                fresh.assert(fresh_base);
                let mut fresh_cand_state = cand_seed;
                let mut fresh_cand = None;
                for _ in 0..=i {
                    fresh_cand = Some(random_formula(&mut fresh.ctx, &mut fresh_cand_state));
                }
                fresh.assert(fresh_cand.unwrap());
                let cold = fresh.check(&SolverBudget::default());

                match (&warm, &cold) {
                    (CheckResult::Sat(_), CheckResult::Sat(_)) => {}
                    (CheckResult::Unsat, CheckResult::Unsat) => {}
                    other => panic!(
                        "seed {} candidate {}: warm/cold verdicts diverge: {:?}",
                        seed, i, other
                    ),
                }
            }
        }
    }

    #[test]
    fn check_assuming_pops_candidate_constraints() {
        let mut solver = Solver::new();
        let x = solver.ctx.bv_var("x", 32);
        let five = solver.ctx.bv32(5);
        let six = solver.ctx.bv32(6);
        let base = solver.ctx.eq(x, five);
        solver.assert(base);
        solver.begin_incremental(7).unwrap();

        let contradiction = solver.ctx.eq(x, six);
        assert!(solver
            .check_assuming(7, contradiction, &SolverBudget::default())
            .is_unsat());
        // The contradictory candidate is retracted: the next query sees
        // only the base again.
        let consistent = solver.ctx.eq(x, five);
        match solver.check_assuming(7, consistent, &SolverBudget::default()) {
            CheckResult::Sat(model) => assert_eq!(model.value("x"), Some(5)),
            other => panic!("expected sat after pop, got {:?}", other),
        }
        assert_eq!(solver.reuse_stats().assumption_reuses, 2);
    }

    #[test]
    fn check_assuming_without_session_falls_back_to_one_shot() {
        let mut solver = Solver::new();
        let x = solver.ctx.bv_var("x", 32);
        let five = solver.ctx.bv32(5);
        let base = solver.ctx.eq(x, five);
        solver.assert(base);
        let six = solver.ctx.bv32(6);
        let cand = solver.ctx.eq(x, six);
        assert!(solver
            .check_assuming(7, cand, &SolverBudget::default())
            .is_unsat());
        // The fallback must not leave the pushed candidate behind.
        assert_eq!(solver.assertions().len(), 1);
        assert!(solver.check(&SolverBudget::default()).is_sat());
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

    /// Satellite property test: over random well-typed bitvector term
    /// pairs, the fully simplified solve (preprocess + inprocess) agrees
    /// with the plain solve on the verdict class, and `Sat` models really
    /// satisfy the original formula (pinned by re-solving with the model
    /// values asserted).
    #[test]
    fn simplified_check_matches_plain_check() {
        for seed in 0..25u64 {
            let mut state = seed.wrapping_mul(0x9e37_79b9).wrapping_add(17);
            let mut plain = Solver::new();
            let formula = random_formula(&mut plain.ctx, &mut state);
            plain.assert(formula);
            let want = plain.check(&SolverBudget::default());

            let mut simp = Solver::new();
            simp.set_simplify(SimplifyConfig::full());
            let mut state2 = seed.wrapping_mul(0x9e37_79b9).wrapping_add(17);
            let formula2 = random_formula(&mut simp.ctx, &mut state2);
            simp.assert(formula2);
            let got = simp.check(&SolverBudget::default());

            match (&want, &got) {
                (CheckResult::Sat(_), CheckResult::Sat(model)) => {
                    // The reconstructed model must satisfy the original
                    // formula: pin x and y to the model values and re-check.
                    let mut check = Solver::new();
                    let mut state3 = seed.wrapping_mul(0x9e37_79b9).wrapping_add(17);
                    let f = random_formula(&mut check.ctx, &mut state3);
                    check.assert(f);
                    for name in ["x", "y"] {
                        if let Some(v) = model.value(name) {
                            let var = check.ctx.bv_var(name, 32);
                            let val = check.ctx.bv_const(v, 32);
                            let pin = check.ctx.eq(var, val);
                            check.assert(pin);
                        }
                    }
                    assert!(
                        check.check(&SolverBudget::default()).is_sat(),
                        "seed {}: simplified model does not satisfy the original formula",
                        seed
                    );
                }
                (CheckResult::Unsat, CheckResult::Unsat) => {}
                other => panic!("seed {}: simplify changed the verdict: {:?}", seed, other),
            }
        }
    }

    /// The incremental pathway with simplification enabled (base-clause
    /// preprocessing under a frozen blast state) keeps the fresh-solve
    /// verdicts.
    #[test]
    fn incremental_with_simplify_matches_fresh_solve() {
        for seed in 0..12u64 {
            let base_seed = seed.wrapping_mul(0x51_7cc1).wrapping_add(3);
            let mut inc = Solver::new();
            inc.set_simplify(SimplifyConfig::full());
            let mut state = base_seed;
            let base = random_formula(&mut inc.ctx, &mut state);
            inc.assert(base);
            inc.begin_incremental(11).unwrap();
            let cand_seed = state;
            let mut cand_state = cand_seed;
            for i in 0..5usize {
                let cand = random_formula(&mut inc.ctx, &mut cand_state);
                let warm = inc.check_assuming(11, cand, &SolverBudget::default());

                let mut fresh = Solver::new();
                let mut fresh_state = base_seed;
                let fresh_base = random_formula(&mut fresh.ctx, &mut fresh_state);
                fresh.assert(fresh_base);
                let mut fresh_cand_state = cand_seed;
                let mut fresh_cand = None;
                for _ in 0..=i {
                    fresh_cand = Some(random_formula(&mut fresh.ctx, &mut fresh_cand_state));
                }
                fresh.assert(fresh_cand.unwrap());
                let cold = fresh.check(&SolverBudget::default());

                match (&warm, &cold) {
                    (CheckResult::Sat(_), CheckResult::Sat(_)) => {}
                    (CheckResult::Unsat, CheckResult::Unsat) => {}
                    other => panic!(
                        "seed {} candidate {}: simplified warm/cold verdicts diverge: {:?}",
                        seed, i, other
                    ),
                }
            }
        }
    }

    #[test]
    fn simplify_counters_populate_and_stay_zero_when_off() {
        let build = |solver: &mut Solver| {
            let x = solver.ctx.bv_var("x", 32);
            let y = solver.ctx.bv_var("y", 32);
            let prod = solver.ctx.bv_mul(x, y);
            let ten = solver.ctx.bv32(10);
            let eq = solver.ctx.eq(prod, ten);
            solver.assert(eq);
        };
        let mut plain = Solver::new();
        build(&mut plain);
        let _ = plain.check(&SolverBudget::default());
        assert!(plain.simplify_stats().is_zero());

        let mut simp = Solver::new();
        simp.set_simplify(SimplifyConfig::full());
        build(&mut simp);
        let _ = simp.check(&SolverBudget::default());
        let stats = simp.simplify_stats();
        assert!(
            stats.vars_eliminated > 0,
            "a Tseitin blast must yield eliminable variables: {:?}",
            stats
        );
        assert!(stats.arena_bytes > 0);
    }

    /// Checks the validity of `x * y == y * x` at bit width `width` (with
    /// the operands of both products swapped when `swapped`). Valid, but
    /// the SAT search needs hundreds (width 5) to thousands (width 6) of
    /// conflicts to prove it.
    fn commutativity(solver: &mut Solver, swapped: bool, width: u32, conflicts: u64) -> Validity {
        let x = solver.ctx.bv_var("x", width);
        let y = solver.ctx.bv_var("y", width);
        let (a, b) = if swapped { (y, x) } else { (x, y) };
        let ab = solver.ctx.bv_mul(a, b);
        let ba = solver.ctx.bv_mul(b, a);
        let formula = solver.ctx.eq(ab, ba);
        let budget = SolverBudget {
            max_conflicts: conflicts,
            max_clauses: 4_000_000,
        };
        solver.check_validity(formula, &budget)
    }

    /// [`commutativity`] on a recycled `solver`: the verdict and the
    /// reported (conflicts, decisions).
    fn run_on(
        solver: &mut Solver,
        swapped: bool,
        width: u32,
        conflicts: u64,
    ) -> (Validity, (u64, u64)) {
        solver.recycle();
        let verdict = commutativity(solver, swapped, width, conflicts);
        let stats = solver.last_stats;
        (verdict, (stats.conflicts, stats.decisions))
    }

    fn fresh_run(swapped: bool, width: u32, conflicts: u64) -> (Validity, (u64, u64)) {
        run_on(&mut Solver::new(), swapped, width, conflicts)
    }

    #[test]
    fn a_resumed_check_equals_a_fresh_check_with_the_larger_budget() {
        for (memo, width) in [(false, 5), (true, 5), (true, 6)] {
            let mut solver = Solver::new();
            if memo {
                solver.enable_blast_memo();
            }
            let (first, _) = run_on(&mut solver, false, width, 8);
            assert!(matches!(first, Validity::Unknown(_)));
            assert!(solver.paused.is_some());
            // A second budget stop on the same query keeps the pause going.
            assert_eq!(
                run_on(&mut solver, false, width, 40),
                fresh_run(false, width, 40)
            );
            assert!(solver.paused.is_some());
            let want = fresh_run(false, width, 100_000);
            assert_eq!(want.0, Validity::Valid);
            assert_eq!(run_on(&mut solver, false, width, 100_000), want);
            assert!(solver.paused.is_none(), "a conclusive search is not kept");
        }
    }

    #[test]
    fn a_smaller_budget_never_resumes() {
        let mut solver = Solver::new();
        let _ = run_on(&mut solver, false, 5, 50);
        assert!(solver.paused.is_some());
        // The paused search has spent 50 conflicts; a fresh solve under 20
        // stops at 20, so the pause must not answer for it.
        assert_eq!(run_on(&mut solver, false, 5, 20), fresh_run(false, 5, 20));
    }

    #[test]
    fn a_different_query_drops_the_pause_and_solves_fresh() {
        // Every query other than the paused one (here: swapped operands,
        // another width) must get exactly the fresh answer.
        for (swapped, width) in [(true, 5), (false, 6)] {
            let mut solver = Solver::new();
            let _ = run_on(&mut solver, false, 5, 8);
            assert!(solver.paused.is_some());
            let got = run_on(&mut solver, swapped, width, 100_000);
            assert_eq!(got, fresh_run(swapped, width, 100_000));
            assert!(solver.paused.is_none());
        }
    }

    #[test]
    fn incremental_and_simplified_checks_keep_no_pause() {
        let mut solver = Solver::new();
        let _ = run_on(&mut solver, false, 5, 8);
        assert!(solver.paused.is_some());
        // An assumption solve on a warm session, stopped by its own budget.
        let x = solver.ctx.bv_var("x", 5);
        let y = solver.ctx.bv_var("y", 5);
        let xy = solver.ctx.bv_mul(x, y);
        let yx = solver.ctx.bv_mul(y, x);
        let same = solver.ctx.eq(xy, yx);
        let differ = solver.ctx.not(same);
        solver.reset_assertions();
        solver.begin_incremental(3).unwrap();
        let budget = SolverBudget {
            max_conflicts: 8,
            max_clauses: 4_000_000,
        };
        let result = solver.check_assuming(3, differ, &budget);
        assert!(matches!(result, CheckResult::Unknown(_)));
        assert!(solver.paused.is_none());

        let mut simplified = Solver::new();
        simplified.set_simplify(SimplifyConfig::full());
        let verdict = commutativity(&mut simplified, false, 5, 8);
        assert!(matches!(verdict, Validity::Unknown(_)));
        assert!(simplified.paused.is_none());
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
