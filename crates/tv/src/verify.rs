//! The three symbolic verification strategies of Algorithm 1, each run
//! through [`SymbolicStrategy::run`]:
//!
//! * [`SymbolicStrategy::Alive2Unroll`] — the "out-of-the-box"
//!   configuration: both programs are unrolled by the verifier itself over
//!   a two-chunk window and compared under a tight solver budget (this is
//!   the strategy that most often returns `Inconclusive` on large kernels,
//!   as in the paper);
//! * [`SymbolicStrategy::CUnroll`] — the scalar program is first rewritten
//!   by the source-level unroller of [`crate::cunroll`], which removes the
//!   per-iteration termination checks and shrinks the verification
//!   condition;
//! * [`SymbolicStrategy::SpatialSplitting`] — for kernels with no
//!   loop-carried dependences, one query per lane compares a single output
//!   index at a time.
//!
//! The cascade that runs them in order, after the checksum test, is the
//! batch engine's in `lv_core`.
//!
//! All three check *refinement*: on every input on which the scalar program
//! is UB-free, the candidate must also be UB-free and produce identical
//! array contents. Arrays live in distinct regions (non-aliasing, Section
//! 3.1) and trip counts are fixed to multiples of the vectorization width
//! (the paper's `(end1 - start1) % m == 0` assumption). The candidate's
//! parameters bind to the scalar's by position ([`sym_exec_bound`]), and
//! output array `k` of the candidate is compared with output array `k` of
//! the scalar.
//!
//! # The solve path
//!
//! Every strategy builds its verification conditions (VCs) through one
//! function, which decides each VC in this order, with no option to skip a
//! step:
//!
//! 1. **Constant.** A VC the term rewrites fold to `true` is `Equivalent`
//!    and one folded to `false` is refuted by any input; neither is
//!    evaluated or bit-blasted.
//! 2. **Evaluate.** The VC is evaluated under a fixed set of edge-biased
//!    assignments seeded from the query
//!    ([`crate::counterexample`]); the first that falsifies it is the
//!    counterexample, and SAT is skipped.
//! 3. **SAT.** Only a VC no assignment falsifies is bit-blasted and
//!    searched under the stage's budget: `Unsat` is `Equivalent`, a
//!    stopped search `Inconclusive`, and a model the counterexample.
//! 4. **Replay.** Every counterexample, from step 1, 2 or 3, is bound to
//!    concrete arguments by position and run on the scalar kernel and the
//!    candidate in `lv_interp` ([`replay_counterexample`]). The verdict is
//!    `NotEquivalent` only when that run shows an output mismatch or
//!    undefined behaviour in the candidate, with the detail rendered from
//!    the run (array, index, expected, produced; spatial splitting adds the
//!    lane). A model the run does not confirm is `Inconclusive` with a
//!    [`MODEL_DIVERGENCE`](crate::MODEL_DIVERGENCE) reason.

use crate::align::{align, Alignment};
use crate::counterexample::{
    falsifying_trial, query_seed, replay_counterexample, trial_value, ReplayFrame,
};
use crate::cunroll::c_unroll;
use crate::symexec::{sym_exec, sym_exec_bound, SymExecConfig};
use lv_analysis::{analyze_function, collect_accesses, AccessKind};
use lv_cir::ast::{BinOp, Expr, Function, UnOp};
use lv_smt::{ReuseStats, Solver, SolverBudget, Validity};

/// Cumulative solver-effort statistics over the lifetime of a [`TvSession`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TvSessionStats {
    /// SMT queries discharged.
    pub queries: u64,
    /// SAT conflicts, summed over all queries.
    pub conflicts: u64,
    /// SAT decisions, summed over all queries.
    pub decisions: u64,
    /// CNF clauses created by bit-blasting, summed over all queries.
    pub clauses: u64,
}

/// Which cross-query solver reuse a [`TvSession`] runs with. Default off:
/// the session then behaves exactly as before the reuse subsystem existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TvReuse {
    /// Blasted-CNF memoization across recycles ([`Solver::enable_blast_memo`]).
    pub memo: bool,
}

/// A reusable verification session: one SMT solver whose allocations are
/// recycled across queries, plus cumulative effort statistics.
///
/// The parallel batch engine gives each worker thread one session for its
/// whole lifetime; [`SymbolicStrategy::run`] runs every query through it.
/// Because [`Solver::recycle`] restores the solver to its just-constructed
/// state, a session produces bit-identical verdicts to constructing a fresh
/// solver per query — it only avoids the reallocation.
#[derive(Debug, Default)]
pub struct TvSession {
    solver: Solver,
    /// Effort accumulated so far; the engine reads deltas of this around
    /// each strategy call to attribute conflicts to pipeline stages.
    pub stats: TvSessionStats,
}

impl TvSession {
    /// Creates a session with a fresh solver and no reuse.
    pub fn new() -> TvSession {
        TvSession::default()
    }

    /// Creates a session with the given reuse enabled.
    pub fn with_reuse(reuse: TvReuse) -> TvSession {
        let mut session = TvSession::default();
        if reuse.memo {
            session.solver.enable_blast_memo();
        }
        session
    }

    /// Cumulative solver-reuse counters (all zero when reuse is off).
    pub fn reuse_stats(&self) -> ReuseStats {
        self.solver.reuse_stats()
    }

    /// Hands out the solver for the next query, recycled.
    fn query_solver(&mut self) -> &mut Solver {
        self.solver.recycle();
        &mut self.solver
    }

    /// Folds the most recent query's statistics into the running totals.
    fn absorb_last_query(&mut self) {
        let stats = self.solver.last_stats;
        self.stats.queries += 1;
        self.stats.conflicts += stats.conflicts;
        self.stats.decisions += stats.decisions;
        self.stats.clauses += stats.cnf_clauses as u64;
    }
}

/// The verdict of one verification attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TvVerdict {
    /// The candidate refines the scalar kernel (modulo the bounded unrolling).
    Equivalent,
    /// A counterexample distinguishes the two programs, and running both on
    /// it confirms the difference.
    NotEquivalent {
        /// What the concrete run of the counterexample shows: the first
        /// differing output cell, or the candidate's undefined behaviour.
        counterexample: String,
    },
    /// The query could not be decided (solver budget, unsupported features,
    /// alignment failure) — the paper's timeout / memory-out / unmodelled
    /// intrinsic bucket.
    Inconclusive {
        /// Why the attempt was inconclusive.
        reason: String,
    },
}

impl TvVerdict {
    /// Returns `true` for [`TvVerdict::Inconclusive`].
    pub fn is_inconclusive(&self) -> bool {
        matches!(self, TvVerdict::Inconclusive { .. })
    }
}

/// Configuration shared by the verification strategies.
#[derive(Debug, Clone)]
pub struct TvConfig {
    /// Solver budget for the plain Alive2-style unrolling strategy.
    pub alive2_budget: SolverBudget,
    /// Solver budget for the C-level-unrolling strategy.
    pub cunroll_budget: SolverBudget,
    /// Solver budget for each spatial-splitting lane query.
    pub spatial_budget: SolverBudget,
    /// Number of vector iterations covered by the Alive2-style strategy.
    pub alive2_chunks: usize,
    /// Extra array cells modelled beyond the iteration window (so reads such
    /// as `a[i + 1]` stay in bounds).
    pub array_slack: usize,
    /// Unrolling budget passed to the symbolic executor.
    pub max_iterations: usize,
}

impl Default for TvConfig {
    fn default() -> Self {
        TvConfig {
            alive2_budget: SolverBudget {
                max_conflicts: 60_000,
                max_clauses: 600_000,
            },
            cunroll_budget: SolverBudget {
                max_conflicts: 400_000,
                max_clauses: 3_000_000,
            },
            spatial_budget: SolverBudget {
                max_conflicts: 200_000,
                max_clauses: 1_500_000,
            },
            alive2_chunks: 2,
            array_slack: 8,
            max_iterations: 4096,
        }
    }
}

impl TvConfig {
    /// A stable 64-bit fingerprint of every field that can influence a
    /// verdict.
    ///
    /// Folded into the engine-configuration hash that keys the persistent
    /// verdict cache: budgets change `Inconclusive` outcomes, the chunk
    /// window and array slack change the verification condition, and the
    /// unrolling budget changes which kernels the executor can handle at
    /// all — so any change here must invalidate cached verdicts.
    pub fn fingerprint(&self) -> u64 {
        let mut fnv = lv_cir::Fnv64::new();
        fnv.write_u64(self.alive2_budget.fingerprint());
        fnv.write_u64(self.cunroll_budget.fingerprint());
        fnv.write_u64(self.spatial_budget.fingerprint());
        fnv.write_u64(self.alive2_chunks as u64);
        fnv.write_u64(self.array_slack as u64);
        fnv.write_u64(self.max_iterations as u64);
        fnv.finish()
    }
}

/// The three symbolic strategies of Algorithm 1 as first-class values, so a
/// verification cascade can be configured, reordered, and dispatched
/// generically by the batch engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymbolicStrategy {
    /// Default Alive2-style unrolling (Algorithm 1 line 6): the verifier
    /// unrolls both loops itself over a window of [`TvConfig::alive2_chunks`]
    /// vector iterations.
    Alive2Unroll,
    /// C-level unrolling (line 9): the scalar kernel is rewritten by
    /// [`c_unroll`] before symbolic execution, and only a single vector
    /// chunk is modelled, producing a much smaller query.
    CUnroll,
    /// Spatial case splitting (line 12): only applicable when the
    /// conservative syntactic check finds no loop-carried dependence; the
    /// equivalence of the whole array is decomposed into one query per lane.
    SpatialSplitting,
}

impl SymbolicStrategy {
    /// The strategies in Algorithm 1 order.
    pub const ALL: [SymbolicStrategy; 3] = [
        SymbolicStrategy::Alive2Unroll,
        SymbolicStrategy::CUnroll,
        SymbolicStrategy::SpatialSplitting,
    ];

    /// Runs this strategy on `scalar` and the candidate `vector`, every
    /// query through `session`.
    ///
    /// The loops are aligned once; an alignment failure, a kernel the
    /// strategy cannot rewrite or split, and a loop whose trip count cannot
    /// be fixed to the divisibility assumption are `Inconclusive`, in that
    /// order. The query frame is then built once and every query of the
    /// call (one, or one per lane for spatial splitting) is run in it.
    pub fn run(
        self,
        scalar: &Function,
        vector: &Function,
        config: &TvConfig,
        session: &mut TvSession,
    ) -> TvVerdict {
        self.run_queries(scalar, vector, config, session)
            .unwrap_or_else(|reason| TvVerdict::Inconclusive { reason })
    }

    /// [`SymbolicStrategy::run`], with the reason no query could be built
    /// as the error.
    fn run_queries(
        self,
        scalar: &Function,
        vector: &Function,
        config: &TvConfig,
        session: &mut TvSession,
    ) -> Result<TvVerdict, String> {
        let alignment = align(scalar, vector).map_err(|e| e.to_string())?;
        let m = alignment.unroll_factor.unsigned_abs() as usize;
        Ok(match self {
            SymbolicStrategy::Alive2Unroll => {
                let chunks = config.alive2_chunks.max(1);
                let frame = QueryFrame::new(scalar, scalar, vector, &alignment, chunks, config)?;
                refinement_check(&frame, &config.alive2_budget, None, session)
            }
            SymbolicStrategy::CUnroll => {
                let unrolled = c_unroll(scalar, m).map_err(|e| e.to_string())?;
                let frame = QueryFrame::new(scalar, &unrolled, vector, &alignment, 1, config)?;
                refinement_check(&frame, &config.cunroll_budget, None, session)
            }
            SymbolicStrategy::SpatialSplitting => {
                spatial_eligible(scalar, vector)?;
                let frame = QueryFrame::new(scalar, scalar, vector, &alignment, 1, config)?;
                let mut last_unknown: Option<String> = None;
                for lane in 0..m {
                    match refinement_check(&frame, &config.spatial_budget, Some(lane), session) {
                        TvVerdict::Equivalent => {}
                        TvVerdict::NotEquivalent { counterexample } => {
                            return Ok(TvVerdict::NotEquivalent {
                                counterexample: format!("lane {}: {}", lane, counterexample),
                            })
                        }
                        TvVerdict::Inconclusive { reason } => last_unknown = Some(reason),
                    }
                }
                last_unknown.map_or(TvVerdict::Equivalent, |reason| TvVerdict::Inconclusive {
                    reason,
                })
            }
        })
    }
}

/// The conservative loop-carried-dependence check of Section 3.3: every array
/// subscript in the scalar loop must be exactly the induction variable, the
/// candidate must only access vectors starting at the induction variable, and
/// neither program may update a scalar across iterations.
fn spatial_eligible(scalar: &Function, vector: &Function) -> Result<(), String> {
    let report = analyze_function(scalar);
    if !report.loop_found {
        return Err("no canonical loop for spatial splitting".to_string());
    }
    if !report.reductions.is_empty() || !report.recurrences.is_empty() {
        return Err("the scalar kernel updates a scalar across iterations".to_string());
    }
    for func in [scalar, vector] {
        let nest = lv_analysis::loop_nest(func);
        let Some(l) = nest.loops.first() else {
            return Err("missing canonical loop".to_string());
        };
        let body = collect_accesses(&l.body, &l.iv);
        if !body.scalar_updates.is_empty() {
            return Err("a scalar value is updated inside the loop body".to_string());
        }
        for access in &body.accesses {
            match access.affine {
                Some(a) if a.coeff == 1 && a.offset == 0 => {}
                _ => {
                    return Err(format!(
                        "array `{}` is accessed at a subscript other than the induction variable",
                        access.array
                    ))
                }
            }
        }
    }
    Ok(())
}

/// What every query of one strategy call shares: the two programs as they
/// are executed, the trip count fixed by the divisibility assumption, the
/// symbolic-execution bindings and the written arrays compared.
struct QueryFrame<'a> {
    /// The scalar kernel, on which counterexamples are replayed.
    scalar: &'a Function,
    /// The scalar kernel as it is symbolically executed: `scalar` itself,
    /// or its C-unrolled form.
    source: &'a Function,
    /// The candidate.
    vector: &'a Function,
    /// The scalar loop's constant start index.
    start: usize,
    /// The bound parameter value giving the modelled trip count.
    n: i32,
    /// Bindings and array length of both symbolic executions.
    sym: SymExecConfig,
    /// Positions of the array parameters either program writes.
    written: Vec<usize>,
}

impl<'a> QueryFrame<'a> {
    /// The frame modelling `chunks` vector iterations, or why the loop's
    /// trip count cannot be fixed: a start that is not a constant literal,
    /// or a bound no parameter value makes give `m * chunks` iterations.
    fn new(
        scalar: &'a Function,
        source: &'a Function,
        vector: &'a Function,
        alignment: &Alignment,
        chunks: usize,
        config: &TvConfig,
    ) -> Result<QueryFrame<'a>, String> {
        let m = alignment.unroll_factor.unsigned_abs() as usize;
        let step = alignment.scalar_step.unsigned_abs() as usize;
        let Some(start) = alignment.scalar_loop.start.as_int_lit() else {
            return Err("the scalar loop start is not a constant literal".to_string());
        };
        let start = start.max(0) as usize;
        // The loop must cover exactly `m * chunks` scalar iterations, which
        // realizes the paper's `(end1 - start1) % m == 0` assumption. The
        // bound parameter value achieving that trip count is found
        // numerically from the (possibly complex) bound expression, e.g.
        // `n - 1` for s212.
        let trip = m * chunks;
        let Some(n) = find_bound_binding(alignment, trip) else {
            return Err(format!(
                "could not find a bound value giving {} scalar iterations for the divisibility assumption",
                trip
            ));
        };
        // Every scalar parameter (the bound) takes `n`; the candidate reads
        // the scalar's inputs by position.
        let sym = SymExecConfig {
            scalar_bindings: source
                .scalar_params()
                .into_iter()
                .map(|name| (name.to_string(), n))
                .collect(),
            array_len: start + trip * step + config.array_slack,
            max_iterations: config.max_iterations,
            input_prefix: String::new(),
        };
        Ok(QueryFrame {
            scalar,
            source,
            vector,
            start,
            n,
            sym,
            written: written_arrays(source, vector),
        })
    }
}

/// Builds and discharges one refinement query in `frame` under `budget`.
/// `lane` restricts the comparison to a single output index (spatial
/// splitting).
///
/// The verification condition is decided on one path (see the module
/// docs): a constant needs no search, an assignment under which it
/// evaluates to false is a counterexample without bit-blasting, and only a
/// condition no assignment falsifies goes to the SAT search. Every
/// counterexample, from evaluation or from SAT, is replayed on the scalar
/// kernel and the candidate ([`replay_counterexample`]), and the verdict is
/// what the replay shows.
fn refinement_check(
    frame: &QueryFrame,
    budget: &SolverBudget,
    lane: Option<usize>,
    session: &mut TvSession,
) -> TvVerdict {
    let replay_frame = ReplayFrame {
        n: frame.n,
        array_len: frame.sym.array_len,
        cell: lane.map(|lane| frame.start + lane),
    };
    let solver = session.query_solver();
    let outcome_scalar = sym_exec(&mut solver.ctx, frame.source, &frame.sym);
    let outcome_vector = sym_exec_bound(&mut solver.ctx, frame.vector, frame.source, &frame.sym);
    let (src, tgt) = match (outcome_scalar, outcome_vector) {
        (Ok(s), Ok(t)) => (s, t),
        (Err(e), _) | (_, Err(e)) => {
            return TvVerdict::Inconclusive {
                reason: e.to_string(),
            }
        }
    };

    // Refinement: whenever the source is UB-free, the target must be UB-free
    // and the observable outputs must agree.
    let mut agree = solver.ctx.bool_const(true);
    for (k, src_cells) in src.arrays.iter().enumerate() {
        if !frame.written.contains(&k) {
            continue;
        }
        // `sym_exec_bound` accepted the candidate, so it takes the scalar's
        // parameter types: every array has a counterpart at its position.
        let tgt_cells = &tgt.arrays[k];
        let indices: Vec<usize> = match replay_frame.cell {
            Some(cell) => vec![cell],
            None => (0..src_cells.len().min(tgt_cells.len())).collect(),
        };
        for idx in indices {
            if idx >= src_cells.len() || idx >= tgt_cells.len() {
                continue;
            }
            let eq = solver.ctx.eq(src_cells[idx], tgt_cells[idx]);
            agree = solver.ctx.and(agree, eq);
        }
    }
    let no_tgt_ub = solver.ctx.not(tgt.ub);
    let post = solver.ctx.and(no_tgt_ub, agree);
    let no_src_ub = solver.ctx.not(src.ub);

    let vc = solver.ctx.implies(no_src_ub, post);
    let replay = |value_of: &dyn Fn(&str) -> u64| {
        replay_counterexample(frame.scalar, frame.vector, &replay_frame, value_of)
    };
    let seed = query_seed(&solver.ctx, vc);
    let verdict = match solver.ctx.as_bool_const(vc) {
        Some(true) => TvVerdict::Equivalent,
        // Every assignment falsifies a false constant.
        Some(false) => replay(&|name| trial_value(seed, 0, name)),
        None => match falsifying_trial(&solver.ctx, vc, seed) {
            Some(trial) => replay(&|name| trial_value(seed, trial, name)),
            None => match solver.check_validity(vc, budget) {
                Validity::Valid => TvVerdict::Equivalent,
                Validity::Invalid(model) => replay(&|name| model.value(name).unwrap_or(0)),
                Validity::Unknown(reason) => TvVerdict::Inconclusive { reason },
            },
        },
    };
    session.absorb_last_query();
    verdict
}

/// Positions (among the array parameters) of the arrays either function
/// writes; unread output arrays of the candidate are still compared so that
/// missing stores are caught. Each function's written names map to
/// positions through its own parameter list, so a candidate that spells its
/// parameters differently still names the arrays it writes. One access walk
/// per function covers every statement, loop bodies included: whether an
/// access writes does not depend on the induction variable.
fn written_arrays(scalar: &Function, vector: &Function) -> Vec<usize> {
    let mut out = Vec::new();
    for func in [scalar, vector] {
        let arrays = func.array_params();
        let body = collect_accesses(&func.body, "__no_iv__");
        for access in body.accesses {
            if access.kind != AccessKind::Write {
                continue;
            }
            if let Some(k) = arrays.iter().position(|&name| name == access.array) {
                if !out.contains(&k) {
                    out.push(k);
                }
            }
        }
    }
    out
}

/// Finds a value for the scalar bound parameter such that the scalar loop
/// executes exactly `trip` iterations (the divisibility assumption).
fn find_bound_binding(alignment: &Alignment, trip: usize) -> Option<i32> {
    let l = &alignment.scalar_loop;
    let start = l.start.as_int_lit()?;
    let step = alignment.scalar_step;
    for n in 0..=(4 * trip as i64 + 64) {
        let Some(bound) = eval_bound_expr(&l.bound, n) else {
            continue;
        };
        let mut count = 0usize;
        let mut i = start;
        while count <= trip + 1 {
            let cont = match l.cond_op {
                BinOp::Lt => i < bound,
                BinOp::Le => i <= bound,
                BinOp::Ne => i != bound,
                BinOp::Gt => i > bound,
                BinOp::Ge => i >= bound,
                _ => return None,
            };
            if !cont {
                break;
            }
            count += 1;
            i += step;
        }
        if count == trip {
            return i32::try_from(n).ok();
        }
    }
    None
}

/// Evaluates a loop-bound expression with every scalar variable set to `n`.
fn eval_bound_expr(expr: &Expr, n: i64) -> Option<i64> {
    match expr {
        Expr::IntLit(v) => Some(*v),
        Expr::Var(_) => Some(n),
        Expr::Unary {
            op: UnOp::Neg,
            expr,
        } => Some(-eval_bound_expr(expr, n)?),
        Expr::Binary { op, lhs, rhs } => {
            let l = eval_bound_expr(lhs, n)?;
            let r = eval_bound_expr(rhs, n)?;
            match op {
                BinOp::Add => Some(l + r),
                BinOp::Sub => Some(l - r),
                BinOp::Mul => Some(l * r),
                BinOp::Div => (r != 0).then(|| l / r),
                BinOp::Rem => (r != 0).then(|| l % r),
                BinOp::Shr => Some(l >> r.clamp(0, 62)),
                BinOp::Shl => Some(l << r.clamp(0, 62)),
                _ => None,
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_cir::parse_function;
    use std::collections::BTreeSet;

    const S000: &str =
        "void s000(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] + 1; } }";
    const S000_VEC: &str = "void s000(int n, int *a, int *b) { int i; for (i = 0; i + 8 <= n; i += 8) { __m256i x = _mm256_loadu_si256((__m256i *)&b[i]); _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(x, _mm256_set1_epi32(1))); } for (; i < n; i++) { a[i] = b[i] + 1; } }";
    /// Off-by-one: adds 2 instead of 1.
    const S000_VEC_WRONG: &str = "void s000(int n, int *a, int *b) { int i; for (i = 0; i + 8 <= n; i += 8) { __m256i x = _mm256_loadu_si256((__m256i *)&b[i]); _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(x, _mm256_set1_epi32(2))); } for (; i < n; i++) { a[i] = b[i] + 1; } }";

    const S212: &str = "void s212(int n, int *a, int *b, int *c, int *d) { for (int i = 0; i < n - 1; i++) { a[i] *= c[i]; b[i] += a[i + 1] * d[i]; } }";
    /// Figure 1(b): loads a[i+1] before storing a[i], which is correct.
    const S212_VEC: &str = "void s212(int n, int *a, int *b, int *c, int *d) { int i; for (i = 0; i + 8 <= n - 1; i += 8) { __m256i a_vec = _mm256_loadu_si256((__m256i *)&a[i]); __m256i b_vec = _mm256_loadu_si256((__m256i *)&b[i]); __m256i c_vec = _mm256_loadu_si256((__m256i *)&c[i]); __m256i a_next = _mm256_loadu_si256((__m256i *)&a[i + 1]); __m256i d_vec = _mm256_loadu_si256((__m256i *)&d[i]); __m256i prod = _mm256_mullo_epi32(a_vec, c_vec); _mm256_storeu_si256((__m256i *)&a[i], prod); __m256i prod2 = _mm256_mullo_epi32(a_next, d_vec); _mm256_storeu_si256((__m256i *)&b[i], _mm256_add_epi32(b_vec, prod2)); } for (; i < n - 1; i++) { a[i] *= c[i]; b[i] += a[i + 1] * d[i]; } }";
    /// Broken s212: loads a[i+1] *after* storing a[i], so lane 7 reads the
    /// updated value — the classic dependence violation.
    const S212_VEC_WRONG: &str = "void s212(int n, int *a, int *b, int *c, int *d) { int i; for (i = 0; i + 8 <= n - 1; i += 8) { __m256i a_vec = _mm256_loadu_si256((__m256i *)&a[i]); __m256i b_vec = _mm256_loadu_si256((__m256i *)&b[i]); __m256i c_vec = _mm256_loadu_si256((__m256i *)&c[i]); __m256i d_vec = _mm256_loadu_si256((__m256i *)&d[i]); __m256i prod = _mm256_mullo_epi32(a_vec, c_vec); _mm256_storeu_si256((__m256i *)&a[i], prod); __m256i a_next = _mm256_loadu_si256((__m256i *)&a[i + 1]); __m256i prod2 = _mm256_mullo_epi32(a_next, d_vec); _mm256_storeu_si256((__m256i *)&b[i], _mm256_add_epi32(b_vec, prod2)); } for (; i < n - 1; i++) { a[i] *= c[i]; b[i] += a[i + 1] * d[i]; } }";

    fn f(src: &str) -> Function {
        parse_function(src).unwrap()
    }

    fn quick_config() -> TvConfig {
        TvConfig {
            alive2_chunks: 1,
            ..TvConfig::default()
        }
    }

    /// Runs `strategy` on a fresh session.
    fn run(strategy: SymbolicStrategy, scalar: &str, vector: &str, config: &TvConfig) -> TvVerdict {
        strategy.run(&f(scalar), &f(vector), config, &mut TvSession::new())
    }

    #[test]
    fn correct_s000_verifies_with_c_unroll() {
        let verdict = run(SymbolicStrategy::CUnroll, S000, S000_VEC, &quick_config());
        assert_eq!(verdict, TvVerdict::Equivalent);
    }

    #[test]
    fn correct_s000_verifies_with_alive2_unroll() {
        let verdict = run(
            SymbolicStrategy::Alive2Unroll,
            S000,
            S000_VEC,
            &quick_config(),
        );
        assert_eq!(verdict, TvVerdict::Equivalent);
    }

    #[test]
    fn wrong_constant_is_refuted() {
        let verdict = run(
            SymbolicStrategy::CUnroll,
            S000,
            S000_VEC_WRONG,
            &quick_config(),
        );
        assert!(
            matches!(verdict, TvVerdict::NotEquivalent { .. }),
            "{:?}",
            verdict
        );
    }

    #[test]
    fn counterexamples_are_rendered_from_their_replay() {
        // The wrong candidate stores `b[i] + 2` where the scalar stores
        // `b[i] + 1`: every replayed mismatch is off by exactly one, and
        // spatial splitting reports it at the lane its query compared.
        let off_by_one = |detail: &str, prefix: &str| {
            let rest = detail
                .strip_prefix(prefix)
                .unwrap_or_else(|| panic!("{}", detail));
            let (expected, produced) = rest
                .split_once(" but the vectorized code produced ")
                .unwrap_or_else(|| panic!("{}", detail));
            let expected: i32 = expected.parse().unwrap();
            assert_eq!(produced.parse::<i32>().unwrap(), expected.wrapping_add(1));
        };
        for verdict in [
            run(
                SymbolicStrategy::Alive2Unroll,
                S000,
                S000_VEC_WRONG,
                &quick_config(),
            ),
            run(
                SymbolicStrategy::CUnroll,
                S000,
                S000_VEC_WRONG,
                &quick_config(),
            ),
        ] {
            let TvVerdict::NotEquivalent { counterexample } = verdict else {
                panic!("{:?}", verdict);
            };
            let cell = counterexample.split_once(": expected ").unwrap().0;
            off_by_one(&counterexample, &format!("{}: expected ", cell));
            assert!(cell.starts_with("a["), "{}", counterexample);
        }
        let verdict = run(
            SymbolicStrategy::SpatialSplitting,
            S000,
            S000_VEC_WRONG,
            &quick_config(),
        );
        let TvVerdict::NotEquivalent { counterexample } = verdict else {
            panic!("{:?}", verdict);
        };
        off_by_one(&counterexample, "lane 0: a[0]: expected ");
    }

    #[test]
    fn s212_correct_vectorization_verifies() {
        let verdict = run(SymbolicStrategy::CUnroll, S212, S212_VEC, &quick_config());
        assert_eq!(
            verdict,
            TvVerdict::Equivalent,
            "paper Figure 1(b) candidate"
        );
    }

    #[test]
    fn s212_dependence_violation_is_refuted() {
        let verdict = run(
            SymbolicStrategy::CUnroll,
            S212,
            S212_VEC_WRONG,
            &quick_config(),
        );
        assert!(
            matches!(verdict, TvVerdict::NotEquivalent { .. }),
            "{:?}",
            verdict
        );
    }

    #[test]
    fn spatial_splitting_verifies_simple_kernel() {
        let verdict = run(
            SymbolicStrategy::SpatialSplitting,
            S000,
            S000_VEC,
            &quick_config(),
        );
        assert_eq!(verdict, TvVerdict::Equivalent);
    }

    #[test]
    fn spatial_splitting_rejects_dependent_kernel() {
        let verdict = run(
            SymbolicStrategy::SpatialSplitting,
            S212,
            S212_VEC,
            &quick_config(),
        );
        assert!(verdict.is_inconclusive(), "{:?}", verdict);
    }

    #[test]
    fn missing_epilogue_is_still_equivalent_under_divisibility() {
        // Without an epilogue the candidate only covers multiples of 8, but
        // the verification fixes the trip count to a multiple of 8, so this
        // must verify (the checksum harness is the one that catches it).
        let no_epilogue = "void s000(int n, int *a, int *b) { int i; for (i = 0; i + 8 <= n; i += 8) { __m256i x = _mm256_loadu_si256((__m256i *)&b[i]); _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(x, _mm256_set1_epi32(1))); } }";
        let verdict = run(
            SymbolicStrategy::CUnroll,
            S000,
            no_epilogue,
            &quick_config(),
        );
        assert_eq!(verdict, TvVerdict::Equivalent);
    }

    #[test]
    fn unvectorizable_shape_is_inconclusive() {
        // A candidate with no loop at all cannot be aligned.
        let no_loop = "void s000(int n, int *a, int *b) { a[0] = b[0] + 1; }";
        let verdict = run(
            SymbolicStrategy::Alive2Unroll,
            S000,
            no_loop,
            &TvConfig::default(),
        );
        assert!(verdict.is_inconclusive());
    }

    #[test]
    fn a_candidate_without_the_scalars_parameters_is_inconclusive() {
        // It drops the array the scalar reads, so no output array of the
        // scalar can be paired by position; no stage may treat that as
        // agreement.
        let dropped =
            "void s000(int n, int *a) { for (int i = 0; i < n; i++) { a[i] = a[i] + 1; } }";
        for strategy in SymbolicStrategy::ALL {
            assert_eq!(
                run(strategy, S000, dropped, &quick_config()),
                TvVerdict::Inconclusive {
                    reason: "symbolic execution failed: `s000` takes 2 parameters but is bound \
                             to the 3 inputs of `s000`"
                        .to_string()
                }
            );
        }
    }

    #[test]
    fn full_pipeline_reports_stage() {
        // The first strategy of the cascade already concludes.
        let verdict = run(
            SymbolicStrategy::Alive2Unroll,
            S000,
            S000_VEC,
            &quick_config(),
        );
        assert_eq!(verdict, TvVerdict::Equivalent);
    }

    /// A correct candidate whose terms no rewrite makes identical to the
    /// scalar ones (it adds 1 by subtracting -1), so its query is valid,
    /// no assignment falsifies it, and it genuinely reaches the SAT solver.
    const S000_VEC_SUBTRACTS: &str = "void s000(int n, int *a, int *b) { int i; for (i = 0; i + 8 <= n; i += 8) { __m256i x = _mm256_loadu_si256((__m256i *)&b[i]); _mm256_storeu_si256((__m256i *)&a[i], _mm256_sub_epi32(x, _mm256_set1_epi32(-1))); } for (; i < n; i++) { a[i] = b[i] + 1; } }";

    #[test]
    fn tiny_budget_falls_through_to_c_unroll() {
        let config = TvConfig {
            alive2_budget: SolverBudget {
                max_conflicts: 1,
                max_clauses: 50,
            },
            alive2_chunks: 1,
            ..TvConfig::default()
        };
        let alive2 = run(
            SymbolicStrategy::Alive2Unroll,
            S000,
            S000_VEC_SUBTRACTS,
            &config,
        );
        assert!(alive2.is_inconclusive(), "{:?}", alive2);
        let cunroll = run(SymbolicStrategy::CUnroll, S000, S000_VEC_SUBTRACTS, &config);
        assert_eq!(cunroll, TvVerdict::Equivalent);
    }

    #[test]
    fn helpers_expose_alignment_facts() {
        let alignment = align(&f(S000), &f(S000_VEC)).unwrap();
        assert_eq!(alignment.unroll_factor, 8);
        assert!(alignment.assumption().contains("% 8 == 0"));
    }

    #[test]
    fn memo_only_session_produces_identical_verdicts() {
        // Blast memoization alone must be invisible: same verdicts, with
        // cache hits once a structurally repeated query arrives. The
        // subtracting candidate is used for the repeat because its query
        // actually reaches the SAT solver: the correct S000 one simplifies
        // to a constant at the term level, and evaluation refutes a wrong
        // one before it is blasted.
        let config = quick_config();
        let mut memoized = TvSession::with_reuse(TvReuse { memo: true });
        for vector in [
            S000_VEC_SUBTRACTS,
            S000_VEC,
            S000_VEC_WRONG,
            S000_VEC_SUBTRACTS,
        ] {
            let with_memo =
                SymbolicStrategy::CUnroll.run(&f(S000), &f(vector), &config, &mut memoized);
            let plain = run(SymbolicStrategy::CUnroll, S000, vector, &config);
            assert_eq!(with_memo, plain);
        }
        assert!(memoized.reuse_stats().blast_hits > 0);
    }

    #[test]
    fn blendv_with_a_byte_mask_writes_the_low_byte() {
        // set1(128) sets only the low byte's top bit in each lane, so the
        // blend takes b's low byte: not a copy of `a`.
        let copy = "void s(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = a[i]; } }";
        let blend = "void s(int n, int *a, int *b) { int i; for (i = 0; i + 8 <= n; i += 8) { __m256i av = _mm256_loadu_si256((__m256i *)&a[i]); __m256i bv = _mm256_loadu_si256((__m256i *)&b[i]); _mm256_storeu_si256((__m256i *)&a[i], _mm256_blendv_epi8(av, bv, _mm256_set1_epi32(128))); } }";
        let verdict = run(SymbolicStrategy::Alive2Unroll, copy, blend, &quick_config());
        assert!(
            matches!(verdict, TvVerdict::NotEquivalent { .. }),
            "{:?}",
            verdict
        );
    }

    #[test]
    fn blendv_with_a_byte_mask_masks_the_low_byte() {
        let masked =
            "void s(int n, int *a, int *b) { for (int i = 0; i < n; i++) { a[i] = b[i] & 255; } }";
        let blend = "void s(int n, int *a, int *b) { int i; for (i = 0; i + 8 <= n; i += 8) { __m256i bv = _mm256_loadu_si256((__m256i *)&b[i]); _mm256_storeu_si256((__m256i *)&a[i], _mm256_blendv_epi8(_mm256_set1_epi32(0), bv, _mm256_set1_epi32(128))); } }";
        let verdict = run(
            SymbolicStrategy::Alive2Unroll,
            masked,
            blend,
            &quick_config(),
        );
        assert_eq!(verdict, TvVerdict::Equivalent);
    }

    /// The union `written_arrays` used to take: every top-level loop body
    /// walked on its own, then the whole function.
    fn per_loop_written(scalar: &Function, vector: &Function) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        for func in [scalar, vector] {
            let mut walks = vec![collect_accesses(&func.body, "__no_iv__")];
            for l in &lv_analysis::loop_nest(func).loops {
                walks.push(collect_accesses(&l.body, &l.iv));
            }
            for access in walks.into_iter().flat_map(|walk| walk.accesses) {
                if access.kind == AccessKind::Write {
                    out.insert(access.array);
                }
            }
        }
        out
    }

    #[test]
    fn written_arrays_matches_the_per_loop_union_on_every_tsvc_kernel() {
        let mut vectorized = 0;
        for kernel in lv_tsvc::KERNELS {
            let scalar = kernel.function();
            let mut pairs = vec![(scalar.clone(), scalar.clone())];
            if let Ok(candidate) = lv_agents::vectorize_correct(&scalar) {
                pairs.push((scalar.clone(), candidate));
                vectorized += 1;
            }
            for (scalar, vector) in &pairs {
                let names = scalar.array_params();
                let got: BTreeSet<String> = written_arrays(scalar, vector)
                    .into_iter()
                    .map(|k| names[k].to_string())
                    .collect();
                assert!(!got.is_empty(), "{} writes an array", kernel.name);
                assert_eq!(got, per_loop_written(scalar, vector), "{}", kernel.name);
            }
        }
        assert!(vectorized >= 37, "only {} candidates", vectorized);
    }
}
