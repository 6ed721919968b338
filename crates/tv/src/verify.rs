//! The three symbolic verification strategies of Algorithm 1.
//!
//! * [`check_with_alive2_unroll`] — the "out-of-the-box" configuration:
//!   both programs are unrolled by the verifier itself over a two-chunk
//!   window and compared under a tight solver budget (this is the strategy
//!   that most often returns `Inconclusive` on large kernels, as in the
//!   paper);
//! * [`check_with_c_unroll`] — the scalar program is first rewritten by the
//!   source-level unroller of [`crate::cunroll`], which removes the
//!   per-iteration termination checks and shrinks the verification
//!   condition;
//! * [`check_with_spatial_splitting`] — for kernels with no loop-carried
//!   dependences, one query per lane compares a single output index at a
//!   time.
//!
//! All three check *refinement*: on every input on which the scalar program
//! is UB-free, the candidate must also be UB-free and produce identical
//! array contents. Arrays live in distinct regions (non-aliasing, Section
//! 3.1) and trip counts are fixed to multiples of the vectorization width
//! (the paper's `(end1 - start1) % m == 0` assumption).

use crate::align::{align, Alignment};
use crate::cunroll::c_unroll;
use crate::symexec::{sym_exec, SymExecConfig, SymOutcome};
use lv_analysis::{analyze_function, collect_accesses, AccessKind};
use lv_cir::ast::{BinOp, Expr, Function, UnOp};
use lv_smt::{CheckResult, ReuseStats, SimplifyStats, Solver, SolverBudget, Validity};
use std::collections::HashMap;

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

/// Which cross-query solver-reuse mechanisms a [`TvSession`] runs with.
/// Default off: the session then behaves exactly as before the reuse
/// subsystem existed (recycle per query, one-shot solves).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TvReuse {
    /// Blasted-CNF memoization across recycles ([`Solver::enable_blast_memo`]).
    pub memo: bool,
    /// Incremental per-scalar solving: the term context stays warm across
    /// the queries of one scalar's candidate set, scalar-side assertions
    /// are blasted once per strategy into a persistent SAT instance, and
    /// per-candidate assertions enter under an activation literal.
    pub incremental: bool,
    /// SatELite-style CNF preprocessing before every one-shot search
    /// ([`Solver::set_preprocess`]). It runs on the post-replay clause
    /// stream, so memo hits stay clause-identical; incremental sessions
    /// solve unpreprocessed.
    pub preprocess: bool,
}

impl TvReuse {
    /// Everything *reuse* on — the configuration the reuse benchmarks race
    /// against fresh solving. Preprocessing stays off; enable it separately
    /// via the `preprocess` field.
    pub fn full() -> TvReuse {
        TvReuse {
            memo: true,
            incremental: true,
            preprocess: false,
        }
    }
}

/// A reusable verification session: one SMT solver whose allocations are
/// recycled across queries, plus cumulative effort statistics.
///
/// The parallel batch engine gives each worker thread one session for its
/// whole lifetime; the `check_with_*_in` strategy entry points run every
/// query through it. Because [`Solver::recycle`] restores the solver to its
/// just-constructed state, a session produces bit-identical verdicts to
/// constructing a fresh solver per query — it only avoids the reallocation.
///
/// With [`TvReuse::incremental`] enabled, the recycle is instead deferred
/// to *scalar-group boundaries*: consecutive queries against the same
/// scalar kernel keep the term context warm (hash-consing makes re-executed
/// scalar code resolve to already-interned terms) and solve through warm
/// per-strategy SAT instances ([`Solver::check_assuming`]). The engine's
/// scalar-affinity scheduling makes same-scalar jobs consecutive per
/// worker, so the warm context actually gets hit.
#[derive(Debug, Default)]
pub struct TvSession {
    solver: Solver,
    /// Effort accumulated so far; the engine reads deltas of this around
    /// each strategy call to attribute conflicts to pipeline stages.
    pub stats: TvSessionStats,
    reuse: TvReuse,
    /// Structural hash of the scalar whose group currently keeps the
    /// context warm (incremental mode only).
    group: Option<u64>,
}

impl TvSession {
    /// Creates a session with a fresh solver and no reuse.
    pub fn new() -> TvSession {
        TvSession::default()
    }

    /// Creates a session with the given reuse mechanisms enabled.
    pub fn with_reuse(reuse: TvReuse) -> TvSession {
        let mut session = TvSession {
            reuse,
            ..TvSession::default()
        };
        if reuse.memo {
            session.solver.enable_blast_memo();
        }
        session.solver.set_preprocess(reuse.preprocess);
        session
    }

    /// The reuse configuration this session runs with.
    pub fn reuse(&self) -> TvReuse {
        self.reuse
    }

    /// Cumulative solver-reuse counters (all zero when reuse is off).
    pub fn reuse_stats(&self) -> ReuseStats {
        self.solver.reuse_stats()
    }

    /// Cumulative preprocessing counters (all zero when
    /// [`TvReuse::preprocess`] is off).
    pub fn simplify_stats(&self) -> SimplifyStats {
        self.solver.simplify_stats()
    }

    /// Marks the scalar kernel the next queries verify against. In
    /// incremental mode a change of scalar is a group boundary: the warm
    /// context and its sessions belong to the previous scalar and are
    /// recycled. Without incremental reuse this is a no-op (every query
    /// recycles anyway).
    fn enter_scalar(&mut self, scalar: &Function) {
        if !self.reuse.incremental {
            return;
        }
        let hash = lv_cir::structural_hash(scalar);
        if self.group != Some(hash) {
            self.solver.recycle();
            self.group = Some(hash);
        }
    }

    /// Hands out the solver for the next query: recycled per query in
    /// one-shot mode, warm in incremental mode (recycled only at group
    /// boundaries by [`TvSession::enter_scalar`]).
    fn query_solver(&mut self) -> &mut Solver {
        if !self.reuse.incremental {
            self.solver.recycle();
        }
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
    /// A concrete counterexample distinguishes the two programs.
    NotEquivalent {
        /// Human-readable description of the differing input.
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
    /// Returns `true` for [`TvVerdict::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, TvVerdict::Equivalent)
    }

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

/// Which strategy produced the final verdict of [`check_equivalence_symbolic`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TvStage {
    /// Default Alive2-style unrolling.
    Alive2Unroll,
    /// C-level unrolling.
    CUnroll,
    /// Spatial case splitting.
    SpatialSplitting,
}

/// The three symbolic strategies of Algorithm 1 as first-class values, so a
/// verification cascade can be configured, reordered, and dispatched
/// generically by the batch engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SymbolicStrategy {
    /// Default Alive2-style unrolling (Algorithm 1 line 6).
    Alive2Unroll,
    /// C-level unrolling (line 9).
    CUnroll,
    /// Spatial case splitting (line 12).
    SpatialSplitting,
}

impl SymbolicStrategy {
    /// The strategies in Algorithm 1 order.
    pub const ALL: [SymbolicStrategy; 3] = [
        SymbolicStrategy::Alive2Unroll,
        SymbolicStrategy::CUnroll,
        SymbolicStrategy::SpatialSplitting,
    ];

    /// Display label matching Table 3.
    pub fn label(self) -> &'static str {
        match self {
            SymbolicStrategy::Alive2Unroll => "Alive2",
            SymbolicStrategy::CUnroll => "C-Unroll",
            SymbolicStrategy::SpatialSplitting => "Splitting",
        }
    }

    /// Runs this strategy through a reusable session.
    pub fn run(
        self,
        scalar: &Function,
        vector: &Function,
        config: &TvConfig,
        session: &mut TvSession,
    ) -> TvVerdict {
        match self {
            SymbolicStrategy::Alive2Unroll => {
                check_with_alive2_unroll_in(scalar, vector, config, session)
            }
            SymbolicStrategy::CUnroll => check_with_c_unroll_in(scalar, vector, config, session),
            SymbolicStrategy::SpatialSplitting => {
                check_with_spatial_splitting_in(scalar, vector, config, session)
            }
        }
    }
}

/// Runs the three strategies in the order of Algorithm 1 (lines 6–13) and
/// returns the first conclusive verdict together with the stage that
/// produced it. If every stage is inconclusive, the last verdict (and
/// [`TvStage::SpatialSplitting`]) is returned.
pub fn check_equivalence_symbolic(
    scalar: &Function,
    vector: &Function,
    config: &TvConfig,
) -> (TvVerdict, TvStage) {
    let mut session = TvSession::new();
    for strategy in SymbolicStrategy::ALL {
        let verdict = strategy.run(scalar, vector, config, &mut session);
        let stage = match strategy {
            SymbolicStrategy::Alive2Unroll => TvStage::Alive2Unroll,
            SymbolicStrategy::CUnroll => TvStage::CUnroll,
            SymbolicStrategy::SpatialSplitting => TvStage::SpatialSplitting,
        };
        if !verdict.is_inconclusive() || strategy == SymbolicStrategy::SpatialSplitting {
            return (verdict, stage);
        }
    }
    unreachable!("the spatial-splitting arm always returns")
}

/// The Alive2-style strategy: the verifier unrolls both loops itself over a
/// window of [`TvConfig::alive2_chunks`] vector iterations.
pub fn check_with_alive2_unroll(
    scalar: &Function,
    vector: &Function,
    config: &TvConfig,
) -> TvVerdict {
    check_with_alive2_unroll_in(scalar, vector, config, &mut TvSession::new())
}

/// [`check_with_alive2_unroll`] through a caller-provided session.
pub fn check_with_alive2_unroll_in(
    scalar: &Function,
    vector: &Function,
    config: &TvConfig,
    session: &mut TvSession,
) -> TvVerdict {
    session.enter_scalar(scalar);
    let alignment = match align(scalar, vector) {
        Ok(a) => a,
        Err(e) => {
            return TvVerdict::Inconclusive {
                reason: e.to_string(),
            }
        }
    };
    let chunks = config.alive2_chunks.max(1);
    refinement_check(
        scalar,
        vector,
        &alignment,
        chunks,
        config,
        &config.alive2_budget,
        None,
        session,
    )
}

/// The C-level-unrolling strategy: the scalar kernel is rewritten by
/// [`c_unroll`] before symbolic execution, and only a single vector chunk is
/// modelled, producing a much smaller query.
pub fn check_with_c_unroll(scalar: &Function, vector: &Function, config: &TvConfig) -> TvVerdict {
    check_with_c_unroll_in(scalar, vector, config, &mut TvSession::new())
}

/// [`check_with_c_unroll`] through a caller-provided session.
pub fn check_with_c_unroll_in(
    scalar: &Function,
    vector: &Function,
    config: &TvConfig,
    session: &mut TvSession,
) -> TvVerdict {
    session.enter_scalar(scalar);
    let alignment = match align(scalar, vector) {
        Ok(a) => a,
        Err(e) => {
            return TvVerdict::Inconclusive {
                reason: e.to_string(),
            }
        }
    };
    let unrolled = match c_unroll(scalar, alignment.unroll_factor.unsigned_abs() as usize) {
        Ok(f) => f,
        Err(e) => {
            return TvVerdict::Inconclusive {
                reason: e.to_string(),
            }
        }
    };
    refinement_check(
        &unrolled,
        vector,
        &alignment,
        1,
        config,
        &config.cunroll_budget,
        None,
        session,
    )
}

/// The spatial-splitting strategy: only applicable when the conservative
/// syntactic check finds no loop-carried dependence; the equivalence of the
/// whole array is decomposed into one query per lane.
pub fn check_with_spatial_splitting(
    scalar: &Function,
    vector: &Function,
    config: &TvConfig,
) -> TvVerdict {
    check_with_spatial_splitting_in(scalar, vector, config, &mut TvSession::new())
}

/// [`check_with_spatial_splitting`] through a caller-provided session.
pub fn check_with_spatial_splitting_in(
    scalar: &Function,
    vector: &Function,
    config: &TvConfig,
    session: &mut TvSession,
) -> TvVerdict {
    session.enter_scalar(scalar);
    let alignment = match align(scalar, vector) {
        Ok(a) => a,
        Err(e) => {
            return TvVerdict::Inconclusive {
                reason: e.to_string(),
            }
        }
    };
    if let Err(reason) = spatial_eligible(scalar, vector) {
        return TvVerdict::Inconclusive { reason };
    }
    let m = alignment.unroll_factor.unsigned_abs() as usize;
    let mut last_unknown: Option<String> = None;
    for lane in 0..m {
        let verdict = refinement_check(
            scalar,
            vector,
            &alignment,
            1,
            config,
            &config.spatial_budget,
            Some(lane),
            session,
        );
        match verdict {
            TvVerdict::Equivalent => {}
            TvVerdict::NotEquivalent { counterexample } => {
                return TvVerdict::NotEquivalent {
                    counterexample: format!("lane {}: {}", lane, counterexample),
                }
            }
            TvVerdict::Inconclusive { reason } => last_unknown = Some(reason),
        }
    }
    match last_unknown {
        None => TvVerdict::Equivalent,
        Some(reason) => TvVerdict::Inconclusive { reason },
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

/// Builds and discharges one refinement query.
///
/// `chunks` is the number of vector iterations modelled; `compare_lane`
/// restricts the comparison to a single output index (spatial splitting).
#[allow(clippy::too_many_arguments)]
fn refinement_check(
    scalar: &Function,
    vector: &Function,
    alignment: &Alignment,
    chunks: usize,
    config: &TvConfig,
    budget: &SolverBudget,
    compare_lane: Option<usize>,
    session: &mut TvSession,
) -> TvVerdict {
    let m = alignment.unroll_factor.unsigned_abs() as usize;
    let step = alignment.scalar_step.unsigned_abs() as usize;
    let Some(start) = alignment.scalar_loop.start.as_int_lit() else {
        return TvVerdict::Inconclusive {
            reason: "the scalar loop start is not a constant literal".to_string(),
        };
    };
    let start = start.max(0) as usize;
    // The loop must cover exactly `m * chunks` scalar iterations, which
    // realizes the paper's `(end1 - start1) % m == 0` assumption. The bound
    // parameter value achieving that trip count is found numerically from
    // the (possibly complex) bound expression, e.g. `n - 1` for s212.
    let trip = m * chunks;
    let Some(n_value) = find_bound_binding(alignment, trip) else {
        return TvVerdict::Inconclusive {
            reason: format!(
                "could not find a bound value giving {} scalar iterations for the divisibility assumption",
                trip
            ),
        };
    };
    let array_len = start + trip * step + config.array_slack;

    let reuse = session.reuse;
    let solver = session.query_solver();
    let outcome_scalar = exec_side(solver, scalar, n_value, array_len, config);
    let outcome_vector = exec_side(solver, vector, n_value, array_len, config);
    let (src, tgt) = match (outcome_scalar, outcome_vector) {
        (Ok(s), Ok(t)) => (s, t),
        (Err(reason), _) | (_, Err(reason)) => return TvVerdict::Inconclusive { reason },
    };

    // Refinement: whenever the source is UB-free, the target must be UB-free
    // and the observable outputs must agree.
    let mut agree = solver.ctx.bool_const(true);
    let written = written_arrays(scalar, vector);
    for name in &src.array_order {
        let Some(tgt_cells) = tgt.arrays.get(name) else {
            continue;
        };
        if !written.contains(name) {
            continue;
        }
        let src_cells = &src.arrays[name];
        let indices: Vec<usize> = match compare_lane {
            Some(lane) => vec![start + lane],
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

    let verdict = if reuse.incremental {
        // Incremental path: the validity of `no_src_ub -> post` is decided
        // as the unsatisfiability of `no_src_ub && !post`. The scalar-side
        // premise is asserted once into a warm per-(scalar, trip-shape) SAT
        // instance keyed below; each candidate's `!post` then enters under
        // an activation literal and is retracted after the solve, so the
        // next candidate against the same scalar only pays for its own
        // vector-side clauses.
        let key = {
            let mut h = lv_cir::Fnv64::new();
            h.write_u64(lv_cir::structural_hash(scalar));
            h.write_i64(i64::from(n_value));
            h.write_u64(array_len as u64);
            h.finish()
        };
        if !solver.has_incremental_session(key) {
            solver.reset_assertions();
            solver.assert(no_src_ub);
            if let Err(reason) = solver.begin_incremental(key) {
                return TvVerdict::Inconclusive { reason };
            }
        }
        let not_post = solver.ctx.not(post);
        match solver.check_assuming(key, not_post, budget) {
            CheckResult::Unsat => TvVerdict::Equivalent,
            CheckResult::Sat(model) => TvVerdict::NotEquivalent {
                counterexample: render_counterexample(&model.assignments()),
            },
            CheckResult::Unknown(reason) => TvVerdict::Inconclusive { reason },
        }
    } else {
        let vc = solver.ctx.implies(no_src_ub, post);
        match solver.check_validity(vc, budget) {
            Validity::Valid => TvVerdict::Equivalent,
            Validity::Invalid(model) => TvVerdict::NotEquivalent {
                counterexample: render_counterexample(&model.assignments()),
            },
            Validity::Unknown(reason) => TvVerdict::Inconclusive { reason },
        }
    };
    session.absorb_last_query();
    verdict
}

fn exec_side(
    solver: &mut Solver,
    func: &Function,
    n_value: i32,
    array_len: usize,
    config: &TvConfig,
) -> Result<SymOutcome, String> {
    let mut bindings = HashMap::new();
    for name in func.scalar_params() {
        bindings.insert(name.to_string(), n_value);
    }
    let sym_config = SymExecConfig {
        scalar_bindings: bindings,
        array_len,
        max_iterations: config.max_iterations,
        input_prefix: String::new(),
    };
    sym_exec(&mut solver.ctx, func, &sym_config).map_err(|e| e.to_string())
}

/// Arrays written by either function; unread output arrays of the candidate
/// are still compared so that missing stores are caught.
fn written_arrays(scalar: &Function, vector: &Function) -> Vec<String> {
    let mut out = Vec::new();
    for func in [scalar, vector] {
        let nest = lv_analysis::loop_nest(func);
        for l in &nest.loops {
            let body = collect_accesses(&l.body, &l.iv);
            for access in &body.accesses {
                if access.kind == AccessKind::Write && !out.contains(&access.array) {
                    out.push(access.array.clone());
                }
            }
        }
        // Also scan statements outside loops (prologue stores).
        let body = collect_accesses(&func.body, "__no_iv__");
        for access in &body.accesses {
            if access.kind == AccessKind::Write && !out.contains(&access.array) {
                out.push(access.array.clone());
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

fn render_counterexample(assignments: &[(String, i64)]) -> String {
    let interesting: Vec<String> = assignments
        .iter()
        .filter(|(name, _)| !name.starts_with("oob!"))
        .take(16)
        .map(|(name, value)| format!("{} = {}", name, value))
        .collect();
    if interesting.is_empty() {
        "counterexample found (no named inputs)".to_string()
    } else {
        interesting.join(", ")
    }
}

/// Helper used by callers that need the unroll factor without running a
/// verification (e.g. reports): the vector width implied by the candidate.
pub fn unroll_factor_of(scalar: &Function, vector: &Function) -> Option<i64> {
    align(scalar, vector).ok().map(|a| a.unroll_factor)
}

/// Convenience wrapper returning the verification condition's divisibility
/// assumption for reports.
pub fn alignment_assumption(scalar: &Function, vector: &Function) -> Option<String> {
    align(scalar, vector).ok().map(|a| a.assumption())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lv_cir::parse_function;

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

    #[test]
    fn correct_s000_verifies_with_c_unroll() {
        let verdict = check_with_c_unroll(&f(S000), &f(S000_VEC), &quick_config());
        assert_eq!(verdict, TvVerdict::Equivalent);
    }

    #[test]
    fn correct_s000_verifies_with_alive2_unroll() {
        let verdict = check_with_alive2_unroll(&f(S000), &f(S000_VEC), &quick_config());
        assert_eq!(verdict, TvVerdict::Equivalent);
    }

    #[test]
    fn wrong_constant_is_refuted() {
        let verdict = check_with_c_unroll(&f(S000), &f(S000_VEC_WRONG), &quick_config());
        assert!(
            matches!(verdict, TvVerdict::NotEquivalent { .. }),
            "{:?}",
            verdict
        );
    }

    #[test]
    fn s212_correct_vectorization_verifies() {
        let verdict = check_with_c_unroll(&f(S212), &f(S212_VEC), &quick_config());
        assert_eq!(
            verdict,
            TvVerdict::Equivalent,
            "paper Figure 1(b) candidate"
        );
    }

    #[test]
    fn s212_dependence_violation_is_refuted() {
        let verdict = check_with_c_unroll(&f(S212), &f(S212_VEC_WRONG), &quick_config());
        assert!(
            matches!(verdict, TvVerdict::NotEquivalent { .. }),
            "{:?}",
            verdict
        );
    }

    #[test]
    fn spatial_splitting_verifies_simple_kernel() {
        let verdict = check_with_spatial_splitting(&f(S000), &f(S000_VEC), &quick_config());
        assert_eq!(verdict, TvVerdict::Equivalent);
    }

    #[test]
    fn spatial_splitting_rejects_dependent_kernel() {
        let verdict = check_with_spatial_splitting(&f(S212), &f(S212_VEC), &quick_config());
        assert!(verdict.is_inconclusive(), "{:?}", verdict);
    }

    #[test]
    fn missing_epilogue_is_still_equivalent_under_divisibility() {
        // Without an epilogue the candidate only covers multiples of 8, but
        // the verification fixes the trip count to a multiple of 8, so this
        // must verify (the checksum harness is the one that catches it).
        let no_epilogue = "void s000(int n, int *a, int *b) { int i; for (i = 0; i + 8 <= n; i += 8) { __m256i x = _mm256_loadu_si256((__m256i *)&b[i]); _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(x, _mm256_set1_epi32(1))); } }";
        let verdict = check_with_c_unroll(&f(S000), &f(no_epilogue), &quick_config());
        assert_eq!(verdict, TvVerdict::Equivalent);
    }

    #[test]
    fn unvectorizable_shape_is_inconclusive() {
        // A candidate with no loop at all cannot be aligned.
        let no_loop = "void s000(int n, int *a, int *b) { a[0] = b[0] + 1; }";
        let verdict = check_with_alive2_unroll(&f(S000), &f(no_loop), &TvConfig::default());
        assert!(verdict.is_inconclusive());
    }

    #[test]
    fn full_pipeline_reports_stage() {
        let (verdict, stage) = check_equivalence_symbolic(&f(S000), &f(S000_VEC), &quick_config());
        assert_eq!(verdict, TvVerdict::Equivalent);
        assert_eq!(stage, TvStage::Alive2Unroll);
    }

    #[test]
    fn tiny_budget_falls_through_to_c_unroll() {
        // A correct candidate whose terms are *not* structurally identical to
        // the scalar ones (operands of the add are commuted), so the query
        // genuinely reaches the SAT solver and the tiny budget gives up.
        let commuted = "void s000(int n, int *a, int *b) { int i; for (i = 0; i + 8 <= n; i += 8) { __m256i x = _mm256_loadu_si256((__m256i *)&b[i]); _mm256_storeu_si256((__m256i *)&a[i], _mm256_add_epi32(_mm256_set1_epi32(1), x)); } for (; i < n; i++) { a[i] = b[i] + 1; } }";
        let config = TvConfig {
            alive2_budget: SolverBudget {
                max_conflicts: 1,
                max_clauses: 50,
            },
            alive2_chunks: 1,
            ..TvConfig::default()
        };
        let (verdict, stage) = check_equivalence_symbolic(&f(S000), &f(commuted), &config);
        assert_eq!(verdict, TvVerdict::Equivalent);
        assert_eq!(stage, TvStage::CUnroll);
    }

    #[test]
    fn helpers_expose_alignment_facts() {
        assert_eq!(unroll_factor_of(&f(S000), &f(S000_VEC)), Some(8));
        assert!(alignment_assumption(&f(S000), &f(S000_VEC))
            .unwrap()
            .contains("% 8 == 0"));
    }

    /// Verdict class, ignoring counterexample/reason text: an incremental
    /// SAT run may find a different model than a fresh run, but the
    /// Equivalent/NotEquivalent/Inconclusive outcome must agree.
    fn class(v: &TvVerdict) -> &'static str {
        match v {
            TvVerdict::Equivalent => "equivalent",
            TvVerdict::NotEquivalent { .. } => "not-equivalent",
            TvVerdict::Inconclusive { .. } => "inconclusive",
        }
    }

    #[test]
    fn reuse_session_matches_fresh_verdicts_across_candidate_group() {
        // One scalar, a group of candidates (correct, wrong, correct again),
        // every strategy: the warm incremental session must report the same
        // verdict class as a fresh session per query.
        let scalar = f(S000);
        let candidates = [f(S000_VEC), f(S000_VEC_WRONG), f(S000_VEC)];
        let config = quick_config();
        let mut warm = TvSession::with_reuse(TvReuse::full());
        for candidate in &candidates {
            for strategy in SymbolicStrategy::ALL {
                let reused = strategy.run(&scalar, candidate, &config, &mut warm);
                let fresh = strategy.run(&scalar, candidate, &config, &mut TvSession::new());
                assert_eq!(
                    class(&reused),
                    class(&fresh),
                    "{} diverged under reuse",
                    strategy.label()
                );
            }
        }
        // Candidates beyond the first solve through warm instances.
        assert!(warm.reuse_stats().assumption_reuses > 0);
    }

    #[test]
    fn reuse_session_recycles_at_scalar_group_boundaries() {
        // Alternating scalars force group boundaries; returning to an
        // already-seen scalar re-blasts its premise, which the CNF memo
        // replays instead of re-encoding.
        let pairs = [
            (f(S000), f(S000_VEC)),
            (f(S212), f(S212_VEC)),
            (f(S000), f(S000_VEC_WRONG)),
        ];
        let config = quick_config();
        let mut warm = TvSession::with_reuse(TvReuse::full());
        for (scalar, vector) in &pairs {
            let reused = check_with_c_unroll_in(scalar, vector, &config, &mut warm);
            let fresh = check_with_c_unroll(scalar, vector, &config);
            assert_eq!(class(&reused), class(&fresh));
        }
        let stats = warm.reuse_stats();
        assert!(
            stats.blast_hits > 0,
            "revisiting a scalar should replay its memoized premise, stats: {:?}",
            stats
        );
    }

    #[test]
    fn memo_only_session_produces_identical_verdicts() {
        // Blast memoization alone must be invisible: same verdicts, with
        // cache hits once a structurally repeated query arrives. The wrong
        // candidate is used for the repeat because its query actually
        // reaches the SAT solver — the correct S000 one simplifies to a
        // constant at the term level and never blasts.
        let config = quick_config();
        let mut memoized = TvSession::with_reuse(TvReuse {
            memo: true,
            incremental: false,
            preprocess: false,
        });
        for vector in [S000_VEC_WRONG, S000_VEC, S000_VEC_WRONG] {
            let with_memo = check_with_c_unroll_in(&f(S000), &f(vector), &config, &mut memoized);
            let plain = check_with_c_unroll(&f(S000), &f(vector), &config);
            assert_eq!(with_memo, plain);
        }
        assert!(memoized.reuse_stats().blast_hits > 0);
    }

    #[test]
    fn spatial_splitting_shares_one_warm_session_across_lanes() {
        let config = quick_config();
        let mut warm = TvSession::with_reuse(TvReuse::full());
        let verdict = check_with_spatial_splitting_in(&f(S000), &f(S000_VEC), &config, &mut warm);
        assert_eq!(verdict, TvVerdict::Equivalent);
        // All 8 lanes query the same per-scalar instance; lanes after the
        // first reuse it under an assumption.
        assert!(warm.reuse_stats().assumption_reuses >= 8);
    }
}
